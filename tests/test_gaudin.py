"""The abstract hierarchy layer: Lax assembly, orbit dressing, residue
Hamiltonians, weight-0 partners, the isospectral right-hand side, and the
adjoint coefficient gradients."""
import numpy as np
import pytest

from cyclogaudin.algebra import grade_component, primitive_root, sigma_pow
from cyclogaudin import gaudin
from cyclogaudin.errors import (GradingError, InvalidOrderError,
                                PoleProximityError, StructuralError)
from cyclogaudin.gaudin import (FlowId, GaudinCoefficients, OrbitData,
                                PoleConfig, assemble_lax, dress, hamiltonian,
                                hamiltonian_at_infinity,
                                hamiltonian_coefficient_gradients, lax_partner,
                                lax_rhs)
from cyclogaudin.ratmat import (INF, RationalMatrix, binomial_weights,
                                check_equivariance, orbit_family, slot_weight)
from cyclogaudin.suites import _random_coefficients

from conftest import random_matrix


def _setup(rng, T=3, zeta1=0.9 + 0.3j):
    P = PoleConfig(T, (zeta1,))
    C = _random_coefficients(rng, T)
    return P, C, assemble_lax(C, P)


def test_flow_id_validation():
    with pytest.raises(InvalidOrderError):
        FlowId(0, 0)
    with pytest.raises(InvalidOrderError):
        FlowId(1, -1)
    with pytest.raises(InvalidOrderError):
        FlowId(7, 0)
    assert FlowId(6, 0).p == 6
    assert str(FlowId(2, 1)) == "(2,1)"


def test_pole_config_rejects_intersecting_orbits():
    with pytest.raises(PoleProximityError):
        PoleConfig(2, (0.8, -0.8))
    with pytest.raises(PoleProximityError):
        PoleConfig(3, (0.0,))


def test_coefficients_enforce_grading(rng):
    T = 3
    with pytest.raises(GradingError):
        GaudinCoefficients(random_matrix(rng, T), np.zeros((T, T)), [],
                           np.zeros((T, T)), T)


def test_assembled_lax_structure_and_equivariance(rng):
    P, C, L = _setup(rng)
    T = P.T
    root = P.root
    # weight-1 equivariance over the spectral plane
    assert check_equivariance(L, 1, root) <= 1e-11
    # double pole at the origin, simple poles on the full zeta orbit
    assert L.pole_order(0j) == 2
    for k in range(T):
        zk = root.power(k) * P.zetas[0]
        np.testing.assert_allclose(L.residue(zk),
                                   sigma_pow(C.A_list[0], k, root) / T,
                                   atol=1e-13)
    np.testing.assert_allclose(L.residue(0j), np.asarray(C.A0_0), atol=1e-13)


def test_dressing_preserves_orbit_and_normalises_gauge(rng):
    T = 3
    Lam00 = grade_component(random_matrix(rng, T), 0, T)
    Lam01 = grade_component(random_matrix(rng, T), -1, T)
    Laminf = grade_component(random_matrix(rng, T), 1, T)
    phi00 = grade_component(random_matrix(rng, T) + 3 * np.eye(T), 0, T)
    phi01 = grade_component(random_matrix(rng, T), 1, T)
    O = OrbitData(Lam00, Lam01, [], Laminf, phi00, phi01, [], T)
    C = dress(O)
    # A0_1 is conjugation of Lam0_1, so its spectrum is preserved
    ev0 = np.sort_complex(np.linalg.eigvals(np.asarray(Lam01)))
    ev1 = np.sort_complex(np.linalg.eigvals(np.asarray(C.A0_1)))
    np.testing.assert_allclose(ev0, ev1, atol=1e-10)
    # the det-normalisation makes the dressed data scale-invariant
    O2 = OrbitData(Lam00, Lam01, [], Laminf, 2.7 * phi00, 2.7 * phi01, [], T)
    C2 = dress(O2)
    np.testing.assert_allclose(np.asarray(C.A0_0), np.asarray(C2.A0_0),
                               atol=1e-11)
    np.testing.assert_allclose(np.asarray(C.A0_1), np.asarray(C2.A0_1),
                               atol=1e-11)


def test_dressing_rejects_singular_fields(rng):
    T = 2
    zero = np.zeros((T, T))
    with pytest.raises(StructuralError):
        OrbitData(zero, zero, [], zero, zero, zero, [], T)


def test_hamiltonian_residue_sum_vanishes(rng):
    P, C, L = _setup(rng)
    for p in range(1, 7):
        tot = hamiltonian_at_infinity(p, L, P)
        for r in range(P.N + 1):
            tot = tot + hamiltonian(FlowId(p, r), L, P)
        assert abs(tot) <= 1e-10


def test_hamiltonian_depth_and_index_guards(rng):
    P, C, L = _setup(rng)
    with pytest.raises(InvalidOrderError):
        hamiltonian(FlowId(7, 0), L, P)
    with pytest.raises(InvalidOrderError):
        hamiltonian_at_infinity(7, L, P)


def test_every_slot_routine_rejects_a_pole_index_beyond_n(rng):
    # PoleConfig.slot_point owns the range check of r
    from cyclogaudin import models as mdl
    s = mdl.random_dst(3, rng, zeta1=0.9)
    L, P = mdl.lax(s), mdl.config_of(s)
    f = FlowId(1, P.N + 1)
    for routine in (hamiltonian, lax_partner, lax_rhs,
                    hamiltonian_coefficient_gradients):
        with pytest.raises(InvalidOrderError, match="out of range"):
            routine(f, L, P)


def test_lax_partner_is_weight_zero_with_local_principal_part(rng):
    P, C, L = _setup(rng)
    f = FlowId(2, 1)
    h = lax_partner(f, L, P)
    assert check_equivariance(h, 0, P.root) <= 1e-11
    # poles only on the Gamma-orbit of the slot
    orbit = {complex(np.round(P.root.power(k) * P.zetas[0], 10))
             for k in range(P.T)}
    for z in h.pole_points():
        assert complex(np.round(z, 10)) in orbit
    # principal part at the slot matches that of lambda^p L(lambda)^p,
    # formed as a product of rational matrices
    z1 = P.zetas[0]
    G = RationalMatrix(P.T, [np.zeros((P.T, P.T))] * f.p + [np.eye(P.T)])
    for _ in range(f.p):
        G = G.mul(L)
    G = G.laurent_expand(z1, 0)
    h_loc = h.laurent_expand(z1, 2)
    assert G.low == h_loc.low
    for n in range(G.low, 0):
        np.testing.assert_allclose(np.asarray(h_loc.coeff(n)),
                                   np.asarray(G.coeff(n)), atol=1e-11)


def _hand_sized_reads(f, L, P):
    """The partner's principal part, the gradients, H_{p,r}, H_{p,inf}
    and lax_rhs's (dA0_0, dA0_1) as formed before power_series derived
    the expansion orders, each from a margin picked by hand: the
    reference that the derived orders reproduce bit for bit."""
    p, point = f.p, P.slot_point(f.r)
    o = max(L.pole_order(point), 1)
    G = gaudin._times_monomial(L.laurent_expand(point, o * p + 4).power(p),
                               point, p)
    tr = L.laurent_expand(point, o * (p + 1) + 2).power(p + 1).trace_series()
    res = 0j
    for j, w in enumerate(binomial_weights(p, point, p + 1)):
        res = res + complex(w) * complex(tr.coeff(-1 - j))
    tr_inf = L.laurent_expand(INF, p + 3).power(p + 1).trace_series()
    reduced, _ = lax_rhs(f, L, P)
    at0 = reduced.laurent_expand(0j, 0)
    return (G.principal(), gaudin._gradients_from_series(G, f, P),
            slot_weight(point, P.T) * res / (p + 1),
            -complex(tr_inf.coeff(p + 1)) / (p + 1),
            (at0.coeff(-1), at0.coeff(-2)))


def test_derived_orders_match_the_hand_sized_reads_bit_for_bit():
    from cyclogaudin import models as mdl
    rng = np.random.default_rng(0)
    for T in range(2, 6):
        for s in (mdl.random_toda(T, rng),
                  mdl.random_dst(T, rng, zeta1=0.8 + 0.3j),
                  mdl.random_coupled(T, rng, beta=0.7, zeta1=0.8 + 0.3j)):
            L, P = mdl.lax(s), mdl.config_of(s)
            for p in range(1, 7):
                for r in range(P.N + 1):
                    f = FlowId(p, r)
                    prin, grads, H, H_inf, dA0 = _hand_sized_reads(f, L, P)
                    point = P.slot_point(r)
                    poles = ([(0j, prin)] if r == 0 else
                             orbit_family(point, prin, P.root, 0))
                    h = RationalMatrix(T, [], poles, validate=False).trim()
                    h_new = lax_partner(f, L, P)
                    assert [z for z, _ in h_new.poles] == h.pole_points()
                    for (_, a), (_, b) in zip(h_new.poles, h.poles):
                        assert np.array_equal(a, b)
                    M00, M01, Ms, Minf = hamiltonian_coefficient_gradients(
                        f, L, P)
                    for a, b in zip([M00, M01, *Ms, Minf],
                                    [grads[0], grads[1], *grads[2], grads[3]]):
                        assert np.array_equal(a, b)
                    assert hamiltonian(f, L, P) == H
                    assert hamiltonian_at_infinity(p, L, P) == H_inf
                    if p <= 2:
                        D = lax_rhs(f, L, P)[1]
                        assert np.array_equal(D.dA0_0, dA0[0])
                        assert np.array_equal(D.dA0_1, dA0[1])


def test_lax_rhs_matches_finite_difference_of_flow(rng):
    # the isospectral right-hand side [h_+, L]-type combination must equal
    # the derivative of L along the Hamiltonian flow; cross-check the
    # coefficient derivative of A_1 against the adjoint-gradient bracket
    from cyclogaudin import models as mdl
    s = mdl.random_dst(3, rng, zeta1=1.05)
    L = mdl.lax(s)
    P = mdl.config_of(s)
    f = FlowId(2, 1)
    _, D = lax_rhs(f, L, P)
    dA00, dA01, dAs, dAinf = mdl.coefficient_velocity(s, f)
    assert np.max(np.abs(D.dA_list[0] - dAs[0])) <= 1e-11
    assert np.max(np.abs(D.dA0_0 - dA00)) <= 1e-11


def test_lax_rhs_structural_guard_fires(rng, monkeypatch):
    # a constant eps M (M diagonal) added to the partner leaves [L, h] a
    # polynomial part eps [Ainf, M] that no flow may have: the guard's
    # 1e-10 must reject eps = 1e-8 and pass roundoff-sized eps = 1e-13
    from cyclogaudin import models as mdl
    partner = gaudin.lax_partner
    for s in (mdl.random_toda(3, rng), mdl.random_dst(3, rng, zeta1=0.9),
              mdl.random_coupled(2, rng, beta=0.7, zeta1=0.9)):
        L, P = mdl.lax(s), mdl.config_of(s)
        f = mdl.admissible_flows(s, 1)[0]
        M = np.diag(rng.normal(size=s.T))
        for eps in (1e-8, 1e-13):
            monkeypatch.setattr(gaudin, "lax_partner", lambda *a, eps=eps: (
                partner(*a) + RationalMatrix.constant(eps * M)))
            if eps > 1e-10:
                with pytest.raises(StructuralError,
                                   match="unexpected polynomial part"):
                    lax_rhs(f, L, P)
            else:
                lax_rhs(f, L, P)


def test_coefficient_gradients_give_directional_derivatives(rng):
    P, C, L = _setup(rng)
    T = P.T
    f = FlowId(2, 1)
    M00, M01, Ms, Minf = hamiltonian_coefficient_gradients(f, L, P)
    d00 = grade_component(random_matrix(rng, T), 0, T)
    d01 = grade_component(random_matrix(rng, T), -1, T)
    dr = random_matrix(rng, T)
    dinf = grade_component(random_matrix(rng, T), 1, T)
    eps = 1e-6
    vals = []
    for sgn in (1.0, -1.0):
        Cs = GaudinCoefficients(C.A0_0 + sgn * eps * d00,
                                C.A0_1 + sgn * eps * d01,
                                [C.A_list[0] + sgn * eps * dr],
                                C.Ainf + sgn * eps * dinf, T)
        vals.append(hamiltonian(f, assemble_lax(Cs, P), P))
    fd = (vals[0] - vals[1]) / (2 * eps)
    exact = (np.trace(M00 @ d00) + np.trace(M01 @ d01)
             + np.trace(Ms[0] @ dr) + np.trace(Minf @ dinf))
    assert abs(fd - exact) / (1 + abs(exact)) <= 1e-7
