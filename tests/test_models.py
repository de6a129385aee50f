"""Model realisations: Toda, DST, and the coupled system — Lax structure,
orbit parameterisations, gauge maps, printed flow equations, Hamiltonian
gradients, compiled flow plans, Lagrangian coefficients, and kinematic
invariants."""
import numpy as np
import pytest

from cyclogaudin import models as mdl
from cyclogaudin.errors import (AdmissibilityError, InvalidOrderError,
                                StructuralError)
from cyclogaudin.gaudin import (FlowId, GaudinCoefficients, assemble_lax,
                                dress, hamiltonian,
                                hamiltonian_coefficient_gradients)


# ---------------------------------------------------------------------------
# Lax structure
# ---------------------------------------------------------------------------

def test_toda_lax_hand_value():
    s = mdl.TodaState(np.zeros(2), np.zeros(2))
    np.testing.assert_allclose(mdl.lax(s).eval(1.0),
                               [[0.0, 2.0], [2.0, 0.0]], atol=1e-14)


def test_toda_lax_residue_is_momentum_diagonal(rng):
    s = mdl.random_toda(3, rng)
    np.testing.assert_allclose(mdl.lax(s).residue(0j), np.diag(s.p),
                               atol=1e-14)


def test_toda_lax_band_pattern(rng):
    # entrywise: L(lam) = diag(p)/lam + sum_i a_i E_{i+1,i}/lam^2
    #            + sum_i E_{i,i+1}, indices mod T
    T = 4
    s = mdl.random_toda(T, rng)
    lam = 0.8 - 0.3j
    a = np.exp(s.q - np.roll(s.q, -1))
    expect = np.zeros((T, T), complex)
    for i in range(T):
        expect[i, i] += s.p[i] / lam
        expect[(i + 1) % T, i] += a[i] / lam ** 2
        expect[i, (i + 1) % T] += 1.0
    np.testing.assert_allclose(mdl.lax(s).eval(lam), expect, atol=1e-13)


def test_dst_lax_residue_on_pole_orbit(rng):
    s = mdl.random_dst(3, rng, zeta1=0.9 + 0.4j)
    K1 = np.outer(s.x, s.X)
    np.testing.assert_allclose(mdl.lax(s).residue(s.zeta1), K1 / s.T,
                               atol=1e-13)


def test_coupled_lax_residue_carries_coupling(rng):
    s = mdl.random_coupled(3, rng, beta=0.6, zeta1=1.1)
    K1 = np.outer(s.x, s.X)
    np.testing.assert_allclose(mdl.lax(s).residue(s.zeta1),
                               s.beta * K1 / s.T, atol=1e-13)


def test_coupled_lax_is_toda_plus_beta_dst(rng):
    toda = mdl.random_toda(3, rng)
    dst = mdl.random_dst(3, rng, zeta1=0.95)
    beta = 0.8
    s = mdl.CoupledState(toda.q.astype(complex), toda.p.astype(complex),
                         dst.x, dst.X, dst.c, dst.zeta1, beta)
    lam = 0.31 + 0.44j
    lhs = mdl.lax(s).eval(lam)
    rhs = mdl.lax(toda).eval(lam) + beta * mdl.lax(dst).eval(lam)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_coupled_lax_beta_zero_is_toda(rng):
    s = mdl.random_coupled(2, rng, beta=0.0, zeta1=1.3)
    toda = mdl.TodaState(s.q.real, s.p.real)
    lam = 0.7 - 0.2j
    np.testing.assert_allclose(mdl.lax(s).eval(lam),
                               mdl.lax(toda).eval(lam), atol=1e-12)


# ---------------------------------------------------------------------------
# orbit parameterisations
# ---------------------------------------------------------------------------

def test_toda_from_orbit_trivial_point():
    s = mdl.toda_from_orbit(np.ones(3), np.zeros(3))
    np.testing.assert_allclose(s.q, 0.0, atol=0)
    np.testing.assert_allclose(s.p, 0.0, atol=0)


def test_toda_orbit_kinematic_identities(rng):
    u = rng.uniform(0.5, 2.0, 4)
    v = rng.uniform(-1.0, 1.0, 4)
    s = mdl.toda_from_orbit(u, v)
    assert abs(np.sum(s.p)) <= 1e-12
    a = np.exp(s.q - np.roll(s.q, -1))
    assert abs(np.prod(a) - 1.0) <= 1e-12


def test_toda_from_orbit_rejects_bad_data(rng):
    with pytest.raises(StructuralError):
        mdl.toda_from_orbit(np.zeros(2), np.zeros(2))
    with pytest.raises(StructuralError):
        mdl.toda_from_orbit(np.array([1.0, -2.0 + 1.0j]), np.zeros(2))


def test_toda_dressing_matches_direct_coefficients(rng):
    u = rng.uniform(0.5, 2.0, 3)
    v = rng.uniform(-1.0, 1.0, 3)
    C = dress(mdl.toda_orbit_data(u, v))
    D = mdl.coefficients(mdl.toda_from_orbit(u, v))
    for a, b in ((C.A0_0, D.A0_0), (C.A0_1, D.A0_1), (C.Ainf, D.Ainf)):
        np.testing.assert_allclose(a, b, atol=1e-13)


def test_dst_from_orbit_identity_matrix():
    s = mdl.dst_from_orbit(np.eye(3), np.zeros(3), 1.0)
    np.testing.assert_allclose(s.x, [1, 0, 0], atol=0)
    np.testing.assert_allclose(s.X, [1, 0, 0], atol=0)


def test_dst_orbit_trace_is_one(rng):
    for _ in range(5):
        s = mdl.random_dst(3, rng, zeta1=1.0)
        assert abs(np.dot(s.x, s.X) - 1.0) <= 1e-10


def test_dst_dressing_matches_direct_coefficients(rng):
    sMat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c = rng.normal(size=3)
    C = dress(mdl.dst_orbit_data(sMat, c, 1.2))
    D = mdl.coefficients(mdl.dst_from_orbit(sMat, c, 1.2))
    np.testing.assert_allclose(C.A_list[0], D.A_list[0], atol=1e-11)
    # Ainf is the unit shift sum_i E_{i,i+1} of the orbit's Laminf
    assert np.array_equal(D.Ainf, C.Ainf)


# ---------------------------------------------------------------------------
# gauge maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("T", [2, 3, 4])
def test_toda_gauge_residual_small_and_lambda_independent(rng, T):
    s = mdl.random_toda(T, rng)
    probes = [complex(rng.uniform(0.5, 1.6)
                      * np.exp(2j * np.pi * rng.uniform())) for _ in range(10)]
    probes.append(1.3 + 0.4j)
    for lam in probes:
        assert mdl.toda_gauge_residual(s, lam) <= 1e-11
    with pytest.raises(StructuralError):
        mdl.toda_gauge_residual(s, 0.0)


@pytest.mark.parametrize("T", [2, 3, 4])
def test_dst_gauge_residual_small(rng, T):
    s = mdl.random_dst(T, rng, zeta1=1.1)
    for _ in range(5):
        lam = complex(rng.uniform(0.4, 0.9)
                      * np.exp(2j * np.pi * rng.uniform()))
        assert mdl.dst_gauge_residual(s, lam) <= 1e-11
    with pytest.raises(StructuralError):
        mdl.dst_gauge_residual(s, 0.0)


# ---------------------------------------------------------------------------
# flow fields: printed equations vs residue-Hamiltonian gradients
# ---------------------------------------------------------------------------

def test_toda_first_flow_example():
    s = mdl.TodaState(np.zeros(3), np.array([1.0, -1.0, 0.0]))
    for field in (mdl.flow_field(s, FlowId(1, 0)),
                  mdl.printed_flow_field(s, FlowId(1, 0))):
        np.testing.assert_allclose(field[:3], [-1.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(field[3:], 0.0, atol=1e-12)


def test_dst_first_flow_example():
    s = mdl.DSTState(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                     np.zeros(2), 1.0)
    v = mdl.printed_flow_field(s, FlowId(1, 1))
    np.testing.assert_allclose(v, [0.5, 1.0, -0.5, -1.0], atol=1e-12)


def test_toda_printed_vs_gradient_flow(rng):
    s = mdl.random_toda(4, rng)
    np.testing.assert_allclose(mdl.flow_field(s, FlowId(1, 0)),
                               mdl.printed_flow_field(s, FlowId(1, 0)),
                               atol=1e-11)


def test_coupled_printed_vs_gradient_flow(rng):
    s = mdl.random_coupled(2, rng, beta=0.5, zeta1=0.9)
    for r in (0, 1):
        np.testing.assert_allclose(mdl.flow_field(s, FlowId(1, r)),
                                   mdl.printed_flow_field(s, FlowId(1, r)),
                                   atol=1e-11)


def test_dst_flows_agree_modulo_scaling_gauge(rng):
    # the two fields may differ only along the gauge direction (x, -X)
    s = mdl.random_dst(3, rng, zeta1=1.05)
    T = s.T
    for r in (0, 1):
        diff = (mdl.flow_field(s, FlowId(1, r))
                - mdl.printed_flow_field(s, FlowId(1, r)))
        g = np.concatenate([s.x, -s.X])
        alpha = np.vdot(g, diff) / np.vdot(g, g)
        assert np.max(np.abs(diff - alpha * g)) <= 1e-11


def test_dst_lax_level_flow_agreement(rng):
    # both fields induce identical derivatives of every product x_i X_j
    s = mdl.random_dst(3, rng, zeta1=0.85)
    T = s.T
    for r in (0, 1):
        va = mdl.flow_field(s, FlowId(1, r))
        vb = mdl.printed_flow_field(s, FlowId(1, r))
        dKa = np.outer(va[:T], s.X) + np.outer(s.x, va[T:])
        dKb = np.outer(vb[:T], s.X) + np.outer(s.x, vb[T:])
        assert np.max(np.abs(dKa - dKb)) <= 1e-11


def test_flow_admissibility_checks(rng):
    toda = mdl.random_toda(2, rng)
    with pytest.raises(AdmissibilityError):
        mdl.flow_field(toda, FlowId(1, 1))
    with pytest.raises(AdmissibilityError):
        mdl.printed_flow_field(mdl.random_dst(2, rng, zeta1=1.0), FlowId(2, 1))


def test_flow_fields_match_finite_difference_of_hamiltonian(rng):
    # directional check of the gradient route on the coupled model
    s = mdl.random_coupled(2, rng, beta=0.7, zeta1=1.15)
    f = FlowId(2, 1)
    g = mdl.hamiltonian_gradient(s, f)
    vec = mdl.pack(s)
    d = rng.normal(size=vec.size) + 1j * rng.normal(size=vec.size)
    eps = 1e-6
    hp = mdl.hamiltonian_value(mdl.unpack(s, vec + eps * d), f)
    hm = mdl.hamiltonian_value(mdl.unpack(s, vec - eps * d), f)
    fd = (hp - hm) / (2 * eps)
    assert abs(fd - np.dot(g, d)) / (1 + abs(fd)) <= 1e-6


def test_gradients_match_finite_difference_of_generic_hamiltonian(rng):
    # the plan's gradients against the generic residue route, which shares
    # no code path with the plan
    cases = [(mdl.random_toda(3, rng), FlowId(2, 0)),
             (mdl.random_dst(2, rng, zeta1=0.9), FlowId(2, 1)),
             (mdl.random_coupled(2, rng, beta=0.7, zeta1=1.15), FlowId(1, 0)),
             (mdl.random_coupled(2, rng, beta=0.7, zeta1=1.15), FlowId(3, 1))]
    eps = 1e-6
    for s, f in cases:
        g = mdl.hamiltonian_gradient(s, f)
        vec = mdl.pack(s)
        d = rng.normal(size=vec.size)
        if not isinstance(s, mdl.TodaState):
            d = d + 1j * rng.normal(size=vec.size)

        def h(v):
            st = mdl.unpack(s, v)
            return hamiltonian(f, mdl.lax(st), mdl.config_of(st))
        fd = (h(vec + eps * d) - h(vec - eps * d)) / (2 * eps)
        assert abs(fd - np.dot(g, d)) / (1 + abs(fd)) <= 1e-6


@pytest.mark.parametrize("T", [2, 3, 4])
def test_coefficient_jets_match_finite_differences(rng, T):
    # slice i of each Jacobian stack is d(coefficient)/d(coordinate i)
    eps = 1e-6

    def flat(C):
        return [C.A0_0, C.A0_1, *C.A_list, C.Ainf]

    for s in (mdl.random_toda(T, rng), mdl.random_dst(T, rng, zeta1=1.1),
              mdl.random_coupled(T, rng, beta=0.6, zeta1=0.9)):
        stacks = flat(mdl.coefficient_jets(s))
        vec = mdl.pack(s)
        assert all(J.shape == (vec.size, T, T) for J in stacks)
        for i in range(vec.size):
            d = np.zeros(vec.size)
            d[i] = eps
            plus = flat(mdl.coefficients(mdl.unpack(s, vec + d)))
            minus = flat(mdl.coefficients(mdl.unpack(s, vec - d)))
            for J, cp, cm in zip(stacks, plus, minus):
                np.testing.assert_allclose(J[i], (cp - cm) / (2 * eps),
                                           atol=1e-8)


def test_coupled_beta_zero_sector_field_is_toda(rng):
    toda = mdl.random_toda(3, rng)
    s = mdl.CoupledState(toda.q.astype(complex), toda.p.astype(complex),
                         0.01 * np.ones(3), 0.01 * np.ones(3),
                         np.zeros(3), 1.0, 0.0)
    T = 3
    v_coupled = mdl.printed_flow_field(s, FlowId(1, 0))
    v_toda = mdl.printed_flow_field(toda, FlowId(1, 0))
    np.testing.assert_allclose(v_coupled[:T], v_toda[:T], atol=1e-12)
    np.testing.assert_allclose(v_coupled[T:2 * T], v_toda[T:], atol=1e-12)


def test_toda_infinity_hamiltonian_balances_origin(rng):
    from cyclogaudin.gaudin import hamiltonian_at_infinity
    s = mdl.random_toda(3, rng)
    L, P = mdl.lax(s), mdl.config_of(s)
    for p in (1, 2, 3):
        h0 = mdl.hamiltonian_value(s, FlowId(p, 0))
        hinf = hamiltonian_at_infinity(p, L, P)
        assert abs(h0 + hinf) <= 1e-11


# ---------------------------------------------------------------------------
# compiled flow plans against the generic Laurent route
# ---------------------------------------------------------------------------

def _support_layout(nb, T):
    """(block, row, column) of each support-vector entry: the diagonal of
    A0_0, the subdiagonal E_{i+1,i} of A0_1, A_1..A_N row major and the
    superdiagonal E_{i,i+1} of Ainf."""
    out = [(0, i, i) for i in range(T)]
    out += [(1, (i + 1) % T, i) for i in range(T)]
    out += [(b, r, c) for b in range(2, nb - 1)
            for r in range(T) for c in range(T)]
    return out + [(nb - 1, i, (i + 1) % T) for i in range(T)]


def _scatter(z, nb, T):
    B = np.zeros((nb, T, T), complex)
    for zq, (b, r, c) in zip(z, _support_layout(nb, T)):
        B[b, r, c] = zq
    return B


def _generic_plan(cfg, f, calls):
    """The generic route in the calling convention of a FlowPlan: assemble
    L from the support vector z, read the gradient matrices off
    hamiltonian_coefficient_gradients and return dH/dz; every call
    appends f to `calls`."""
    nb = cfg.N + 3
    layout = _support_layout(nb, cfg.T)

    def gradient(z):
        calls.append(f)
        B = _scatter(z, nb, cfg.T)
        L = assemble_lax(GaudinCoefficients(B[0], B[1], list(B[2:-1]), B[-1],
                                            cfg.T, validate=False), cfg)
        M00, M01, Ms, Minf = hamiltonian_coefficient_gradients(f, L, cfg, 6)
        M = [M00, M01, *Ms, Minf]
        # M_b = (dH/dA_b)^T
        return np.array([M[b][c, r] for b, r, c in layout])
    return gradient


def _assert_plan_matches_generic(s, f, monkeypatch):
    def close(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-13 * (1 + np.max(np.abs(ref)))

    cfg, z = mdl.config_of(s), mdl.support_vector(s)
    assert np.array_equal(_scatter(z, cfg.N + 3, s.T), mdl._blocks(s))
    calls = []
    close(mdl.flow_plan(cfg, f)(z), _generic_plan(cfg, f, calls)(z))

    def routes():
        return [mdl.flow_field(s, f, 6), mdl.hamiltonian_gradient(s, f, 6),
                mdl.hamiltonian_value(s, f, 6)]
    got = routes()
    with monkeypatch.context() as m:
        m.setattr(mdl, "flow_plan", lambda c, g: _generic_plan(c, g, calls))
        ref = routes()
    # one direct call, then one per route through the installed generic plan
    assert calls == [f] * 4
    for g, r in zip(got, ref):
        close(g, r)


@pytest.mark.parametrize("T", [2, 3, 4, 5])
def test_flow_plan_matches_generic_route(rng, T, monkeypatch):
    # every admissible flow to depth 6; A0_1 is structurally zero for DST
    for s in (mdl.random_toda(T, rng), mdl.random_dst(T, rng, zeta1=0.9),
              mdl.random_coupled(T, rng, beta=0.7, zeta1=0.9),
              mdl.random_coupled(T, rng, beta=0.7, zeta1=0.7 + 0.4j)):
        for f in mdl.admissible_flows(s, 6):
            _assert_plan_matches_generic(s, f, monkeypatch)


def test_flow_plan_cache_keys_and_depth_guard(rng, monkeypatch):
    # interleaved configs that share T, and configs that share zeta1
    a = mdl.random_dst(3, rng, zeta1=0.9)
    b = mdl.DSTState(a.x, a.X, a.c, 1.2 - 0.3j)
    c = mdl.random_dst(2, rng, zeta1=0.9)
    for s in (a, b, c, a, c, b):
        for f in (FlowId(2, 1), FlowId(3, 1)):
            _assert_plan_matches_generic(s, f, monkeypatch)
    f = FlowId(3, 1)
    assert mdl.flow_plan(mdl.config_of(a), f) is not \
        mdl.flow_plan(mdl.config_of(b), f)
    # the depth guard runs before the plan lookup, cached plan or not
    s = mdl.random_toda(3, rng)
    assert mdl.flow_field(s, FlowId(4, 0), 6).shape == (6,)
    with pytest.raises(InvalidOrderError):
        mdl.flow_field(s, FlowId(4, 0))
    with pytest.raises(InvalidOrderError):
        mdl.hamiltonian_gradient(s, FlowId(4, 0))


def _assert_value_matches_generic(s, f):
    ref = hamiltonian(f, mdl.lax(s), mdl.config_of(s), 6)
    got = mdl.hamiltonian_value(s, f, 6)
    assert isinstance(got, complex)
    assert abs(got - ref) <= 1e-13 * (1 + abs(ref))


@pytest.mark.parametrize("T", [2, 3, 4, 5])
def test_hamiltonian_value_matches_generic_oracle(rng, T):
    # Euler's identity on the plan's gradients against gaudin.hamiltonian,
    # every admissible flow to depth 6
    dst = mdl.random_dst(T, rng, zeta1=0.9)
    for s in (mdl.random_toda(T, rng), dst,
              mdl.random_coupled(T, rng, beta=0.7, zeta1=0.9),
              mdl.random_coupled(T, rng, beta=0.7, zeta1=0.7 + 0.4j)):
        for f in mdl.admissible_flows(s, 6):
            _assert_value_matches_generic(s, f)
    # DST (p, 0): zero flow fields, yet H = sum_i c_i^(p+1)/(p+1) from the
    # A0_0 term of the Euler sum alone
    for p in range(1, 7):
        h = mdl.hamiltonian_value(dst, FlowId(p, 0), 6)
        expect = np.sum(dst.c ** (p + 1)) / (p + 1)
        assert abs(expect) > 0
        assert abs(h - expect) <= 1e-13 * (1 + abs(expect))


def test_hamiltonian_value_guards_and_cache_keys(rng):
    s = mdl.random_toda(3, rng)
    _assert_value_matches_generic(s, FlowId(4, 0))
    # the (4, 0) plan is cached; the depth guard still runs first
    with pytest.raises(InvalidOrderError):
        mdl.hamiltonian_value(s, FlowId(4, 0))
    with pytest.raises(AdmissibilityError):
        mdl.hamiltonian_value(s, FlowId(1, 1))
    # interleaved configs that differ only in zeta1
    a = mdl.random_dst(3, rng, zeta1=0.9)
    b = mdl.DSTState(a.x, a.X, a.c, 1.2 - 0.3j)
    for st in (a, b, a, b):
        for f in (FlowId(2, 1), FlowId(3, 1)):
            _assert_value_matches_generic(st, f)


@pytest.mark.parametrize("T", [2, 3, 4])
def test_dst_origin_flows_are_exactly_zero(rng, T):
    # H_{p,0} = sum_i c_i^(p+1)/(p+1) depends on the fixed c alone
    s = mdl.random_dst(T, rng, zeta1=0.9)
    for p in range(1, 7):
        assert np.all(mdl.flow_field(s, FlowId(p, 0), 6) == 0.0)


def test_cyclic_coefficient_path_matches_loops(rng):
    # the per-element loops and np.roll the cyclic index arrays replace
    eps = np.finfo(float).eps
    for T in range(1, 7):
        for s in (mdl.random_toda(T, rng),
                  mdl.random_coupled(T, rng, beta=0.7, zeta1=0.9)):
            q = np.asarray(s.q, complex)
            a = np.exp(q - np.roll(q, -1))
            assert mdl._toda_a(q).tobytes() == a.tobytes()
            J01 = np.zeros((T, T), complex)
            for i in range(T):
                J01[(i + 1) % T, i] = a[i]
            C = mdl.coefficients(s)
            assert C.A0_1.tobytes() == J01.tobytes()
            J00 = np.diag(np.asarray(s.p, complex))
            if isinstance(s, mdl.CoupledState):
                J00 = J00 + s.beta * np.diag(s.c)
            assert C.A0_0.tobytes() == J00.tobytes()
            # gq: the same products and differences; NumPy's vectorised
            # complex product may round with fused multiply-adds
            g = mdl.flow_plan(mdl.config_of(s), FlowId(2, 0))(
                mdl.support_vector(s))[T:2 * T]   # dH/dJ01[i+1, i]
            gq = np.empty(T, complex)
            for i in range(T):
                gq[i] = a[i] * g[i] - a[(i - 1) % T] * g[(i - 1) % T]
            scale = np.max(np.abs(a) * np.abs(g))
            np.testing.assert_allclose(
                mdl._sector_gradients(s, FlowId(2, 0))[0], gq,
                rtol=0, atol=8 * eps * scale)


def _blocks_by_assignment(state):
    # the stack built from a fresh zero array, fancy-index assignments and
    # np.outer: the reference for the support-vector scatter of _blocks
    T = state.T
    i, nxt = np.arange(T), (np.arange(T) + 1) % T
    B = np.zeros((3 if isinstance(state, mdl.TodaState) else 4, T, T), complex)
    B[-1, i, nxt] = 1.0
    if isinstance(state, mdl.DSTState):
        B[0, i, i] = state.c
        B[2] = np.outer(state.x, state.X)
        return B
    B[0, i, i] = state.p
    q = np.asarray(state.q, complex)
    B[1, nxt, i] = np.exp(q - q[nxt])
    if isinstance(state, mdl.CoupledState):
        b = state.beta
        B[0, i, i] += b * state.c
        B[2] = b * np.outer(state.x, state.X)
        B[-1] *= 1.0 + b
    return B


def test_blocks_template_path_matches_assignment(rng):
    for T in range(1, 7):
        states = [mdl.random_toda(T, rng), mdl.random_dst(T, rng, zeta1=0.9)]
        states += [mdl.random_coupled(T, rng, beta=b, zeta1=0.9)
                   for b in (0.0, 0.1, -1.3)]
        for s in states + states:   # the second pass reads cached indices
            B = mdl._blocks(s)
            assert np.array_equal(B, _blocks_by_assignment(s))
            assert B.flags.writeable


# ---------------------------------------------------------------------------
# Lagrangian coefficients and invariants
# ---------------------------------------------------------------------------

def test_beta_zero_hamiltonian_reduction_and_bracket_guard(rng):
    toda = mdl.random_toda(2, rng)
    s = mdl.CoupledState(toda.q.astype(complex), toda.p.astype(complex),
                         0.1 * np.ones(2), 0.1 * np.ones(2),
                         np.zeros(2), 1.0, 0.0)
    # beta = 0: Lax and Lagrangian evaluation stay defined and reduce to
    # Toda for the origin flows, while (x, X) flow generation is barred
    la = complex(mdl.hamiltonian_value(s, FlowId(2, 0)))
    lb = complex(mdl.hamiltonian_value(toda, FlowId(2, 0)))
    assert abs(la - lb) <= 1e-12
    with pytest.raises(AdmissibilityError):
        mdl.jet_context(s)
    with pytest.raises(AdmissibilityError):
        mdl.sectors(s)


def test_lagrangian_coeff_value(rng):
    s = mdl.random_dst(2, rng, zeta1=0.9)
    f = FlowId(1, 1)
    vel = mdl.flow_field(s, f)
    expect = np.dot(s.X, vel[:2]) - mdl.hamiltonian_value(s, f)
    assert abs(mdl.lagrangian_coeff(s, f) - expect) <= 1e-12


def test_invariants_dictionary(rng):
    s = mdl.random_coupled(3, rng, beta=0.4, zeta1=1.0)
    inv = mdl.invariants(s)
    assert set(inv) == {"sum_p", "prod_a", "tr_K1"}
    assert abs(inv["sum_p"] - np.sum(s.p)) <= 1e-12
    assert abs(inv["tr_K1"] - np.dot(s.x, s.X)) <= 1e-12


def test_pack_unpack_roundtrip(rng):
    for s in (mdl.random_toda(3, rng), mdl.random_dst(3, rng, zeta1=1.0),
              mdl.random_coupled(2, rng, zeta1=1.2)):
        s2 = mdl.unpack(s, mdl.pack(s))
        np.testing.assert_allclose(mdl.pack(s2), mdl.pack(s), atol=0)
    with pytest.raises(StructuralError):
        mdl.unpack(mdl.random_toda(2, rng), np.array([1j, 0, 0, 0]))
