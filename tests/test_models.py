"""Model realisations: Toda, DST, and the coupled system — Lax structure,
orbit parameterisations, gauge maps, printed flow equations, Hamiltonian
gradients, compiled flow plans, Lagrangian coefficients, and kinematic
invariants."""
from dataclasses import replace

import numpy as np
import pytest

from cyclogaudin import dynamics as dyn
from cyclogaudin import models as mdl
from cyclogaudin.errors import (AdmissibilityError, InvalidOrderError,
                                StructuralError)
from cyclogaudin.gaudin import (FlowId, GaudinCoefficients, assemble_lax,
                                dress, hamiltonian,
                                hamiltonian_coefficient_gradients)
from conftest import out_of_place_step, step_bound_ratio


# ---------------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------------

_STATE_ARGS = {
    "toda": (mdl.TodaState, dict(q=[0.5, -0.2], p=[0.1, 0.3])),
    "dst": (mdl.DSTState, dict(x=[0.5, -0.2], X=[0.1, 0.3j], c=[0.2, -0.1],
                               zeta1=0.9)),
    "coupled": (mdl.CoupledState, dict(q=[0.5, -0.2], p=[0.1, 0.3],
                                       x=[0.4, 0.2], X=[0.1, 0.3j],
                                       c=[0.2, -0.1], zeta1=0.9, beta=0.5)),
}


@pytest.mark.filterwarnings("error")   # a ComplexWarning fails the test
@pytest.mark.parametrize("model", sorted(_STATE_ARGS))
def test_state_constructors_check_the_declared_layout(model):
    # one constructor for every class, read off BLOCKS, POLES, SECTORS and
    # REAL: the blocks and c are vectors of one length, the poles nonzero,
    # and a Toda block is real up to _IMAG_TOL
    cls, kw = _STATE_ARGS[model]
    s = cls(**kw)
    assert s.T == 2
    for b in cls.BLOCKS:
        assert getattr(s, b).dtype == (float if cls.REAL else complex)
    assert all(type(getattr(s, z)) is complex for z in cls.POLES)
    vectors = [n for n in kw if n not in cls.POLES and n != "beta"]
    for name in vectors:
        with pytest.raises(StructuralError):   # unequal lengths
            cls(**{**kw, name: [0.1, 0.2, 0.3]})
        with pytest.raises(StructuralError):   # one 2-D block
            cls(**{**kw, name: np.ones((2, 2))})
    with pytest.raises(StructuralError):       # every block 2-D
        cls(**{**kw, **{n: np.ones((2, 2)) for n in vectors}})
    for z in cls.POLES:
        with pytest.raises(StructuralError):
            cls(**{**kw, z: 0.0})
    first = cls.BLOCKS[0]
    tiny = cls(**{**kw, first: [0.5 + 1e-12j, -0.2]})
    if cls.REAL:
        assert getattr(tiny, first).tobytes() \
            == np.array([0.5, -0.2]).tobytes()
        with pytest.raises(StructuralError):
            cls(**{**kw, first: [0.5 + 1.0j, -0.2]})
    else:
        assert getattr(tiny, first)[0] == 0.5 + 1e-12j


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
    # integrate checks every segment's flow, zero-duration ones included,
    # before the first step
    for pairs in ([(FlowId(1, 1), 0.0)],
                  [(FlowId(1, 0), 0.01), (FlowId(1, 1), 0.0)]):
        with pytest.raises(AdmissibilityError):
            dyn.integrate(toda, dyn.Schedule.from_pairs(pairs))


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


def test_support_tangent_is_the_derivative_of_the_write(rng):
    # dz = (dz/dy) dy against central differences of the written z, and a
    # stack of directions row by row as single directions
    eps = 1e-6
    for s in (mdl.random_toda(3, rng), mdl.random_dst(3, rng, zeta1=1.1),
              mdl.random_coupled(3, rng, beta=0.6, zeta1=0.9)):
        w, y = mdl.SupportWriter(s), mdl.pack(s)
        dY = rng.normal(size=(4, y.size))
        if not s.REAL:
            dY = dY + 1j * rng.normal(size=(4, y.size))
        stacked = w.tangent(y, dY)
        for dy, dz in zip(dY, stacked):
            assert dz.tobytes() == w.tangent(y, dy).tobytes()
            plus = w.write(y + eps * dy).copy()   # write reuses its buffer
            fd = (plus - w.write(y - eps * dy)) / (2 * eps)
            np.testing.assert_allclose(dz, fd, atol=1e-7)


def _tangent_by_formula(s, y, dy):
    """dz = (dz/dy) dy written out on the packed blocks: dp; a dq - a dq[nxt]
    with a = exp(q - q[nxt]) of the complex q; dx (beta X)^T + (beta x) dX^T,
    x and X scaled by the 0-d complex beta on the coupled model."""
    T, lead = s.T, dy.shape[:-1]
    at = {b: slice(k * T, (k + 1) * T) for k, b in enumerate(s.BLOCKS)}
    nxt = (np.arange(T) + 1) % T
    dz = np.zeros((*lead, mdl.support_vector(s).size), complex)
    if "q" in at:
        q = np.asarray(y[at["q"]], complex)
        a, dq = np.exp(q - q[nxt]), dy[..., at["q"]]
        dz[..., :T] = dy[..., at["p"]]
        dz[..., T:2 * T] = a * dq - a * dq[..., nxt]
    if "x" in at:
        x, X = y[at["x"]], y[at["X"]]
        if isinstance(s, mdl.CoupledState):
            beta = np.array(s.beta, complex)
            x, X = beta * x, beta * X
        dK = dy[..., at["x"], None] * X + x[:, None] * dy[..., None, at["X"]]
        dz[..., 2 * T:2 * T + T * T] = dK.reshape(*lead, T * T)
    return dz


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_support_tangent_matches_the_formula_bit_for_bit(rng, T):
    # tangent reads a_i off the z it writes; its dz against the formula on
    # the packed blocks, for one direction, a stack of them and the unit
    # directions of coefficient_jets; and since the write goes into the
    # buffer, a kernel's field at y is unchanged by a tangent on the kernel
    for s in (mdl.random_toda(T, rng), mdl.random_dst(T, rng, zeta1=0.9),
              mdl.random_coupled(T, rng, beta=0.7, zeta1=0.9),
              mdl.random_coupled(T, rng, beta=0.0, zeta1=0.7 + 0.4j)):
        writer, n = mdl.SupportWriter(s), mdl.nvars(s)
        for y in [mdl.pack(s), *_packed_near(s, rng, 2)]:
            dY = rng.normal(size=(3, n))
            if not s.REAL:
                dY = dY + 1j * rng.normal(size=(3, n))
            for dy in (dY[0], dY, np.eye(n)):
                assert writer.tangent(y, dy).tobytes() == \
                    _tangent_by_formula(s, y, dy).tobytes()
        y, other = _packed_near(s, rng, 2)
        for f in mdl.admissible_flows(s, 2):
            kernel = mdl.FieldKernel(s, f)
            held = kernel(y).tobytes()
            kernel.tangent(other, dY)
            assert kernel(y).tobytes() == held
            kernel.tangent(y, dY[0])
            assert kernel(y).tobytes() == held
            assert kernel.step(y, 1e-2).tobytes() == \
                mdl.FieldKernel(s, f).step(y, 1e-2).tobytes()


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
    hamiltonian_coefficient_gradients and return dH/dz, per row of a
    stack (lanes) and values by Euler's identity on it; every gradient
    appends f to `calls`."""
    nb = cfg.N + 3
    layout = _support_layout(nb, cfg.T)

    def gradient(z):
        calls.append(f)
        B = _scatter(z, nb, cfg.T)
        L = assemble_lax(GaudinCoefficients(B[0], B[1], list(B[2:-1]), B[-1],
                                            cfg.T, validate=False), cfg)
        M00, M01, Ms, Minf = hamiltonian_coefficient_gradients(f, L, cfg)
        M = [M00, M01, *Ms, Minf]
        # M_b = (dH/dA_b)^T
        return np.array([M[b][c, r] for b, r, c in layout])
    gradient.lanes = lambda Z: np.array([gradient(z) for z in Z])
    gradient.values = lambda Z: [complex(z @ gradient(z)) / (f.p + 1)
                                 for z in Z]
    return gradient


def _bracket_gradient(s, v):
    """dH from the flow field v of the state by the sector brackets:
    dH/dP = -sign w dQ/dt and dH/dQ = sign w dP/dt, w = 1 or the weight."""
    T, g = s.T, np.empty(v.size, complex)
    for Q, P, sign, weight in s.SECTORS:
        sw = getattr(mdl, sign) * (1.0 if weight is None else getattr(s, weight))
        q, p = s.BLOCKS.index(Q) * T, s.BLOCKS.index(P) * T
        g[p:p + T], g[q:q + T] = -sw * v[q:q + T], sw * v[p:p + T]
    return g


def _assert_plan_matches_generic(s, f, monkeypatch):
    def close(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-13 * (1 + np.max(np.abs(ref)))

    cfg, z = mdl.config_of(s), mdl.support_vector(s)
    assert np.array_equal(_scatter(z, cfg.N + 3, s.T),
                          _as_blocks(mdl.coefficients(s)))
    calls = []
    close(mdl.flow_plan(cfg, f).lanes(z[None])[0],
          _generic_plan(cfg, f, calls)(z))
    got = [mdl.flow_field(s, f), mdl.hamiltonian_gradient(s, f),
           mdl.hamiltonian_value(s, f)]
    # the kernel's call runs the plan product over the plan's arrays, so the
    # field's reference is the chain rule written out on the state, which
    # reads dH/dz off the installed plan as the value does; the gradient's
    # is the bracket map of that field
    with monkeypatch.context() as m:
        m.setattr(mdl, "flow_plan", lambda c, g: _generic_plan(c, g, calls))
        field = _concatenated_route_field(s, mdl.pack(s), f)
        ref = [field, _bracket_gradient(s, field), mdl.hamiltonian_value(s, f)]
    # one direct call, then one per route through the installed generic plan
    assert calls == [f] * 3
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
    # flows to depth 6 need no extra argument; p = 7 is rejected when the
    # FlowId is built, before any plan lookup
    s = mdl.random_toda(3, rng)
    assert mdl.flow_field(s, FlowId(6, 0)).shape == (6,)
    with pytest.raises(InvalidOrderError):
        mdl.flow_field(s, FlowId(7, 0))
    with pytest.raises(InvalidOrderError):
        mdl.hamiltonian_gradient(s, FlowId(7, 0))


def _assert_value_matches_generic(s, f):
    ref = hamiltonian(f, mdl.lax(s), mdl.config_of(s))
    got = mdl.hamiltonian_value(s, f)
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
        h = mdl.hamiltonian_value(dst, FlowId(p, 0))
        expect = np.sum(dst.c ** (p + 1)) / (p + 1)
        assert abs(expect) > 0
        assert abs(h - expect) <= 1e-13 * (1 + abs(expect))


def test_hamiltonian_value_guards_and_cache_keys(rng):
    s = mdl.random_toda(3, rng)
    _assert_value_matches_generic(s, FlowId(6, 0))
    # depth 6 is the limit, whatever plans are cached
    with pytest.raises(InvalidOrderError):
        mdl.hamiltonian_value(s, FlowId(7, 0))
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
        assert np.all(mdl.flow_field(s, FlowId(p, 0)) == 0.0)


def _zero_flag_templates(T, rng):
    """The kernel templates, plus constant zeros in z: c = 0 on the A0_0
    diagonal of DST, 1 + beta = 0 on Ainf of the coupled model."""
    yield from _kernel_templates(T, rng)
    d = mdl.random_dst(T, rng, zeta1=0.9)
    yield mdl.DSTState(d.x, d.X, np.zeros(T), d.zeta1)
    yield mdl.random_coupled(T, rng, beta=-1.0, zeta1=0.9)


def _seeded_states(tmpl, rng, n=5):
    """n states with the template's parameters and perturbed coordinates."""
    out = []
    for _ in range(n):
        y = mdl.pack(tmpl) + 0.3 * rng.normal(size=mdl.nvars(tmpl))
        if not isinstance(tmpl, mdl.TodaState):
            y = y + 0.3j * rng.normal(size=y.size)
        out.append(mdl.unpack(tmpl, y))
    return out


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_structural_zero_flag_matches_flow_field(rng, T):
    # kernel.zero, proved from the plan's sparsity alone, against the
    # field itself: flagged flows are exactly zero on every state with
    # the template's parameters, unflagged ones nonzero on every one
    flagged = set()
    for tmpl in _zero_flag_templates(T, rng):
        states = _seeded_states(tmpl, rng)
        for f in mdl.admissible_flows(tmpl, 6):
            kernel = mdl.FieldKernel(tmpl, f)
            assert [not np.any(mdl.flow_field(s, f)) for s in states] \
                == [kernel.zero] * len(states), (type(tmpl).__name__, f)
            if kernel.zero:
                flagged.add((type(tmpl), f))
    # the flows (p, 0) of DST, whose H depends on the fixed c alone
    assert flagged == {(mdl.DSTState, FlowId(p, 0)) for p in range(1, 7)}


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_flagged_hamiltonians_depend_on_parameters_alone(rng, T):
    # the generic route (gaudin.hamiltonian on the assembled Lax matrix,
    # not the plan) for every flagged flow: unchanged under random changes
    # of the coordinates, and equal to sum_i c_i^(p+1)/(p+1) times the
    # slot weight (1 at r = 0, T at r >= 1)
    checked = 0
    for tmpl in _zero_flag_templates(T, rng):
        for f in mdl.admissible_flows(tmpl, 6):
            if not mdl.FieldKernel(tmpl, f).zero:
                continue
            weight = 1.0 if f.r == 0 else T
            expect = weight * np.sum(tmpl.c ** (f.p + 1)) / (f.p + 1)
            for s in (tmpl, *_seeded_states(tmpl, rng)):
                h = hamiltonian(f, mdl.lax(s), mdl.config_of(s))
                assert abs(h - expect) <= 1e-13 * (1 + abs(expect)), (f, h)
            checked += 1
    assert checked == 2 * 6 + 6     # two DST templates with c, one c = 0


def test_structural_zero_cache_keys(rng):
    # one plan, two support patterns: the flag is the state class's,
    # whatever c and beta are (c = 0 or nonzero, 1 + beta = 0 or not), and
    # follows the coordinate entries of the model (the coupled model shares
    # the plans of DST and is never flagged)
    d = mdl.random_dst(3, rng, zeta1=0.9)
    c = mdl.random_coupled(3, rng, beta=0.7, zeta1=0.9)
    assert mdl.flow_plan(mdl.config_of(d), FlowId(2, 0)) \
        is mdl.flow_plan(mdl.config_of(c), FlowId(2, 0))
    for tmpl, zero in ((d, True), (c, False),
                       (mdl.DSTState(d.x, d.X, np.zeros(3), d.zeta1), True),
                       (replace(c, c=np.zeros(3), beta=-1.0), False),
                       (d, True), (c, False)):
        for kernel in (mdl.FieldKernel(tmpl, FlowId(2, 0)),
                       mdl.field_kernel(tmpl, FlowId(2, 0))):
            assert kernel.zero is zero
            kernel(mdl.pack(tmpl))          # rewrites the coordinate entries
            assert kernel.zero is zero
    with pytest.raises(AttributeError):
        kernel.zero = True


@pytest.mark.parametrize("T", [2, 3])
def test_zero_proof_reads_the_class_pattern(monkeypatch, rng, T):
    # a kernel proves zero on its class's pattern (_class_layout), never on
    # its template's z: on DST with c = 0 and the coupled model with
    # beta = -1 the value-based pattern coords | (z != 0) differs from it.
    # field_kernel then hands every template of the key the kernel, and
    # the zero, of its one build
    patterns, vanishes = [], mdl.FlowPlan.vanishes

    def spy(plan, nonzero, read):
        patterns.append(nonzero.copy())
        return vanishes(plan, nonzero, read)
    monkeypatch.setattr(mdl.FlowPlan, "vanishes", spy)
    monkeypatch.setattr(mdl, "_KERNELS", {})
    d = mdl.random_dst(T, rng, zeta1=0.9)
    c = mdl.random_coupled(T, rng, beta=0.7, zeta1=0.9)
    for special, generic in ((replace(d, c=np.zeros(T)), d),
                             (replace(c, beta=-1.0), c)):
        pattern = mdl._class_layout(type(special), T)[-1]
        writer = mdl.SupportWriter(special)
        assert (writer.coords | (writer.z != 0) != pattern).any()
        for f in mdl.admissible_flows(special, 3):
            patterns.clear()
            kernel = mdl.field_kernel(special, f)
            zero = kernel.zero
            for tmpl in (generic, special):
                assert mdl.field_kernel(tmpl, f) is kernel
                assert kernel.zero == zero
            assert len(patterns) == 1
            assert np.array_equal(patterns[0], pattern)


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
            g = mdl.flow_plan(mdl.config_of(s), FlowId(2, 0)).lanes(
                mdl.support_vector(s)[None])[0, T:2 * T]   # dH/dJ01[i+1, i]
            gq = np.empty(T, complex)
            for i in range(T):
                gq[i] = a[i] * g[i] - a[(i - 1) % T] * g[(i - 1) % T]
            scale = np.max(np.abs(a) * np.abs(g))
            np.testing.assert_allclose(
                mdl.hamiltonian_gradient(s, FlowId(2, 0))[:T], gq,
                rtol=0, atol=8 * eps * scale)


def _as_blocks(C):
    """The Lax coefficients [A0_0, A0_1, A_1..A_N, Ainf] as one block stack
    (..., nb, T, T)."""
    return np.stack([C.A0_0, C.A0_1, *C.A_list, C.Ainf], axis=-3)


def _blocks_by_assignment(state):
    # the stack built from a fresh zero array, fancy-index assignments and
    # np.outer: the reference for the support-vector scatter, mdl._scatter
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
            C = mdl.coefficients(s)
            assert np.array_equal(_as_blocks(C), _blocks_by_assignment(s))
            assert all(A.flags.writeable
                       for A in (C.A0_0, C.A0_1, *C.A_list, C.Ainf))


def _kernel_templates(T, rng):
    yield mdl.random_toda(T, rng)
    for zeta1 in (0.9, 0.7 + 0.4j):
        yield mdl.random_dst(T, rng, zeta1=zeta1)
    for beta in (0.1, 0.7, -1.3, 0.0):
        yield mdl.random_coupled(T, rng, beta=beta, zeta1=0.9)


def _concatenated_support(s):
    """The support vector z of the state, concatenated from its arrays."""
    T = s.T
    if isinstance(s, mdl.DSTState):
        return np.concatenate([s.c, np.zeros(T),
                               (s.x[:, None] * s.X[None, :]).ravel(), np.ones(T)])
    q = np.asarray(s.q, complex)
    a = np.exp(q - np.roll(q, -1))               # a_i = exp(q_i - q_{i+1})
    if isinstance(s, mdl.TodaState):
        return np.concatenate([s.p, a, np.ones(T)])
    b = s.beta
    return np.concatenate([s.p + b * s.c, a,
                           (b * (s.x[:, None] * s.X[None, :])).ravel(),
                           np.full(T, 1.0 + b)])


def _concatenated_route_field(tmpl, y, f):
    """The flow field at the state packed as y, built without FieldKernel
    or SupportWriter: z concatenated from the unpacked state's arrays, the
    flow's FlowPlan, and the chain rule written out on the state."""
    s = mdl.unpack(tmpl, y)
    T = s.T
    z = _concatenated_support(s)
    g = mdl.flow_plan(mdl.config_of(s), f).lanes(z[None])[0]
    if not isinstance(s, mdl.DSTState):
        gp = g[:T]
        t = z[T:2 * T] * g[T:2 * T]
        gq = t - np.roll(t, 1)                   # a_i g_i - a_{i-1} g_{i-1}
        if isinstance(s, mdl.TodaState):
            return np.concatenate([-gp, gq]).real
    GK = g[2 * T:2 * T + T * T].reshape(T, T)
    gx, gX = GK @ s.X, GK.T @ s.x
    if isinstance(s, mdl.DSTState):
        return np.concatenate([gX, -gx])
    return np.concatenate([-gp, gq, gX, -gx])


def _route_error_bound(tmpl, y, f):
    """A bound on |kernel field - concatenated route field| at y, from the
    forward error of a product chain (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Lemma 3.3 and sec. 3.5-3.6): both
    routes compute the same chain on the same z, each within
    sqrt(2) gamma_K s of the exact field, so the two differ by at most
    twice that.  s is the chain and chain rule on absolute values.  K sums
    the inner lengths k + 2 of the chain's complex products (sqrt(2)
    gamma_2 per complex multiply): p factors S = E z, p - 1 products by W,
    the read-out and the chain rule (a factor times g, summed over at most
    T terms).  At p = 1 the kernel's Q E is the same two inner products."""
    s = mdl.unpack(tmpl, y)
    T = s.T
    plan = mdl.flow_plan(mdl.config_of(s), f)
    z = np.abs(_concatenated_support(s))
    S = np.abs(plan.expand) @ z
    P = S[:-1].reshape(plan.take.shape[0], -1)
    for _ in range(f.p - 1):
        P = S[plan.take] @ P
    g = np.abs(plan.readout) @ P.reshape(-1)
    parts = []
    if not isinstance(s, mdl.DSTState):
        t = z[T:2 * T] * g[T:2 * T]
        parts += [g[:T], t + np.roll(t, 1)]
    if not isinstance(s, mdl.TodaState):
        GK = g[2 * T:2 * T + T * T].reshape(T, T)
        parts += [GK.T @ np.abs(s.x), GK @ np.abs(s.X)]
    nE, kW, kR = plan.expand.shape[1], plan.take.shape[1], plan.readout.shape[1]
    K = f.p * (nE + 2) + (f.p - 1) * (kW + 2) + (kR + 2) + (T + 2)
    u = np.finfo(float).eps / 2
    return 2 * np.sqrt(2) * K * u / (1 - K * u) * np.concatenate(parts)


@pytest.mark.parametrize("T", [1, 2, 3, 4])
def test_field_kernel_matches_flow_field_bit_for_bit(rng, T):
    # one kernel per (template, flow), applied in turn to the packed
    # vectors of other states with the template's parameters: a kernel
    # that kept a stale coordinate entry of z would differ from the
    # references, which start from a fresh state each time; the
    # concatenated route shares no code with the kernel's z write or
    # chain rule, so a departure of both from it shows too
    for tmpl in _kernel_templates(T, rng):
        real = isinstance(tmpl, mdl.TodaState)
        ys = []
        for _ in range(5):
            y = mdl.pack(tmpl) + 0.3 * rng.normal(size=mdl.nvars(tmpl))
            ys.append(y if real else y + 0.3j * rng.normal(size=y.size))
        # a real packed vector, which unpack casts to complex off Toda
        ys.append(mdl.pack(tmpl).real + 0.3 * rng.normal(size=mdl.nvars(tmpl)))
        for f in mdl.admissible_flows(tmpl, 6):
            kernel = mdl.FieldKernel(tmpl, f)
            refs = [mdl.flow_field(mdl.unpack(tmpl, y), f) for y in ys]
            for y, ref in zip(ys, refs):
                v = kernel(y)
                assert v.dtype == ref.dtype
                assert np.array_equal(v, ref)
                assert np.all(np.abs(v - _concatenated_route_field(tmpl, y, f))
                              <= _route_error_bound(tmpl, y, f))
            # RK4 holds k1..k4 at once: two calls of one kernel return
            # distinct arrays, and a result held from the first call is
            # unchanged by the second
            first = kernel(ys[0])
            held = first.copy()
            second = kernel(ys[1])
            assert second is not first and not np.shares_memory(first, second)
            assert first.tobytes() == held.tobytes()
            assert second.tobytes() == refs[1].tobytes()
        # the coordinate entries of z differ between the inputs
        writer = mdl.SupportWriter(tmpl)
        zs = [writer.write(y).copy() for y in ys]
        assert not any(np.array_equal(zs[0], z) for z in zs[1:])
        assert all(np.array_equal(z, mdl.support_vector(mdl.unpack(tmpl, y)))
                   for z, y in zip(zs, ys))
        # z from real packed vectors: exp of a real q can round differently
        # from exp of the complex q that unpack makes, so draw many
        for _ in range(100):
            y = mdl.pack(tmpl).real + rng.normal(size=mdl.nvars(tmpl))
            assert np.array_equal(
                writer.write(y), _concatenated_support(mdl.unpack(tmpl, y)))


def _parent_chain_rule(tmpl, g, a, y, neg_q, neg_x):
    """The field from dH/dz = g as the kernel wrote it before the pair
    read-out: a holds the z entries a_i, y is the packed vector, and
    neg_q, neg_x say whether a sector's Q block is the negated one."""
    T, v = tmpl.T, np.zeros(mdl.nvars(tmpl), complex)
    at = {b: slice(k * T, (k + 1) * T) for k, b in enumerate(tmpl.BLOCKS)}
    if "q" in at:
        t = a * g[T:2 * T]
        dq = t - np.roll(t, 1)                   # a_i g_i - a_{i-1} g_{i-1}
        v[at["q"]], v[at["p"]] = (-g[:T], dq) if neg_q else (g[:T], -dq)
    if "x" in at:
        GK = g[2 * T:2 * T + T * T].reshape(T, T)
        gx, gX = GK.T @ y[at["x"]], GK @ y[at["X"]]
        v[at["x"]], v[at["X"]] = (-gx, gX) if neg_x else (gx, -gX)
    return v


def _chain_rule_coefficients(tmpl, nz, neg_q, neg_x):
    """coef[k, f, l]: the factor aug[f] times dH/dz_l that field entry k
    reads in _parent_chain_rule, over aug = [z | y | 1], found by probing
    it with unit g and unit factors (it is affine in the factors)."""
    T, n = tmpl.T, mdl.nvars(tmpl)
    coef = np.zeros((n, nz + n + 1, nz))
    factors = [nz + j for j in range(n)]
    if "q" in tmpl.BLOCKS:
        factors += [T + i for i in range(T)]
    units = np.eye(nz + n + 1)
    for l in range(nz):
        g = units[l, :nz]
        base = _parent_chain_rule(tmpl, g, np.zeros(T), np.zeros(n),
                                  neg_q, neg_x)
        coef[:, -1, l] = base.real
        for f in factors:
            aug = units[f]
            coef[:, f, l] = (_parent_chain_rule(
                tmpl, g, aug[T:2 * T], aug[nz:-1], neg_q, neg_x) - base).real
    return coef


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_pair_readout_matches_chain_rule(rng, T, monkeypatch):
    # the pairs against the parent chain rule, probed with unit g and unit
    # factors: each pair's signed read of g is a (field entry, factor, g)
    # entry that the chain rule reads; at T = 1 the two p-row pairs cancel,
    # as a_0 g_0 - a_0 g_0 does
    templates = [mdl.random_toda(T, rng)]
    templates += [mdl.random_dst(T, rng, zeta1=z) for z in (0.9, 0.7 + 0.4j)]
    templates += [mdl.random_coupled(T, rng, beta=b, zeta1=0.9)
                  for b in (0.1, -1.3, 0.0)]
    signs = [(pq, xx) for pq in (1.0, -1.0) for xx in (1.0, -1.0)]

    def neg(cls, pq, xx):   # one flag per sector: its Q block is negated
        flags = {"SECTOR_SIGN_PQ": pq > 0, "SECTOR_SIGN_XX": xx > 0}
        return tuple(flags[sign] for _, _, sign, _ in cls.SECTORS)
    for tmpl in templates:
        cls, nz, n = type(tmpl), mdl.support_vector(tmpl).size, mdl.nvars(tmpl)
        for pq, xx in signs:
            neg_q, neg_x = pq > 0, xx > 0
            rows, at, C = mdl.pair_readout(cls, T, neg(cls, pq, xx))
            assert np.array_equal(np.abs(C).sum(axis=0), np.ones(len(at)))
            assert set(np.unique(C)) <= {-1.0, 0.0, 1.0}
            coef = np.zeros((n, nz + n + 1, nz))
            for j, k in enumerate(np.abs(C).argmax(axis=0)):
                coef[k, at[j], rows[j]] += C[k, j].real
            assert np.array_equal(
                coef, _chain_rule_coefficients(tmpl, nz, neg_q, neg_x))
        # the kernels' fields under every pair of sector signs against the
        # chain rule on the plan's dH/dz; a kernel built before a flip keeps
        # its field after one, and after kernels of the flipped signs ran.
        # At p > 1 the kernel's Q reads the plan's read-out rows bit for bit,
        # on a complex model as a view of them
        y = _packed_near(tmpl, rng, 1)[0]
        for f in mdl.admissible_flows(tmpl, 3):
            before = mdl.FieldKernel(tmpl, f)
            held = before(y)
            for pq, xx in signs:
                with monkeypatch.context() as m:
                    m.setattr(mdl, "SECTOR_SIGN_PQ", pq)
                    m.setattr(mdl, "SECTOR_SIGN_XX", xx)
                    kernel = mdl.FieldKernel(tmpl, f)
                    z = mdl.SupportWriter(tmpl).write(y)
                    g = kernel.plan.lanes(z[None])[0]
                    ref = _parent_chain_rule(tmpl, g, z[T:2 * T], y,
                                             pq > 0, xx > 0)
                    v = kernel(y)
                    assert np.max(np.abs(v - ref)) <= \
                        1e-13 * (1 + np.max(np.abs(ref)))
                    _, Q, r, _, _ = mdl.kernel_tensors(kernel.plan, tmpl)
                    rows = mdl.pair_readout(cls, T, neg(cls, pq, xx))[0]
                    R = kernel.plan.readout
                    if f.p > 1:
                        assert np.array_equal(Q[r], R[rows])
                        assert tmpl.REAL or np.shares_memory(Q, R)
                assert before(y).tobytes() == held.tobytes()


def test_field_kernel_guards(rng, monkeypatch):
    toda = mdl.random_toda(3, rng)
    kernel = mdl.FieldKernel(toda, FlowId(2, 0))
    y = mdl.pack(toda).astype(complex)
    assert np.array_equal(kernel(y), mdl.flow_field(toda, FlowId(2, 0)))
    # a Toda field is float64 by construction: the kernel proves its plan's
    # E and Q real when it is built, and one imaginary read-out entry,
    # however small, is refused there; field_kernel memoises no refused
    # kernel
    assert kernel(y).dtype == np.float64
    bad = object.__new__(mdl.FlowPlan)
    for name in mdl.FlowPlan.__slots__:
        setattr(bad, name, getattr(kernel.plan, name))
    bad.readout = kernel.plan.readout.copy()
    bad.readout.imag[0, 0] = 1e-300
    with monkeypatch.context() as m:
        m.setattr(mdl, "flow_plan", lambda cfg, f: bad)
        m.setattr(mdl, "_KERNELS", {})
        with pytest.raises(StructuralError):
            mdl.FieldKernel(toda, FlowId(2, 0))
        with pytest.raises(StructuralError):
            mdl.field_kernel(toda, FlowId(2, 0))
        assert mdl._KERNELS == {}
    y[1] += 1e-6j
    with pytest.raises(StructuralError):
        mdl.unpack(toda, y)
    with pytest.raises(StructuralError):
        kernel(y)
    with pytest.raises(AdmissibilityError):
        mdl.FieldKernel(toda, FlowId(1, 1))
    with pytest.raises(InvalidOrderError):
        mdl.FieldKernel(toda, FlowId(7, 0))
    with pytest.raises(InvalidOrderError):
        mdl.FieldKernel(mdl.random_dst(2, rng, zeta1=0.9), FlowId(7, 1))
    with pytest.raises(InvalidOrderError):
        dyn._field_of(toda, FlowId(7, 0))


def test_field_kernel_memo_keys(rng, monkeypatch):
    # one memoised kernel per (plan, class and T, sector signs): templates
    # that differ only in c or beta (by one ulp, or in the sign of a zero)
    # share one, each fetch bit for bit a kernel built fresh for its
    # template, whatever their coordinates; another zeta1, flow, sector
    # sign or plan gets a kernel of its own
    T = 3
    dst = mdl.random_dst(T, rng, zeta1=0.9)
    cpl = mdl.random_coupled(T, rng, beta=0.7, zeta1=0.9)
    toda = mdl.random_toda(T, rng)
    c0 = dst.c.copy()
    c0[1] = complex(0.0, c0[1].imag)
    cn = c0.copy()
    cn[1] = complex(-0.0, c0[1].imag)
    groups = [
        [dst, replace(dst, c=np.nextafter(dst.c.real, 9) + 1j * dst.c.imag),
         replace(dst, c=c0), replace(dst, c=cn)],
        [replace(dst, zeta1=0.7 + 0.4j)],
        [cpl, replace(cpl, beta=np.nextafter(cpl.beta, 9.0)),
         replace(cpl, c=dst.c), replace(cpl, beta=0.0),
         replace(cpl, beta=-0.0)],
        [replace(cpl, zeta1=0.9j)], [toda]]
    variants = [t for group in groups for t in group]

    def flow(t):
        return FlowId(2, len(t.POLES))
    kernels = [mdl.field_kernel(t, flow(t)) for t in variants]
    assert len({id(k) for k in kernels}) == len(groups)
    assert [len({id(mdl.field_kernel(t, flow(t))) for t in group})
            for group in groups] == [1] * len(groups)
    for t, kernel in zip(variants, kernels):
        y = _packed_near(t, rng, 1)[0]
        assert mdl.field_kernel(t, flow(t)) is kernel   # loads t
        assert kernel(y).tobytes() == mdl.FieldKernel(t, flow(t))(y).tobytes()
        moved = replace(t, **{b: getattr(t, b) + 0.25 for b in t.BLOCKS})
        assert mdl.field_kernel(moved, flow(t)) is kernel
        assert mdl.field_kernel(t, FlowId(1, 0)) is not kernel
    # a flipped sector sign gets fresh kernels, memoised under it; the old
    # kernels come back once the flip is undone
    for name in ("SECTOR_SIGN_PQ", "SECTOR_SIGN_XX"):
        with monkeypatch.context() as m:
            m.setattr(mdl, name, -getattr(mdl, name))
            for t, kernel in zip(variants, kernels):
                fresh = mdl.field_kernel(t, flow(t))
                assert fresh is not kernel
                assert mdl.field_kernel(t, flow(t)) is fresh
                y = _packed_near(t, rng, 1)[0]
                assert fresh(y).tobytes() \
                    == mdl.FieldKernel(t, flow(t))(y).tobytes()
    assert all(mdl.field_kernel(t, flow(t)) is kernel
               for t, kernel in zip(variants, kernels))
    # a patched flow_plan, a fresh kernel on the plan it returns
    for t, kernel in zip(variants, kernels):
        copy = mdl.FlowPlan(mdl.config_of(t), flow(t))
        with monkeypatch.context() as m:
            m.setattr(mdl, "flow_plan", lambda cfg, g: copy)
            patched = mdl.field_kernel(t, flow(t))
        assert patched.plan is copy and patched is not kernel
        assert mdl.field_kernel(t, flow(t)) is kernel
    with pytest.raises(AdmissibilityError):
        mdl.field_kernel(toda, FlowId(1, 1))
    with pytest.raises(AdmissibilityError, match="unknown model state"):
        mdl.field_kernel(object(), FlowId(1, 0))


def test_field_kernel_loads_each_fetched_template(rng, monkeypatch):
    # a memoised kernel computes for the template it was last fetched for:
    # after fetches for t2, a template of the same key with other c and
    # beta, flow_field and integrate on t1 are bit for bit their results on
    # fresh kernels; and the memo holds one kernel per (plan, class, T,
    # signs), however many templates are drawn
    T = 3
    f = FlowId(2, 1)
    sched = dyn.Schedule.from_pairs([(f, 0.05), (FlowId(1, 0), 0.03)])

    def outputs(t):
        return (mdl.flow_field(t, f).tobytes(),
                [x.vec.tobytes() for x in dyn.integrate(t, sched).samples])
    monkeypatch.setattr(mdl, "_KERNELS", {})
    for t1 in (mdl.random_dst(T, rng, zeta1=0.9),
               mdl.random_coupled(T, rng, beta=0.7, zeta1=0.9)):
        t2 = replace(t1, c=mdl.random_dst(T, rng, zeta1=0.9).c)
        if isinstance(t2, mdl.CoupledState):
            t2 = replace(t2, beta=-0.4)
        with monkeypatch.context() as m:
            m.setattr(mdl, "_KERNELS", {})
            want = outputs(t1)
        for seg in sched.segments:
            kernel = mdl.field_kernel(t1, seg.flow)
            assert mdl.field_kernel(t2, seg.flow) is kernel
            y = _packed_near(t2, rng, 1)[0]
            assert kernel(y).tobytes() \
                == mdl.FieldKernel(t2, seg.flow)(y).tobytes()
        assert outputs(t1) == want
    monkeypatch.setattr(mdl, "_KERNELS", {})
    keys = set()
    for i in range(20):
        zeta1 = (0.9, 0.7 + 0.4j)[i % 2]
        t = (mdl.random_dst(T, rng, zeta1=zeta1) if i % 4 < 2 else
             mdl.random_coupled(T, rng, beta=rng.uniform(-1, 1), zeta1=zeta1))
        for f in mdl.admissible_flows(t, 3):
            mdl.field_kernel(t, f)
            keys.add((mdl.flow_plan(mdl.config_of(t), f), type(t)))
    assert len(mdl._KERNELS) == len(keys) == 2 * 2 * 6


@pytest.mark.parametrize("T", [1, 2, 3])
def test_interleaved_memoised_kernels_match_fresh_kernels(rng, T):
    # two memoised kernels of one key and of another template, called in
    # turn (fields, RK4 stages, zero), give what kernels built fresh for
    # each call give, by bytes; a memoised kernel's RK4 step, before and
    # after a step of another, is a fresh kernel's bit for bit, and within
    # the stated bound of the seven-operation step
    for tmpl in _kernel_templates(T, rng):
        other = replace(tmpl, **{b: getattr(tmpl, b) + 0.5
                                 for b in tmpl.BLOCKS})
        flows = mdl.admissible_flows(tmpl, 3)
        ys = _packed_near(tmpl, rng, 3)
        for f, g in zip(flows, flows[1:] + flows[:1]):
            kf, kg = mdl.field_kernel(tmpl, f), mdl.field_kernel(other, g)
            assert mdl.field_kernel(other, f) is kf
            for y in ys:
                w = y[::-1].copy()
                for _ in range(2):
                    assert kf(y).tobytes() == mdl.FieldKernel(tmpl, f)(y).tobytes()
                    assert kg(w).tobytes() == mdl.FieldKernel(tmpl, g)(w).tobytes()
                    assert kf.zero == mdl.FieldKernel(tmpl, f).zero
                    assert kg.zero == mdl.FieldKernel(tmpl, g).zero

                got = dyn.rk4_step(kf, y, 1e-2)
                dyn.rk4_step(kg, w, 1e-2)
                fresh = mdl.FieldKernel(tmpl, f)
                assert dyn.rk4_step(fresh, y, 1e-2).tobytes() == got.tobytes()
                assert dyn.rk4_step(kf, y, 1e-2).tobytes() == got.tobytes()
                ref, ks = out_of_place_step(mdl.FieldKernel(tmpl, f), y, 1e-2)
                assert step_bound_ratio(got, ref, ks, 1e-2) <= 1.0


def _packed_near(tmpl, rng, m, real=False):
    """m packed vectors near the template's, complex off Toda unless real."""
    ys = [mdl.pack(tmpl) + 0.3 * rng.normal(size=mdl.nvars(tmpl))
          for _ in range(m)]
    if real or tmpl.REAL:
        return [y.real for y in ys]
    return [y + 0.3j * rng.normal(size=y.size) for y in ys]


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_flow_plan_lanes_match_calls_bit_for_bit(rng, T):
    # lane counts below, at and above one block against one-lane stacks;
    # the lanes must run per-lane products (W @ P per lane, not
    # ndarray.dot), so that T = 1, where P is a column, rounds as one lane
    # does too
    counts = (1, 2, 7, mdl.LANE_BLOCK + 5)
    for tmpl in _kernel_templates(T, rng):
        writer = mdl.SupportWriter(tmpl)
        stacks = [writer.stack(_packed_near(tmpl, rng, m)) for m in counts]
        for f in mdl.admissible_flows(tmpl, 6):
            kernel = mdl.FieldKernel(tmpl, f)
            for Z in stacks:
                G = kernel.plan.lanes(Z)
                assert G.shape == Z.shape
                assert np.array_equal(G, [kernel.plan.lanes(z[None])[0]
                                          for z in Z])
                # Euler's identity per row on a one-lane stack
                assert kernel.plan.values(Z) == [
                    complex(z @ kernel.plan.lanes(z[None])[0]) / (f.p + 1)
                    for z in Z]


# At T = 1 NumPy rounds a one-element complex product (x X^T, then beta
# times it) in a per-row write differently from the same product in the
# longer loop of a stack.  Each product is within sqrt(2) gamma_2 |x||y| of
# the exact one (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
# ed., Lemma 3.5), an entry takes at most two products, and |x y| = |x||y|
# for scalars, so the two routes agree within this relative bound.
_U = np.finfo(float).eps / 2
_ONE_ELEMENT_RTOL = 2 * ((1 + np.sqrt(2) * 2 * _U / (1 - 2 * _U)) ** 2 - 1)


def _assert_stack_rows(got, ref, T):
    """got equals ref byte for byte, or at T = 1 within _ONE_ELEMENT_RTOL."""
    assert got.dtype == ref.dtype and got.shape == ref.shape
    if T == 1:
        np.testing.assert_allclose(got, ref, rtol=_ONE_ELEMENT_RTOL, atol=0)
    else:
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_support_stack_matches_per_row_writes(rng, T):
    # stack runs the z write that write runs on one row over a whole stack
    # at once: the three models, beta = 0, real and complex rows; the
    # writer's own buffer is left as it was.  A Toda row off the real locus
    # raises in a stack as in write, and one within _IMAG_TOL is read as its
    # real part in both
    for tmpl in _kernel_templates(T, rng):
        writer = mdl.SupportWriter(tmpl)
        for real in (False, True):
            ys = _packed_near(tmpl, rng, 7, real=real)
            held = writer.buf.tobytes()
            Z = writer.stack(ys)
            assert writer.buf.tobytes() == held
            _assert_stack_rows(Z, np.array([writer.write(y).astype(complex)
                                            for y in ys]), T)
    toda = mdl.random_toda(T, rng)
    writer, ys = mdl.SupportWriter(toda), _packed_near(toda, rng, 3)
    for imag, ok in ((0.5 * mdl._IMAG_TOL, True), (2 * mdl._IMAG_TOL, False)):
        rows = [ys[0], ys[1] + 1j * imag, ys[2]]
        if ok:
            assert writer.stack(rows).tobytes() == writer.stack(ys).tobytes()
            assert writer.write(rows[1]).tobytes() == \
                writer.write(ys[1]).tobytes()
            continue
        with pytest.raises(StructuralError, match="real locus"):
            writer.write(rows[1])
        with pytest.raises(StructuralError, match="real locus"):
            writer.stack(rows)


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_one_writer_loads_templates_in_turn_bit_for_bit(rng, T):
    # one writer per class, its templates loaded one after the other (load
    # is where c and beta enter, so the coupled pair differs in beta):
    # write, stack and tangent byte for byte against the routes that share
    # no code with the writer, _concatenated_support and _tangent_by_formula
    # (a stack at T = 1 within _ONE_ELEMENT_RTOL)
    pairs = [[mdl.random_toda(T, rng) for _ in range(2)],
             [mdl.random_dst(T, rng, zeta1=z) for z in (0.9, 0.7 + 0.4j)],
             [mdl.random_coupled(T, rng, beta=b, zeta1=0.9)
              for b in (0.1, -1.3)]]
    for first, second in pairs:
        writer = mdl.SupportWriter(first)
        for tmpl in (first, second, first):
            writer.load(tmpl)
            ys = _packed_near(tmpl, rng, 4)
            refs = np.array([_concatenated_support(mdl.unpack(tmpl, y))
                             for y in ys])
            if tmpl.REAL:
                refs = refs.real
            for y, ref in zip(ys, refs):
                assert writer.write(y).tobytes() == ref.tobytes()
            _assert_stack_rows(writer.stack(ys), refs.astype(complex), T)
            dY = rng.normal(size=(3, mdl.nvars(tmpl)))
            if not tmpl.REAL:
                dY = dY + 1j * rng.normal(size=dY.shape)
            for y in ys:
                for dy in (dY[0], dY):
                    assert writer.tangent(y, dy).tobytes() == \
                        _tangent_by_formula(tmpl, y, dy).tobytes()


def test_stacked_coefficients_match_per_state_blocks(rng):
    # the stack written from packed vectors through one SupportWriter
    # against the coefficients of each unpacked state; real packed vectors
    # too, which unpack casts to complex off Toda; byte for byte but at
    # T = 1 (_ONE_ELEMENT_RTOL)
    for T in (1, 2, 3, 5):
        for tmpl in _kernel_templates(T, rng):
            for real in (False, True):
                ys = _packed_near(tmpl, rng, 6, real=real)
                C = mdl.stacked_coefficients(tmpl, ys)
                B = np.array([_as_blocks(mdl.coefficients(mdl.unpack(tmpl, y)))
                              for y in ys])
                for got, k in ((C.A0_0, 0), (C.A0_1, 1), (C.Ainf, -1),
                               *zip(C.A_list, range(2, B.shape[1] - 1))):
                    _assert_stack_rows(got, B[:, k], T)
                assert len(C.A_list) == B.shape[1] - 3


@pytest.mark.parametrize("T", [2, 3, 5])
def test_stacked_hamiltonians_match_hamiltonian_value(rng, T):
    # one z write for the whole stack and one FlowPlan.values list per flow,
    # byte for byte hamiltonian_value of each row unpacked: the three
    # models, beta = 0, real and complex rows, every flow to p = 3.  (At
    # T = 1 a stack rounds x X^T differently from a row: _ONE_ELEMENT_RTOL.)
    for tmpl in _kernel_templates(T, rng):
        flows = mdl.admissible_flows(tmpl, 3)
        for real in (False, True):
            ys = _packed_near(tmpl, rng, 5, real=real)
            got = mdl.stacked_hamiltonians(tmpl, ys, flows)
            assert len(got) == len(flows)
            for f, values in zip(flows, got):
                ref = [mdl.hamiltonian_value(mdl.unpack(tmpl, y), f)
                       for y in ys]
                assert np.array(values).tobytes() == np.array(ref).tobytes()
    toda = mdl.random_toda(T, rng)
    with pytest.raises(AdmissibilityError):
        mdl.stacked_hamiltonians(toda, [mdl.pack(toda)], [FlowId(1, 1)])


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_coefficient_velocity_is_the_pushed_forward_field(rng, T):
    # coefficient_velocity pushes the flow field v forward through
    # SupportWriter.tangent; the reference is the dense contraction of the
    # coefficient Jacobians with v.  Both compute each entry as the complex
    # inner product sum_n J_n v_n of length n = nvars, each within
    # sqrt(2) gamma_{n+2} sum_n |J_n||v_n| of the exact one (Higham, 2nd
    # ed., sec. 3.6), so the two differ by at most twice that
    for s in (mdl.random_toda(T, rng), mdl.random_dst(T, rng, zeta1=0.9),
              mdl.random_coupled(T, rng, beta=0.7, zeta1=0.7 + 0.4j),
              mdl.random_coupled(T, rng, beta=0.0, zeta1=0.9)):
        J = mdl.coefficient_jets(s)
        K = mdl.nvars(s) + 2
        factor = 2 * np.sqrt(2) * K * _U / (1 - K * _U)
        for f in mdl.admissible_flows(s, 3):
            v = mdl.flow_field(s, f)
            dA00, dA01, dAs, dAinf = mdl.coefficient_velocity(s, f)
            assert len(dAs) == len(J.A_list)
            for got, Jb in zip((dA00, dA01, *dAs, dAinf),
                               (J.A0_0, J.A0_1, *J.A_list, J.Ainf)):
                ref = np.einsum("nij,n->ij", Jb, np.asarray(v, complex))
                bound = factor * np.einsum("nij,n->ij", np.abs(Jb),
                                           np.abs(v))
                assert got.shape == ref.shape and got.dtype == complex
                assert np.all(np.abs(got - ref) <= bound)


@pytest.mark.parametrize("T", [2, 3, 4, 5])
def test_coefficient_velocity_builds_no_writer_of_its_own(rng, monkeypatch,
                                                          T):
    # coefficient_velocity reads the tangent through the memoised kernel
    # of the flow, whose buffer is a writer's buffer: once the kernel is
    # built no SupportWriter is constructed, and the velocity is bit for
    # bit that of a fresh writer's tangent of the flow field
    built, init = [], mdl.SupportWriter.__init__

    def spy(self, template):
        built.append(type(self))
        init(self, template)
    for s in (mdl.random_toda(T, rng), mdl.random_dst(T, rng, zeta1=0.9),
              mdl.random_coupled(T, rng, beta=0.7, zeta1=0.7 + 0.4j)):
        for f in mdl.admissible_flows(s, 3):
            ref = mdl._scatter(s, mdl.SupportWriter(s).tangent(
                mdl.pack(s), mdl.flow_field(s, f)))
            with monkeypatch.context() as m:
                m.setattr(mdl.SupportWriter, "__init__", spy)
                got = mdl.coefficient_velocity(s, f)
            assert built == []
            for a, b in zip((*got[:2], *got[2], got[3]),
                            (ref.A0_0, ref.A0_1, *ref.A_list, ref.Ainf)):
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["SECTOR_SIGN_PQ", "SECTOR_SIGN_XX"])
def test_flipped_sector_sign_negates_that_sector(rng, monkeypatch, name):
    # a kernel reads the signs when it is built: one built under a flipped
    # sign negates both blocks of that sector and nothing else, and one
    # built before the flip keeps its field
    for tmpl in _kernel_templates(2, rng):
        ys = _packed_near(tmpl, rng, 3)
        for f in mdl.admissible_flows(tmpl, 3):
            kernel = mdl.FieldKernel(tmpl, f)
            ref = [kernel(y) for y in ys]
            with monkeypatch.context() as m:
                m.setattr(mdl, name, -getattr(mdl, name))
                flipped = mdl.FieldKernel(tmpl, f)
                assert all(np.array_equal(kernel(y), r)
                           for y, r in zip(ys, ref))
                got = [flipped(y) for y in ys]
            expect = [r.copy() for r in ref]
            for Q, P, sign, _ in tmpl.SECTORS:
                if sign == name:
                    for e in expect:
                        for b in (Q, P):
                            at = tmpl.BLOCKS.index(b) * tmpl.T
                            e[at:at + tmpl.T] = -e[at:at + tmpl.T]
            for g, e in zip(got, expect):
                assert np.array_equal(g, e)


@pytest.mark.parametrize("name", ["SECTOR_SIGN_PQ", "SECTOR_SIGN_XX"])
def test_hamiltonian_gradient_ignores_sector_signs(rng, monkeypatch, name):
    # H does not depend on the bracket convention: a flipped sign negates
    # that sector's field, and the gradient read off the field keeps
    for T in (1, 2, 3):
        for tmpl in _kernel_templates(T, rng):
            for f in mdl.admissible_flows(tmpl, 3):
                ref = mdl.hamiltonian_gradient(tmpl, f)
                with monkeypatch.context() as m:
                    m.setattr(mdl, name, -getattr(mdl, name))
                    assert np.array_equal(mdl.hamiltonian_gradient(tmpl, f),
                                          ref)


@pytest.mark.parametrize("T", [2, 3, 4])
def test_beta_zero_gradient_reduces_to_toda(rng, T):
    # at beta = 0, H depends on (q, p) alone: the (x, X) block is exactly
    # zero (read off the finite field by a product with beta, never a
    # division), and the origin flows' (q, p) block is the Toda gradient
    toda = mdl.random_toda(T, rng)
    dst = mdl.random_dst(T, rng, zeta1=0.9)
    s = mdl.CoupledState(toda.q.astype(complex), toda.p.astype(complex),
                         dst.x, dst.X, dst.c, dst.zeta1, 0.0)
    for f in mdl.admissible_flows(s, 3):
        g = mdl.hamiltonian_gradient(s, f)
        assert np.all(np.isfinite(mdl.flow_field(s, f)))
        assert np.all(g[2 * T:] == 0.0)
        if f.r == 0:
            ref = mdl.hamiltonian_gradient(toda, f)
            assert np.max(np.abs(g[:2 * T] - ref)) <= \
                1e-13 * (1 + np.max(np.abs(ref)))


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


@pytest.mark.parametrize("model", ["toda", "dst", "coupled"])
def test_lagrangian_coeff_value(rng, model):
    # the kinetic terms written out: -p.q' (Toda), X.x' (DST) and
    # -p.q' + beta X.x' (coupled), with T = 2
    state, f, kinetic = {
        "toda": (lambda: mdl.random_toda(2, rng), FlowId(2, 0),
                 lambda s, v: -np.dot(s.p, v[:2])),
        "dst": (lambda: mdl.random_dst(2, rng, zeta1=0.9), FlowId(1, 1),
                lambda s, v: np.dot(s.X, v[:2])),
        "coupled": (lambda: mdl.random_coupled(2, rng, beta=0.7, zeta1=0.9),
                    FlowId(1, 1),
                    lambda s, v: -np.dot(s.p, v[:2]) + s.beta * np.dot(s.X, v[4:6])),
    }[model]
    s = state()
    vel = mdl.flow_field(s, f)
    expect = kinetic(s, vel) - mdl.hamiltonian_value(s, f)
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
