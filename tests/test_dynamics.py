"""Multi-time integration and the verification engine."""
import numpy as np
import pytest

from cyclogaudin import dynamics as dyn
from cyclogaudin import models as mdl
from cyclogaudin.errors import (AdmissibilityError, DivergenceError,
                                InvalidOrderError, PoleProximityError)
from cyclogaudin.gaudin import FlowId
from conftest import mis_scaled_closure


# ---------------------------------------------------------------------------
# schedules and integration
# ---------------------------------------------------------------------------

def test_schedule_parse_roundtrip():
    sched = dyn.Schedule.parse("1:0:0.5, 2:1:0.25", h=1e-2)
    assert len(sched.segments) == 2
    assert sched.segments[0].flow == FlowId(1, 0)
    assert sched.segments[0].steps == 50
    assert sched.segments[1].duration == 0.25
    # the library takes signed durations (backward arcs), parse does not
    back = dyn.Schedule.from_pairs([(FlowId(1, 1), -0.004)], h=1e-3)
    assert back.segments[0].duration == -0.004
    assert back.segments[0].steps == 4


@pytest.mark.parametrize("bad", ["", "1:0", "1;0;1", "1:0:-2", "a:b:c",
                                 "1:0:nan"])
def test_schedule_parse_rejects_malformed(bad):
    with pytest.raises(AdmissibilityError):
        dyn.Schedule.parse(bad)


@pytest.mark.parametrize("duration, h", [(np.inf, 1e-3), (-np.inf, 1e-3),
                                         (np.nan, 1e-3), (1e308, 1e-3),
                                         (0.5, 1e-320)])
def test_schedule_from_pairs_rejects_a_non_finite_step_count(duration, h):
    # an infinite or NaN |duration|/h has no step count: AdmissibilityError,
    # not the OverflowError or ValueError of int(round(...))
    with pytest.raises(AdmissibilityError, match="not finite"):
        dyn.Schedule.from_pairs([(FlowId(1, 0), 0.1), (FlowId(1, 0), duration)],
                                h=h)


def test_rk4_is_fourth_order():
    # y' = y, y(0) = 1: error against exp should shrink ~16x per halving;
    # rk4_step hands a stage's point as (y, c, k), meaning y + c * k
    field = lambda y, c=0.0, k=0.0: y + c * k
    errs = []
    for h in (0.1, 0.05):
        y = np.array([1.0])
        for _ in range(int(round(1.0 / h))):
            y = dyn.rk4_step(field, y, h)
        errs.append(abs(y[0] - np.e))
    assert errs[0] / errs[1] > 14.0


def test_integrate_is_deterministic_and_records(rng):
    s = mdl.random_toda(3, rng)
    sched = dyn.Schedule.from_pairs([(FlowId(1, 0), 0.1)], h=1e-2)
    t1 = dyn.integrate(s, sched)
    t2 = dyn.integrate(s, sched)
    assert len(t1) == 11
    for a, b in zip(t1.samples, t2.samples):
        assert np.array_equal(a.vec, b.vec)
    end = dyn.endpoint(s, sched)
    np.testing.assert_allclose(mdl.pack(end), t1.samples[-1].vec, atol=0)


def test_integrate_energy_conservation(rng):
    s = mdl.random_toda(3, rng)
    f = FlowId(2, 0)
    h0 = mdl.hamiltonian_value(s, f)
    end = dyn.endpoint(s, dyn.Schedule.from_pairs([(f, 0.5)], h=1e-3))
    assert abs(mdl.hamiltonian_value(end, f) - h0) <= 1e-12


def _out_of_place_step(field, y, h):
    """RK4 with every stage point formed out of place as y + c * k and the
    field called on it alone: the reference for the (y, c, k) stages."""
    k1 = field(y)
    k2 = field(y + 0.5 * h * k1)
    k3 = field(y + 0.5 * h * k2)
    k4 = field(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_integrate_divergence_is_reported():
    # pinned: the step that reports, the samples kept and their bytes
    T = 2
    s = mdl.CoupledState(np.zeros(T), np.zeros(T),
                         60.0 * np.ones(T), 60.0 * np.ones(T),
                         np.zeros(T), 1.0, 1.0)
    sched = dyn.Schedule.from_pairs([(FlowId(1, 1), 5.0)], h=0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as exc:
            dyn.integrate(s, sched)
        y = mdl.pack(s)
        y1 = dyn.rk4_step(mdl.FieldKernel(s, FlowId(1, 1)), y, 0.5)
        ref = _out_of_place_step(mdl.FieldKernel(s, FlowId(1, 1)), y, 0.5)
    assert str(exc.value) == "non-finite state in segment 0 step 1"
    last = exc.value.last_good
    assert isinstance(last, dyn.Trajectory) and len(last) == 2
    assert [(x.seg, x.t_local) for x in last.samples] == [(0, 0.0), (0, 0.5)]
    assert np.isfinite(y1).all() and y1.tobytes() == ref.tobytes()
    assert [x.vec.tobytes() for x in last.samples] == [y.tobytes(),
                                                       y1.tobytes()]


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_rk4_stages_match_the_out_of_place_route(rng, T):
    # rk4_step hands the kernel each stage as (y, c, k), which it writes
    # into its own buffer: byte for byte the out-of-place stages, forward
    # and backward, on a contiguous and on a strided y, with the caller's
    # y never written and two kernels of one template called alternately
    templates = [mdl.random_toda(T, rng), mdl.random_dst(T, rng, zeta1=0.9),
                 mdl.random_coupled(T, rng, beta=0.7, zeta1=0.9)]
    for s in templates:
        y = mdl.pack(s) + 0.05 * rng.normal(size=mdl.nvars(s))
        wide = np.zeros(2 * y.size, y.dtype)
        wide[::2] = y
        ys = [y, wide[::2]]   # the strided y is a view of a stack
        if s.REAL:   # a Toda y may arrive complex, read as its real part
            ys.append(y + 1e-12j)
        flows = mdl.admissible_flows(s, 3)
        for f, g in zip(flows, flows[1:] + flows[:1]):
            for h in (1e-2, -4e-3):
                for v in ys:
                    before = v.tobytes(), wide.tobytes()
                    ref = _out_of_place_step(mdl.FieldKernel(s, f), v, h)
                    got = dyn.rk4_step(mdl.FieldKernel(s, f), v, h)
                    assert got.tobytes() == ref.tobytes()
                    assert (v.tobytes(), wide.tobytes()) == before
                    kf, kg = mdl.FieldKernel(s, f), mdl.FieldKernel(s, g)

                    def alternate(x, *stage):
                        kg(x + 1.0, *stage)   # a write to the other buffer
                        return kf(x, *stage)
                    assert dyn.rk4_step(alternate, v, h).tobytes() \
                        == ref.tobytes()
                    assert (v.tobytes(), wide.tobytes()) == before


def _stepped_samples(s0, sched, record=True):
    """The samples of integrate as (seg, t_local, vec bytes), with every
    segment of nonzero duration stepped by rk4_step on its kernel, whether
    or not the kernel is structurally zero."""
    y = mdl.pack(s0)
    out = [(0, 0.0, y.tobytes())]
    for si, seg in enumerate(sched.segments):
        if seg.duration == 0.0:
            continue
        kernel = mdl.FieldKernel(s0, seg.flow)
        h = seg.duration / seg.steps
        for n in range(seg.steps):
            y = dyn.rk4_step(kernel, y, h)
            if record or n == seg.steps - 1:
                out.append((si, (n + 1) * h, y.tobytes()))
    return out


def test_structural_zero_skip_matches_stepping_byte_for_byte(rng, monkeypatch):
    # integrate steps a structurally zero segment as y -> y; every sample
    # must stay as RK4 on the kernel leaves it, signed zeros included
    # (tobytes: array_equal would not see a -0.0 turn into +0.0)
    f10, f11, f20, f21, f30 = (FlowId(1, 0), FlowId(1, 1), FlowId(2, 0),
                               FlowId(2, 1), FlowId(3, 0))
    dst = mdl.random_dst(3, rng, zeta1=0.9)
    coupled = mdl.random_coupled(2, rng, beta=0.7, zeta1=0.9)
    assert [mdl.FieldKernel(dst, f).zero for f in (f10, f11, f20, f30)] \
        == [True, False, True, True]
    # signed durations: (f11, -0.004) and (f10, -0.01) run backward, as
    # the closure arcs do
    cases = [(dst, [(f10, 0.01), (f11, 0.01), (f20, 0.005), (f21, 0.0),
                    (f30, 0.01), (f21, 0.005), (f10, 0.0), (f11, -0.004),
                    (f10, -0.01)]),
             (dst, [(f20, 0.003)]),
             (coupled, [(f10, 0.01), (f11, 0.0), (f21, 0.005)])]
    for s, pairs in cases:
        sched = dyn.Schedule.from_pairs(pairs, h=1e-3)
        for record in (True, False):
            got = [(x.seg, x.t_local, x.vec.tobytes())
                   for x in dyn.integrate(s, sched, record).samples]
            assert got == _stepped_samples(s, sched, record)
    # closure arcs, with the 1.1-scaled field on the fB arcs: the same
    # residual as with the flag forced off (every arc stepped)
    moved = dyn.endpoint(dst, dyn.Schedule.from_pairs([(f11, 0.002)]))
    pairs = [(dst, f10, f11), (moved, f11, f20), (coupled, f10, f11)]
    got = [mis_scaled_closure(s, a, b) for s, a, b in pairs]
    with monkeypatch.context() as m:
        m.setattr(mdl.FieldKernel, "zero", property(lambda self: False))
        ref = [mis_scaled_closure(s, a, b) for s, a, b in pairs]
    assert got == ref


def test_structurally_zero_segment_never_evaluates_its_field(rng, monkeypatch):
    # x X^T overflows: stepping the (1, 0) field would meet inf * 0 = nan
    # and raise DivergenceError, the skip returns the state unchanged
    s = mdl.random_dst(2, rng, zeta1=0.9)
    big = mdl.DSTState(1e200 * s.x, 1e200 * s.X, s.c, s.zeta1)
    calls = []
    call = mdl.FieldKernel.__call__
    monkeypatch.setattr(mdl.FieldKernel, "__call__",
                        lambda self, *a: calls.append(1) or call(self, *a))
    sched = dyn.Schedule.from_pairs([(FlowId(1, 0), 0.01), (FlowId(3, 0), 0.01)],
                                    h=1e-3)
    traj = dyn.integrate(big, sched)
    assert len(traj) == 21 and not calls
    assert all(x.vec.tobytes() == mdl.pack(big).tobytes() for x in traj.samples)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            dyn.integrate(big, dyn.Schedule.from_pairs([(FlowId(1, 1), 0.01)],
                                                       h=1e-3))


# ---------------------------------------------------------------------------
# Poisson brackets
# ---------------------------------------------------------------------------

def test_canonical_bracket_pattern(rng):
    toda = mdl.random_toda(2, rng)
    val = dyn.poisson_bracket(toda, lambda c: c.p[0], lambda c: c.q[0])
    assert abs(val - 1.0) <= 1e-14
    assert dyn.poisson_bracket(toda, lambda c: c.q[0], lambda c: c.q[1]) == 0
    dst = mdl.random_dst(2, rng, zeta1=1.0)
    val = dyn.poisson_bracket(dst, lambda c: c.X[0], lambda c: c.x[0])
    assert abs(val + 1.0) <= 1e-14
    cpl = mdl.random_coupled(2, rng, beta=0.5, zeta1=1.0)
    val = dyn.poisson_bracket(cpl, lambda c: c.X[1], lambda c: c.x[1])
    assert abs(val + 1.0 / cpl.beta) <= 1e-12
    # mixed-sector brackets vanish
    assert dyn.poisson_bracket(cpl, lambda c: c.p[0], lambda c: c.x[1]) == 0


def test_bracket_antisymmetry_and_product_rule(rng):
    s = mdl.random_dst(2, rng, zeta1=0.9)
    F = lambda c: c.x[0] * c.X[1]
    G = lambda c: c.X[0] * c.x[1] + c.x[0]
    ab = dyn.poisson_bracket(s, F, G)
    ba = dyn.poisson_bracket(s, G, F)
    assert abs(ab + ba) <= 1e-13
    # {F, GH} = {F, G}H + G{F, H}
    H = lambda c: c.x[1]
    GH = lambda c: G(c) * H(c)
    lhs = dyn.poisson_bracket(s, F, GH)
    jc = dyn.jet_coords(s)
    rhs = (dyn.poisson_bracket(s, F, G) * H(jc).val
           + G(jc).val * dyn.poisson_bracket(s, F, H))
    assert abs(lhs - rhs) <= 1e-12


def test_hamiltonians_are_in_involution(rng):
    for s in (mdl.random_toda(4, rng),
              mdl.random_dst(3, rng, zeta1=1.05),
              mdl.random_coupled(2, rng, beta=0.6, zeta1=0.95)):
        flows = mdl.admissible_flows(s, 6)
        grid = dyn.involutivity_matrix(s, flows)
        assert np.all(np.diag(grid) == 0.0)
        assert np.max(grid) <= 1e-9
    # an explicit depth bound still rejects the deeper flows
    with pytest.raises(InvalidOrderError):
        dyn.involutivity_matrix(s, flows, 3)


# ---------------------------------------------------------------------------
# commutativity, conservation, closure, Lax agreement
# ---------------------------------------------------------------------------

def test_commutativity_defect_small(rng):
    s = mdl.random_toda(3, rng)
    d = dyn.commutativity_defect(s, FlowId(1, 0), FlowId(2, 0),
                                 tau=0.1, h=5e-3)
    assert d <= 1e-9


def test_conservation_drift_table(rng):
    s = mdl.random_toda(3, rng)
    traj = dyn.integrate(s, dyn.Schedule.from_pairs([(FlowId(2, 0), 0.2)],
                                                    h=2e-3))
    probes = [0.41 + 0.23j, -0.36 + 0.49j]
    drift = dyn.conservation_drift(traj, probes, m_max=3)
    for lam in probes:
        for m in (1, 2, 3):
            assert drift[(lam, m)] <= 1e-10
    assert drift["sum_p"] <= 1e-13
    assert drift["prod_a"] <= 1e-13


def _drift_by_probe_loop(traj, probes, m_max):
    # the per-sample, per-probe route the batched drift replaces
    states = [traj.state(i) for i in range(len(traj))]
    out = {}
    for lam in probes:
        for m in range(1, m_max + 1):
            b = dyn.spectral_probe(states[0], lam, m)
            out[(lam, m)] = max(abs(dyn.spectral_probe(s, lam, m) - b)
                                / (1 + abs(b)) for s in states)
    return out


def test_conservation_drift_matches_probe_loop(rng):
    # coarse steps keep the drift well above roundoff
    probes = [0.41 + 0.23j, -0.36 + 0.49j, 1.31 + 0.52j]
    for s, f in ((mdl.random_toda(3, rng), FlowId(2, 0)),
                 (mdl.random_dst(3, rng, zeta1=0.9), FlowId(2, 1)),
                 (mdl.random_coupled(2, rng, beta=0.5, zeta1=0.9),
                  FlowId(1, 1))):
        traj = dyn.integrate(s, dyn.Schedule.from_pairs([(f, 0.2)], h=0.05))
        drift = dyn.conservation_drift(traj, probes, m_max=4)
        ref = _drift_by_probe_loop(traj, probes, 4)
        assert set(drift) == set(ref) | set(mdl.invariants(s))
        assert max(ref.values()) > 1e-9
        for key, val in ref.items():
            assert abs(drift[key] - val) <= 1e-13
        # the invariants read off the packed samples against
        # models.invariants of each unpacked sample, bit for bit; the Toda
        # trajectory is real
        vecs = [x.vec for x in traj.samples]
        assert all(v.dtype.kind == ("f" if s.REAL else "c") for v in vecs)
        per = [mdl.invariants(traj.state(i)) for i in range(len(traj))]
        stacked = mdl.stacked_invariants(s, vecs)
        assert list(stacked) == list(per[0])
        for key, vals in stacked.items():
            assert np.array(vals).tobytes() == np.array(
                [inv[key] for inv in per]).tobytes()
            assert drift[key] == max(abs(inv[key] - per[0][key])
                                     for inv in per)
        # one sample (zero duration): nothing to drift from
        one = dyn.integrate(s, dyn.Schedule.from_pairs([(f, 0.0)]))
        assert len(one) == 1
        assert all(v == 0.0 for v in
                   dyn.conservation_drift(one, probes, m_max=4).values())


def test_conservation_probe_guard(rng):
    s = mdl.random_dst(2, rng, zeta1=1.0)
    traj = dyn.integrate(s, dyn.Schedule.from_pairs([(FlowId(1, 1), 0.0)]))
    with pytest.raises(PoleProximityError):
        dyn.conservation_drift(traj, [s.zeta1], m_max=1)


def test_closure_residual_coupled_pair(rng):
    s = mdl.random_coupled(2, rng, beta=0.5, zeta1=0.9)
    fA, fB = FlowId(1, 0), FlowId(1, 1)
    r = dyn.closure_residual(s, fA, fB)
    assert r <= 1e-6
    assert mis_scaled_closure(s, fA, fB) > 1e-3


def test_closure_residual_trivial_cases(rng):
    s = mdl.random_dst(2, rng, zeta1=1.1)
    f = FlowId(1, 1)
    assert dyn.closure_residual(s, f, f) <= 1e-12


def test_el_lax_agreement_all_models(rng):
    for s in (mdl.random_toda(3, rng),
              mdl.random_dst(3, rng, zeta1=1.0),
              mdl.random_coupled(2, rng, beta=0.7, zeta1=1.2)):
        for f in mdl.admissible_flows(s, 6):
            assert dyn.el_lax_agreement(s, f) <= 1e-11


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_verification_report_shape():
    rep = dyn.VerificationReport("demo", 7, "abc123")
    rep.add("zeta", 1e-12, 1e-10)
    rep.add("alpha", 2.0, 1.0)
    assert not rep.ok
    d = rep.to_dict()
    assert [c["name"] for c in d["cases"]] == ["alpha", "zeta"]
    assert d["pass"] is False
    assert d["cases"][1]["pass"] is True
    assert set(d) == {"suite", "seed", "config_digest", "cases", "pass"}
