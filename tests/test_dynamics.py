"""Multi-time integration and the verification engine."""
import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from cyclogaudin import dynamics as dyn
from cyclogaudin import models as mdl
from cyclogaudin.errors import (AdmissibilityError, DivergenceError,
                                InvalidOrderError, PoleProximityError)
from cyclogaudin.gaudin import FlowId, assemble_lax
from conftest import (contracted_step, mis_scaled_closure, out_of_place_step,
                      step_bound_ratio)


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


def test_schedule_caps_the_steps_of_a_segment():
    # a finite but huge |duration|/h is refused before any step, at the
    # segment that exceeds the cap; a segment at the cap is accepted
    cap = dyn.MAX_SEGMENT_STEPS
    sched = dyn.Schedule.from_pairs([(FlowId(1, 0), cap * 1e-3)], h=1e-3)
    assert sched.segments[0].steps == cap
    for duration, h in (((cap + 1) * 1e-3, 1e-3), (1e9, 1e-3), (0.5, 1e-300)):
        with pytest.raises(AdmissibilityError,
                           match=r"segment \(2,0\): .* steps exceed the cap"):
            dyn.Schedule.from_pairs([(FlowId(1, 0), 0.0),
                                     (FlowId(2, 0), -duration)], h=h)
    with pytest.raises(AdmissibilityError, match="exceed the cap"):
        dyn.Schedule.parse("1:0:0.1,1:0:1e9")


def test_rk4_is_fourth_order(rng):
    # the error at t = 1 against a run at h = 1e-3 should shrink ~16x per
    # halving of h, on a kernel of each model
    for s in (mdl.random_toda(3, rng), mdl.random_dst(2, rng, zeta1=0.9),
              mdl.random_coupled(2, rng, beta=0.7, zeta1=0.9)):
        f = FlowId(1, 1) if isinstance(s, mdl.DSTState) else FlowId(1, 0)
        ref = dyn.integrate(s, dyn.Schedule.from_pairs([(f, 1.0)], h=1e-3),
                            record=False).samples[-1].vec
        errs = []
        for h in (0.1, 0.05):
            sched = dyn.Schedule.from_pairs([(f, 1.0)], h=h)
            y = dyn.integrate(s, sched, record=False).samples[-1].vec
            errs.append(np.abs(y - ref).max())
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


def test_integrate_divergence_is_reported():
    # pinned: the step that reports and the samples kept, the last good
    # one by bytes the kernel step, which is the contraction of the
    # out-of-place stages bit for bit and within the stated bound of the
    # seven-operation step on them
    T = 2
    s = mdl.CoupledState(np.zeros(T), np.zeros(T),
                         60.0 * np.ones(T), 60.0 * np.ones(T),
                         np.zeros(T), 1.0, 1.0)
    sched = dyn.Schedule.from_pairs([(FlowId(1, 1), 5.0)], h=0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as exc:
            dyn.integrate(s, sched)
        y = mdl.pack(s)
        kernel = mdl.FieldKernel(s, FlowId(1, 1))
        y1 = dyn.rk4_step(kernel, y, 0.5)
        ref, ks = out_of_place_step(mdl.FieldKernel(s, FlowId(1, 1)), y, 0.5)
    assert str(exc.value) == "non-finite state in segment 0 step 1"
    last = exc.value.last_good
    assert isinstance(last, dyn.Trajectory) and len(last) == 2
    assert [(x.seg, x.t_local) for x in last.samples] == [(0, 0.0), (0, 0.5)]
    assert np.isfinite(y1).all()
    assert y1.tobytes() == contracted_step(y, 0.5, ks).tobytes()
    assert step_bound_ratio(y1, ref, ks, 0.5) <= 1.0
    assert [x.vec.tobytes() for x in last.samples] == [y.tobytes(),
                                                       y1.tobytes()]


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_rk4_stages_match_the_out_of_place_route(rng, T):
    # a kernel's RK4 step (stages written into its own buffer and stack)
    # is bit for bit the contraction of the out-of-place stages, and within
    # the stated bound of the seven-operation step on them; forward and
    # backward, on a contiguous, a strided and (Toda) a complex y, with
    # the caller's y never written and two kernels called alternately
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
                    ref, ks = out_of_place_step(mdl.FieldKernel(s, f), v, h)
                    kf, kg = mdl.FieldKernel(s, f), mdl.FieldKernel(s, g)
                    got = dyn.rk4_step(kf, v, h)
                    assert got.tobytes() == contracted_step(v, h, ks).tobytes()
                    assert step_bound_ratio(got, ref, ks, h) <= 1.0
                    assert (v.tobytes(), wide.tobytes()) == before
                    # a call and steps of the other kernel in between: each
                    # keeps its own buffer and stage stack
                    kg(v + 1.0)
                    other = dyn.rk4_step(kg, v, h)
                    assert dyn.rk4_step(kf, v, h).tobytes() == got.tobytes()
                    assert dyn.rk4_step(kg, v, h).tobytes() == other.tobytes()
                    assert (v.tobytes(), wide.tobytes()) == before


def test_integrate_calls_rk4_step_once_per_step(rng, monkeypatch):
    # every step of a segment with nonzero duration whose field is not
    # structurally zero goes through dynamics.rk4_step, once, on the
    # segment's memoised kernel: the route that the traced rk4_step spans
    # and the CLI's no_step guards watch; zero-duration and structurally
    # zero segments make no call
    f10, f11, f20, f21, f30 = (FlowId(1, 0), FlowId(1, 1), FlowId(2, 0),
                               FlowId(2, 1), FlowId(3, 0))
    toda = mdl.random_toda(3, rng)
    dst = mdl.random_dst(3, rng, zeta1=0.9)
    coupled = mdl.random_coupled(2, rng, beta=0.7, zeta1=0.9)
    # (template, schedule, the number of segments stepped)
    cases = [(toda, [(f10, 0.01), (f20, -0.004), (f10, 0.0), (f30, 0.003)],
              3),
             (dst, [(f11, 0.005), (f20, 0.003), (f21, 0.0), (f10, -0.002),
                    (f21, 0.004)], 2),
             (coupled, [(f10, 0.005), (f11, 0.0), (f21, 0.004),
                        (f11, -0.003)], 3)]
    calls, step = [], dyn.rk4_step

    def counted(field, y, h):
        calls.append((field, h))
        return step(field, y, h)
    monkeypatch.setattr(dyn, "rk4_step", counted)
    for s, pairs, n_stepped in cases:
        sched = dyn.Schedule.from_pairs(pairs, h=1e-3)
        stepped = [(mdl.field_kernel(s, seg.flow), seg.duration / seg.steps,
                    seg.steps) for seg in sched.segments
                   if seg.duration != 0.0
                   and not mdl.field_kernel(s, seg.flow).zero]
        expected = [(k, h) for k, h, n in stepped for _ in range(n)]
        assert len(stepped) == n_stepped
        for record in (True, False):
            calls.clear()
            dyn.integrate(s, sched, record)
            assert calls == expected


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
    # and raise DivergenceError, the skip returns the state unchanged;
    # evaluations are counted on both kernel routes, 1 per single call and
    # 4 per RK4 step, and the diverging (1, 1) run shows the count
    s = mdl.random_dst(2, rng, zeta1=0.9)
    big = mdl.DSTState(1e200 * s.x, 1e200 * s.X, s.c, s.zeta1)
    calls = []
    call, step = mdl.FieldKernel.__call__, mdl.FieldKernel.step
    monkeypatch.setattr(mdl.FieldKernel, "__call__",
                        lambda self, *a: calls.append(1) or call(self, *a))
    monkeypatch.setattr(mdl.FieldKernel, "step",
                        lambda self, *a: calls.append(4) or step(self, *a))
    sched = dyn.Schedule.from_pairs([(FlowId(1, 0), 0.01), (FlowId(3, 0), 0.01)],
                                    h=1e-3)
    traj = dyn.integrate(big, sched)
    assert len(traj) == 21 and not calls
    assert all(x.vec.tobytes() == mdl.pack(big).tobytes() for x in traj.samples)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            dyn.integrate(big, dyn.Schedule.from_pairs([(FlowId(1, 1), 0.01)],
                                                       h=1e-3))
    assert calls == [4]


def _guarded_run(s, sched, at, i, bad, record):
    """integrate on a substitute field that is 1e-3 everywhere but puts
    `bad` into entry i at its step `at` (counted over every segment): the
    DivergenceError's message, last_good samples (as bytes) and the
    warnings raised on the way."""
    calls = itertools.count()

    def step(y, h):
        v = np.full(y.shape, 1e-3, y.dtype)
        if next(calls) == at:
            v[i] = bad
        return y + h * v

    def field_of(template, f):
        return SimpleNamespace(zero=False, step=step)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dyn, "_field_of", field_of)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceError) as exc:
                dyn.integrate(s, sched, record)
    last = exc.value.last_good.samples
    return (str(exc.value), [(x.seg, x.t_local, x.vec.tobytes()) for x in last],
            [(w.category, str(w.message)) for w in caught])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, 0),
                                 complex(-np.inf, 0), complex(0, np.inf),
                                 complex(0, -np.inf), complex(np.nan, 0),
                                 complex(0, np.nan), complex(np.inf, np.nan)])
def test_finiteness_guard_raises_where_the_per_entry_check_did(rng, bad):
    # the one-op guard against the per-entry check alone (its fallback,
    # forced on every step): the same segment, step, samples and warnings
    templates = [mdl.random_dst(2, rng, zeta1=0.9),
                 mdl.random_coupled(3, rng, beta=0.7, zeta1=0.9)]
    if not isinstance(bad, complex):
        templates.append(mdl.random_toda(3, rng))
    f = FlowId(1, 0)
    sched = dyn.Schedule.from_pairs([(f, 0.005), (f, -0.004)], h=1e-3)
    exact = SimpleNamespace(isfinite=lambda v: False)
    # (step over every segment, entry, segment, step): 5 steps in segment 0
    for s in templates:
        for at, i, seg, step in ((0, 0, 0, 0), (0, 1, 0, 0), (1, 2, 0, 1),
                                 (4, 0, 0, 4), (5, 3, 1, 0), (8, 1, 1, 3)):
            for record in (True, False):
                got = _guarded_run(s, sched, at, i, bad, record)
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(dyn, "cmath", exact)
                    assert got == _guarded_run(s, sched, at, i, bad, record)
                assert got[0] == f"non-finite state in segment {seg} step {step}"
        # a bad entry in the initial state, which the finite field keeps
        # (an infinite imaginary part alone stays so): step 0
        for i in (0, mdl.nvars(s) - 1):
            y = mdl.pack(s).copy()
            y[i] = bad
            s_bad = mdl.unpack(s, y)
            got = _guarded_run(s_bad, sched, -1, 0, 0.0, True)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(dyn, "cmath", exact)
                assert got == _guarded_run(s_bad, sched, -1, 0, 0.0, True)
            assert got[0] == "non-finite state in segment 0 step 0"


def test_finiteness_guard_passes_a_finite_state_whose_square_overflows(rng):
    # sum |y_i|^2 overflows, so the guard falls back to the per-entry check,
    # which passes every sample: no DivergenceError and no floating-point
    # signal, where y.dot(y) would signal the overflow
    s = mdl.random_dst(2, rng, zeta1=0.9)
    big = mdl.DSTState(1e200 * s.x, s.X, s.c, s.zeta1)
    toda = mdl.random_toda(3, rng)
    toda = mdl.TodaState(toda.q, 1e200 * toda.p)
    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError):
            mdl.pack(big).dot(mdl.pack(big))

    # a field of zeros, stepped by RK4: y + 0
    zero = SimpleNamespace(zero=False, step=lambda y, h: y + np.zeros_like(y))
    for state, field_of in ((big, dyn._field_of), (toda, lambda t, f: zero)):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dyn, "_field_of", field_of)
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                traj = dyn.integrate(state, dyn.Schedule.from_pairs(
                    [(FlowId(1, 0), 0.01)], h=1e-3))
        assert len(traj) == 11
        assert not np.isfinite(np.vdot(traj.samples[-1].vec,
                                       traj.samples[-1].vec))
        assert all(x.vec.tobytes() == mdl.pack(state).tobytes()
                   for x in traj.samples)


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


def _drift_per_probe(traj, probes, m_max):
    """conservation_drift's spectral entries as the loop over probes ran
    them before the probes were stacked: per probe, the powers and traces
    of L over the sample axis and a scalar abs in the denominator."""
    vecs = [x.vec for x in traj.samples]
    L = assemble_lax(mdl.stacked_coefficients(traj.template, vecs),
                     mdl.config_of(traj.template))
    out = {}
    for lam in probes:
        Ls = L.eval(lam)
        P = Ls
        for m in range(1, m_max + 1):
            if m > 1:
                P = P @ Ls
            tr = np.trace(P, axis1=1, axis2=2)
            out[(lam, m)] = float(np.max(np.abs(tr - tr[0]))
                                  / (1 + abs(tr[0])))
    return out


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_stacked_conservation_drift_matches_the_per_probe_loop(rng, T):
    # the probes as one (probe * sample, T, T) stack: bit for bit the loop
    # over probes, in its key order; one probe, no probe and m_max = 0 too
    probes = [0.41 + 0.23j, -0.36 + 0.49j, 1.31 + 0.52j, -1.22 - 0.35j,
              0.15 - 0.62j]
    for s in (mdl.random_toda(T, rng), mdl.random_dst(T, rng, zeta1=0.9),
              mdl.random_coupled(T, rng, beta=0.7, zeta1=0.9)):
        for f in mdl.admissible_flows(s, 2)[-2:]:
            traj = dyn.integrate(s, dyn.Schedule.from_pairs([(f, 0.05)],
                                                            h=0.005))
            for some, m_max in ((probes, 4), (probes[3:4], 2), ([], 3),
                                (probes, 0), (probes[:2], 5)):
                got = dyn.conservation_drift(traj, some, m_max)
                want = _drift_per_probe(traj, some, m_max)
                spectral = {k: v for k, v in got.items()
                            if isinstance(k, tuple)}
                assert list(spectral) == list(want)
                assert np.array(list(spectral.values()), float).tobytes() \
                    == np.array(list(want.values()), float).tobytes()


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
