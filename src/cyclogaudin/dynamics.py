"""Multi-time integration and the verification engine: RK4 flows, Poisson
brackets, involutivity grids, flow-commutativity defects, spectral
conservation monitoring, closure-relation residuals, and the agreement
between the coordinate flows and the Lax-pair equations."""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from . import models
from .errors import (AdmissibilityError, DivergenceError, InvalidOrderError,
                     PoleProximityError)
from .gaudin import MAX_DEPTH, FlowId, assemble_lax, lax_rhs
from .jets import Jet

DEFAULT_H = 1e-3
CLOSURE_DELTA = 1e-4
# RK4 steps per segment: 50 times the longest segment that any suite, test,
# tool or benchmark of the project runs (2000: duration 1 at h = 5e-4), so
# that one segment stays within seconds and its recorded samples within
# tens of MB
MAX_SEGMENT_STEPS = 100_000


# ---------------------------------------------------------------------------
# schedules and trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """One leg of a schedule: the flow, its signed duration (negative runs
    the flow backward, as a closure arc does) and its RK4 step count."""

    flow: FlowId
    duration: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise AdmissibilityError("segment step count must be >= 1")


@dataclass(frozen=True)
class Schedule:
    """Ordered multi-time integration path."""

    segments: tuple

    @classmethod
    def from_pairs(cls, pairs, h: float = DEFAULT_H) -> "Schedule":
        """Build from (FlowId, signed duration) pairs, each with
        max(1, round(|duration|/h)) steps, which must be finite and at most
        MAX_SEGMENT_STEPS."""
        segments = [(f, float(d), abs(d) / h) for f, d in pairs]
        for f, d, n in segments:
            if not np.isfinite(n):
                raise AdmissibilityError(f"segment {f}: |duration|/h = "
                                         f"{abs(d)}/{h} is not finite")
            if round(n) > MAX_SEGMENT_STEPS:
                raise AdmissibilityError(
                    f"segment {f}: |duration|/h = {abs(d)}/{h} = {n:.6g} "
                    f"steps exceed the cap of {MAX_SEGMENT_STEPS} per segment")
        return cls(tuple(Segment(f, d, max(1, int(round(n))))
                         for f, d, n in segments))

    @classmethod
    def parse(cls, text: str, h: float = DEFAULT_H) -> "Schedule":
        """Parse comma-separated `p:r:duration` triples."""
        pairs = []
        for chunk in text.split(","):
            parts = chunk.strip().split(":")
            if len(parts) != 3:
                raise AdmissibilityError(f"bad schedule segment {chunk!r}: "
                                         "expected p:r:duration")
            try:
                p, r = int(parts[0]), int(parts[1])
                dur = float(parts[2])
            except ValueError as exc:
                raise AdmissibilityError(f"bad schedule segment {chunk!r}: {exc}")
            if not np.isfinite(dur) or dur < 0:
                raise AdmissibilityError(f"bad duration in segment {chunk!r}")
            pairs.append((FlowId(p, r), dur))
        if not pairs:
            raise AdmissibilityError("empty schedule")
        return cls.from_pairs(pairs, h)


@dataclass
class Sample:
    """One trajectory sample: segment index, local time in the segment,
    and the packed state vector."""

    seg: int
    t_local: float
    vec: np.ndarray


@dataclass
class Trajectory:
    template: object           # a state carrying the fixed parameters
    samples: list

    def state(self, i: int):
        return models.unpack(self.template, self.samples[i].vec)

    def __len__(self):
        return len(self.samples)


def rk4_step(field, y: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of y' = field(y).  A stage hands the field
    its point as (y, c, k), meaning y + c * k, so that a FieldKernel writes
    the point into its own buffer with the roundings of y + c * k; any
    field(y, c=None, k=None) that evaluates at that point will do."""
    k1 = field(y)
    k2 = field(y, 0.5 * h, k1)
    k3 = field(y, 0.5 * h, k2)
    k4 = field(y, h, k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _field_of(template, f: FlowId):
    """The flow field y -> v of f on the template's states: the memoised
    models.FieldKernel of models.field_kernel, which checks the flow.  The
    one place integrate gets a field (the closure arcs too, through
    endpoint), so a test can substitute one here."""
    return models.field_kernel(template, f)


def integrate(s0, sched: Schedule, record: bool = True) -> Trajectory:
    """Classical fixed-step RK4 along the schedule (deterministic,
    single-threaded).  With record=False only segment endpoints are kept.
    Every segment's flow is checked against the model before the first step.
    A sample holds the state array itself, not a copy (the packed s0, the
    fresh array each rk4_step returns, or for a zero segment the array it
    keeps), so samples may share one array and are not to be written.

    Each step checks finiteness with one reduction, the real part of
    y* . y = sum |y_i|^2: any NaN or infinite entry makes it non-finite,
    and only then (or when a finite y overflows it) does the exact
    per-entry check run, so DivergenceError fires at the same segment and
    step as the per-entry check alone.  np.vdot raises no floating-point
    warning, where y.dot(y) would warn on the overflow.

    A segment whose field is structurally zero (FieldKernel.zero, such as
    the DST flows (p, 0)) is stepped as y -> y: it keeps every sample and
    finiteness check, but never evaluates its field, so it cannot raise
    DivergenceError on a finite state, even where z would overflow.  RK4
    adds the zero increment to y, which leaves every entry as it is
    except that it may turn a -0.0 into +0.0."""
    for seg in sched.segments:
        models._check_flow(s0, seg.flow)
    y = models.pack(s0)
    samples = [Sample(0, 0.0, y)]
    for si, seg in enumerate(sched.segments):
        if seg.duration == 0.0:
            continue
        field = _field_of(s0, seg.flow)
        zero = field.zero
        h = seg.duration / seg.steps
        for n in range(seg.steps):
            if not zero:
                y = rk4_step(field, y, h)
            if (not cmath.isfinite(np.vdot(y, y))
                    and not np.isfinite(y).all()):
                raise DivergenceError(
                    f"non-finite state in segment {si} step {n}",
                    last_good=Trajectory(s0, samples))
            if record or n == seg.steps - 1:
                samples.append(Sample(si, (n + 1) * h, y))
    return Trajectory(s0, samples)


def endpoint(s0, sched: Schedule):
    traj = integrate(s0, sched, record=False)
    return traj.state(len(traj) - 1)


# ---------------------------------------------------------------------------
# Poisson brackets on scalar observables
# ---------------------------------------------------------------------------

def jet_coords(state) -> SimpleNamespace:
    """The canonical coordinates of the state as dual-number scalars over
    the packed variables, plus the plain parameters."""
    n = models.nvars(state)
    vec = models.pack(state).astype(complex)
    coords = {b: np.array([Jet.variable(vec[i], i, n) for i in
                           range(k * state.T, (k + 1) * state.T)], dtype=object)
              for k, b in enumerate(state.BLOCKS)}
    params = {f.name: getattr(state, f.name) for f in fields(state)
              if f.name not in coords}
    return SimpleNamespace(**coords, **params)


def bracket_of_gradients(state, gF: np.ndarray, gG: np.ndarray) -> complex:
    """Sector contraction sum_sec cf * (dF/dP dG/dQ - dF/dQ dG/dP)."""
    acc = 0.0 + 0.0j
    for iP, iQ, cf in models.sectors(state):
        acc += cf * (np.dot(gF[iP], gG[iQ]) - np.dot(gF[iQ], gG[iP]))
    return complex(acc)


def observable_gradient(state, obs) -> np.ndarray:
    val = obs(jet_coords(state))
    if not isinstance(val, Jet):
        return np.zeros(models.nvars(state), complex)
    return val.grad


def poisson_bracket(state, F, G) -> complex:
    """{F, G} at the state for scalar observables F(coords), G(coords)
    (differentiated with dual numbers)."""
    return bracket_of_gradients(state, observable_gradient(state, F),
                                observable_gradient(state, G))


def involutivity_matrix(state, flows, max_depth: int = MAX_DEPTH) -> np.ndarray:
    """Grid of |{H_f, H_g}| over the flow list (gradients read off the
    fields; the diagonal is exactly zero by antisymmetry of the contraction).

    A flow deeper than max_depth raises InvalidOrderError.  FlowId already
    bounds every flow by MAX_DEPTH; the parameter stays only because
    perfbench/workloads.py passes it positionally, and the next change of
    the benchmark can drop it."""
    flows = list(flows)
    for f in flows:
        if f.p > max_depth:
            raise InvalidOrderError(f"flow power {f.p} exceeds depth {max_depth}")
    grads = [models.hamiltonian_gradient(state, f) for f in flows]
    n = len(flows)
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            val = abs(bracket_of_gradients(state, grads[a], grads[b]))
            out[a, b] = out[b, a] = val
    return out


# ---------------------------------------------------------------------------
# commutativity, conservation, closure
# ---------------------------------------------------------------------------

def commutativity_defect(s0, fA: FlowId, fB: FlowId, tau: float = 1.0,
                         h: float = DEFAULT_H) -> float:
    """Max-abs endpoint difference between the schedules
    [(fA, tau), (fB, tau)] and [(fB, tau), (fA, tau)]."""
    ab = endpoint(s0, Schedule.from_pairs([(fA, tau), (fB, tau)], h))
    ba = endpoint(s0, Schedule.from_pairs([(fB, tau), (fA, tau)], h))
    return float(np.max(np.abs(models.pack(ab) - models.pack(ba))))


def spectral_probe(state, lam: complex, m: int) -> complex:
    L = models.lax(state).eval(lam)
    return complex(np.trace(np.linalg.matrix_power(L, m)))


def _check_probe(template, lam: complex) -> None:
    cfg = models.config_of(template)
    pts = [0j] + [w for z in cfg.zetas for w in cfg.root.orbit(z)]
    if min(abs(lam - z) for z in pts) <= 1e-6:
        raise PoleProximityError(f"probe {lam} sits on a Lax pole orbit")


def conservation_drift(traj: Trajectory, probes, m_max: int = 4) -> dict:
    """Relative drift max_t |Tr L(lam*)^m - initial| / (1 + |initial|) per
    (probe, m), plus the kinematic invariant drifts.

    L is assembled once from the Lax coefficients of every sample, written
    from the packed samples through one SupportWriter and stacked along a
    leading sample axis, and evaluated once per probe.  The evaluations
    form one (probe * sample, T, T) stack, whose powers and traces run as
    one product and one trace per m, and the numerators as one reduction
    (spectral_probe is the per-sample reference the tests hold this to).
    Each denominator 1 + |initial| stays a scalar abs, which rounds as the
    per-probe loop did where an array abs need not.  The invariants are
    read off the packed samples too (models.stacked_invariants)."""
    for lam in probes:
        _check_probe(traj.template, lam)
    vecs = [s.vec for s in traj.samples]
    L = assemble_lax(models.stacked_coefficients(traj.template, vecs),
                     models.config_of(traj.template))
    Ls = np.reshape([L.eval(lam) for lam in probes], (-1, L.dim, L.dim))
    P, tr = Ls, []
    for m in range(1, m_max + 1):
        if m > 1:
            P = P @ Ls
        tr.append(np.trace(P, axis1=1, axis2=2))
    tr = np.reshape(tr, (m_max, len(probes), len(vecs)))
    num = np.abs(tr - tr[..., :1]).max(axis=2)
    out = {}
    for k, lam in enumerate(probes):
        for m in range(1, m_max + 1):
            out[(lam, m)] = float(num[m - 1, k] / (1 + abs(tr[m - 1, k, 0])))
    for k, vals in models.stacked_invariants(traj.template, vecs).items():
        out[k] = max([0.0] + [abs(v - vals[0]) for v in vals[1:]])
    return out


def _transported_lagrangian(s0, f_eval: FlowId, f_arc: FlowId, t: float,
                            h: float) -> complex:
    """L_{f_eval} on the point reached from s0 by flowing along f_arc for
    signed time t: the endpoint of the one-segment schedule [(f_arc, t)],
    so the arc is integrate's RK4 (max(1, round(|t|/h)) steps, none for a
    structurally zero field, DivergenceError on a non-finite state)."""
    s = endpoint(s0, Schedule.from_pairs([(f_arc, t)], h))
    return complex(models.lagrangian_coeff(s, f_eval))


def closure_residual(s0, fA: FlowId, fB: FlowId, h: float = DEFAULT_H,
                     delta: float = CLOSURE_DELTA) -> float:
    """|d/dt_B L_{fA} - d/dt_A L_{fB}| at s0, with each outer derivative
    taken by central differences of the on-shell Lagrangian coefficient
    along short integrated arcs of the other flow (offset delta).

    The identity holds on solutions only, so the arcs are genuine RK4
    solution arcs, driven by _field_of; a caller that wants a generic
    on-shell point transports s0 first (endpoint)."""
    dB_LA = (_transported_lagrangian(s0, fA, fB, +delta, h)
             - _transported_lagrangian(s0, fA, fB, -delta, h)) \
        / (2.0 * delta)
    dA_LB = (_transported_lagrangian(s0, fB, fA, +delta, h)
             - _transported_lagrangian(s0, fB, fA, -delta, h)) \
        / (2.0 * delta)
    return abs(dB_LA - dA_LB)


def el_lax_agreement(state, f: FlowId) -> float:
    """Max-abs difference between the Lax-coefficient time derivatives of
    the isospectral equation and the coordinate flow pushed through the
    coefficient Jacobians."""
    L = models.lax(state)
    _, D = lax_rhs(f, L, models.config_of(state))
    dA00, dA01, dAs, dAinf = models.coefficient_velocity(state, f)
    errs = [np.max(np.abs(D.dA0_0 - dA00)), np.max(np.abs(D.dA0_1 - dA01)),
            np.max(np.abs(D.dAinf - dAinf))]
    errs += [np.max(np.abs(a - b)) for a, b in zip(D.dA_list, dAs)]
    return float(max(errs))


# ---------------------------------------------------------------------------
# verification report plumbing
# ---------------------------------------------------------------------------

@dataclass
class Case:
    name: str
    residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return bool(self.residual <= self.tol)


@dataclass
class VerificationReport:
    suite: str
    seed: int
    config_digest: str
    cases: list = field(default_factory=list)
    tol_scale: float = 1.0

    def add(self, name: str, residual, tol: float) -> None:
        self.cases.append(Case(name, float(residual),
                               float(tol) * self.tol_scale))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def to_dict(self) -> dict:
        cases = sorted(self.cases, key=lambda c: c.name)
        return {"suite": self.suite, "seed": self.seed,
                "config_digest": self.config_digest,
                "cases": [{"name": c.name, "residual": c.residual,
                           "tol": c.tol, "pass": c.ok} for c in cases],
                "pass": self.ok}
