"""Multi-time integration and the verification engine: RK4 flows, Poisson
brackets, involutivity grids, flow-commutativity defects, spectral
conservation monitoring, closure-relation residuals, and the agreement
between the coordinate flows and the Lax-pair equations."""
from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import models
from .errors import AdmissibilityError, DivergenceError, PoleProximityError
from .gaudin import FlowId, assemble_lax, lax_rhs
from .jets import Jet

DEFAULT_H = 1e-3
CLOSURE_DELTA = 1e-4


# ---------------------------------------------------------------------------
# schedules and trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    flow: FlowId
    duration: float
    steps: int

    def __post_init__(self):
        if self.duration < 0:
            raise AdmissibilityError("segment duration must be >= 0")
        if self.steps < 1:
            raise AdmissibilityError("segment step count must be >= 1")


@dataclass(frozen=True)
class Schedule:
    """Ordered multi-time integration path."""

    segments: tuple

    @classmethod
    def from_pairs(cls, pairs, h: float = DEFAULT_H) -> "Schedule":
        """Build from (FlowId, duration) pairs with step count ~ duration/h."""
        segs = []
        for f, dur in pairs:
            steps = max(1, int(round(dur / h))) if dur > 0 else 1
            segs.append(Segment(f, float(dur), steps))
        return cls(tuple(segs))

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
    cumulative multi-times per flow, and the packed state vector."""

    seg: int
    t_local: float
    times: dict
    vec: np.ndarray


@dataclass
class Trajectory:
    model: str
    template: object           # a state carrying the fixed parameters
    samples: list
    h: float

    def state(self, i: int):
        return models.unpack(self.template, self.samples[i].vec)

    def __len__(self):
        return len(self.samples)


def _model_tag(state) -> str:
    return {models.TodaState: "toda", models.DSTState: "dst",
            models.CoupledState: "coupled"}[type(state)]


def rk4_step(field, y: np.ndarray, h: float) -> np.ndarray:
    k1 = field(y)
    k2 = field(y + 0.5 * h * k1)
    k3 = field(y + 0.5 * h * k2)
    k4 = field(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _field_of(template, f: FlowId, scale: float = 1.0, max_depth: int = 6):
    def field(y):
        v = models.flow_field(models.unpack(template, y), f, max_depth)
        return scale * v if scale != 1.0 else v
    return field


def integrate(s0, sched: Schedule, record: bool = True,
              max_depth: int = 6) -> Trajectory:
    """Classical fixed-step RK4 along the schedule (deterministic,
    single-threaded).  With record=False only segment endpoints are kept."""
    y = models.pack(s0)
    times = {}
    samples = [Sample(0, 0.0, dict(times), y.copy())]
    h_used = 0.0
    for si, seg in enumerate(sched.segments):
        field = _field_of(s0, seg.flow, max_depth=max_depth)
        if seg.duration == 0.0:
            continue
        h = seg.duration / seg.steps
        h_used = h
        for n in range(seg.steps):
            y = rk4_step(field, y, h)
            if not np.all(np.isfinite(y)):
                raise DivergenceError(
                    f"non-finite state in segment {si} step {n}",
                    last_good=Trajectory(_model_tag(s0), s0, samples, h_used))
            t = (n + 1) * h
            tacc = dict(times)
            tacc[seg.flow] = tacc.get(seg.flow, 0.0) + t
            if record or n == seg.steps - 1:
                samples.append(Sample(si, t, tacc, y.copy()))
        times[seg.flow] = times.get(seg.flow, 0.0) + seg.duration
    return Trajectory(_model_tag(s0), s0, samples, h_used)


def endpoint(s0, sched: Schedule, max_depth: int = 6):
    traj = integrate(s0, sched, record=False, max_depth=max_depth)
    return traj.state(len(traj) - 1)


# ---------------------------------------------------------------------------
# Poisson brackets on scalar observables
# ---------------------------------------------------------------------------

def jet_coords(state) -> SimpleNamespace:
    """The canonical coordinates of the state as dual-number scalars over
    the packed variables, plus the plain parameters."""
    n = models.nvars(state)
    vec = models.pack(state).astype(complex)

    def jets(offset, T):
        return np.array([Jet.variable(vec[offset + i], offset + i, n)
                         for i in range(T)], dtype=object)

    T = state.T
    if isinstance(state, models.TodaState):
        return SimpleNamespace(q=jets(0, T), p=jets(T, T))
    if isinstance(state, models.DSTState):
        return SimpleNamespace(x=jets(0, T), X=jets(T, T),
                               c=state.c, zeta1=state.zeta1)
    return SimpleNamespace(q=jets(0, T), p=jets(T, T), x=jets(2 * T, T),
                           X=jets(3 * T, T), c=state.c, zeta1=state.zeta1,
                           beta=state.beta)


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


def involutivity_matrix(state, flows, max_depth: int = 3) -> np.ndarray:
    """Grid of |{H_f, H_g}| over the flow list (exact adjoint gradients;
    the diagonal is exactly zero by antisymmetry of the contraction)."""
    flows = list(flows)
    grads = [models.hamiltonian_gradient(state, f, max_depth) for f in flows]
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
    pts = [0j] + [cfg.root.power(k) * z for z in cfg.zetas
                  for k in range(cfg.T)]
    if min(abs(lam - z) for z in pts) <= 1e-6:
        raise PoleProximityError(f"probe {lam} sits on a Lax pole orbit")


def conservation_drift(traj: Trajectory, probes, m_max: int = 4) -> dict:
    """Relative drift max_t |Tr L(lam*)^m - initial| / (1 + |initial|) per
    (probe, m), plus the kinematic invariant drifts.

    L is assembled once from the Lax coefficients of every sample, stacked
    along a leading sample axis, and evaluated once per probe; the powers
    and traces run over that axis (spectral_probe is the per-sample
    reference the tests hold this to)."""
    for lam in probes:
        _check_probe(traj.template, lam)
    states = [traj.state(i) for i in range(len(traj))]
    L = assemble_lax(models.stacked_coefficients(states),
                     models.config_of(traj.template))
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
    inv0 = models.invariants(states[0])
    inv_drift = {k: 0.0 for k in inv0}
    for s in states[1:]:
        inv = models.invariants(s)
        for k in inv0:
            inv_drift[k] = max(inv_drift[k], abs(inv[k] - inv0[k]))
    out.update(inv_drift)
    return out


def _transported_lagrangian(s0, f_eval: FlowId, f_arc: FlowId, t: float,
                            h: float, scale: float = 1.0,
                            max_depth: int = 6) -> complex:
    """L_{f_eval} on the point reached from s0 by flowing along f_arc for
    (signed) time t with RK4 steps of size <= h."""
    y = models.pack(s0)
    if t != 0.0:
        steps = max(1, int(round(abs(t) / h)))
        step = t / steps
        field = _field_of(s0, f_arc, scale=scale, max_depth=max_depth)
        for _ in range(steps):
            y = rk4_step(field, y, step)
        if not np.all(np.isfinite(y)):
            raise DivergenceError("closure arc diverged")
    s = models.unpack(s0, y)
    return complex(models.lagrangian_coeff(s, f_eval, max_depth))


def closure_residual(s0, fA: FlowId, fB: FlowId, tau: float = 0.0,
                     h: float = DEFAULT_H, delta: float = CLOSURE_DELTA,
                     wrong_hamiltonian: bool = False,
                     max_depth: int = 6) -> float:
    """|d/dt_B L_{fA} - d/dt_A L_{fB}| with each outer derivative taken by
    central differences of the on-shell Lagrangian coefficient along short
    integrated arcs of the other flow (offset delta).

    The identity holds on solutions only, so the arcs are genuine RK4
    solution arcs; tau > 0 first transports s0 along fA to probe a generic
    on-shell point.  With wrong_hamiltonian=True the fB arcs are driven by
    a deliberately mis-scaled field (factor 1.1), a falsifiability control
    that must break the identity at O(0.1)."""
    if tau > 0.0:
        s0 = endpoint(s0, Schedule.from_pairs([(fA, tau)], h), max_depth)
    scaleB = 1.1 if wrong_hamiltonian else 1.0
    dB_LA = (_transported_lagrangian(s0, fA, fB, +delta, h, scaleB, max_depth)
             - _transported_lagrangian(s0, fA, fB, -delta, h, scaleB, max_depth)) \
        / (2.0 * delta)
    dA_LB = (_transported_lagrangian(s0, fB, fA, +delta, h, 1.0, max_depth)
             - _transported_lagrangian(s0, fB, fA, -delta, h, 1.0, max_depth)) \
        / (2.0 * delta)
    return abs(dB_LA - dA_LB)


def el_lax_agreement(state, f: FlowId, max_depth: int = 3) -> float:
    """Max-abs difference between the Lax-coefficient time derivatives of
    the isospectral equation and the coordinate flow pushed through the
    coefficient Jacobians."""
    L = models.lax(state)
    _, D = lax_rhs(f, L, models.config_of(state), max_depth)
    dA00, dA01, dAs, dAinf = models.coefficient_velocity(state, f, max_depth)
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
