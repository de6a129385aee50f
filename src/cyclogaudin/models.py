"""Concrete realisations of the cyclotomic Gaudin model: the periodic Toda
chain, the DST model, and their coupling.

Canonical coordinates and flow conventions
------------------------------------------
All flows are generated from the residue Hamiltonians H_{p,r} through

    dq_i/dt = -dH/dp_i,      dp_i/dt = +dH/dq_i,
    dx_i/dt = +(1/beta) dH/dX_i,   dX_i/dt = -(1/beta) dH/dx_i,

with beta = 1 for the pure DST model.  This convention reproduces the
printed first-flow equations of all three models (for pure DST, modulo
the scaling-gauge direction (x_i, -X_i) that the rho = 0 gauge choice
removes).  Equivalently, df/dt = {f, H} with the sector brackets
{p_i, q_j} = +delta_ij and {X_i, x_j} = -delta_ij / beta; the relative
sector sign is fixed empirically by the quadratic r-matrix bracket check
and deliberately differs from a uniform +delta_ij convention.

Compiled flow plans
-------------------
flow_field, hamiltonian_gradient, coefficient_velocity and
hamiltonian_value share one route: the support vector z of the state
(its structurally nonzero Lax coefficients) goes through the FlowPlan of
its (pole config, flow), built on first use and cached, which returns
dH/dz from a few matrix products.  The coordinate gradients follow by
the chain rule through z, and since L is linear in z, H_{p,r} is
homogeneous of degree p + 1 and Euler's identity reads the value off
the same gradient: H_{p,r} = z . dH/dz / (p + 1).  The plan weights are
read off the generic ratmat/gaudin code, and the tests hold the plan to
that generic route: its gradients to hamiltonian_coefficient_gradients
and to finite differences of gaudin.hamiltonian, its values to
gaudin.hamiltonian.  A coupled T = 2 flow-field call (Python 3.11,
NumPy 2.4, one x86 core) takes 17-22 us for p = 1..3, against 22-48 us
with the earlier plan's gathered batched Cauchy products.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import primitive_root, sigma_pow
from .errors import AdmissibilityError, StructuralError
from .gaudin import (FlowId, GaudinCoefficients, OrbitData, PoleConfig,
                     _check_depth, _gradients_from_series, _times_monomial,
                     assemble_lax)
from .ratmat import LaurentSeries, RationalMatrix

_IMAG_TOL = 1e-9

# sector sign of the canonical bracket {X_i, x_j} relative to {p_i, q_j};
# fixed empirically by requiring the quadratic r-matrix bracket to close
SECTOR_SIGN_PQ = 1.0
SECTOR_SIGN_XX = -1.0


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass
class TodaState:
    """Periodic Toda chain: real canonical pairs (q_i, p_i), i mod T."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.q.shape != self.p.shape or self.q.ndim != 1:
            raise StructuralError("q and p must be equal-length vectors")

    @property
    def T(self) -> int:
        return self.q.size


@dataclass
class DSTState:
    """DST model: complex canonical pairs (x_i, X_i), parameters c_i and
    the pole location zeta_1."""

    x: np.ndarray
    X: np.ndarray
    c: np.ndarray
    zeta1: complex

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=complex)
        self.X = np.asarray(self.X, dtype=complex)
        self.c = np.asarray(self.c, dtype=complex)
        self.zeta1 = complex(self.zeta1)
        if not (self.x.shape == self.X.shape == self.c.shape) or self.x.ndim != 1:
            raise StructuralError("x, X, c must be equal-length vectors")
        if abs(self.zeta1) <= 1e-12:
            raise StructuralError("zeta1 must be nonzero")

    @property
    def T(self) -> int:
        return self.x.size


@dataclass
class CoupledState:
    """Coupled Toda-DST system; (q, p) may drift complex under the coupled
    holomorphic flows, so all four coordinate vectors are complex here."""

    q: np.ndarray
    p: np.ndarray
    x: np.ndarray
    X: np.ndarray
    c: np.ndarray
    zeta1: complex
    beta: float

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=complex)
        self.p = np.asarray(self.p, dtype=complex)
        self.x = np.asarray(self.x, dtype=complex)
        self.X = np.asarray(self.X, dtype=complex)
        self.c = np.asarray(self.c, dtype=complex)
        self.zeta1 = complex(self.zeta1)
        self.beta = float(self.beta)
        if len({self.q.size, self.p.size, self.x.size, self.X.size, self.c.size}) != 1:
            raise StructuralError("all coordinate vectors must share length T")

    @property
    def T(self) -> int:
        return self.q.size


# ---------------------------------------------------------------------------
# elementary matrices
# ---------------------------------------------------------------------------

_SHIFT_CACHE: dict = {}


def _shift_basis(T: int, offset: int) -> np.ndarray:
    """sum_i E_{i, i+offset} with indices mod T (cached, copy-on-return)."""
    M = _SHIFT_CACHE.get((T, offset))
    if M is None:
        M = np.zeros((T, T), complex)
        for i in range(T):
            M[i, (i + offset) % T] = 1.0
        _SHIFT_CACHE[(T, offset)] = M
    return M.copy()


_CYCLIC_CACHE: dict = {}


def _cyclic(T: int) -> tuple:
    """Index arrays (i, i+1, i-1) mod T (cached; read-only)."""
    idx = _CYCLIC_CACHE.get(T)
    if idx is None:
        i = np.arange(T)
        idx = (i, (i + 1) % T, (i - 1) % T)
        for a in idx:
            a.setflags(write=False)
        _CYCLIC_CACHE[T] = idx
    return idx


def _toda_a(q: np.ndarray) -> np.ndarray:
    """a_i = exp(q_i - q_{i+1}), cyclically."""
    return np.exp(q - q[_cyclic(q.size)[1]])


_SUPPORT_CACHE: dict = {}


def _support_index(nb: int, T: int) -> np.ndarray:
    """Flat indices, into a stack of nb (T, T) blocks [A0_0, A0_1,
    A_1..A_N, Ainf], of the support vector's entries: the diagonal of
    A0_0, the subdiagonal E_{i+1,i} of A0_1, every entry of A_1..A_N (row
    major) and the superdiagonal E_{i,i+1} of Ainf (cached; read-only)."""
    idx = _SUPPORT_CACHE.get((nb, T))
    if idx is None:
        i, nxt, _ = _cyclic(T)
        idx = np.concatenate([i * T + i, T * T + nxt * T + i,
                              np.arange(2 * T * T, (nb - 1) * T * T),
                              (nb - 1) * T * T + i * T + nxt])
        idx.setflags(write=False)
        _SUPPORT_CACHE[(nb, T)] = idx
    return idx


def support_vector(state) -> np.ndarray:
    """The support vector z of a model state: its structurally nonzero Lax
    coefficients in the order of _support_index.  Toda [p, a, 1],
    DST [c, 0, x X^T, 1], coupled [p + beta c, a, beta x X^T, 1 + beta],
    with a_i = exp(q_i - q_{i+1}) the subdiagonal entry J01[i+1, i]."""
    if not isinstance(state, (TodaState, DSTState, CoupledState)):
        raise AdmissibilityError(f"unknown model state {type(state).__name__}")
    T = state.T
    if isinstance(state, DSTState):
        return np.concatenate([state.c, np.zeros(T),
                               (state.x[:, None] * state.X[None, :]).ravel(),
                               np.ones(T)])
    a = _toda_a(np.asarray(state.q, complex))
    if isinstance(state, TodaState):
        return np.concatenate([state.p, a, np.ones(T)])
    b = state.beta
    return np.concatenate([state.p + b * state.c, a,
                           (b * (state.x[:, None] * state.X[None, :])).ravel(),
                           np.full(T, 1.0 + b)])


def _blocks(state) -> np.ndarray:
    """The Lax coefficients [A0_0, A0_1, A_1..A_N, Ainf] of a model state,
    stacked: the support vector scattered into zero blocks.  Toda
    J00 = diag(p), J01 = sum_i a_i E_{i+1,i}; DST diag(c), 0,
    K_1 = x X^T; coupled J00 + beta diag(c), J01, beta K_1.  Ainf is the
    unit shift sum_i E_{i,i+1} for Toda and DST, and (1 + beta) times it
    for the coupled model."""
    z = support_vector(state)
    nb = 3 if isinstance(state, TodaState) else 4
    B = np.zeros((nb, state.T, state.T), complex)
    B.reshape(-1)[_support_index(nb, state.T)] = z
    return B


def _as_coefficients(B: np.ndarray, T: int) -> GaudinCoefficients:
    """Split a block stack (..., nb, T, T) into Lax coefficients; leading
    axes ride along as stack axes."""
    orbit = [B[..., k, :, :] for k in range(2, B.shape[-3] - 1)]
    return GaudinCoefficients(B[..., 0, :, :], B[..., 1, :, :], orbit,
                              B[..., -1, :, :], T, validate=False)


_CONFIG_CACHE: dict = {}


def config_of(state) -> PoleConfig:
    key = (state.T, ()) if isinstance(state, TodaState) \
        else (state.T, (complex(state.zeta1),))
    cfg = _CONFIG_CACHE.get(key)
    if cfg is None:
        cfg = PoleConfig(key[0], key[1])
        _CONFIG_CACHE[key] = cfg
    return cfg


def coefficients(state) -> GaudinCoefficients:
    """Plain (value) Lax coefficients of the model state."""
    return _as_coefficients(_blocks(state), state.T)


def stacked_coefficients(states) -> GaudinCoefficients:
    """The Lax coefficients of states of one model and pole config,
    stacked along a leading sample axis: assemble_lax of the result
    evaluates L at every sample in one call."""
    return _as_coefficients(np.array([_blocks(s) for s in states]),
                            states[0].T)


def lax(state) -> RationalMatrix:
    return assemble_lax(coefficients(state), config_of(state))


# ---------------------------------------------------------------------------
# orbit realisations
# ---------------------------------------------------------------------------

def toda_from_orbit(u: np.ndarray, v: np.ndarray) -> TodaState:
    """q_i = -ln u_i, p_i = v_i/u_i - v_{i-1}/u_{i-1} (so sum p_i = 0)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if np.any(np.abs(u) <= 1e-300):
        raise StructuralError("orbit data u_i must be nonzero")
    q = -np.log(u)
    w = v / u
    p = w - np.roll(w, 1)
    if max(np.max(np.abs(q.imag)), np.max(np.abs(p.imag))) > _IMAG_TOL:
        raise StructuralError("orbit data produces a non-real Toda state")
    return TodaState(q.real, p.real)


def toda_orbit_data(u: np.ndarray, v: np.ndarray) -> OrbitData:
    T = len(u)
    phi01 = np.zeros((T, T), complex)
    for i in range(T):
        phi01[i, (i + 1) % T] = v[i]
    return OrbitData(Lam0_0=np.zeros((T, T), complex),
                     Lam0_1=_shift_basis(T, -1),
                     Lam_list=[], Laminf=_shift_basis(T, 1),
                     phi0_0=np.diag(np.asarray(u, complex)),
                     phi0_1=phi01, phi_list=[], T=T)


def dst_from_orbit(sMat: np.ndarray, c: np.ndarray, zeta1: complex) -> DSTState:
    """x_i = s_{i1}, X_i = (s^-1)_{1i}; Tr K_1 = sum x_i X_i = 1."""
    sMat = np.asarray(sMat, dtype=complex)
    if abs(np.linalg.det(sMat)) < 1e-300:
        raise StructuralError("singular orbit matrix")
    sInv = np.linalg.inv(sMat)
    return DSTState(x=sMat[:, 0].copy(), X=sInv[0, :].copy(), c=c, zeta1=zeta1)


def dst_orbit_data(sMat: np.ndarray, c: np.ndarray, zeta1: complex) -> OrbitData:
    T = len(c)
    E11 = np.zeros((T, T), complex)
    E11[0, 0] = 1.0
    return OrbitData(Lam0_0=np.diag(np.asarray(c, complex)),
                     Lam0_1=np.zeros((T, T), complex),
                     Lam_list=[E11], Laminf=_shift_basis(T, 1),
                     phi0_0=np.eye(T, dtype=complex),
                     phi0_1=np.zeros((T, T), complex),
                     phi_list=[np.asarray(sMat, complex)], T=T)


# ---------------------------------------------------------------------------
# gauge transformation checks
# ---------------------------------------------------------------------------

def toda_gauge_residual(s: TodaState, lam: complex) -> float:
    """Residual of L(lam) = lam^-1 Q Ltilde(lam^T) Q^-1 with the
    symmetric tridiagonal-periodic Lax form and Q = diag(e^{-q_i/2} lam^-i)."""
    if abs(lam) <= 1e-12:
        raise StructuralError("gauge map undefined at lam = 0")
    T = s.T
    a = _toda_a(s.q)
    mu = lam ** T
    Lt = np.diag(np.asarray(s.p, complex))
    ra = np.sqrt(a.astype(complex))
    for i in range(T - 1):
        Lt[i, i + 1] += ra[i]
        Lt[i + 1, i] += ra[i]
    Lt[0, T - 1] += ra[T - 1] / mu
    Lt[T - 1, 0] += ra[T - 1] * mu
    Q = np.diag(np.exp(-s.q / 2.0) * lam ** (-np.arange(1, T + 1, dtype=float)))
    rhs = (Q @ Lt @ np.linalg.inv(Q)) / lam
    return float(np.max(np.abs(lax(s).eval(lam) - rhs)))


def dst_gauge_residual(s: DSTState, lam: complex) -> float:
    """Residual of L(lam) = lam^-1 D Lhat(lam^T) D^-1 with
    D = diag(lam^-1, ..., lam^-T) and the single-pole DST Lax form Lhat."""
    if abs(lam) <= 1e-12:
        raise StructuralError("gauge map undefined at lam = 0")
    T = s.T
    b = s.zeta1
    mu = lam ** T
    if abs(mu - b ** T) <= 1e-10:
        raise StructuralError("lam^T collides with zeta1^T")
    xXt = np.outer(s.x, s.X)
    idx = np.arange(T)
    Lh = np.zeros((T, T), complex)
    Lh += (b ** (T + idx[:, None] - idx[None, :])) * xXt / (mu - b ** T)
    Lh[T - 1, 0] += mu
    lower = idx[:, None] >= idx[None, :]
    Lh += np.where(lower, b ** (idx[:, None] - idx[None, :]) * xXt, 0.0)
    Lh += np.diag(s.c)
    for i in range(T - 1):
        Lh[i, i + 1] += 1.0
    D = np.diag(lam ** (-np.arange(1, T + 1, dtype=float)))
    rhs = (D @ Lh @ np.linalg.inv(D)) / lam
    return float(np.max(np.abs(lax(s).eval(lam) - rhs)))


# ---------------------------------------------------------------------------
# packed coordinates, coefficient Jacobians and gradients
# ---------------------------------------------------------------------------

def pack(state) -> np.ndarray:
    if isinstance(state, TodaState):
        return np.concatenate([state.q, state.p])
    if isinstance(state, DSTState):
        return np.concatenate([state.x, state.X])
    return np.concatenate([state.q, state.p, state.x, state.X])


def unpack(template, vec: np.ndarray):
    T = template.T
    if isinstance(template, TodaState):
        v = np.asarray(vec)
        if np.iscomplexobj(v):
            if np.max(np.abs(v.imag)) > _IMAG_TOL:
                raise StructuralError("Toda state drifted off the real locus")
            v = v.real
        return TodaState(v[:T].copy(), v[T:].copy())
    if isinstance(template, DSTState):
        return DSTState(vec[:T].copy(), vec[T:].copy(), template.c, template.zeta1)
    return CoupledState(vec[:T].copy(), vec[T:2 * T].copy(), vec[2 * T:3 * T].copy(),
                        vec[3 * T:].copy(), template.c, template.zeta1, template.beta)


def nvars(state) -> int:
    return 4 * state.T if isinstance(state, CoupledState) else 2 * state.T


def coefficient_jets(state) -> GaudinCoefficients:
    """Exact Jacobians of the Lax coefficients with respect to the packed
    coordinates, as (n, T, T) stacks: slice i of each stack is the
    derivative of that coefficient along coordinate i."""
    T = state.T
    n = nvars(state)
    zero = np.zeros((n, T, T), complex)
    if isinstance(state, DSTState):
        x_off, X_off = 0, T
    else:
        q_off, p_off, x_off, X_off = 0, T, 2 * T, 3 * T
        a = _toda_a(np.asarray(state.q, complex))
        gJ00 = np.zeros((n, T, T), complex)
        gJ01 = np.zeros((n, T, T), complex)
        for i in range(T):
            gJ00[p_off + i, i, i] = 1.0
            # da_j/dq_i = a_j (delta_{ij} - delta_{i, j+1})
            gJ01[q_off + i, (i + 1) % T, i] += a[i]
            gJ01[q_off + i, i, (i - 1) % T] += -a[(i - 1) % T]
        if isinstance(state, TodaState):
            return GaudinCoefficients(gJ00, gJ01, [], zero, T, validate=False)
    gK1 = np.zeros((n, T, T), complex)
    for i in range(T):
        gK1[x_off + i, i, :] = state.X
        gK1[X_off + i, :, i] = state.x
    if isinstance(state, DSTState):
        return GaudinCoefficients(zero, zero, [gK1], zero, T, validate=False)
    return GaudinCoefficients(gJ00, gJ01, [state.beta * gK1], zero, T,
                              validate=False)


def sectors(state) -> list:
    """Sector data of the canonical bracket: (P indices, Q indices,
    coefficient) per canonical sector of the packed coordinates."""
    T = state.T
    idx = np.arange(T)
    if isinstance(state, TodaState):
        return [(T + idx, idx, SECTOR_SIGN_PQ)]
    if isinstance(state, DSTState):
        return [(T + idx, idx, SECTOR_SIGN_XX)]
    if state.beta == 0.0:
        raise AdmissibilityError(
            "the (x, X) bracket sector degenerates at beta = 0")
    return [(T + idx, idx, SECTOR_SIGN_PQ),
            (3 * T + idx, 2 * T + idx, SECTOR_SIGN_XX / state.beta)]


@dataclass
class JetContext:
    """The Lax matrix, its Jacobian dL/d(coords) (a Lax matrix with
    (n, T, T) stacked coefficients) and the bracket sectors of a state."""

    config: PoleConfig
    lax: RationalMatrix
    jacobian: RationalMatrix
    sectors: list


def jet_context(state) -> JetContext:
    sec = sectors(state)  # raises at beta = 0 before any assembly
    cfg = config_of(state)
    return JetContext(cfg, lax(state),
                      assemble_lax(coefficient_jets(state), cfg), sec)


def admissible_flows(state, depth: int = 3) -> list:
    rmax = 0 if isinstance(state, TodaState) else 1
    return [FlowId(p, r) for p in range(1, depth + 1) for r in range(rmax + 1)]


def _check_flow(state, f: FlowId) -> None:
    rmax = 0 if isinstance(state, TodaState) else 1
    if f.r > rmax:
        raise AdmissibilityError(f"flow {f} not admissible for "
                                 f"{type(state).__name__}")


class FlowPlan:
    """The exact gradient route of one flow (p, r) on one pole config,
    compiled to array operations on the support vector z.

    For a fixed config and flow, the Laurent expansion of L at the slot,
    the monomial lambda^p, the slot weight and the sigma-twisted residue
    profiles of gaudin.hamiltonian_coefficient_gradients are fixed linear
    maps; only the p-th power of the local series depends nonlinearly on
    the coefficients.  The weights are read off the generic code by
    linearity (assemble_lax/laurent_expand on one all-ones block, the
    profile read-out on unit series), so ratmat and gaudin stay the only
    definition of both maps; the tests compare the plan against that
    generic route.  Only the series orders the profiles read are kept.

    A call maps z to dH/dz: S = E z is the local series of L (n orders of
    (T, T) coefficients, flattened, plus a trailing zero), W = S[take] its
    lower block-Toeplitz matrix (nT, nT), so that p - 1 products
    P = W P starting from the first block column give the truncated
    series of L^p, and dH/dz = R P.ravel().
    """

    __slots__ = ("p", "expand", "take", "readout")

    def __init__(self, cfg: PoleConfig, f: FlowId):
        T, p, point = cfg.T, f.p, cfg.slot_point(f.r)
        nb = cfg.N + 3
        units = []
        for b in range(nb):
            blocks = [np.zeros((T, T), complex)] * nb
            blocks[b] = np.ones((T, T), complex)
            units.append(assemble_lax(GaudinCoefficients(
                blocks[0], blocks[1], blocks[2:-1], blocks[-1], T,
                validate=False), cfg))
        o = max(L.pole_order(point) for L in units)
        # profile[m, k]: gradient m read off lambda^p times the unit series
        # of L^p (all ones at order low + k); n orders reach every order read
        low, n = -o * p, o * p + 2
        profile = []
        for k in range(n):
            unit = np.zeros((n, T, T), complex)
            unit[k] = 1.0
            G = _times_monomial(LaurentSeries(T, point, low, unit), point, p)
            M00, M01, Ms, Minf = _gradients_from_series(G, f, cfg)
            profile.append([M00, M01, *Ms, Minf])
        profile = np.array(profile).transpose(1, 0, 2, 3)
        n = int(np.flatnonzero(np.any(profile != 0, axis=(0, 2, 3)))[-1]) + 1
        # expand[j, b]: Laurent order j - o of L at the slot from block b
        series = [L.laurent_expand(point, n - o - 1) for L in units]
        expand = np.array([[s.coeff(j - o) for s in series] for j in range(n)])
        # L, the series and the profiles act entrywise on the blocks: the
        # z entry q sits at entry `at` of block `blk`, and its gradient is
        # read off the transposed entry of M_blk = (dH/dA_blk)^T
        idx = _support_index(nb, T)
        nz, q = idx.size, np.arange(idx.size)
        blk, at = np.divmod(idx, T * T)
        u, v = np.divmod(at, T)
        E = np.zeros((n, T * T, nz), complex)
        E[:, at, q] = expand.reshape(n, nb * T * T)[:, idx]
        self.expand = np.concatenate([E.reshape(n * T * T, nz),
                                      np.zeros((1, nz))])
        R = np.zeros((nz, n, T * T), complex)
        R[q, :, v * T + u] = profile.reshape(nb, -1, T * T)[
            blk, :n, v * T + u]
        self.readout = R.reshape(nz, n * T * T)
        # take[j T + a, i T + c] -> S_{j-i}[a, c] for j >= i, else the zero
        j, a, i, c = np.ix_(range(n), range(T), range(n), range(T))
        self.take = np.where(j >= i, ((j - i) * T + a) * T + c,
                             n * T * T).reshape(n * T, n * T)
        self.p = p
        for arr in (self.expand, self.take, self.readout):
            arr.setflags(write=False)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """dH/dz from the support vector z of the state."""
        S = self.expand @ z
        P = S[:-1].reshape(self.take.shape[0], -1)
        if self.p > 1:
            W = S[self.take]
            for _ in range(self.p - 1):
                P = W @ P
        return self.readout @ P.reshape(-1)


_PLAN_CACHE: dict = {}


def flow_plan(cfg: PoleConfig, f: FlowId) -> FlowPlan:
    """The FlowPlan of (cfg, f), built on first use and cached."""
    plan = _PLAN_CACHE.get((cfg, f))
    if plan is None:
        plan = _PLAN_CACHE[(cfg, f)] = FlowPlan(cfg, f)
    return plan


def _support_gradient(state, f: FlowId, max_depth: int):
    """(z, dH/dz): the support vector of the state and the gradient of
    H_{p,r} with respect to it, from the flow's FlowPlan."""
    _check_flow(state, f)
    _check_depth(f.p, max_depth)
    z = support_vector(state)
    return z, flow_plan(config_of(state), f)(z)


def _sector_gradients(state, f: FlowId, max_depth: int = 3):
    """(gq, gp, gx_red, gX_red): dH/dq, dH/dp, and the beta-reduced DST
    sector gradients (1/beta) dH/dx, (1/beta) dH/dX, by the chain rule
    through the support vector."""
    z, g = _support_gradient(state, f, max_depth)
    T = state.T
    gq = gp = gx = gX = None
    if isinstance(state, (TodaState, CoupledState)):
        gp = g[:T]
        # da_j/dq_i = a_j (delta_ij - delta_{i,j+1}): a_i g_i - a_{i-1} g_{i-1}
        t = z[T:2 * T] * g[T:2 * T]
        gq = t - t[_cyclic(T)[2]]
    if isinstance(state, (DSTState, CoupledState)):
        # beta-reduced: gradient w.r.t. the family coefficient (beta K_1)
        GK = g[2 * T:2 * T + T * T].reshape(T, T)
        gx = GK @ state.X      # (1/beta) dH/dx_i = sum_j GK[i,j] X_j
        gX = GK.T @ state.x    # (1/beta) dH/dX_j = sum_i x_i GK[i,j]
    return gq, gp, gx, gX


def hamiltonian_gradient(state, f: FlowId, max_depth: int = 3) -> np.ndarray:
    """Full packed gradient dH/d(coords) (including beta factors)."""
    gq, gp, gx, gX = _sector_gradients(state, f, max_depth)
    if isinstance(state, TodaState):
        return np.concatenate([gq, gp])
    if isinstance(state, DSTState):
        return np.concatenate([gx, gX])
    b = state.beta
    return np.concatenate([gq, gp, b * gx, b * gX])


def hamiltonian_value(state, f: FlowId, max_depth: int = 3) -> complex:
    """H_{p,r} = w_r Res lambda^p/(p+1) Tr L^(p+1) of the state, read off
    the gradient of its FlowPlan.

    L is linear in the support vector z of the Lax coefficients, so
    H_{p,r} is homogeneous of degree p + 1 in z, and Euler's identity
    gives H exactly: (p + 1) H = z . dH/dz.  The slot weight w_r and the
    sigma phases are already in the plan's read-out.  gaudin.hamiltonian
    is the oracle the tests hold this value to."""
    z, g = _support_gradient(state, f, max_depth)
    return complex(z @ g) / (f.p + 1)


def flow_field(state, f: FlowId, max_depth: int = 3) -> np.ndarray:
    """Packed tangent vector of the flow t_p^r at the state (normative
    convention; exact adjoint gradients)."""
    gq, gp, gx, gX = _sector_gradients(state, f, max_depth)
    if isinstance(state, TodaState):
        v = np.concatenate([-gp, gq])
        if np.max(np.abs(v.imag)) > _IMAG_TOL:
            raise StructuralError("Toda flow field drifted off the real locus")
        return v.real
    if isinstance(state, DSTState):
        return np.concatenate([gX, -gx])
    # coupled: the beta factors of dH/d(x, X) cancel against 1/beta exactly
    return np.concatenate([-gp, gq, gX, -gx])


def printed_flow_field(state, f: FlowId) -> np.ndarray:
    """Literal transcription of the printed first-flow equations."""
    if f.p != 1:
        raise AdmissibilityError("printed equations cover p = 1 only")
    _check_flow(state, f)
    T = state.T
    if isinstance(state, TodaState):
        a = _toda_a(state.q)
        return np.concatenate([-state.p, a - np.roll(a, 1)])
    root = primitive_root(T)
    if isinstance(state, DSTState):
        x, X, c, z1 = state.x, state.X, state.c, state.zeta1
        if f.r == 0:
            return np.zeros(2 * T, complex)
        dx = np.empty(T, complex)
        dX = np.empty(T, complex)
        for i in range(T):
            sx = sum(root.power(k * (j - i)) * X[j] * x[j]
                     for k in range(1, T) for j in range(T))
            sX = sum(root.power(k * (j - i)) * x[j] * X[j]
                     for k in range(1, T) for j in range(T))
            dx[i] = c[i] * x[i] + z1 * x[(i + 1) % T] + sx * x[i] / T
            dX[i] = -c[i] * X[i] - z1 * X[(i - 1) % T] - sX * X[i] / T
        return np.concatenate([dx, dX])
    # coupled system
    q, p, x, X = state.q, state.p, state.x, state.X
    c, z1, b = state.c, state.zeta1, state.beta
    a = _toda_a(q)
    a_m = np.roll(a, 1)        # a_{i-1}
    x_m = np.roll(x, 1)        # x_{i-1}
    X_p = np.roll(X, -1)       # X_{i+1}
    if f.r == 0:
        dq = -p - b * c
        dp = (1.0 + b) * (a - a_m) + (b / z1) * (a_m * x_m * X - a * x * X_p)
        dx = -(1.0 / z1) * a_m * x_m
        dX = (1.0 / z1) * a * X_p
        return np.concatenate([dq, dp, dx, dX])
    dq = -b * x * X
    dp = (b / z1) * (a * x * X_p - a_m * x_m * X)
    dx = np.empty(T, complex)
    dX = np.empty(T, complex)
    for i in range(T):
        s = sum(root.power(k * (j - i)) * X[j] * x[j]
                for k in range(T) for j in range(T))
        dx[i] = (p[i] * x[i] + b * c[i] * x[i] + a_m[i] * x_m[i] / z1
                 + b * s * x[i] / T + (1.0 + b) * z1 * x[(i + 1) % T])
        dX[i] = (-p[i] * X[i] - b * c[i] * X[i] - a[i] * X_p[i] / z1
                 - b * s * X[i] / T - (1.0 + b) * z1 * X[(i - 1) % T])
    return np.concatenate([dq, dp, dx, dX])


# ---------------------------------------------------------------------------
# Lagrangian coefficients and invariants
# ---------------------------------------------------------------------------

def kinetic(state, velocity: np.ndarray):
    """Kinetic part of the Lagrangian coefficient for a given coordinate
    velocity (total-derivative terms at 0 and infinity dropped)."""
    T = state.T
    if isinstance(state, TodaState):
        return complex(-np.dot(state.p, velocity[:T]))
    if isinstance(state, DSTState):
        return complex(np.dot(state.X, velocity[:T]))
    return complex(-np.dot(state.p, velocity[:T])
                   + state.beta * np.dot(state.X, velocity[2 * T:3 * T]))


def lagrangian_coeff(state, f: FlowId, max_depth: int = 3):
    """On-shell Lagrangian coefficient: kinetic(flow velocity) - H_{p,r}."""
    vel = flow_field(state, f, max_depth)
    return kinetic(state, vel) - hamiltonian_value(state, f, max_depth)


def invariants(state) -> dict:
    """Kinematic invariants: sum p_i and prod a_i (Toda sectors),
    Tr K_1 = sum x_i X_i (DST sectors)."""
    out = {}
    if isinstance(state, (TodaState, CoupledState)):
        out["sum_p"] = complex(np.sum(state.p))
        out["prod_a"] = complex(np.prod(_toda_a(np.asarray(state.q, complex))))
    if isinstance(state, (DSTState, CoupledState)):
        out["tr_K1"] = complex(np.dot(state.x, state.X))
    return out


def coefficient_velocity(state, f: FlowId, max_depth: int = 3):
    """Time derivatives of the Lax coefficients induced by the coordinate
    flow field, via the coefficient/coordinate Jacobian stacks."""
    v = np.asarray(flow_field(state, f, max_depth), complex)
    C = coefficient_jets(state)

    def push(M):
        return np.einsum("nij,n->ij", M, v)

    return (push(C.A0_0), push(C.A0_1), [push(A) for A in C.A_list],
            push(C.Ainf))


# ---------------------------------------------------------------------------
# seeded random states
# ---------------------------------------------------------------------------

def random_toda(T: int, rng: np.random.Generator, scale: float = 0.7) -> TodaState:
    return TodaState(rng.uniform(-scale, scale, T), rng.uniform(-scale, scale, T))


def _random_unit(rng, T):
    return rng.normal(size=(T, T)) + 1j * rng.normal(size=(T, T))


def random_dst(T: int, rng: np.random.Generator, zeta1: complex = None,
               real: bool = False) -> DSTState:
    while True:
        sMat = (rng.normal(size=(T, T)) if real else _random_unit(rng, T))
        if abs(np.linalg.det(sMat)) > 0.1:
            break
    c = rng.uniform(-0.8, 0.8, T) + (0 if real else 1j * rng.uniform(-0.4, 0.4, T))
    if zeta1 is None:
        zeta1 = complex(rng.uniform(0.8, 1.4)
                        * np.exp(2j * np.pi * rng.uniform())) if not real \
            else rng.uniform(0.8, 1.4)
    return dst_from_orbit(sMat, c, zeta1)


def random_coupled(T: int, rng: np.random.Generator, beta: float = 0.7,
                   zeta1: complex = None, real: bool = False) -> CoupledState:
    toda = random_toda(T, rng)
    dst = random_dst(T, rng, zeta1=zeta1, real=real)
    return CoupledState(toda.q.astype(complex), toda.p.astype(complex),
                        dst.x, dst.X, dst.c, dst.zeta1, beta)
