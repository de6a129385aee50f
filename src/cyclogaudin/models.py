"""Concrete realisations of the cyclotomic Gaudin model: the periodic Toda
chain, the DST model, and their coupling.

Canonical coordinates and flow conventions
------------------------------------------
Each state class declares its layout once, as class attributes that the
functions here, in dynamics and in cli read: the packed BLOCKS of length
T in order, the canonical SECTORS (Q, P, sign, weight), the pole
parameters POLES (flows (p, r) have r <= len(POLES)) and REAL.

    model    BLOCKS      SECTORS                         POLES  REAL
    Toda     q p         (q, p, PQ, -)                   -      yes
    DST      x X         (x, X, XX, -)                   zeta1  no
    coupled  q p x X     (q, p, PQ, -), (x, X, XX, beta) zeta1  no

The coupled model is the Toda (q, p) sector plus the DST (x, X) sector
weighted by beta.  All flows are generated from the residue Hamiltonians
H_{p,r} through

    dq_i/dt = -dH/dp_i,      dp_i/dt = +dH/dq_i,
    dx_i/dt = +(1/beta) dH/dX_i,   dX_i/dt = -(1/beta) dH/dx_i,

with beta = 1 for the pure DST model.  This convention reproduces the
printed first-flow equations of all three models (for pure DST, modulo
the scaling-gauge direction (x_i, -X_i) that the rho = 0 gauge choice
removes).  Equivalently, df/dt = {f, H} with the sector brackets
{P_i, Q_j} = sign delta_ij / weight, that is {p_i, q_j} = +delta_ij and
{X_i, x_j} = -delta_ij / beta; the relative sector sign is fixed
empirically by the quadratic r-matrix bracket check and deliberately
differs from a uniform +delta_ij convention.  Brackets and fields read
the signs PQ and XX from SECTOR_SIGN_PQ and SECTOR_SIGN_XX when built.
One constructor (_ModelState) builds every state from the layout, and a
Toda state stays real: _real rejects an imaginary part above _IMAG_TOL
there, in unpack and in the SupportWriter.

Three maps through the support vector
-------------------------------------
L is linear in the support vector z of a state (its structurally nonzero
Lax coefficients), and each map through z is written once:

    y -> z      SupportWriter: z written sector by sector (L is the sum of
                its sectors, each times its weight), bound to a buffer of
                any leading shape (write for one row, stack for many)
    dy -> dz    SupportWriter.tangent, the pushforward, which
                coefficient_jets and coefficient_velocity scatter (_scatter)
    z -> dH/dz  FlowPlan.lanes, the plan of a (pole config, flow) run on a
                stack of support vectors, built on first use and cached

The plan is a few matrix products, and the flow field follows from dH/dz
by the chain rule through z.  H_{p,r} is homogeneous of degree p + 1 in
z, so Euler's identity reads the value off the same gradient:
H_{p,r} = z . dH/dz / (p + 1) (FlowPlan.values; hamiltonian_value reads
one lane, stacked_hamiltonians a stack).  The plan weights are read off the
generic ratmat/gaudin code, and the tests hold the plan to that generic
route: its gradients to hamiltonian_coefficient_gradients and to finite
differences of gaudin.hamiltonian, its values to gaudin.hamiltonian.

Every flow p = 1..gaudin.MAX_DEPTH (6) has a plan and is certified;
FlowId rejects deeper ones, so no function here takes a depth argument.
admissible_flows(state, depth) only lists the flows of a model up to a
chosen depth.

A FieldKernel, built whole by its constructor and memoised per (plan,
state class and T, sector signs) by field_kernel, which loads each
template's constants c and beta into it, runs the first and last maps on
packed vectors y with no state object, in one call: its SupportWriter
writes z into the head of one buffer [z | y | 1], and the plan's product
chain ends in a pair read-out, one product that applies the read-out and
the chain rule together (pair_readout, the one chain rule here).
dynamics integrates on kernels, a whole RK4 step per call
(FieldKernel.step), and flow_field is a kernel applied to pack(state),
both from field_kernel, so the two agree bit for bit.  Every flow is
Hamiltonian, the field being the bracket applied to dH, so
hamiltonian_gradient reads the gradient off the field sector by sector.
tools/kernel_timing.py times a kernel call and step.

Structural zeros
----------------
Some flows vanish identically: for DST, H_{p,0} = sum_i c_i^(p+1)/(p+1)
depends on the fixed c alone, so the flows (p, 0) are zero.
FieldKernel.zero proves this from the sparsity of the plan, never from a
value of the field or of the template: the support pattern of z (every
constant entry but the structural zeros of A0_1, and every entry written
from the coordinates, counts as nonzero) goes through expand, take and
readout as boolean matrix products (FlowPlan.vanishes), and the field is
zero when no entry of dH/dz that the chain rule reads can be nonzero.
The flag is proved once, when the kernel is built.  Over the three
models, T = 1..5 and every flow to p = 6 it flags exactly the DST flows
(p, 0), the tests hold it to flow_field, and dynamics steps a flagged
segment as the identity.  flow_field and the kernel's call stay the
oracle and still return the zero vector.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cache, partial
from operator import setitem

import numpy as np

from .algebra import primitive_root
from .errors import AdmissibilityError, StructuralError
from .gaudin import (GRADIENT_TOP, FlowId, GaudinCoefficients, OrbitData,
                     PoleConfig, _gradients_from_series, _times_monomial,
                     assemble_lax)
from .ratmat import _POLE_TOL, LaurentSeries, RationalMatrix, power_trunc

_IMAG_TOL = 1e-9
# the classical RK4 weights b of the stages k1..k4 (dynamics.rk4_step)
RK4_B = np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])
RK4_B.setflags(write=False)

# sector sign of the canonical bracket {X_i, x_j} relative to {p_i, q_j};
# fixed empirically by requiring the quadratic r-matrix bracket to close
SECTOR_SIGN_PQ = 1.0
SECTOR_SIGN_XX = -1.0

# lanes per block of FlowPlan.lanes: a block's (lanes, nT, nT) series
# matrices bound the memory a stack of any length takes
LANE_BLOCK = 16


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@cache
def _field_roles(cls) -> tuple:
    """(the vector fields, that is the blocks and c, and the sector weights)
    of a state class, read once: fields() on every construction made the
    peak RSS creep over long runs."""
    weights = tuple(w for *_, w in cls.SECTORS if w is not None)
    return tuple(f.name for f in fields(cls)
                 if f.name not in (*cls.POLES, *weights)), weights


class _ModelState:
    """A state built and checked against its class's layout: the BLOCKS
    float on a REAL model (through _real, as unpack) and complex otherwise,
    the POLES complex and farther than _POLE_TOL from zero, the weights float,
    every other field (c) complex, and the blocks and c vectors of length T."""

    @property
    def T(self) -> int:
        return getattr(self, self.BLOCKS[0]).size

    def __post_init__(self):
        vectors, weights = _field_roles(type(self))
        for name in vectors:
            v = getattr(self, name)
            setattr(self, name, np.asarray(_real(np.asarray(v), name), float)
                    if self.REAL and name in self.BLOCKS
                    else np.asarray(v, complex))
        if {getattr(self, name).shape for name in vectors} != {(self.T,)}:
            raise StructuralError(f"{', '.join(vectors)} must be "
                                  "equal-length vectors")
        for name in self.POLES:
            setattr(self, name, complex(getattr(self, name)))
            if abs(getattr(self, name)) <= _POLE_TOL:
                raise StructuralError(f"{name} must be nonzero")
        for name in weights:
            setattr(self, name, float(getattr(self, name)))


@dataclass
class TodaState(_ModelState):
    """Periodic Toda chain: real canonical pairs (q_i, p_i), i mod T."""

    BLOCKS = ("q", "p")
    SECTORS = (("q", "p", "SECTOR_SIGN_PQ", None),)
    POLES = ()
    REAL = True

    q: np.ndarray
    p: np.ndarray


@dataclass
class DSTState(_ModelState):
    """DST model: complex canonical pairs (x_i, X_i), parameters c_i and
    the pole location zeta_1."""

    BLOCKS = ("x", "X")
    SECTORS = (("x", "X", "SECTOR_SIGN_XX", None),)
    POLES = ("zeta1",)
    REAL = False

    x: np.ndarray
    X: np.ndarray
    c: np.ndarray
    zeta1: complex


@dataclass
class CoupledState(_ModelState):
    """Coupled Toda-DST system; (q, p) may drift complex under the coupled
    holomorphic flows, so all four coordinate vectors are complex here."""

    BLOCKS = ("q", "p", "x", "X")
    SECTORS = (("q", "p", "SECTOR_SIGN_PQ", None),
               ("x", "X", "SECTOR_SIGN_XX", "beta"))
    POLES = ("zeta1",)
    REAL = False

    q: np.ndarray
    p: np.ndarray
    x: np.ndarray
    X: np.ndarray
    c: np.ndarray
    zeta1: complex
    beta: float


# ---------------------------------------------------------------------------
# elementary matrices
# ---------------------------------------------------------------------------

def _shift_basis(T: int, offset: int) -> np.ndarray:
    """sum_i E_{i, i+offset} with indices mod T."""
    return np.roll(np.eye(T, dtype=complex), offset, axis=1)


@cache
def _cyclic(T: int) -> tuple:
    """Index arrays (i, i+1, i-1) mod T (cached; read-only)."""
    i = np.arange(T)
    idx = (i, (i + 1) % T, (i - 1) % T)
    for a in idx:
        a.setflags(write=False)
    return idx


def _toda_a(q: np.ndarray) -> np.ndarray:
    """a_i = exp(q_i - q_{i+1}), cyclically."""
    return np.exp(q - q[_cyclic(q.size)[1]])


@cache
def _support_index(nb: int, T: int) -> np.ndarray:
    """Flat indices, into a stack of nb (T, T) blocks [A0_0, A0_1,
    A_1..A_N, Ainf], of the support vector's entries: the diagonal of
    A0_0, the subdiagonal E_{i+1,i} of A0_1, every entry of A_1..A_N (row
    major) and the superdiagonal E_{i,i+1} of Ainf (cached; read-only)."""
    i, nxt, _ = _cyclic(T)
    idx = np.concatenate([i * T + i, T * T + nxt * T + i,
                          np.arange(2 * T * T, (nb - 1) * T * T),
                          (nb - 1) * T * T + i * T + nxt])
    idx.setflags(write=False)
    return idx


def support_vector(state) -> np.ndarray:
    """The support vector z of a model state: its structurally nonzero Lax
    coefficients in the order of _support_index, as SupportWriter writes
    them sector by sector."""
    return SupportWriter(state).write(pack(state))


def _scatter(template, Z) -> GaudinCoefficients:
    """The Lax coefficients [A0_0, A0_1, A_1..A_N, Ainf] of the support
    vectors Z (..., nz) of the template's model: Z scattered into zero
    blocks, leading axes riding along as stack axes.  coefficients,
    stacked_coefficients and coefficient_jets all scatter here."""
    nb, T, lead = len(template.POLES) + 3, template.T, Z.shape[:-1]
    B = np.zeros((*lead, nb, T, T), complex)
    B.reshape(*lead, -1)[..., _support_index(nb, T)] = Z
    return GaudinCoefficients(B[..., 0, :, :], B[..., 1, :, :],
                              [B[..., k, :, :] for k in range(2, nb - 1)],
                              B[..., -1, :, :], T, validate=False)


_pole_config = cache(PoleConfig)


def config_of(state) -> PoleConfig:
    """The state's PoleConfig, one object per (T, pole parameters)."""
    return _pole_config(state.T, tuple([complex(getattr(state, z))
                                        for z in state.POLES]))


def coefficients(state) -> GaudinCoefficients:
    """Plain (value) Lax coefficients of the model state."""
    return _scatter(state, support_vector(state))


def stacked_coefficients(template, Y) -> GaudinCoefficients:
    """The Lax coefficients of the states packed as the rows of Y, with
    the template's model and parameters, stacked along a leading sample
    axis: one SupportWriter writes every row's support vector, and
    _scatter scatters them into zero blocks.  assemble_lax of the result
    evaluates L at every sample in one call."""
    return _scatter(template, SupportWriter(template).stack(Y))


def stacked_hamiltonians(template, Y, flows) -> list:
    """Per flow, its plan's H values (FlowPlan.values) at the states packed
    as the rows of Y, with every row's z written once, as stacked_coefficients
    writes it: bit for bit hamiltonian_value of each row at T >= 2."""
    for f in flows:
        _check_flow(template, f)
    Z, cfg = SupportWriter(template).stack(Y), config_of(template)
    return [flow_plan(cfg, f).values(Z) for f in flows]


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
    phi01 = np.roll(np.diag(np.asarray(v, complex)), 1, axis=1)
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
    if abs(lam) <= _POLE_TOL:
        raise StructuralError("gauge map undefined at lam = 0")
    T = s.T
    a = _toda_a(s.q)
    mu = lam ** T
    Lt = np.diag(np.asarray(s.p, complex))
    ra = np.sqrt(a.astype(complex))
    Lt += np.diag(ra[:-1], 1) + np.diag(ra[:-1], -1)
    Lt[0, T - 1] += ra[T - 1] / mu
    Lt[T - 1, 0] += ra[T - 1] * mu
    Q = np.diag(np.exp(-s.q / 2.0) * lam ** (-np.arange(1, T + 1, dtype=float)))
    rhs = (Q @ Lt @ np.linalg.inv(Q)) / lam
    return float(np.max(np.abs(lax(s).eval(lam) - rhs)))


def dst_gauge_residual(s: DSTState, lam: complex) -> float:
    """Residual of L(lam) = lam^-1 D Lhat(lam^T) D^-1 with
    D = diag(lam^-1, ..., lam^-T) and the single-pole DST Lax form Lhat."""
    if abs(lam) <= _POLE_TOL:
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
    Lh += np.eye(T, k=1)
    D = np.diag(lam ** (-np.arange(1, T + 1, dtype=float)))
    rhs = (D @ Lh @ np.linalg.inv(D)) / lam
    return float(np.max(np.abs(lax(s).eval(lam) - rhs)))


# ---------------------------------------------------------------------------
# packed coordinates, coefficient Jacobians and gradients
# ---------------------------------------------------------------------------

def _sectors_of(state):
    """(Q, P, Q slice, P slice, sign, weight) per canonical sector of the
    state: its block names and their slices in the packed vector, the
    current SECTOR_SIGN_* value and the weight's value, 1.0 if unweighted."""
    for (Q, P, sign, weight), (iQ, iP, *_) in zip(
            state.SECTORS, _class_layout(type(state), state.T)[0]):
        yield (Q, P, iQ, iP, globals()[sign],
               getattr(state, weight) if weight else 1.0)


@cache
def _class_layout(cls, T: int) -> tuple:
    """(per entry of SECTORS its Q and P slices in the packed vector, its
    weight name or None, the pole block r it writes, 0 for a (q, p) sector,
    and its slice of z; the mask of the z entries written from the
    coordinates; the mask of those that may be nonzero, all but A0_1 where
    no sector writes it) of a state class and T (cached; read-only)."""
    at = {b: slice(k * T, (k + 1) * T) for k, b in enumerate(cls.BLOCKS)}
    nz = _support_index(len(cls.POLES) + 3, T).size
    coords, nonzero = np.zeros(nz, bool), np.ones(nz, bool)
    nonzero[T:2 * T] = False
    sectors, r = [], 0
    for Q, P, sign, weight in cls.SECTORS:
        if sign == "SECTOR_SIGN_PQ":
            pole, iz = 0, slice(0, 2 * T)
        else:
            pole = r = r + 1
            iz = slice(2 * T + (r - 1) * T * T, 2 * T + r * T * T)
        coords[iz] = nonzero[iz] = True
        sectors.append((at[Q], at[P], weight, pole, iz))
    for mask in (coords, nonzero):
        mask.setflags(write=False)
    return tuple(sectors), coords, nonzero


def _real(v: np.ndarray, what: str) -> np.ndarray:
    """A Toda vector on the real locus: the real part of v, after checking
    that no imaginary part exceeds _IMAG_TOL."""
    if v.dtype.kind == "c":
        if (np.abs(v.imag) > _IMAG_TOL).any():
            raise StructuralError(f"Toda {what} drifted off the real locus")
        v = v.real
    return v


def pack(state) -> np.ndarray:
    return np.concatenate([getattr(state, b) for b in state.BLOCKS])


def unpack(template, vec: np.ndarray):
    """The state packed as vec, with the template's parameters."""
    v = np.asarray(vec)
    if template.REAL:
        v = _real(v, "state")
    T = template.T
    return replace(template, **{b: v[k * T:(k + 1) * T].copy()
                                for k, b in enumerate(template.BLOCKS)})


def nvars(state) -> int:
    return len(state.BLOCKS) * state.T


def coefficient_jets(state) -> GaudinCoefficients:
    """Exact Jacobians of the Lax coefficients with respect to the packed
    coordinates, as (n, T, T) stacks: slice i of each stack is the
    derivative of that coefficient along coordinate i, the tangent of the
    support vector along unit vector i (SupportWriter.tangent) scattered
    into zero blocks."""
    return _scatter(state, SupportWriter(state).tangent(
        pack(state), np.eye(nvars(state))))


def sectors(state) -> list:
    """Sector data of the canonical bracket: (P block, Q block,
    coefficient) per canonical sector of the packed coordinates, the
    coefficient being the sector sign divided by the sector weight."""
    out = []
    for Q, P, iQ, iP, sign, weight in _sectors_of(state):
        if weight == 0.0:
            raise AdmissibilityError(f"the ({Q}, {P}) bracket sector "
                                     "degenerates at beta = 0")
        out.append((iP, iQ, sign / weight))
    return out


def jet_context(state) -> tuple:
    """(config, L, dL, sectors) of a state: its PoleConfig, its Lax matrix,
    dL/d(coords) as a Lax matrix of (n, T, T) stacks and its sectors."""
    sec = sectors(state)  # raises at beta = 0 before any assembly
    cfg = config_of(state)
    return cfg, lax(state), assemble_lax(coefficient_jets(state), cfg), sec


def admissible_flows(state, depth: int = 3) -> list:
    """The flows (p, r) of the model: p = 1..depth, r = 0..len(POLES)."""
    return [FlowId(p, r) for p in range(1, depth + 1)
            for r in range(len(state.POLES) + 1)]


def _check_model(template) -> None:
    if getattr(template, "BLOCKS", None) is None:
        raise AdmissibilityError(
            f"unknown model state {type(template).__name__}")


def _check_flow(state, f: FlowId) -> None:
    _check_model(state)
    if f.r > len(state.POLES):
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

    The plan maps z to dH/dz: S = E z is the local series of L (n orders
    of (T, T) coefficients, flattened, plus a trailing zero), W = S[take]
    its lower block-Toeplitz matrix (nT, nT), so that p - 1 products
    P = W P starting from the first block column give the truncated
    series of L^p, and dH/dz = R P.ravel().  lanes runs that chain on a
    stack of support vectors, one lane per row, and values reads H_{p,r}
    off it by Euler's identity: the plan's two reads.
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
        # of L^p (all ones at order low + k), over the n orders of L that
        # the power rule reads for L^p up to u^GRADIENT_TOP
        low, n = -o * p, power_trunc(-o, p, GRADIENT_TOP) + o + 1
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

    def lanes(self, Z: np.ndarray) -> np.ndarray:
        """dH/dz at every row of the (m, nz) stack Z of support vectors.
        The rows run as a lane axis through the products in blocks of
        LANE_BLOCK lanes; np.matmul of a stack makes one BLAS call per
        lane, so a row's result is bit for bit that of a call on it."""
        G = np.empty(Z.shape, complex)
        for b in range(0, len(Z), LANE_BLOCK):
            Zb = Z[b:b + LANE_BLOCK]
            S = np.matmul(self.expand, Zb[:, :, None])[:, :, 0]
            P = S[:, :-1].reshape(len(Zb), self.take.shape[0], -1)
            if self.p > 1:
                W = S.take(self.take, axis=1)   # C order, as BLAS needs
                for _ in range(self.p - 1):
                    P = W @ P
            G[b:b + LANE_BLOCK] = np.matmul(
                self.readout, P.reshape(len(Zb), -1, 1))[:, :, 0]
        return G

    def values(self, Z: np.ndarray) -> list:
        """H_{p,r} at every row of an (m, nz) stack Z of support vectors, the
        one write of Euler's identity: lanes gives the gradients, and each
        row's z . dH/dz stays its own dot product, so a row's value is bit
        for bit that of a stack of one."""
        dots = np.matmul(Z[:, None, :], self.lanes(Z)[:, :, None])
        return [complex(d) / (self.p + 1) for d in dots[:, 0, 0]]

    def vanishes(self, nonzero: np.ndarray, read: np.ndarray) -> bool:
        """Whether dH/dz is zero at every read entry for every z that is
        zero where nonzero is False.  The pattern of z goes through expand,
        take and readout as boolean matrix products, so an entry comes out
        False only where every term of its sum has a factor that is
        exactly zero; the read-out rows alone are not zero, so the whole
        chain is pushed through."""
        S = (self.expand != 0) @ nonzero
        P = S[:-1].reshape(self.take.shape[0], -1)
        W = S[self.take]
        for _ in range(self.p - 1):
            P = W @ P
        return not ((self.readout != 0) @ P.reshape(-1))[read].any()


@cache
def flow_plan(cfg: PoleConfig, f: FlowId) -> FlowPlan:
    """The FlowPlan of (cfg, f), built on first use and cached."""
    return FlowPlan(cfg, f)


@cache
def _difference(T: int) -> np.ndarray:
    """The complex (T, T) matrix D with (D q)_i = q_i - q_{i+1}, i mod T,
    and D = [[0]] at T = 1 (cached; read-only).  Each row has one +1 and
    one -1, so D q rounds as the difference itself; exp(D q) is the
    complex exp whatever the dtype of q."""
    D = np.eye(T, dtype=complex) - _shift_basis(T, 1)
    D.setflags(write=False)
    return D


class SupportWriter:
    """Writes the support vector z of the states of a model and T straight
    from their packed vectors y, with no state object, under the constants
    of the template last loaded (load).  L is the sum of its sectors, each
    times its weight, and each sector of the class layout (_class_layout)
    writes its entries of z: a (q, p) sector p on A0_0 (plus the loaded c
    of the (x, X) sectors) and a_i = exp(D q) (_difference) on A0_1, an
    (x, X) sector x X^T on its pole block, times its weight if it has one.

    z heads one buffer [z | y | 1], in float64 on a real model.  The z
    write (_z_write) is the list of the sectors' bound NumPy calls on the
    views of a buffer of any leading shape: write runs it on the writer's
    one-row buffer and returns z, a view valid until the next write, which
    tangent reads a_i off; stack runs it on a stack of buffers seeded with
    the writer's.  A Toda y with an imaginary part above _IMAG_TOL is
    rejected, as unpack rejects it; a real y of a complex model is cast
    into the slot, as unpack casts it.  The complex D makes a_i the
    complex exp on Toda too, of which z keeps the real part, since exp
    rounds differently on real arguments."""

    __slots__ = ("T", "real", "buf", "z", "y", "sectors", "weights", "c",
                 "coords", "fill")

    def __init__(self, template):
        _check_model(template)
        self.real, self.T = template.REAL, template.T
        self.sectors, self.coords, _ = _class_layout(type(template), self.T)
        T, nz = self.T, self.coords.size
        # zeros: A0_1 stays zero where no (q, p) sector writes it
        self.buf = buf = np.zeros(nz + nvars(template) + 1,
                                  float if self.real else complex)
        buf[-1] = 1.0
        self.z, self.y = buf[:nz], buf[nz:-1]
        # loaded: the 0-d weights, and c on A0_0, or beside the p that a
        # (q, p) sector writes there from the coordinates
        self.weights = {w: np.empty((), complex)
                        for _, _, w, _, _ in self.sectors if w}
        self.c = np.empty(T, complex) if self.coords[0] else self.z[:T]
        self.fill = self._z_write(buf)
        self.load(template)

    def _z_write(self, buf: np.ndarray):
        """The z write on buf (..., nz + n + 1): a function that runs the
        sectors' calls, bound once to views of buf, and returns its z."""
        T, nz = self.T, self.coords.size
        z, y = buf[..., :nz], buf[..., nz:-1]
        adds_c = any(pole for _, _, _, pole, _ in self.sectors)
        calls = []
        for iQ, iP, weight, pole, iz in self.sectors:
            zs, yQ, yP = z[..., iz], y[..., iQ], y[..., iP]
            if pole:
                K = zs.reshape(*z.shape[:-1], T, T)
                calls.append(partial(np.multiply, yQ[..., None],
                                     yP[..., None, :], K))
                if weight:
                    calls.append(partial(np.multiply, self.weights[weight],
                                         K, K))
                continue
            zp, za, qa = zs[..., :T], zs[..., T:], np.empty(yQ.shape, complex)
            calls += [partial(np.add, yP, self.c, zp) if adds_c
                      else partial(setitem, zp, ..., yP),
                      partial(np.dot, yQ, _difference(T).T, qa),
                      partial(np.exp, qa, qa if self.real else za)]
            if self.real:   # the real part of the complex exp
                calls.append(partial(setitem, za, ..., qa.real))

        def fill():
            for call in calls:
                call()
            return z
        return fill

    def load(self, template) -> None:
        """Write the constants of a template of the writer's class and T:
        the weights, the c of the (x, X) sectors and Ainf, the weights' sum."""
        ws = [getattr(template, weight) if weight else 1.0
              for _, _, weight, _, _ in self.sectors]
        for (_, _, weight, pole, _), w in zip(self.sectors, ws):
            if weight:
                self.weights[weight][...] = w
            if pole:
                self.c[...] = w * template.c if weight else template.c
        self.z[-self.T:] = sum(ws)

    def write(self, y: np.ndarray) -> np.ndarray:
        """The support vector of the state packed as y (the buffer's z)."""
        if self.real and y.dtype.kind == "c":
            y = _real(y, "state")
        self.y[...] = y
        return self.fill()

    def tangent(self, y: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """dz = (dz/dy) dy at the state packed as y for a vector dy or a
        (..., n) stack of them, a new complex (..., nz) array, sector by
        sector: dp and a_i (dq_i - dq_{i+1}), a_i read off z = write(y),
        left in the buffer; dx (w X)^T + (w x) dX^T with w the weight, if
        any.  The constant entries have zero tangent."""
        T, lead, z = self.T, dy.shape[:-1], self.write(y)
        dz = np.zeros((*lead, z.size), complex)
        for iQ, iP, weight, pole, iz in self.sectors:
            dzs, dQ, dP = dz[..., iz], dy[..., iQ], dy[..., iP]
            if pole:
                x, X, w = y[iQ], y[iP], self.weights.get(weight)
                if weight:
                    x, X = w * x, w * X
                dK = dQ[..., None] * X + x[:, None] * dP[..., None, :]
                dzs[...] = dK.reshape(*lead, T * T)
                continue
            a = z[iz][T:]
            dzs[..., :T] = dP
            dzs[..., T:] = a * dQ - a * dQ[..., _cyclic(T)[1]]
        return dz

    def stack(self, Y) -> np.ndarray:
        """The support vectors of the states packed as the rows of Y, as a
        new complex (m, nz) array: the z write bound to an (m, nz + n + 1)
        buffer seeded with the writer's, which holds the loaded constants,
        runs once over every row."""
        Y = _real(np.asarray(Y), "state") if self.real else np.asarray(Y)
        buf = np.tile(self.buf, (len(Y), 1))
        buf[:, self.z.size:-1] = Y
        return self._z_write(buf)().astype(complex)


@cache
def pair_readout(cls, T: int, neg: tuple) -> tuple:
    """A FieldKernel's chain rule as (field entry, factor, g = dH/dz entry)
    pairs over its buffer aug = [z | y | 1], shared by the plans of a
    class: pair j reads g[rows[j]] times aug[at[j]], and the (n, m) matrix
    C of signs (neg: per sector, whether its Q block is the negated one)
    sums each field entry's pairs, so the field is C @ (g[rows] * aug[at]).
    Per sector, in order: of a (q, p) sector, dq_i reads g_p,i (factor 1)
    and dp_i g_a,i (a_i) and g_a,i-1 (a_i-1); of an (x, X) sector, dx_j
    reads GK[i, j] (x_i) and dX_i GK[i, j] (X_j), where the 1/w of the
    bracket cancels the weight w of z's x X^T block (cached; read-only)."""
    sectors, coords, _ = _class_layout(cls, T)
    nz, n, i = coords.size, len(cls.BLOCKS) * T, np.arange(T)
    a, b = np.divmod(np.arange(T * T), T)   # GK[a, b] = g[z0 + aT + b]
    pairs = []   # (field entries, factors in aug, rows of g, sign)
    for (iQ, iP, _, pole, iz), flip in zip(sectors, neg):
        s = -1.0 if flip else 1.0
        Q, P, z0 = iQ.start, iP.start, iz.start
        if pole:
            pairs += [(Q + b, nz + Q + a, z0 + a * T + b, s),
                      (P + a, nz + P + b, z0 + a * T + b, -s)]
        else:
            prev = z0 + T + _cyclic(T)[2]
            pairs += [(Q + i, nz + n, z0 + i, s),
                      (P + i, z0 + T + i, z0 + T + i, -s),
                      (P + i, prev, prev, s)]
    k, at, rows, sign = (np.concatenate(c) for c in zip(
        *(np.broadcast_arrays(*t) for t in pairs)))
    C = np.where(np.arange(n)[:, None] == k, sign, 0.0)
    out = rows, at, C.astype(float if cls.REAL else complex)
    for arr in out:
        arr.setflags(write=False)
    return out


def kernel_tensors(plan: FlowPlan, template) -> tuple:
    """The (E, Q, rows, at, C) of the FieldKernel of the plan on the
    template's states under the current SECTOR_SIGN_* values: the pairs of
    pair_readout, rows counted from the first read-out row they read; the
    plan's E and Q, the span of read-out rows they read, in float64 on a
    real model once proved real (StructuralError otherwise); Q @ E at
    p = 1.  Uncached: a kernel builds its own once."""
    # per sector: is its Q block the negated one (sign > 0)
    neg = tuple(sign > 0 for *_, sign, _ in _sectors_of(template))
    rows, at, C = pair_readout(type(template), template.T, neg)
    lo = rows.min()
    E, Q = plan.expand, plan.readout[lo:rows.max() + 1]
    if template.REAL:
        if E.imag.any() or Q.imag.any():
            raise StructuralError("Toda flow plan is not real")
        E, Q = E.real.copy(), Q.real.copy()
    if plan.p == 1:
        Q = Q @ E[:-1]
    return E, Q, rows - lo, at, C


class FieldKernel(SupportWriter):
    """The flow field of one flow (p, r) on the states of one template, as
    a map from the packed vector y, in one call: the SupportWriter writes
    z into the head of the kernel's buffer aug = [z | y | 1], the plan's
    product chain gives P (the series of L^p) and the pair read-out the
    field, C @ ((Q @ P)[rows] * aug[at]) (kernel_tensors).  Q holds the
    read-out rows the pairs read, once each; at p = 1 it is folded into
    E, so the call is the z write and one product chain.  A Toda kernel
    holds z, E and Q in float64 once E and Q are proved real, so its field
    is real by construction.

    The constructor builds the whole kernel: it checks the flow, takes the
    plan, proves zero, builds the tensors under the sector signs of the
    moment and binds them, the buffer's views and the z write into
    the field and the RK4 step (dynamics.rk4_step); both return a new
    array.  A plan that is not real on a Toda template is refused there.
    H values are the plan's (FlowPlan.values).  A call or step rewrites
    every buffer it reads and zero reads no constant of the template, so
    field_kernel memoises one kernel per (plan, state class and T,
    SECTOR_SIGN_* values) for every caller, loading each template into it."""

    __slots__ = ("plan", "_zero", "_field", "_step")

    def __init__(self, template, f: FlowId):
        super().__init__(template)
        _check_flow(template, f)
        self.plan = plan = flow_plan(config_of(template), f)
        self._zero = plan.vanishes(
            _class_layout(type(template), self.T)[-1], self.coords)
        E, Q, rows, at, C = kernel_tensors(plan, template)
        # the chain runs in buffers of its own: S = E z, then the p - 1
        # products P = W P from the view of S's first block column, each
        # into the other of two buffers, the pair read-out reading the last
        # one flat (z itself at p = 1, where Q is already Q E)
        buf, ys, fill, real = self.buf, self.y, self.fill, self.real
        take, S = plan.take, np.empty(len(E), E.dtype)
        outs = [np.empty((len(take), self.T), E.dtype)
                for _ in range(min(2, plan.p - 1))]
        products, P = [], S[:-1].reshape(len(take), -1)   # (in, out) of P = W P
        for i in range(plan.p - 1):
            products.append((P, outs[i % 2]))
            P = outs[i % 2]
        P = P.reshape(-1) if products else self.z
        K = np.empty((4, len(C)), E.dtype)   # the RK4 stages
        k1, k2, k3, k4 = K
        weights = [None, None]   # h and h RK4_B, in K's dtype

        def evaluate(out):   # the field at the y slot, into out or new
            z = fill()
            if products:
                W = E.dot(z, S)[take]
                for a, b in products:
                    W.dot(a, b)
            return C.dot(Q.dot(P)[rows] * buf[at], out)

        def stage(y, c, k):   # y + c * k into the y slot, as RK4 rounds it
            np.multiply(c, k, ys)
            np.add(y, ys, ys)

        def field(y):
            ys[...] = _real(y, "state") if real and y.dtype.kind == "c" else y
            return evaluate(None)

        def step(y, h):
            x = _real(y, "state") if real and y.dtype.kind == "c" else y
            if h != weights[0]:
                weights[:] = h, (h * RK4_B).astype(K.dtype)
            half = 0.5 * h
            ys[...] = x
            evaluate(k1)
            stage(x, half, k1)
            evaluate(k2)
            stage(x, half, k2)
            evaluate(k3)
            stage(x, h, k3)
            evaluate(k4)
            return y + weights[1].dot(K)
        self._field, self._step = field, step

    @property
    def zero(self) -> bool:
        """Whether the field is zero at every y whose support vector is
        finite, whatever the template's constants, proved from the sparsity
        of the plan (FlowPlan.vanishes) when the kernel is built: every
        entry of z counts as nonzero but those of A0_1 where no (q, p)
        sector writes them.  dynamics steps such a flow as the identity."""
        return self._zero

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """Packed tangent vector of the flow at y (y is never written)."""
        return self._field(y)

    def step(self, y: np.ndarray, h: float) -> np.ndarray:
        """dynamics.rk4_step on this kernel (y is never written)."""
        return self._step(y, h)


_KERNELS = {}


def field_kernel(template, f: FlowId) -> FieldKernel:
    """The FieldKernel of f on the template's states, memoised: the one
    route by which dynamics and flow_field get a kernel, so that each key
    builds a kernel once; a kernel whose build raises is not kept.  The
    memo is the one cache of kernels; of the tables a kernel holds, only
    the plan (flow_plan) and the pairs (pair_readout) are shared.  The
    key is what a kernel is built from: the plan
    flow_plan(config_of(template), f) itself (a patched flow_plan gets a
    fresh kernel), the state class and T and the current SECTOR_SIGN_*
    values, so the memo holds one kernel per key whatever templates a
    process draws.  A fetch loads the template's c and beta into the
    kernel (SupportWriter.load): a kernel computes for the template it
    was last fetched for, so integrate fetches once per segment and
    flow_field once per call."""
    _check_flow(template, f)
    key = (flow_plan(config_of(template), f), type(template), template.T,
           SECTOR_SIGN_PQ, SECTOR_SIGN_XX)
    kernel = _KERNELS.get(key)
    if kernel is None:
        kernel = _KERNELS[key] = FieldKernel(template, f)
    else:
        kernel.load(template)
    return kernel


def hamiltonian_gradient(state, f: FlowId) -> np.ndarray:
    """Full packed gradient dH/d(coords), read off the flow field sector by
    sector: dH/dP = -sign w dQ/dt and dH/dQ = sign w dP/dt, w = 1 or beta
    (a product, so at beta = 0 the (x, X) block is exactly zero)."""
    v = flow_field(state, f)
    g = np.empty(v.size, complex)
    for *_, iQ, iP, sign, weight in _sectors_of(state):
        sw = sign * weight
        g[iP] = -sw * v[iQ]
        g[iQ] = sw * v[iP]
    return g


def hamiltonian_value(state, f: FlowId) -> complex:
    """H_{p,r} = w_r Res lambda^p/(p+1) Tr L^(p+1) of the state, read off
    the gradient of its FlowPlan by Euler's identity (FlowPlan.values): L
    is linear in the support vector z, so H_{p,r} is homogeneous of degree
    p + 1 in z and (p + 1) H = z . dH/dz, the slot weight w_r and the sigma
    phases being in the plan's read-out already.  gaudin.hamiltonian is the
    oracle the tests hold this value to."""
    _check_flow(state, f)
    z = support_vector(state)
    return flow_plan(config_of(state), f).values(z[None])[0]


def flow_field(state, f: FlowId) -> np.ndarray:
    """Packed tangent vector of the flow t_p^r at the state (normative
    convention; the memoised FieldKernel of field_kernel)."""
    return field_kernel(state, f)(pack(state))


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
    velocity: the sum over sectors of -sign weight P . dQ/dt, that is
    -p.dq/dt (Toda), X.dx/dt (DST) and -p.dq/dt + beta X.dx/dt (coupled);
    total-derivative terms at 0 and infinity dropped."""
    y, terms = pack(state), []
    for *_, iQ, iP, sign, weight in _sectors_of(state):
        term = weight * np.dot(y[iP], velocity[iQ])
        terms.append(-term if sign > 0 else term)
    return complex(sum(terms[1:], terms[0]))


def lagrangian_coeff(state, f: FlowId):
    """On-shell Lagrangian coefficient: kinetic(flow velocity) - H_{p,r}."""
    vel = flow_field(state, f)
    return kinetic(state, vel) - hamiltonian_value(state, f)


def invariants(state) -> dict:
    """Kinematic invariants: sum p_i and prod a_i (Toda sector),
    Tr K_1 = sum x_i X_i (DST sector); row 0 of stacked_invariants."""
    return {k: v[0] for k, v in stacked_invariants(state, [pack(state)]).items()}


def stacked_invariants(template, Y) -> dict:
    """The invariants of the states packed as the rows of Y, read straight
    off the rows: per name one complex per row, bit for bit invariants of
    each row unpacked with the template's parameters."""
    Y = _real(np.asarray(Y), "state") if template.REAL else np.asarray(Y)
    out, nxt = {}, _cyclic(template.T)[1]
    for iQ, iP, _, pole, _ in _class_layout(type(template), template.T)[0]:
        if pole:   # per row a (1, T) @ (T, 1) product rounds as np.dot
            out[f"tr_K{pole}"] = np.matmul(Y[:, None, iQ],
                                           Y[:, iP, None])[:, 0, 0]
            continue
        q = np.asarray(Y[:, iQ], complex)
        out.update(sum_p=np.sum(Y[:, iP], axis=1),
                   prod_a=np.prod(np.exp(q - q[:, nxt]), axis=1))
    return {k: np.asarray(v, complex).tolist() for k, v in out.items()}


def coefficient_velocity(state, f: FlowId):
    """Time derivatives (dA0_0, dA0_1, [dA_1..dA_N], dAinf) of the Lax
    coefficients along the flow: the flow field pushed forward to the
    support vector by the tangent of the flow's own kernel (a loaded
    SupportWriter) and scattered into zero blocks."""
    k, y = field_kernel(state, f), pack(state)
    C = _scatter(state, k.tangent(y, k(y)))
    return C.A0_0, C.A0_1, C.A_list, C.Ainf


# ---------------------------------------------------------------------------
# seeded random states
# ---------------------------------------------------------------------------

def random_toda(T: int, rng: np.random.Generator, scale: float = 0.7) -> TodaState:
    return TodaState(rng.uniform(-scale, scale, T), rng.uniform(-scale, scale, T))


def random_dst(T: int, rng: np.random.Generator, zeta1: complex) -> DSTState:
    while True:
        sMat = rng.normal(size=(T, T)) + 1j * rng.normal(size=(T, T))
        if abs(np.linalg.det(sMat)) > 0.1:
            break
    c = rng.uniform(-0.8, 0.8, T) + 1j * rng.uniform(-0.4, 0.4, T)
    return dst_from_orbit(sMat, c, zeta1)


def random_coupled(T: int, rng: np.random.Generator, beta: float = 0.7, *,
                   zeta1: complex) -> CoupledState:
    toda = random_toda(T, rng)
    dst = random_dst(T, rng, zeta1)
    return CoupledState(toda.q, toda.p, dst.x, dst.X, dst.c, dst.zeta1, beta)
