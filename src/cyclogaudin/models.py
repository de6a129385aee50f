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

Compiled flow plans and field kernels
-------------------------------------
flow_field, hamiltonian_gradient, coefficient_velocity and
hamiltonian_value share one route: the support vector z of the state
(its structurally nonzero Lax coefficients) goes through the FlowPlan of
its (pole config, flow), built on first use and cached, which returns
dH/dz from a few matrix products.  The flow field follows by the chain
rule through z, and since L is linear in z, H_{p,r} is homogeneous of
degree p + 1 and Euler's identity reads the value off the same
gradient: H_{p,r} = z . dH/dz / (p + 1).  The plan weights are
read off the generic ratmat/gaudin code, and the tests hold the plan to
that generic route: its gradients to hamiltonian_coefficient_gradients
and to finite differences of gaudin.hamiltonian, its values to
gaudin.hamiltonian.  SupportWriter.write gives z of a packed y and
SupportWriter.tangent dz = (dz/dy) dy, a_i read off that z; _scatter
maps support vectors to Lax coefficients for coefficients,
stacked_coefficients and coefficient_jets.

Every flow p = 1..gaudin.MAX_DEPTH (6) has a plan and is certified;
FlowId rejects deeper ones, so no function here takes a depth argument.
admissible_flows(state, depth) only lists the flows of a model up to a
chosen depth.

A FieldKernel, memoised per (plan, state class and T, the constants its
writer puts into z, sector signs) by field_kernel, runs that route on
packed vectors y with no state object, in one call: its SupportWriter
writes the coordinate entries of z from views of the y slot of one
buffer [z | y | 1] whose constant entries are filled once, and the
plan's product chain ends in a pair read-out, one product that applies
the read-out and the chain rule together
(pair_readout, the one chain rule here).  dynamics integrates on kernels
and flow_field is a kernel applied to pack(state), both from
field_kernel, so the two agree bit for bit.  Every flow is Hamiltonian,
the field being the bracket applied to dH, so hamiltonian_gradient
reads the gradient off the field sector by sector.  The H values belong
to the plan, not to a kernel:
hamiltonian_value applies Euler's identity to the plan's own call, which
is one lane of FlowPlan.lanes, the plan run on a stack of support
vectors as a lane axis, bit for bit one call per lane; simulate reads
its H columns through the lanes (FlowPlan.values).  dynamics.rk4_step
hands the kernel each stage as (y, c, k), and the kernel writes the
point y + c k into its buffer's y slot.  For p = 1..3 a kernel call
costs 3.7-5.7 us on Toda T = 3, 3.3-7.2 us on DST T = 3 and 4.9-9.1 us
on coupled T = 2 and 3, and one RK4 step on a kernel 20.2-29.1 us,
20.4-35.8 us and 26.8-44.7 us (tools/kernel_timing.py: best single call
of 5000, best single step of 2000); over 150 lanes the plan costs
0.6-3.3 us per lane (best of 20 rounds of 20 calls).  Python 3.11,
NumPy 2.4, one thread of a shared 2-vCPU x86 VM.

Structural zeros
----------------
Some flows vanish identically: for DST, H_{p,0} = sum_i c_i^(p+1)/(p+1)
depends on the fixed c alone, so the flows (p, 0) are zero.
FieldKernel.zero proves this from the sparsity of the plan, never from a
value of the field: the support pattern of z (entries written from the
coordinates count as nonzero, constant entries by their value) goes
through expand, take and readout as boolean matrix products
(FlowPlan.vanishes), and the field is zero when no entry of dH/dz that
the chain rule reads can be nonzero.  The flag is worked out once per
kernel and cached per plan and pattern.  Over the three models, T = 1..5
and every flow to p = 6 it flags exactly the DST flows (p, 0), the tests
hold it to flow_field, and dynamics steps a flagged segment as the
identity.  flow_field and the kernel's call stay the oracle and still
return the zero vector.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cache

import numpy as np

from .algebra import primitive_root
from .errors import AdmissibilityError, StructuralError
from .gaudin import (FlowId, GaudinCoefficients, OrbitData, PoleConfig,
                     _gradients_from_series, _times_monomial, assemble_lax)
from .ratmat import LaurentSeries, RationalMatrix

_IMAG_TOL = 1e-9

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
    """(the vector fields, that is the blocks and c, the sector weights, and
    the constants a SupportWriter writes into z, that is c and the weights)
    of a state class, read once: fields() on every construction made the
    peak RSS creep over long runs."""
    weights = tuple(w for *_, w in cls.SECTORS if w is not None)
    vectors = tuple(f.name for f in fields(cls)
                    if f.name not in (*cls.POLES, *weights))
    return vectors, weights, tuple(
        n for n in vectors if n not in cls.BLOCKS) + weights


class _ModelState:
    """A state built and checked against its class's layout: the BLOCKS
    float on a REAL model (through _real, as unpack) and complex otherwise,
    the POLES complex and farther than 1e-12 from zero, the weights float,
    every other field (c) complex, and the blocks and c vectors of length T."""

    @property
    def T(self) -> int:
        return getattr(self, self.BLOCKS[0]).size

    def __post_init__(self):
        vectors, weights, _ = _field_roles(type(self))
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
            if abs(getattr(self, name)) <= 1e-12:
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
    coefficients in the order of _support_index.  Toda [p, a, 1],
    DST [c, 0, x X^T, 1], coupled [p + beta c, a, beta x X^T, 1 + beta],
    with a_i = exp(q_i - q_{i+1}) the subdiagonal entry J01[i+1, i]."""
    return SupportWriter(state).write(pack(state))


def _scatter(template, Z) -> GaudinCoefficients:
    """The Lax coefficients [A0_0, A0_1, A_1..A_N, Ainf] of the support
    vectors Z (..., nz) of the template's model: Z scattered into zero
    blocks, leading axes riding along as stack axes.  Toda J00 = diag(p),
    J01 = sum_i a_i E_{i+1,i}; DST diag(c), 0, K_1 = x X^T; coupled
    J00 + beta diag(c), J01, beta K_1.  Ainf is the unit shift
    sum_i E_{i,i+1} for Toda and DST, and (1 + beta) times it for the
    coupled model.  coefficients, stacked_coefficients and
    coefficient_jets all scatter here."""
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
    if abs(lam) <= 1e-12:
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
    current SECTOR_SIGN_* value and the weight's value or None."""
    T = state.T
    for Q, P, sign, weight in state.SECTORS:
        iQ, iP = (slice(k * T, (k + 1) * T)
                  for k in map(state.BLOCKS.index, (Q, P)))
        yield (Q, P, iQ, iP, globals()[sign],
               None if weight is None else getattr(state, weight))


@cache
def _class_layout(cls, T: int) -> tuple:
    """(T, the slices of the q, p, x and X blocks in the packed vector,
    None for a block the model lacks, the cyclic index arrays i+1, i-1, and
    the mask of the support vector entries that are written from the
    coordinates) of a state class and T (cached; read-only)."""
    at = {b: slice(k * T, (k + 1) * T) for k, b in enumerate(cls.BLOCKS)}
    _, nxt, prev = _cyclic(T)
    # z = [p or p + beta c, a, x X^T, Ainf]: p and a come from (q, p),
    # the x X^T block from (x, X); the rest is constant
    coords = np.zeros(_support_index(len(cls.POLES) + 3, T).size, bool)
    coords[:2 * T] = "q" in at
    coords[2 * T:2 * T + T * T] = "x" in at
    coords.setflags(write=False)
    return (T, *map(at.get, ("q", "p", "x", "X")), nxt, prev, coords)


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
        out.append((iP, iQ, sign if weight is None else sign / weight))
    return out


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
    stack of support vectors, and a call is one lane of it.  H_{p,r} is
    the plan's too: values, and hamiltonian_value, by Euler's identity.
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
        return self.lanes(z[None])[0]

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
        """H_{p,r} at every row of an (m, nz) stack Z of support vectors, bit
        for bit hamiltonian_value per row: lanes gives the gradients, and
        each row's z . dH/dz stays its own dot product."""
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
    """Writes the support vector z of the states that share a template's
    model, T and parameters straight from their packed vectors y, with no
    state object.

    z heads one buffer [z | y | 1], in float64 on a real model, whose
    constant entries (c and the zero A0_1 entries for DST, 1 or 1 + beta
    on Ainf, the trailing 1) are filled once.  y goes into its slot, and
    the one z write (fill, chosen for the model when the writer is built)
    writes the coordinate entries from views of the slot fixed at build:
    p or p + beta c from the p block, a_i = exp(D q) (_difference) from
    the q block, and x X^T from the x column and the X row.  write
    returns z, a view of the buffer valid until the next write, which
    tangent reads a_i off.  A Toda y
    with an imaginary part above _IMAG_TOL is rejected, as unpack rejects
    it; a real y of a complex model is cast into the slot, as unpack
    casts it.  The complex D makes a_i the complex exp on Toda too, of
    which z keeps the real part, since exp rounds differently on real
    arguments."""

    __slots__ = ("T", "real", "buf", "z", "y", "beta", "qs", "ps", "xs",
                 "Xs", "coords", "fill")

    def __init__(self, template):
        _check_model(template)
        self.real = template.REAL
        (T, self.qs, self.ps, self.xs, self.Xs, _, _,
         self.coords) = _class_layout(type(template), template.T)
        self.T, nz = T, self.coords.size
        self.buf = buf = np.empty(nz + nvars(template) + 1,
                                  float if self.real else complex)
        buf[-1] = 1.0
        self.z, self.y = z, y = buf[:nz], buf[nz:-1]
        zp, za = z[:T], z[T:2 * T]
        self.beta = None
        if self.xs is None:   # Toda
            z[2 * T:] = 1.0
            yp, yq, D = y[self.ps], y[self.qs], _difference(T)
            qa = np.empty(T, complex)
            qa_re = qa.real

            def fill():
                zp[...] = yp
                np.exp(np.dot(D, yq, qa), qa)
                za[...] = qa_re
                return z
            self.fill = fill
            return
        K = z[2 * T:2 * T + T * T].reshape(T, T)
        yx, yX = y[self.xs, None], y[None, self.Xs]
        if self.qs is None:   # DST
            zp[:] = template.c
            za[:] = 0.0
            z[-T:] = 1.0

            def fill():
                np.multiply(yx, yX, K)
                return z
            self.fill = fill
            return
        bc = template.beta * template.c   # coupled
        z[-T:] = 1.0 + template.beta
        self.beta = beta = np.array(template.beta, complex)  # 0-d: cast once
        yp, yq, D = y[self.ps], y[self.qs], _difference(T)

        def fill():
            np.add(yp, bc, zp)
            np.exp(np.dot(D, yq, za), za)
            np.multiply(yx, yX, K)
            np.multiply(beta, K, K)
            return z
        self.fill = fill

    def write(self, y: np.ndarray) -> np.ndarray:
        """The support vector of the state packed as y (the buffer's z)."""
        if self.real and y.dtype.kind == "c":
            y = _real(y, "state")
        self.y[...] = y
        return self.fill()

    def tangent(self, y: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """dz = (dz/dy) dy at the state packed as y for a vector dy or a
        (..., n) stack of them, a new complex (..., nz) array: dp, a_i (dq_i
        - dq_{i+1}) and dx (beta X)^T + (beta x) dX^T (beta = 1 but on the
        coupled model), a_i read off z = write(y), left in the buffer; the
        constant entries have zero tangent."""
        T, lead, z = self.T, dy.shape[:-1], self.write(y)
        dz = np.zeros((*lead, z.size), complex)
        if self.qs is not None:
            a, dq = z[T:2 * T], dy[..., self.qs]
            dz[..., :T] = dy[..., self.ps]
            dz[..., T:2 * T] = a * dq - a * dq[..., _cyclic(T)[1]]
        if self.xs is not None:
            x, X = y[self.xs], y[self.Xs]
            if self.beta is not None:
                x, X = self.beta * x, self.beta * X
            dK = (dy[..., self.xs, None] * X
                  + x[:, None] * dy[..., None, self.Xs])
            dz[..., 2 * T:2 * T + T * T] = dK.reshape(*lead, T * T)
        return dz

    def stack(self, Y) -> np.ndarray:
        """The support vectors of the states packed as the rows of Y, as a
        new (m, nz) array."""
        Z = np.empty((len(Y), self.z.size), complex)
        for i, y in enumerate(Y):
            Z[i] = self.write(y)
        return Z


@cache
def _vanishes(plan: FlowPlan, nonzero: bytes, read: bytes) -> bool:
    """FlowPlan.vanishes, cached per plan and support patterns, which come
    as bytes since ndarrays do not hash."""
    return plan.vanishes(np.frombuffer(nonzero, bool),
                         np.frombuffer(read, bool))


@cache
def pair_readout(cls, T: int, neg_q: bool, neg_x: bool) -> tuple:
    """A FieldKernel's chain rule as (field entry, factor, g = dH/dz entry)
    pairs over its buffer aug = [z | y | 1], shared by the plans of a
    class: pair j reads g[rows[j]] times aug[at[j]], and the (n, m) matrix
    C of signs (neg_q, neg_x: the sector's Q block is the negated one)
    sums each field entry's pairs, so the field is C @ (g[rows] * aug[at]).
    dq_i reads g_p,i (factor 1), dp_i g_a,i (a_i) and g_a,i-1 (a_i-1),
    dx_j GK[i, j] (x_i) and dX_i GK[i, j] (X_j): the 1/beta of the bracket
    cancels the beta of z's x X^T block."""
    _, qs, ps, xs, Xs, _, prev, coords = _class_layout(cls, T)
    nz, n, i = coords.size, len(cls.BLOCKS) * T, np.arange(T)
    sq, sx = (-1.0 if neg else 1.0 for neg in (neg_q, neg_x))
    pairs = []   # (field entries, factors in aug, rows of g, sign)
    if qs is not None:
        pairs += [(qs.start + i, nz + n, i, sq),
                  (ps.start + i, T + i, T + i, -sq),
                  (ps.start + i, T + prev, T + prev, sq)]
    if xs is not None:
        a, b = np.divmod(np.arange(T * T), T)   # GK[a, b] = g[2T + aT + b]
        pairs += [(xs.start + b, nz + xs.start + a, 2 * T + a * T + b, sx),
                  (Xs.start + a, nz + Xs.start + b, 2 * T + a * T + b, -sx)]
    k, at, rows, sign = (np.concatenate(c) for c in zip(
        *(np.broadcast_arrays(*t) for t in pairs)))
    C = np.where(np.arange(n)[:, None] == k, sign, 0.0)
    return rows, at, C.astype(float if cls.REAL else complex)


@cache
def pair_tensors(plan: FlowPlan, cls, T: int, neg_q: bool,
                 neg_x: bool) -> tuple:
    """The (E, Q, rows, at, C) of a FieldKernel key: the plan's E and the
    span of read-out rows the pairs read, in float64 on a real model once
    proved real, Q @ E at p = 1 (read-only)."""
    rows, at, C = pair_readout(cls, T, neg_q, neg_x)
    lo = rows.min()
    E, Q = plan.expand, plan.readout[lo:rows.max() + 1]
    if cls.REAL:
        if E.imag.any() or Q.imag.any():
            raise StructuralError("Toda flow plan is not real")
        E, Q = E.real.copy(), Q.real.copy()
    if plan.p == 1:
        Q = Q @ E[:-1]
    pairs = (E, Q, rows - lo, at, C)
    for arr in pairs:
        arr.setflags(write=False)
    return pairs


class FieldKernel(SupportWriter):
    """The flow field of one flow (p, r) on the states of one template, as
    a map from the packed vector y, in one call: the SupportWriter writes
    z into the head of the kernel's buffer aug = [z | y | 1], the plan's
    product chain gives P (the series of L^p) and the pair read-out the
    field, C @ ((Q @ P)[rows] * aug[at]) (pair_readout), with the sector
    signs read, and the flow checked, when the kernel is built.  Q holds
    the read-out rows the pairs read, once each.  The tensors are built on
    the first call and cached per key (pair_tensors); at p = 1, Q is
    folded into E, so the call is the z write and one product chain.
    A Toda kernel holds z, E and Q in float64 once E and Q are proved real,
    so its field is real by construction.  The first call also binds the
    tensors, the buffer's views and the model's z write into the field
    the later calls run.  A call takes an RK4 stage as (y, c, k), the
    field at y + c k: the point is written straight into the buffer's y
    slot, rounded as y + c * k.  A call returns a new array, so RK4 can
    hold its four stages.  H values are the plan's (FlowPlan.values).
    A call rewrites every buffer it reads and zero reads only constants,
    so field_kernel memoises one kernel per (plan, state class and T, c
    and the sector weights, SECTOR_SIGN_* values), for every caller: both
    dynamics and flow_field take their kernels from it.
    Timings: the module docstring."""

    __slots__ = ("plan", "key", "_zero", "_field")

    def __init__(self, template, f: FlowId):
        super().__init__(template)
        _check_flow(template, f)
        self.plan = flow_plan(config_of(template), f)
        self._zero = None
        # per sector: is its Q block the negated one (sign > 0)
        neg = {Q: globals()[sign] > 0 for Q, _, sign, _ in template.SECTORS}
        self.key = (self.plan, type(template), self.T,
                    neg.get("q"), neg.get("x"))

    @property
    def zero(self) -> bool:
        """Whether the field is zero at every y whose support vector is
        finite, proved from the sparsity of the plan (FlowPlan.vanishes)
        on first use and cached per plan and support pattern: entries of
        z written from the coordinates count as nonzero, constant entries
        by their value.  dynamics steps such a flow as the identity."""
        if self._zero is None:
            nonzero = self.coords | (self.z != 0)   # the constants are never rewritten
            self._zero = _vanishes(self.plan, nonzero.tobytes(),
                                   self.coords.tobytes())
        return self._zero

    def __call__(self, y: np.ndarray, c=None, k=None) -> np.ndarray:
        """Packed tangent vector of the flow at y, or at y + c k given the
        RK4 stage (c, k) (a new array; y is never written)."""
        try:
            field = self._field
        except AttributeError:   # the first call
            field = self._bind()
        return field(y, c, k)

    def _bind(self):
        """The kernel's field, with the pair tensors, the buffer's views,
        the model's z write and the plan's chain bound in; set as _field.
        The chain runs in buffers of its own: S = E z, then the p - 1
        products P = W P from the view of S's first block column, each
        into the other of two buffers, the pair read-out reading the last
        one flat (z itself at p = 1, where Q is already Q E)."""
        E, Q, rows, at, C = pair_tensors(*self.key)
        buf, ys, fill, real = self.buf, self.y, self.fill, self.real
        take, S = self.plan.take, np.empty(len(E), E.dtype)
        outs = [np.empty((len(take), self.T), E.dtype)
                for _ in range(min(2, self.plan.p - 1))]
        products, P = [], S[:-1].reshape(len(take), -1)   # (in, out) of P = W P
        for i in range(self.plan.p - 1):
            products.append((P, outs[i % 2]))
            P = outs[i % 2]
        P = P.reshape(-1) if products else self.z

        def field(y, c=None, k=None):
            if real and y.dtype.kind == "c":
                y = _real(y, "state")
            if k is None:
                ys[...] = y
            else:   # y + c * k, rounded as RK4 writes it
                np.multiply(c, k, ys)
                np.add(y, ys, ys)
            z = fill()
            if products:
                W = E.dot(z, S)[take]
                for a, b in products:
                    W.dot(a, b)
            return C.dot(Q.dot(P)[rows] * buf[at])
        self._field = field
        return field


_KERNELS = {}


def field_kernel(template, f: FlowId) -> FieldKernel:
    """The FieldKernel of f on the template's states, memoised: the one
    route by which dynamics and flow_field get a kernel, so that each key
    builds, binds and proves zero once.  The key is everything a kernel
    bakes in: the plan flow_plan(config_of(template), f) itself (a patched
    flow_plan gets a fresh kernel), the state class and T, the constants
    the SupportWriter writes into z (c and the sector weights, as bytes, so
    that signed zeros count) and the current SECTOR_SIGN_* values.  The
    coordinates are not in the key.  The memo is not bounded: it holds
    about 4-8 KB per key (T = 2..5), so a process that draws many
    templates keeps a kernel for each of their flows."""
    _check_flow(template, f)
    cls = type(template)
    key = (flow_plan(config_of(template), f), cls, template.T,
           *[np.asarray(getattr(template, name)).tobytes()
             for name in _field_roles(cls)[2]],
           SECTOR_SIGN_PQ, SECTOR_SIGN_XX)
    kernel = _KERNELS.get(key)
    if kernel is None:
        kernel = _KERNELS[key] = FieldKernel(template, f)
    return kernel


def hamiltonian_gradient(state, f: FlowId) -> np.ndarray:
    """Full packed gradient dH/d(coords), read off the flow field sector by
    sector: dH/dP = -sign w dQ/dt and dH/dQ = sign w dP/dt, w = 1 or beta
    (a product, so at beta = 0 the (x, X) block is exactly zero)."""
    v = flow_field(state, f)
    g = np.empty(v.size, complex)
    for *_, iQ, iP, sign, weight in _sectors_of(state):
        sw = sign if weight is None else sign * weight
        g[iP] = -sw * v[iQ]
        g[iQ] = sw * v[iP]
    return g


def hamiltonian_value(state, f: FlowId) -> complex:
    """H_{p,r} = w_r Res lambda^p/(p+1) Tr L^(p+1) of the state, read off
    the gradient of its FlowPlan by Euler's identity: L is linear in the
    support vector z, so H_{p,r} is homogeneous of degree p + 1 in z and
    (p + 1) H = z . dH/dz, the slot weight w_r and the sigma phases being
    in the plan's read-out already.  gaudin.hamiltonian is the oracle the
    tests hold this value to."""
    _check_flow(state, f)
    z = support_vector(state)
    return complex(z @ flow_plan(config_of(state), f)(z)) / (f.p + 1)


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
        term = np.dot(y[iP], velocity[iQ])
        if weight is not None:
            term = weight * term
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
    _, qs, ps, xs, Xs, nxt, *_ = _class_layout(type(template), template.T)
    out = {}
    if qs is not None:
        q = np.asarray(Y[:, qs], complex)
        out.update(sum_p=np.sum(Y[:, ps], axis=1),
                   prod_a=np.prod(np.exp(q - q[:, nxt]), axis=1))
    if xs is not None:   # per row a (1, T) @ (T, 1) product rounds as np.dot
        out["tr_K1"] = np.matmul(Y[:, None, xs], Y[:, Xs, None])[:, 0, 0]
    return {k: np.asarray(v, complex).tolist() for k, v in out.items()}


def coefficient_velocity(state, f: FlowId):
    """Time derivatives of the Lax coefficients induced by the coordinate
    flow field, via the coefficient/coordinate Jacobian stacks."""
    v = np.asarray(flow_field(state, f), complex)
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
