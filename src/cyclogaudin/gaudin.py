"""Generic cyclotomic Gaudin layer: Lax matrix assembly from residue
coefficients, coadjoint-orbit dressing, the residue Hamiltonians H_{p,r},
the Lax partners h_r^{(p)}, and Lax right-hand sides.

The Lax matrix is the weight-1 equivariant rational matrix

    L(lambda) = A0_0/lambda + A0_1/lambda^2
              + (1/T) sum_r sum_k sigma^k A_r / (lambda - omega^k zeta_r)
              + Ainf,

with A0_0 of grade 0, A0_1 of grade -1 and Ainf of grade 1.  Hamiltonians
are residues H_{p,0} = Res_0 (lambda^p/(p+1)) Tr L^(p+1) and
H_{p,r} = T Res_{zeta_r} (lambda^p/(p+1)) Tr L^(p+1); their sum over all
points including infinity vanishes by the residue theorem.

The hierarchy depth has one limit, MAX_DEPTH = 6, enforced where a
FlowId is built: flows p = 1..6 are accepted everywhere and certified by
the tests, p >= 7 is rejected with InvalidOrderError.

Every local read of a power of L is RationalMatrix.power_series at the
highest order it reads, u^-1 for H_{p,r} and the partners, u^+1 for the
gradients and u^(p+1) for H_{p,inf}; no expansion order is set by hand.

The Lax equation is read once per Gamma-orbit: lax_rhs forms [L, h] at
0 and zeta_1..zeta_N (and its polynomial part at infinity) and writes
the other T - 1 poles of each orbit by weight-1 equivariance with
orbit_family, as assemble_lax writes L and lax_partner writes h.

hamiltonian_coefficient_gradients is the generic adjoint-gradient route.
The flow fields run it compiled, as models.FlowPlan, whose weights come
from _times_monomial and _gradients_from_series below; the tests compare
the plan against this generic route.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import RootOfUnity, grading_residual, primitive_root
from .errors import (GradingError, InvalidOrderError, PoleProximityError,
                     StructuralError)
from .ratmat import (_POLE_TOL, INF, LaurentSeries, RationalMatrix,
                     binomial_weights, orbit_family, slot_weight)

_GRADE_TOL = 1e-12
_STRUCT_TOL = 1e-10  # lax_rhs: commutator dust allowed off L's pole orders
MAX_DEPTH = 6
# the highest order of L^p at the slot that the gradient profiles read
# (M_A01 at the slot 0 reads u^+1), the top of every gradient's power
GRADIENT_TOP = 1


@dataclass(frozen=True)
class FlowId:
    """Hierarchy time t_p^r: power 1 <= p <= MAX_DEPTH, pole index r in
    {0..N}.

    MAX_DEPTH is the one hierarchy-depth limit: every flow p <= 6 is
    certified by the tests (residue sums, involutivity, EL-Lax agreement,
    the compiled plans against the generic route), and a deeper FlowId
    cannot be built, so gaudin and models take no depth argument."""

    p: int
    r: int

    def __post_init__(self):
        if self.p < 1:
            raise InvalidOrderError(f"flow power must be >= 1, got {self.p}")
        if self.p > MAX_DEPTH:
            raise InvalidOrderError(
                f"flow power {self.p} exceeds the hierarchy depth {MAX_DEPTH}")
        if self.r < 0:
            raise InvalidOrderError(f"pole index must be >= 0, got {self.r}")

    def __str__(self):
        return f"({self.p},{self.r})"


@dataclass(frozen=True)
class PoleConfig:
    """Gamma-orbit pole data: order T and finite nonzero points zeta_r.
    The root of unity is derived, always primitive_root(T)."""

    T: int
    zetas: tuple
    root: RootOfUnity = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "zetas", tuple(complex(z) for z in self.zetas))
        object.__setattr__(self, "root", primitive_root(self.T))
        for z in self.zetas:
            if abs(z) <= _POLE_TOL:
                raise PoleProximityError("zeta_r must be nonzero")
        for a, za in enumerate(self.zetas):
            for b, zb in enumerate(self.zetas):
                if a != b and any(abs(w - zb) <= _POLE_TOL
                                  for w in self.root.orbit(za)):
                    raise PoleProximityError(
                        f"Gamma-orbits of zeta_{a+1} and zeta_{b+1} intersect")

    @property
    def N(self) -> int:
        return len(self.zetas)

    def slot_point(self, r: int) -> complex:
        """0 for r = 0, else zeta_r: the one range check of a pole index."""
        if not 0 <= r <= self.N:
            raise InvalidOrderError(f"pole index {r} out of range (N={self.N})")
        return self.zetas[r - 1] if r else 0j


@dataclass
class GaudinCoefficients:
    """Residue data (A0_0, A0_1, A_1..A_N, Ainf) with grading constraints.

    Each coefficient is a (T, T) matrix, or with validate=False a stack
    (n, T, T) such as the Jacobian of the coefficients with respect to n
    coordinates (L is linear in its coefficients)."""

    A0_0: object
    A0_1: object
    A_list: list
    Ainf: object
    T: int
    validate: bool = True    # False skips the grading check (trusted builders)

    def __post_init__(self):
        if not self.validate:
            return
        for name, mat, grade in (("A0_0", self.A0_0, 0), ("A0_1", self.A0_1, -1),
                                 ("Ainf", self.Ainf, 1)):
            res = grading_residual(mat, grade, self.T)
            if res > _GRADE_TOL:
                raise GradingError(f"{name} off grade {grade} by {res:.2e}")


@dataclass
class OrbitData:
    """Fixed orbit representatives Lambda and dressing fields phi.

    The scalar gauge freedom in phi0_0 is resolved by rescaling (phi0_0,
    phi0_1) by det(phi0_0)^(-1/T) at construction, which leaves all
    dressed coefficients unchanged.
    """

    Lam0_0: np.ndarray
    Lam0_1: np.ndarray
    Lam_list: list
    Laminf: np.ndarray
    phi0_0: np.ndarray
    phi0_1: np.ndarray
    phi_list: list
    T: int

    def __post_init__(self):
        self.phi0_0 = np.asarray(self.phi0_0, dtype=complex)
        self.phi0_1 = np.asarray(self.phi0_1, dtype=complex)
        det = np.linalg.det(self.phi0_0)
        if abs(det) < 1e-300 or np.linalg.cond(self.phi0_0) > 1e12:
            raise StructuralError("phi0_0 is (numerically) singular")
        scale = det ** (-1.0 / self.T)
        self.phi0_0 = scale * self.phi0_0
        self.phi0_1 = scale * self.phi0_1
        for name, mat, grade in (("phi0_0", self.phi0_0, 0), ("phi0_1", self.phi0_1, 1)):
            res = grading_residual(mat, grade, self.T)
            if res > _GRADE_TOL:
                raise GradingError(f"{name} off grade {grade} by {res:.2e}")


def dress(O: OrbitData) -> GaudinCoefficients:
    """Coadjoint-orbit dressing of the fixed data Lambda by the fields phi."""
    inv0 = np.linalg.inv(O.phi0_0)
    B = O.phi0_0 @ np.asarray(O.Lam0_1, complex) @ inv0
    A0_1 = B
    W = O.phi0_1 @ inv0
    A0_0 = O.phi0_0 @ np.asarray(O.Lam0_0, complex) @ inv0 + (W @ B - B @ W)
    A_list = []
    for phi, Lam in zip(O.phi_list, O.Lam_list):
        phi = np.asarray(phi, complex)
        if abs(np.linalg.det(phi)) < 1e-300:
            raise StructuralError("singular dressing field phi_r")
        A_list.append(phi @ np.asarray(Lam, complex) @ np.linalg.inv(phi))
    return GaudinCoefficients(A0_0=A0_0, A0_1=A0_1, A_list=A_list,
                              Ainf=np.asarray(O.Laminf, complex), T=O.T)


def assemble_lax(C: GaudinCoefficients, P: PoleConfig) -> RationalMatrix:
    """Build the weight-1 equivariant Lax matrix from its coefficients."""
    if len(C.A_list) != P.N:
        raise StructuralError(f"expected {P.N} orbit coefficients, got {len(C.A_list)}")
    poles = [(0j, [C.A0_0, C.A0_1])]
    for zr, Ar in zip(P.zetas, C.A_list):
        poles += [(z, [c * (1.0 / P.T) for c in cs])
                  for z, cs in orbit_family(zr, [Ar], P.root, 1)]
    return RationalMatrix(P.T, [C.Ainf], poles).trim()


def _times_monomial(s: LaurentSeries, point, p: int) -> LaurentSeries:
    """lambda^p times the series s at a finite slot point: an exponent
    shift at 0, elsewhere the product with the exact expansion
    lambda^p = sum_j binom(p, j) point^(p-j) (lambda - point)^j, padded
    with zeros to the length of s."""
    if abs(point) <= _POLE_TOL:
        return s.shift(p)
    return s.mul(LaurentSeries(s.dim, point, 0,
                               binomial_weights(p, point, len(s.coeffs))))


def hamiltonian(f: FlowId, L: RationalMatrix, P: PoleConfig):
    """H_{p,r} = w_r Res_{slot} (lambda^p/(p+1)) Tr L^(p+1) with the slot
    weight w_r: 1 at r = 0 and T for r >= 1."""
    p, point = f.p, P.slot_point(f.r)
    tr = L.power_series(point, p + 1, -1).trace_series()
    # Res lambda^p tr = sum_j binom(p, j) point^(p-j) tr_(-1-j), whose
    # weights are (0, .., 0, 1) at point 0; the scalar residue arithmetic
    # runs on Python complex numbers
    res = 0j
    for j, w in enumerate(binomial_weights(p, point, p + 1)):
        res = res + complex(w) * complex(tr.coeff(-1 - j))
    return slot_weight(point, P.T) * res / (p + 1)


def hamiltonian_at_infinity(p: int, L: RationalMatrix, P: PoleConfig):
    """H_{p,inf} = Res_inf (lambda^p/(p+1)) Tr L^(p+1) dlambda
    = -(1/(p+1)) [coefficient of u^(p+1)] of Tr L^(p+1) at infinity.
    p is range-checked as a FlowId power is."""
    FlowId(p, 0)
    tr = L.power_series(INF, p + 1, p + 1).trace_series()
    return -complex(tr.coeff(p + 1)) / (p + 1)


def lax_partner(f: FlowId, L: RationalMatrix, P: PoleConfig) -> RationalMatrix:
    """The weight-0 equivariant rational h_r^{(p)} whose only singular part
    lies on the Gamma-orbit of the slot and matches the principal part of
    the local expansion of lambda^p L^p there."""
    point = P.slot_point(f.r)
    prin = _times_monomial(L.power_series(point, f.p, -1), point,
                           f.p).principal()
    poles = ([(0j, prin)] if f.r == 0 else
             orbit_family(point, prin, P.root, 0))
    return RationalMatrix(L.dim, [], poles, validate=False).trim()


@dataclass
class CoefficientDerivative:
    """Time derivatives of the Lax coefficients along one flow."""

    dA0_0: np.ndarray
    dA0_1: np.ndarray
    dA_list: list
    dAinf: np.ndarray


def lax_rhs(f: FlowId, L: RationalMatrix, P: PoleConfig):
    """-[h_r^{(p)}, L] = [L, h_r^{(p)}] reduced to the pole structure of L.

    Precondition: L is weight-1 equivariant, as assemble_lax builds it.
    The partner has weight 0, so [L, h] has weight 1 and its principal
    part at omega^k zeta_r is fixed by the one at zeta_r.  The commutator
    is therefore formed at 0, zeta_1..zeta_N and INF only, and each
    zeta_r orbit is written from its representative by orbit_family with
    weight 1, as assemble_lax writes L.

    Returns (rhs RationalMatrix, CoefficientDerivative).  A principal
    coefficient at 0 or zeta_r beyond the orders present in L there, or a
    polynomial coefficient, larger than _STRUCT_TOL (1e-10) in max-abs
    raises StructuralError: the commutator must close on the coefficient
    space.  The orbit images carry the entry moduli of their
    representative, so the check there covers them.
    """
    reps = [0j, *P.zetas]
    rhs = L.commutator(lax_partner(f, L, P), reps + [INF])
    at = dict(rhs.poles)  # a point that trim dropped is exactly zero
    zero = np.zeros((L.dim, L.dim), complex)
    prin = []
    # check pole orders do not exceed those of L, then trim the dust
    for z in reps:
        cs, o = at.get(z, zero[:0]), L.pole_order(z)
        for k in range(o, len(cs)):
            mx = float(np.max(np.abs(cs[k])))
            if mx > _STRUCT_TOL:
                raise StructuralError(
                    f"commutator pole at {z} of order {k+1} (magnitude {mx:.2e})")
        prin.append(cs[:o])
    for c in rhs.poly:
        if float(np.max(np.abs(c))) > _STRUCT_TOL:
            raise StructuralError("commutator has an unexpected polynomial part")
    at0, *at_zetas = prin
    poles = [(0j, at0)] if len(at0) else []
    for zr, cs in zip(P.zetas, at_zetas):
        poles += orbit_family(zr, cs, P.root, 1)
    reduced = RationalMatrix(L.dim, [], poles, validate=False)
    # dA0_0 and dA0_1 are the u^-1 and u^-2 coefficients of the pole at 0
    dA0_0, dA0_1 = [*at0, zero, zero][:2]
    dA_list = [P.T * cs[0] if len(cs) else zero for cs in at_zetas]
    return reduced, CoefficientDerivative(dA0_0, dA0_1, dA_list, zero)


# ---------------------------------------------------------------------------
# Adjoint gradients: dH_{p,r} = Tr(M_A00 dA0_0) + Tr(M_A01 dA0_1)
#                  + sum_r Tr(M_r dA_r) + Tr(M_inf dAinf)
# via residue convolutions of the series G = lambda^p L^p at the slot.
# ---------------------------------------------------------------------------

def _residue_against_profile(G: LaurentSeries, z0: complex, a,
                             m: int) -> np.ndarray:
    """Res_{z0} of (lambda - a)^(-m) G(lambda) dlambda, G the series at the
    slot point z0: G_(m-1) when a = z0, else the Taylor weights of the
    profile at z0 against the principal part of G, one scaled add per order."""
    if abs(a - z0) <= _POLE_TOL:
        return G.coeff(m - 1)
    prin = G.principal()
    acc = np.zeros(G.coeffs.shape[1:], complex)
    for w, c in zip(binomial_weights(-m, z0 - a, len(prin)), prin):
        acc = acc + w * c
    return acc


def hamiltonian_coefficient_gradients(f: FlowId, L: RationalMatrix,
                                      P: PoleConfig):
    """Exact gradient matrices of H_{p,r} with respect to the Lax
    coefficients (adjoint/residue route; no dual numbers)."""
    point = P.slot_point(f.r)
    G = _times_monomial(L.power_series(point, f.p, GRADIENT_TOP), point, f.p)
    return _gradients_from_series(G, f, P)


def _gradients_from_series(G: LaurentSeries, f: FlowId, P: PoleConfig):
    """(M_A00, M_A01, [M_1..M_N], M_inf) read off the series
    G = lambda^p L^p at the slot of f by the residue profiles.  Linear in
    G, which is what lets models.FlowPlan compile it."""
    point = P.slot_point(f.r)
    w = slot_weight(point, P.T)
    M_A00 = w * _residue_against_profile(G, point, 0j, 1)
    M_A01 = w * _residue_against_profile(G, point, 0j, 2)
    M_inf = w * G.coeff(-1)
    M_list = []
    for zr in P.zetas:
        acc = np.zeros((G.dim, G.dim), complex)
        for k in range(P.T):
            acc += _residue_against_profile(G.sigma(-k, P.root), point,
                                            P.root.power(k) * zr, 1)
        M_list.append(w * acc / P.T)
    return M_A00, M_A01, M_list, M_inf
