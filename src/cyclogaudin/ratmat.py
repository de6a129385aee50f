"""Matrix-valued rational functions of the spectral parameter in
partial-fraction form, their local Laurent expansions, residues and the
regular/singular splitting.

Conventions:
  * A RationalMatrix is poly(lambda) + sum over poles z of
    sum_k coeffs[k-1] / (lambda - z)^k.
  * Coefficients are stacked ndarrays, as in a LaurentSeries: poly is one
    array of shape (m, *shape) and each pole is (z, array (k, *shape)),
    where shape is (T, T) or, for evaluation only, a Jacobian stack
    (n, T, T); series multiply matrix and scalar stacks alone.
  * Every move of a pole or monomial term to another point is one rule,
    (lambda - a)^n = sum_j binom(n, j) (b - a)^(n-j) (lambda - b)^j, with
    the weights of binomial_weights (the generalised binomial for n < 0).
    The weights are tabulated once per expansion shape (pole points and
    orders, polynomial length, point, trunc and local pole), and an
    expansion sums its moved terms in order, the poles and then the
    polynomial, in one NumPy reduction.
  * RationalMatrix.mul and .commutator are one product routine, which
    walks a list of points and expands each operand once per point and
    call: mul walks every pole point of either operand and INF, and
    commutator the points it is given, where A B - B A makes each
    expansion once.  gaudin.lax_rhs asks for the Gamma-orbit
    representatives only.
  * The point at infinity is the float INF; series there are in
    u = 1/lambda.  The residue of R dlambda at infinity is minus the
    coefficient of u^(+1) of the expansion of R in u.
  * Series coefficients beyond trunc_order are unknown, not zero; asking
    for them raises TruncationError.  All residues are read from series
    data; no numerical contour integration anywhere.
  * The power rule: RationalMatrix.power_series(point, m, top), self^m up
    to u^top, expands self to power_trunc(low, m, top) = max(top - (m - 1)
    low, low) orders (low its lowest order there), all that the Cauchy
    coefficients up to u^top read; no power is sized by a margin, and an
    undercount raises.
"""
from __future__ import annotations

from functools import cache
from math import inf, isinf

import numpy as np

from .algebra import RootOfUnity, sigma_pow
from .errors import (DimensionError, DivergenceError, PoleProximityError,
                     StructuralError, TruncationError)

INF = inf  # distinguished symbol for the point at infinity

_POLE_TOL = 1e-12
_MAX_POLE_ORDER = 8
_SPLIT_TRUNC = 12  # series order to which split expands at every slot


def _is_inf(point) -> bool:
    return isinstance(point, float) and isinf(point)


def _same_point(a, b) -> bool:
    ia, ib = _is_inf(a), _is_inf(b)
    if ia or ib:
        return ia and ib
    return abs(a - b) <= _POLE_TOL


def power_trunc(low: int, m: int, top: int) -> int:
    """The power rule: the highest order to which a series of lowest order
    low is expanded so that its m-th power is known up to u^top."""
    return max(top - (m - 1) * low, low)


def slot_weight(point, T: int) -> float:
    """Weight of a slot in the residue sums and the Hamiltonians: 1 at
    0 and at infinity, T at a finite nonzero point, whose residue stands
    for the T points of its Gamma-orbit."""
    return 1.0 if _is_inf(point) or abs(point) <= _POLE_TOL else float(T)


@cache
def _binomial_row(n: int, J: int) -> tuple:
    """binom(n, j) for j < J as exact integers, n (n-1)...(n-j+1) / j!
    also for n < 0."""
    row, c = [], 1
    for j in range(J):
        row.append(c)
        c = c * (n - j) // (j + 1)
    return tuple(row)


def binomial_weights(n: int, d, J: int) -> np.ndarray:
    """binom(n, j) d^(n-j) for j < J: the coefficients of (lambda - b)^j
    in (lambda - a)^n with d = b - a.  Exact for n >= 0, where d = 0 gives
    the unit row at j = n; for n < 0 the series converges for
    |lambda - b| < |d|.  DivergenceError when a power of d leaves double
    range."""
    d = complex(d)
    out = np.zeros(J, complex)
    try:
        for j, c in enumerate(_binomial_row(n, J)):
            if c:
                # a negative power divides, one rounding fewer than 1 / d^|e|
                out[j] = c * d ** (n - j) if j <= n else c / d ** (j - n)
    except OverflowError as exc:  # d^e out of double range
        raise DivergenceError(str(exc), None) from exc
    return out


@cache
def _expansion_weights(poles: tuple, npoly: int, point, trunc: int,
                       at) -> np.ndarray:
    """The read-only (K, J) table of the weights that move the terms of a
    RationalMatrix of this shape to point: poles, a tuple of (z, order),
    term by term except the pole of index at, then npoly monomials, one
    binomial_weights row per term, zero-padded.  The columns are u^0 ..
    u^trunc at a finite point and u^1 .. u^trunc at INF."""
    at_inf = _is_inf(point)
    J = max(trunc if at_inf else trunc + 1, 0)
    K = sum(k for i, (_, k) in enumerate(poles) if i != at) + npoly
    W = np.zeros((K, J), complex)
    r = 0
    for i, (z, k) in enumerate(poles):
        if i == at:
            continue
        for n in range(1, k + 1):
            if not at_inf:
                W[r] = binomial_weights(-n, point - z, J)
            elif n <= trunc:  # (lambda - z)^-n = u^n (1 + x)^-n, x = -z u
                W[r, n - 1:] = (binomial_weights(-n, 1, J - n + 1)
                                * (-z) ** np.arange(J - n + 1))
            r += 1
    for m in range(npoly):
        W[r + m, :min(m + 1, J)] = binomial_weights(m, point, min(m + 1, J))
    W.flags.writeable = False
    return W


def _trimmed(cs: np.ndarray) -> np.ndarray:
    """The stack cs without its trailing entries that are exactly zero."""
    m = len(cs)
    while m and not cs[m - 1].any():
        m -= 1
    return cs[:m]


def _added(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of two coefficient stacks of possibly different lengths."""
    if len(a) < len(b):
        a, b = b, a
    out = np.array(a)
    out[:len(b)] += b
    return out


class LaurentSeries:
    """Truncated Laurent series sum_{n=low}^{trunc} coeffs[n-low] * u^n.

    u is (lambda - base) at a finite base point, or 1/lambda at INF.
    coeffs is one stacked complex array of shape (m, *coef_shape): square
    matrices, or scalars for trace series.
    """

    __slots__ = ("dim", "base", "low", "coeffs")

    def __init__(self, dim, base, low, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if not len(coeffs):
            raise ValueError("a Laurent series needs at least one coefficient")
        self.dim = dim
        self.base = base
        self.low = int(low)
        self.coeffs = coeffs

    @property
    def trunc(self) -> int:
        return self.low + len(self.coeffs) - 1

    def coeff(self, n: int) -> np.ndarray:
        if n > self.trunc:
            raise TruncationError(
                f"coefficient u^{n} requested but series truncated at u^{self.trunc}")
        if n < self.low:
            return np.zeros_like(self.coeffs[0])
        return self.coeffs[n - self.low]

    def _check_compat(self, other: "LaurentSeries") -> None:
        if self.dim != other.dim:
            raise DimensionError(f"series dims {self.dim} vs {other.dim}")
        if not _same_point(self.base, other.base):
            raise ValueError("series base points differ")

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_compat(other)
        low = min(self.low, other.low)
        trunc = min(self.trunc, other.trunc)
        if trunc < low:
            raise TruncationError("sum of series has empty known range")
        shape = np.broadcast_shapes(self.coeffs.shape[1:], other.coeffs.shape[1:])
        out = np.zeros((trunc - low + 1,) + shape, complex)
        for s in (self, other):
            m = trunc - s.low + 1
            if m > 0:
                out[s.low - low:] += s.coeffs[:m]
        return LaurentSeries(self.dim, self.base, low, out)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.dim, self.base, self.low, -self.coeffs)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def mul(self, other: "LaurentSeries") -> "LaurentSeries":
        """Cauchy product; matrix coefficients multiply as matrices and a
        scalar series scales every matrix coefficient.  Any other stack,
        a Jacobian stack (n, T, T) among them, raises DimensionError."""
        self._check_compat(other)
        low = self.low + other.low
        trunc = min(self.low + other.trunc, other.low + self.trunc)
        if trunc < low:
            raise TruncationError("product of series has empty known range")
        n_out = trunc - low + 1
        A, B = self.coeffs, other.coeffs
        if not {A.ndim, B.ndim} <= {1, 3}:
            raise DimensionError(f"series coefficients {A.shape[1:]} and "
                                 f"{B.shape[1:]} do not multiply")
        prod = np.matmul if min(A.ndim, B.ndim) > 1 else np.multiply
        if A.ndim > B.ndim:  # a scalar B scales A's matrices
            B = B[:, None, None]
        C = np.zeros((n_out,) + np.broadcast_shapes(A.shape[1:], B.shape[1:]),
                     complex)
        for i in range(min(len(A), n_out)):
            m = min(len(B), n_out - i)
            C[i:i + m] += prod(A[i], B[:m])
        return LaurentSeries(self.dim, self.base, low, C)

    def power(self, m: int) -> "LaurentSeries":
        if m < 1:
            raise ValueError("power must be >= 1")
        out = self
        for _ in range(m - 1):
            out = out.mul(self)
        return out

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by u^k (exact exponent shift)."""
        return LaurentSeries(self.dim, self.base, self.low + k, self.coeffs)

    def trace_series(self) -> "LaurentSeries":
        return LaurentSeries(self.dim, self.base, self.low,
                             np.trace(self.coeffs, axis1=-2, axis2=-1))

    def principal(self) -> np.ndarray:
        """Stack [c_1, c_2, ...] of the coefficients of u^-1, u^-2, ...
        down to the lowest order (empty when low >= 0), a reversed slice of
        coeffs; TruncationError when the series stops below u^-1."""
        if self.low < 0 and self.trunc < -1:
            raise TruncationError(
                f"principal part requested but series truncated at u^{self.trunc}")
        return self.coeffs[:max(-self.low, 0)][::-1]

    def polynomial(self) -> np.ndarray:
        """Stack of the coefficients of u^0, u^-1, ... down to the lowest order
        (lambda^0, lambda^1, ... at INF); TruncationError if it stops below u^0."""
        self.coeff(0)
        return self.coeffs[:max(1 - self.low, 0)][::-1]

    def eval_sum(self, u: complex):
        """Resum the truncated series at local coordinate u (u != 0)."""
        acc = np.zeros_like(self.coeffs[0])
        for n in range(self.low, self.trunc + 1):
            acc = acc + self.coeff(n) * (u ** n)
        return acc

    def sigma(self, k: int, root: RootOfUnity) -> "LaurentSeries":
        """Apply sigma^k coefficientwise."""
        return LaurentSeries(self.dim, self.base, self.low,
                             sigma_pow(self.coeffs, k, root))

    def __repr__(self):
        return f"LaurentSeries(base={self.base}, low={self.low}, trunc={self.trunc})"


class RationalMatrix:
    """poly(lambda) + partial fractions.  Immutable by convention.

    poly is the stack (m, *shape) of the coefficients of lambda^0 ..
    lambda^(m-1); poles is a list of (z, stack (k, *shape)) whose entry
    n - 1 is the coefficient of (lambda - z)^(-n).  Lists of matrices are
    stacked; an empty poly takes its shape from the first pole, else
    (dim, dim).
    """

    __slots__ = ("dim", "poly", "poles")

    def __init__(self, dim, poly=None, poles=None, validate=True):
        self.dim = int(dim)
        self.poles = [(complex(z), np.asarray(cs, complex))
                      for z, cs in (poles or [])]
        poly = np.asarray([] if poly is None else poly, complex)
        if poly.ndim == 1:  # an empty list carries no coefficient shape
            shape = self.poles[0][1].shape[1:] if self.poles else (self.dim,) * 2
            poly = np.zeros((0,) + shape, complex)
        self.poly = poly
        if validate:
            self._validate()

    def _validate(self) -> None:
        pts = [z for z, _ in self.poles]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if abs(pts[i] - pts[j]) <= _POLE_TOL:
                    raise PoleProximityError(
                        f"pole points {pts[i]} and {pts[j]} closer than {_POLE_TOL}")
        for z, cs in self.poles:
            if not len(cs):
                raise StructuralError(f"pole at {z} with empty principal part")
            if len(cs) > _MAX_POLE_ORDER:
                raise StructuralError(f"pole order {len(cs)} exceeds {_MAX_POLE_ORDER}")

    @classmethod
    def constant(cls, mat) -> "RationalMatrix":
        mat = np.asarray(mat, dtype=complex)
        return cls(mat.shape[-1], poly=[mat])

    def _pole_index(self, point):
        """Index of the first pole within _POLE_TOL of point, or None (also
        at INF)."""
        if not _is_inf(point):
            for i, (z, _) in enumerate(self.poles):
                if abs(z - point) <= _POLE_TOL:
                    return i
        return None

    def pole_order(self, point) -> int:
        i = self._pole_index(point)
        return 0 if i is None else len(self.poles[i][1])

    def pole_points(self) -> list:
        return [z for z, _ in self.poles]

    def eval(self, lam: complex):
        for z, _ in self.poles:
            if abs(lam - z) <= _POLE_TOL:
                raise PoleProximityError(f"evaluation at {lam} too close to pole {z}")
        acc = np.zeros(self.poly.shape[1:], complex)
        if len(self.poly):
            acc = self.poly[-1]
            for c in self.poly[-2::-1]:
                acc = acc * lam + c
        for z, cs in self.poles:
            w = 1.0 / (lam - z)
            f = w
            for c in cs:
                acc = acc + c * f
                f *= w
        return acc

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(self.dim, -self.poly,
                              [(z, -cs) for z, cs in self.poles], validate=False)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.dim != other.dim:
            raise DimensionError(f"dims {self.dim} vs {other.dim}")
        poles = list(self.poles)
        for z, cs in other.poles:
            for i, (zz, ccs) in enumerate(poles):
                if _same_point(z, zz):
                    poles[i] = (zz, _added(ccs, cs))
                    break
            else:
                poles.append((z, cs))
        return RationalMatrix(self.dim, _added(self.poly, other.poly), poles,
                              validate=False).trim()

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def trim(self) -> "RationalMatrix":
        """Drop exactly zero leading poly and highest-order pole coefficients."""
        poles = [(z, _trimmed(cs)) for z, cs in self.poles]
        return RationalMatrix(self.dim, _trimmed(self.poly),
                              [(z, cs) for z, cs in poles if len(cs)],
                              validate=False)

    def residue(self, point) -> "np.ndarray":
        """Coefficient of (lambda - point)^(-1), zero matrix if not a pole."""
        for z, cs in self.poles:
            if _same_point(z, point):
                return cs[0]
        return np.zeros(self.poly.shape[1:], complex)

    def _order_at_inf(self):
        """Exact order in u = 1/lambda at infinity, or None for the zero function."""
        if len(self.poly):
            return -(len(self.poly) - 1)
        if self.poles:
            return 1
        return None

    def laurent_expand(self, point, trunc: int) -> LaurentSeries:
        """Expand at a finite point or at INF (in u = 1/lambda) up to u^trunc.

        The pole and monomial terms that move are one ordered sum, pole
        order and then the polynomial, weighted by the rows of the cached
        table _expansion_weights, so that coefficients which cancel exactly
        keep doing so; the local pole (the polynomial at INF) is copied."""
        if not _is_inf(point):
            zeta = complex(point)
            return self._expand_at(zeta, trunc, self._pole_index(zeta))
        low = self._order_at_inf()
        if low is None or low > trunc:
            low = min(0, trunc)
            return LaurentSeries(self.dim, INF, low, np.zeros(
                (trunc - low + 1,) + self.poly.shape[1:], complex))
        head = self.poly[::-1][:trunc - low + 1]  # lambda^m = u^-m
        return LaurentSeries(self.dim, INF, low, np.concatenate(
            (head, self._moved(INF, trunc, None, 0))))

    def _expand_at(self, zeta: complex, trunc: int, at) -> LaurentSeries:
        """laurent_expand at the finite point zeta, where self has its
        pole of index at (None: no pole)."""
        low = 0 if at is None else -len(self.poles[at][1])
        if trunc < low:
            raise TruncationError("requested truncation below the lowest order")
        out = self._moved(zeta, trunc, at, len(self.poly))
        if at is not None:
            head = self.poles[at][1][::-1][:trunc - low + 1]
            out = np.concatenate((head, out))
        return LaurentSeries(self.dim, zeta, low, out)

    def _moved(self, point, trunc: int, at, npoly: int) -> np.ndarray:
        """The sum of the terms of self moved to point, u^0 (u^1 at INF) ..
        u^trunc: the poles but the one of index at, then the first npoly
        monomials, each scaled by its row of _expansion_weights and added
        in that order (NumPy sums a stack of single entries, 1 x 1
        coefficients at one order, pairwise)."""
        W = _expansion_weights(tuple((z, len(cs)) for z, cs in self.poles),
                               npoly, point, trunc, at)
        C = np.concatenate([cs for i, (_, cs) in enumerate(self.poles)
                            if i != at] + [self.poly[:npoly]])
        return np.add.reduce(
            W.reshape(W.shape + (1,) * (C.ndim - 1)) * C[:, None], axis=0)

    def power_series(self, point, m: int, top: int) -> LaurentSeries:
        """self^m at a finite point or at INF, known up to u^top (and for
        top >= m low exactly that far), by the power rule above."""
        low = ((self._order_at_inf() or 0) if _is_inf(point)
               else -self.pole_order(point))
        return self.laurent_expand(point, power_trunc(low, m, top)).power(m)

    def mul(self, other: "RationalMatrix") -> "RationalMatrix":
        points = self.pole_points() + [z for z in other.pole_points()
                                       if not self.pole_order(z)]
        return self._products(other, points + [INF], False)[0]

    def commutator(self, other: "RationalMatrix", points) -> "RationalMatrix":
        """self other - other self, formed at the given points only: its
        principal part at each finite one and, when INF is among them,
        its polynomial part.  A pole elsewhere is not formed."""
        ab, ba = self._products(other, points, True)
        return ab - ba

    def _products(self, other: "RationalMatrix", points, both: bool) -> list:
        """[A B], or [A B, B A] when both, for A = self and B = other, at
        the given points: at a finite one the principal part of the product
        of the two local expansions, each to the order the other's pole
        needs there; at INF the polynomial part, from the product at INF.
        One loop finds each operand's pole index and expansion once per
        point, and both products are formed from that list."""
        if self.dim != other.dim:
            raise DimensionError(f"dims {self.dim} vs {other.dim}")
        ova, ovb = self._order_at_inf(), other._order_at_inf()
        local = []   # (point, expansion of A, expansion of B)
        for z in points:
            if not _is_inf(z):
                ia, ib = self._pole_index(z), other._pole_index(z)
                oa = 0 if ia is None else len(self.poles[ia][1])
                ob = 0 if ib is None else len(other.poles[ib][1])
                local.append((z, self._expand_at(z, max(ob - 1, 0), ia),
                              other._expand_at(z, max(oa - 1, 0), ib)))
            elif ova is not None and ovb is not None and ova + ovb <= 0:
                # the orders u^-degree .. u^0 of the product at INF
                local.append((z, self.laurent_expand(INF, -ovb),
                              other.laurent_expand(INF, -ova)))
        out = []
        for i, j in ((0, 1), (1, 0)) if both else ((0, 1),):
            poles, poly = [], None
            for z, *ab in local:
                prod = ab[i].mul(ab[j])
                if _is_inf(z):
                    poly = prod.coeffs[::-1]
                else:
                    poles.append((z, prod.principal()))
            out.append(RationalMatrix(self.dim, poly, poles,
                                      validate=False).trim())
        return out

    def __repr__(self):
        ps = ", ".join(f"{z:.3g}^{len(cs)}" for z, cs in self.poles)
        return f"RationalMatrix(dim={self.dim}, deg={len(self.poly)-1}, poles=[{ps}])"


class LocalTuple:
    """One Laurent series per point of S = (0, zeta_1..zeta_N, INF)."""

    __slots__ = ("points", "series")

    def __init__(self, points, series):
        if len(points) != len(series):
            raise DimensionError("points/series length mismatch")
        self.points = list(points)
        self.series = list(series)

    @property
    def dim(self) -> int:
        return self.series[0].dim

    def __sub__(self, other: "LocalTuple") -> "LocalTuple":
        return LocalTuple(self.points, [a - b for a, b in zip(self.series, other.series)])


def residue_at_infinity(R: RationalMatrix):
    """Residue of R dlambda at infinity: minus the u^1 series coefficient."""
    return -R.laurent_expand(INF, 1).coeff(1)


def orbit_family(point: complex, prin, root: RootOfUnity, weight: int) -> list:
    """Pole family carried by the principal part prin = [c_1, c_2, ...]
    (c_n the coefficient of (lambda - point)^-n) over the Gamma-orbit of
    point: at omega^k point the coefficients omega^(k(n - weight))
    sigma^k(c_n), k = 0..T-1, so that the family is equivariant of the
    given weight (0 for functions, 1 for one-forms).  A member's
    coefficients come as one stack."""
    if not len(prin):
        return []
    prin = np.asarray(prin)
    n = np.arange(1 - weight, len(prin) + 1 - weight).reshape(
        (-1,) + (1,) * (prin.ndim - 1))
    return [(root.power(k) * point,
             root.powers[k * n % root.order] * sigma_pow(prin, k, root))
            for k in range(root.order)]


def localize(R: RationalMatrix, zetas, trunc: int) -> LocalTuple:
    """Tuple of expansions of R at S = (0, zeta_1..zeta_N, INF)."""
    points = [0j] + [complex(z) for z in zetas] + [INF]
    return LocalTuple(points, [R.laurent_expand(p, trunc) for p in points])


def pi_project(X: LocalTuple, root: RootOfUnity, weight: int = 0) -> RationalMatrix:
    """Rational function carrying the singular data of the tuple X.

    Principal parts at the finite slots are propagated over their full
    Gamma-orbits with the sigma twist appropriate to the declared weight
    (0 for functions, 1 for one-forms); the nonnegative-power part of the
    slot at infinity becomes the polynomial part.
    """
    poles = []
    poly = None
    for pt, s in zip(X.points, X.series):
        if _is_inf(pt):
            poly = s.polynomial()
        elif abs(pt) <= _POLE_TOL:
            poles.append((0j, s.principal()))
        else:
            poles += orbit_family(pt, s.principal(), root, weight)
    return RationalMatrix(X.dim, poly, poles, validate=False).trim()


def split(R: RationalMatrix, root: RootOfUnity, zetas, weight: int = 0):
    """Decompose R into (regular LocalTuple, singular RationalMatrix).

    The singular part is the pi-image rebuilt from the principal parts at
    the slots (full sigma-averaged orbit families plus the polynomial
    part); the regular part is the tuple of Taylor remainders.  Locally at
    each slot, remainder + expansion of singular == expansion of R.
    """
    orbits = [w for zr in zetas for w in root.orbit(zr)]
    for z in R.pole_points():
        if abs(z) > _POLE_TOL and not any(_same_point(z, w) for w in orbits):
            raise StructuralError(f"pole at {z} outside the declared orbit set")
    X = localize(R, zetas, _SPLIT_TRUNC)
    sing = pi_project(X, root, weight)
    reg = X - localize(sing, zetas, _SPLIT_TRUNC)
    return reg, sing


def check_equivariance(R: RationalMatrix, weight: int, root: RootOfUnity) -> float:
    """max over 20 probes lam of |sigma(R(lam)) - omega^weight R(omega lam)|,
    drawn from a fixed seed in 0.4 <= |lam| <= 1.8 away from the poles."""
    rng = np.random.default_rng(2024)
    res = 0.0
    count = 0
    while count < 20:
        lam = complex(rng.uniform(0.4, 1.8) * np.exp(2j * np.pi * rng.uniform()))
        if any(abs(lam - z) < 5e-2 or abs(root.omega * lam - z) < 5e-2
               for z in R.pole_points()):
            continue
        count += 1
        lhs = sigma_pow(R.eval(lam), 1, root)
        rhs = root.power(weight) * R.eval(root.omega * lam)
        res = max(res, float(np.max(np.abs(lhs - rhs))))
    return res
