"""Matrix-valued rational functions of the spectral parameter in
partial-fraction form, their local Laurent expansions, residues, the
regular/singular splitting, and the residue pairing.

Conventions:
  * A RationalMatrix is poly(lambda) + sum over poles z of
    sum_k coeffs[k-1] / (lambda - z)^k.
  * The point at infinity is the float INF; series there are in
    u = 1/lambda.  The residue of R dlambda at infinity is minus the
    coefficient of u^(+1) of the expansion of R in u.
  * Series coefficients beyond trunc_order are unknown, not zero; asking
    for them raises TruncationError.  All residues are read from series
    data; no numerical contour integration anywhere.
"""
from __future__ import annotations

from math import comb, inf, isinf

import numpy as np

from .algebra import RootOfUnity, sigma_pow
from .errors import (DimensionError, PoleProximityError, StructuralError,
                     TruncationError)

INF = inf  # distinguished symbol for the point at infinity

_POLE_TOL = 1e-12
_MAX_POLE_ORDER = 8


def _is_inf(point) -> bool:
    return isinstance(point, float) and isinf(point)


def _same_point(a, b) -> bool:
    ia, ib = _is_inf(a), _is_inf(b)
    if ia or ib:
        return ia and ib
    return abs(a - b) <= _POLE_TOL


def _max_abs(c) -> float:
    return float(np.max(np.abs(c)))


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
        """Cauchy product; matrix coefficients multiply as matrices, a
        scalar series scales every matrix coefficient."""
        self._check_compat(other)
        low = self.low + other.low
        trunc = min(self.low + other.trunc, other.low + self.trunc)
        if trunc < low:
            raise TruncationError("product of series has empty known range")
        n_out = trunc - low + 1
        A, B = self.coeffs, other.coeffs
        if A.ndim == B.ndim == 3:
            prod = np.matmul
        else:
            prod = np.multiply
            if A.ndim == 3 and B.ndim == 1:
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
                             np.trace(self.coeffs, axis1=1, axis2=2))

    def principal(self) -> np.ndarray:
        """Stack [c_1, c_2, ...] of the coefficients of u^-1, u^-2, ...
        down to the lowest order (empty when low >= 0)."""
        return np.array([self.coeff(-k) for k in range(1, 1 - self.low)],
                        dtype=complex)

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
    """poly(lambda) + partial fractions.  Immutable by convention."""

    __slots__ = ("dim", "poly", "poles")

    def __init__(self, dim, poly=None, poles=None, validate=True):
        self.dim = int(dim)
        self.poly = list(poly) if poly else []
        # poles: list of (point, [c1, c2, ...]) with c_k the coefficient
        # of (lambda - point)^(-k)
        self.poles = [(complex(z), list(cs)) for z, cs in (poles or [])]
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
            if not cs:
                raise StructuralError(f"pole at {z} with empty principal part")
            if len(cs) > _MAX_POLE_ORDER:
                raise StructuralError(f"pole order {len(cs)} exceeds {_MAX_POLE_ORDER}")

    @classmethod
    def constant(cls, mat) -> "RationalMatrix":
        mat = np.asarray(mat, dtype=complex)
        return cls(mat.shape[-1], poly=[mat])

    def pole_order(self, point) -> int:
        for z, cs in self.poles:
            if _same_point(z, point):
                return len(cs)
        return 0

    def pole_points(self) -> list:
        return [z for z, _ in self.poles]

    def _template(self):
        if self.poly:
            return self.poly[0]
        if self.poles:
            return self.poles[0][1][0]
        return np.zeros((self.dim, self.dim), complex)

    def eval(self, lam: complex):
        for z, _ in self.poles:
            if abs(lam - z) <= 1e-12:
                raise PoleProximityError(f"evaluation at {lam} too close to pole {z}")
        acc = np.zeros_like(self._template())
        if self.poly:
            acc = self.poly[-1]
            for c in reversed(self.poly[:-1]):
                acc = acc * lam + c
        for z, cs in self.poles:
            w = 1.0 / (lam - z)
            f = w
            for c in cs:
                acc = acc + c * f
                f *= w
        return acc

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(self.dim, [-c for c in self.poly],
                              [(z, [-c for c in cs]) for z, cs in self.poles],
                              validate=False)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.dim != other.dim:
            raise DimensionError(f"dims {self.dim} vs {other.dim}")
        npoly = list(self.poly)
        for i, c in enumerate(other.poly):
            if i < len(npoly):
                npoly[i] = npoly[i] + c
            else:
                npoly.append(c)
        npoles = [(z, list(cs)) for z, cs in self.poles]
        for z, cs in other.poles:
            for zz, ccs in npoles:
                if _same_point(z, zz):
                    for k, c in enumerate(cs):
                        if k < len(ccs):
                            ccs[k] = ccs[k] + c
                        else:
                            ccs.append(c)
                    break
            else:
                npoles.append((z, list(cs)))
        return RationalMatrix(self.dim, npoly, npoles, validate=False).trim()

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def trim(self, tol: float = 0.0) -> "RationalMatrix":
        """Drop (near-)zero leading poly and highest-order pole coefficients."""
        poly = list(self.poly)
        while poly and _max_abs(poly[-1]) <= tol:
            poly.pop()
        poles = []
        for z, cs in self.poles:
            cs = list(cs)
            while cs and _max_abs(cs[-1]) <= tol:
                cs.pop()
            if cs:
                poles.append((z, cs))
        return RationalMatrix(self.dim, poly, poles, validate=False)

    def residue(self, point) -> "np.ndarray":
        """Coefficient of (lambda - point)^(-1), zero matrix if not a pole."""
        for z, cs in self.poles:
            if _same_point(z, point):
                return cs[0]
        return np.zeros_like(self._template())

    def _order_at_inf(self):
        """Exact order in u = 1/lambda at infinity, or None for the zero function."""
        if self.poly:
            return -(len(self.poly) - 1)
        if self.poles:
            return 1
        return None

    def laurent_expand(self, point, trunc: int) -> LaurentSeries:
        """Expand at a finite point or at INF (in u = 1/lambda) up to u^trunc."""
        tpl = self._template()
        terms = {}

        def bump(n, c):
            terms[n] = terms[n] + c if n in terms else c

        if _is_inf(point):
            for m, c in enumerate(self.poly):
                if -m <= trunc:
                    bump(-m, c)
            for z, cs in self.poles:
                for k1, c in enumerate(cs):
                    k = k1 + 1
                    for j in range(0, trunc - k + 1):
                        bump(k + j, (comb(k - 1 + j, j) * z ** j) * c)
            low = min(terms) if terms else min(0, trunc)
        else:
            zeta = complex(point)
            low = 0
            for z, cs in self.poles:
                if _same_point(z, zeta):
                    low = -len(cs)
                    for k1, c in enumerate(cs):
                        bump(-(k1 + 1), c)
                else:
                    a = zeta - z
                    for k1, c in enumerate(cs):
                        k = k1 + 1
                        for j in range(0, trunc + 1):
                            bump(j, (comb(k - 1 + j, j) * (-1) ** j / a ** (k + j)) * c)
            for m, c in enumerate(self.poly):
                for j in range(0, min(m, trunc) + 1):
                    bump(j, (comb(m, j) * zeta ** (m - j)) * c)
        if trunc < low:
            raise TruncationError("requested truncation below the lowest order")
        coeffs = np.zeros((trunc - low + 1,) + tpl.shape, complex)
        for n, c in terms.items():
            coeffs[n - low] = c
        return LaurentSeries(self.dim, INF if _is_inf(point) else complex(point),
                             low, coeffs)

    def mul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.dim != other.dim:
            raise DimensionError(f"dims {self.dim} vs {other.dim}")
        out_poles = []
        pts = list(self.pole_points())
        for z in other.pole_points():
            if not any(_same_point(z, zz) for zz in pts):
                pts.append(z)
        for z in pts:
            o1, o2 = self.pole_order(z), other.pole_order(z)
            m = o1 + o2
            s1 = self.laurent_expand(z, o2 - 1 if o2 > 0 else 0)
            s2 = other.laurent_expand(z, o1 - 1 if o1 > 0 else 0)
            prod = s1.mul(s2)
            cs = []
            for k in range(1, m + 1):
                cs.append(prod.coeff(-k))
            while cs and _max_abs(cs[-1]) == 0.0:
                cs.pop()
            if cs:
                out_poles.append((z, cs))
        # polynomial part via expansion at infinity
        ov1, ov2 = self._order_at_inf(), other._order_at_inf()
        out_poly = []
        if ov1 is not None and ov2 is not None and ov1 + ov2 <= 0:
            s1 = self.laurent_expand(INF, -ov2)
            s2 = other.laurent_expand(INF, -ov1)
            prod = s1.mul(s2)
            degree = -(ov1 + ov2)
            out_poly = [prod.coeff(-mm) for mm in range(0, degree + 1)]
            while out_poly and _max_abs(out_poly[-1]) == 0.0:
                out_poly.pop()
        return RationalMatrix(self.dim, out_poly, out_poles, validate=False)

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
    given weight (0 for functions, 1 for one-forms)."""
    if not len(prin):
        return []
    return [(root.power(k) * point,
             [root.power(k * (n + 1 - weight)) * sigma_pow(c, k, root)
              for n, c in enumerate(prin)])
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
    dim = X.dim
    poles = []
    poly = []
    for pt, s in zip(X.points, X.series):
        if _is_inf(pt):
            deg = -s.low
            for m in range(0, deg + 1):
                c = s.coeff(-m)
                while len(poly) <= m:
                    poly.append(np.zeros_like(c))
                poly[m] = poly[m] + c
        elif abs(pt) <= _POLE_TOL:
            poles.append((0j, list(s.principal())))
        else:
            poles += orbit_family(pt, s.principal(), root, weight)
    return RationalMatrix(dim, poly, poles, validate=False).trim()


def split(R: RationalMatrix, root: RootOfUnity, zetas, weight: int = 0,
          trunc: int = 12):
    """Decompose R into (regular LocalTuple, singular RationalMatrix).

    The singular part is the pi-image rebuilt from the principal parts at
    the slots (full sigma-averaged orbit families plus the polynomial
    part); the regular part is the tuple of Taylor remainders.  Locally at
    each slot, remainder + expansion of singular == expansion of R.
    """
    for z in R.pole_points():
        ok = abs(z) <= _POLE_TOL
        for zr in zetas:
            for k in range(root.order):
                if _same_point(z, root.power(k) * zr):
                    ok = True
        if not ok:
            raise StructuralError(f"pole at {z} outside the declared orbit set")
    X = localize(R, zetas, trunc)
    sing = pi_project(X, root, weight)
    reg = X - localize(sing, zetas, trunc)
    return reg, sing


def check_equivariance(R: RationalMatrix, weight: int, root: RootOfUnity,
                       nprobes: int = 20, seed: int = 2024) -> float:
    """max over probes of |sigma(R(lam)) - omega^weight R(omega lam)|."""
    rng = np.random.default_rng(seed)
    res = 0.0
    count = 0
    while count < nprobes:
        lam = complex(rng.uniform(0.4, 1.8) * np.exp(2j * np.pi * rng.uniform()))
        if any(abs(lam - z) < 5e-2 or abs(root.omega * lam - z) < 5e-2
               for z in R.pole_points()):
            continue
        count += 1
        lhs = sigma_pow(R.eval(lam), 1, root)
        rhs = root.power(weight) * R.eval(root.omega * lam)
        res = max(res, _max_abs(lhs - rhs))
    return res


def pair(Y: LocalTuple, X: LocalTuple, T: int):
    """Residue pairing: T * sum over finite nonzero slots of
    Res Tr(Y_r X_r) plus the residues at 0 and infinity.

    Raises TruncationError when the series data cannot determine a residue.
    """
    if len(Y.points) != len(X.points):
        raise DimensionError("index sets differ")
    total = 0j
    for pt, sy, sx in zip(Y.points, Y.series, X.series):
        prod = sy.mul(sx).trace_series()
        if _is_inf(pt):
            r = -prod.coeff(1)
        else:
            r = prod.coeff(-1)
        w = 1.0 if (_is_inf(pt) or abs(pt) <= _POLE_TOL) else float(T)
        total = total + w * r
    return total
