"""Matrix-valued rational functions: partial-fraction arithmetic, local
Laurent expansions, residues and the split into regular/singular data."""
from math import comb

import numpy as np
import pytest

from cyclogaudin.algebra import grade_component, primitive_root
from cyclogaudin.errors import (DimensionError, DivergenceError,
                                PoleProximityError, StructuralError,
                                TruncationError)
from cyclogaudin.ratmat import (INF, LaurentSeries, LocalTuple, RationalMatrix,
                                binomial_weights, check_equivariance, localize,
                                orbit_family, residue_at_infinity, split)
from cyclogaudin import gaudin, ratmat
from cyclogaudin import models as mdl

from conftest import random_matrix


def _random_rational(rng, dim, zetas, max_order=2, deg=1):
    poly = [random_matrix(rng, dim) for _ in range(deg + 1)]
    poles = []
    for z in zetas:
        order = int(rng.integers(1, max_order + 1))
        poles.append((z, [random_matrix(rng, dim) for _ in range(order)]))
    return RationalMatrix(dim, poly, poles)


def _eval_direct(poly, poles, lam):
    acc = sum(c * lam ** k for k, c in enumerate(poly))
    for z, cs in poles:
        for k, c in enumerate(cs, start=1):
            acc = acc + c / (lam - z) ** k
    return acc


def test_eval_matches_hand_sum(rng):
    dim = 3
    poly = [random_matrix(rng, dim) for _ in range(3)]
    poles = [(0.5 + 0.1j, [random_matrix(rng, dim), random_matrix(rng, dim)]),
             (-1.2j, [random_matrix(rng, dim)])]
    R = RationalMatrix(dim, poly, poles)
    for lam in (0.3 - 0.7j, 1.9, -0.4 + 1.1j):
        np.testing.assert_allclose(R.eval(lam), _eval_direct(poly, poles, lam),
                                   atol=1e-12)


def test_construction_rejects_degenerate_pole_sets(rng):
    dim = 2
    with pytest.raises(PoleProximityError):
        RationalMatrix(dim, poles=[(0.5, [np.eye(dim)]),
                                   (0.5 + 1e-14, [np.eye(dim)])])
    with pytest.raises(StructuralError):
        RationalMatrix(dim, poles=[(0.5, [])])


def test_add_mul_pointwise(rng):
    dim = 2
    R1 = _random_rational(rng, dim, [0.7, -0.3 + 0.4j])
    R2 = _random_rational(rng, dim, [0.7, 1.1j])
    S, P = R1 + R2, R1.mul(R2)
    for lam in (0.21 + 0.33j, -1.4, 2.2 - 0.5j):
        np.testing.assert_allclose(S.eval(lam), R1.eval(lam) + R2.eval(lam),
                                   atol=1e-11)
        np.testing.assert_allclose(P.eval(lam), R1.eval(lam) @ R2.eval(lam),
                                   atol=1e-10)


def test_mul_with_shared_pole_keeps_higher_order(rng):
    dim = 2
    z = 0.6 - 0.2j
    R1 = _random_rational(rng, dim, [z], max_order=1, deg=0)
    P = R1.mul(R1)
    assert P.pole_order(z) == 2
    lam = z + 0.37
    np.testing.assert_allclose(P.eval(lam), R1.eval(lam) @ R1.eval(lam),
                               atol=1e-11)


def test_binomial_weights_exact():
    # binom(n, j) d^(n-j) against math.comb, with the generalised binomial
    # binom(n, j) = (-1)^j comb(j - n - 1, j) for n < 0
    def binom(n, j):
        return comb(n, j) if n >= 0 else (-1) ** j * comb(j - n - 1, j)

    for n in range(-8, 9):
        for J in range(1, 13):
            rows = [binom(n, j) for j in range(J)]
            # d = 1 is the bare binomial row, exactly
            assert binomial_weights(n, 1, J).tolist() == rows
            for d in (2.5, -0.7 + 0.2j):
                ref = [b * complex(d) ** (n - j) for j, b in enumerate(rows)]
                np.testing.assert_allclose(binomial_weights(n, d, J), ref,
                                           rtol=1e-15, atol=0)
            if n >= 0:
                # at d = 0, lambda^n moves to the unit row at j = n
                assert binomial_weights(n, 0, J).tolist() == \
                    [1.0 if j == n else 0.0 for j in range(J)]
    assert binomial_weights(3, 2.5, 0).shape == (0,)


def _expansion_input(rng, point, order, deg, stack):
    """A rational matrix with a pole of the given order at point (none for
    order 0), poles off the point, and poly degree deg; its coefficients
    are (2, 2) matrices or (4, 2, 2) Jacobian stacks."""
    shape = (4, 2, 2) if stack else (2, 2)

    def c():
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    poles = [(z, [c() for _ in range(2)]) for z in (-1.3, 0.8j)
             if abs(z - point) > 0.5]
    if order:
        poles.append((point, [c() for _ in range(order)]))
    return RationalMatrix(2, [c() for _ in range(deg + 1)], poles)


def test_laurent_expansion_at_finite_point(rng):
    dim = 2
    z0 = 0.4 + 0.9j
    R = _random_rational(rng, dim, [z0, -1.3])
    s = R.laurent_expand(z0, 6)
    u = 0.01 - 0.003j
    np.testing.assert_allclose(s.eval_sum(u), R.eval(z0 + u), atol=1e-9)
    # pole orders 0 (a point off every pole) to 3, at 0 and elsewhere,
    # poly degrees 0..2, matrix and Jacobian-stack coefficients
    for point in (0j, 0.4 + 0.9j):
        for order in range(4):
            for deg in range(3):
                for stack in (False, True):
                    R = _expansion_input(rng, point, order, deg, stack)
                    s = R.laurent_expand(point, 8)
                    assert s.low == -order and s.trunc == 8
                    assert s.coeffs.shape[1:] == R.poly.shape[1:]
                    np.testing.assert_allclose(s.eval_sum(u),
                                               R.eval(point + u),
                                               rtol=1e-10, atol=1e-10)


def test_laurent_expansion_at_infinity(rng):
    dim = 2
    R = _random_rational(rng, dim, [0.8j], deg=2)
    s = R.laurent_expand(INF, 8)
    lam = 40.0 + 13.0j
    np.testing.assert_allclose(s.eval_sum(1.0 / lam), R.eval(lam), atol=1e-9)
    # poles of order 1..3 at 0 and at a nonzero point, poly degrees 0..2,
    # matrix and Jacobian-stack coefficients
    for point in (0j, 0.4 + 0.9j):
        for order in range(1, 4):
            for deg in range(3):
                for stack in (False, True):
                    R = _expansion_input(rng, point, order, deg, stack)
                    s = R.laurent_expand(INF, 10)
                    assert s.low == -deg and s.trunc == 10
                    assert s.coeffs.shape[1:] == R.poly.shape[1:]
                    np.testing.assert_allclose(s.eval_sum(1.0 / lam),
                                               R.eval(lam),
                                               rtol=1e-12, atol=1e-12)


def _expansion_by_terms(R, point, trunc, mod=lambda x: x):
    """(low, coefficients) of R expanded at point up to u^trunc, term by
    term: the local pole (the polynomial at INF) copied, then each other
    pole term and each monomial added into zeros as one np.multiply.outer
    of mod(its binomial_weights row) and mod(its coefficient).  With
    mod = np.abs the sum entry by entry bounds the moduli of the terms."""
    shape = R.poly.shape[1:]
    if point is INF:
        low = R._order_at_inf()
        if low is None or low > trunc:
            low = min(0, trunc)
        out = np.zeros((trunc - low + 1,) + shape, complex)
        deg = len(R.poly) - 1
        if low == -deg:
            out[:deg + 1] = R.poly[::-1][:len(out)]
        for z, cs in R.poles:
            for k, c in enumerate(cs, 1):
                J = trunc - k + 1
                if J > 0:
                    w = binomial_weights(-k, 1, J) * (-z) ** np.arange(J)
                    out[k - low:] += np.multiply.outer(mod(w), mod(c))
        return low, out
    at = R._pole_index(point)
    low = 0 if at is None else -len(R.poles[at][1])
    out = np.zeros((trunc - low + 1,) + shape, complex)
    for i, (z, cs) in enumerate(R.poles):
        if i == at:
            out[:-low] = cs[::-1][:len(out)]
        elif trunc >= 0:
            for k, c in enumerate(cs, 1):
                out[-low:] += np.multiply.outer(
                    mod(binomial_weights(-k, point - z, trunc + 1)), mod(c))
    for m, c in enumerate(R.poly):
        J = min(m, trunc) + 1
        if J > 0:
            out[-low:J - low] += np.multiply.outer(
                mod(binomial_weights(m, point, J)), mod(c))
    return low, out


@pytest.mark.parametrize("T", range(1, 6))
def test_laurent_expand_equals_the_per_term_loop(T):
    # poles of order 1..3 at points with -0.0 parts, 0 and a random point,
    # poly degree 0..2, expanded at every pole point, 0, regular points
    # (-0.0 parts among them) and INF to every allowed trunc: byte for byte
    # for T >= 2.  At T = 1 NumPy sums a (K, 1) stack of terms pairwise
    # and may round a one-element complex product differently, so there
    # both sums of the same K products lie within gamma_(K+2) times the
    # sum of the term moduli of the exact sum, per real part (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma 3.5
    # and (4.4)); the copied local pole is exact.
    rng = np.random.default_rng(33 + T)
    u = np.finfo(float).eps / 2
    for _ in range(12):
        zs = [complex(-0.0, 0.9), complex(-1.1, -0.0), 0j,
              complex(*rng.normal(size=2))]
        zs = [zs[i] for i in rng.permutation(4)[:int(rng.integers(1, 5))]]
        R = RationalMatrix(T, [random_matrix(rng, T)
                               for _ in range(int(rng.integers(1, 4)))],
                           [(z, [random_matrix(rng, T)
                                 for _ in range(int(rng.integers(1, 4)))])
                            for z in zs])
        for point in (*R.pole_points(), 0j, complex(-0.0, -0.0),
                      complex(0.6, -0.0), 0.3 - 0.8j, INF):
            for trunc in (-1, 0, 3, 8, 12):
                if point is not INF and trunc < -R.pole_order(point):
                    continue
                s = R.laurent_expand(point, trunc)
                low, ref = _expansion_by_terms(R, point, trunc)
                assert s.low == low and s.coeffs.shape == ref.shape
                if T > 1:
                    assert s.coeffs.tobytes() == ref.tobytes()
                    continue
                at = None if point is INF else R._pole_index(point)
                K = (sum(len(cs) for i, (_, cs) in enumerate(R.poles)
                         if i != at) + (0 if point is INF else len(R.poly)))
                gamma = (K + 2) * u / (1 - (K + 2) * u)
                scale = np.abs(_expansion_by_terms(R, point, trunc,
                                                   np.abs)[1])
                for part in (np.real, np.imag):
                    assert np.all(np.abs(part(s.coeffs) - part(ref))
                                  <= 2 * gamma * scale)


def test_expansion_weights_are_built_once_per_pole_structure(rng,
                                                             monkeypatch):
    # a second matrix with the same pole points and orders and polynomial
    # length but other coefficients reads the weight tables that the first
    # one's expansions built: it makes no binomial_weights call
    calls = []
    weights = ratmat.binomial_weights
    monkeypatch.setattr(ratmat, "binomial_weights",
                        lambda *a: calls.append(a) or weights(*a))
    zs = [complex(*rng.normal(size=2)) for _ in range(2)]  # a new structure

    def draw():
        return RationalMatrix(3, [random_matrix(rng, 3) for _ in range(2)],
                              [(z, [random_matrix(rng, 3) for _ in range(k)])
                               for z, k in zip(zs, (1, 2))])

    first, second = draw(), draw()
    points = (zs[0], zs[1], 0.4 - 0.2j, INF)
    for p in points:
        first.laurent_expand(p, 8)
    assert calls
    calls.clear()
    for p in points:
        s = second.laurent_expand(p, 8)
        assert s.coeffs.tobytes() == _expansion_by_terms(second, p, 8)[1].tobytes()
    assert calls == []


def test_expansion_weight_tables_are_read_only(rng):
    R = _random_rational(rng, 2, [0.5, -0.3j], deg=2)
    key = tuple((z, len(cs)) for z, cs in R.poles)
    for point, at, npoly in ((0.5 + 0j, 0, 3), (0.1j, None, 3), (INF, None, 0)):
        R.laurent_expand(point, 6)
        W = ratmat._expansion_weights(key, npoly, point, 6, at)
        assert W is ratmat._expansion_weights(key, npoly, point, 6, at)
        assert not W.flags.writeable
        with pytest.raises(ValueError):
            W[0, 0] = 1.0


def test_weights_out_of_double_range_raise_divergence_uncached():
    # 1 / (lambda - 1e40) moved to 0 needs 1e40^13: Python's complex power
    # overflows, which is a DivergenceError that keeps no trajectory, and
    # the failed table is not cached
    R = RationalMatrix(2, [np.eye(2)], [(1e40, [np.eye(2)])])
    size = ratmat._expansion_weights.cache_info().currsize
    for _ in range(2):
        with pytest.raises(DivergenceError,
                           match="^complex exponentiation$") as exc:
            R.laurent_expand(0j, 12)
        assert exc.value.last_good is None
        assert isinstance(exc.value.__cause__, OverflowError)
    assert ratmat._expansion_weights.cache_info().currsize == size


def test_series_truncation_guard(rng):
    s = _random_rational(rng, 2, [0.5]).laurent_expand(0.5, 3)
    with pytest.raises(TruncationError):
        s.coeff(4)
    # a series that stops below u^-1 has no principal part to give
    short = LaurentSeries(2, 0.5, -3, [random_matrix(rng, 2) for _ in range(2)])
    with pytest.raises(TruncationError):
        short.principal()
    # one that reaches u^-1 gives c_1, c_2, c_3
    full = LaurentSeries(2, 0.5, -3, [random_matrix(rng, 2) for _ in range(3)])
    np.testing.assert_array_equal(full.principal(), full.coeffs[::-1])


def test_power_series_reads_no_order_beyond_top(rng):
    # self^m from the derived expansion order equals the power of an
    # expansion 6 orders longer than any pole here needs (pole orders <= 3
    # at 0, <= 2 on the orbit, poly degree <= 2) on every order up to top,
    # and knows nothing beyond top.  Equal bit for bit for T >= 2; for
    # 1 x 1 coefficients NumPy rounds a complex product in a one-element
    # loop differently from one in a longer loop, so a shorter expansion
    # may move the last bit
    for T in range(1, 6):
        same = (np.testing.assert_array_equal if T > 1 else
                lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-13))
        root = primitive_root(T)
        zeta = 0.7 + 0.4j
        orbit = [root.power(k) * zeta for k in range(T)]
        poles = [(0j, [random_matrix(rng, T)
                       for _ in range(int(rng.integers(1, 4)))])]
        poles += [(z, [random_matrix(rng, T)
                       for _ in range(int(rng.integers(1, 3)))])
                  for z in orbit]
        R = RationalMatrix(T, [random_matrix(rng, T)
                               for _ in range(int(rng.integers(1, 4)))], poles)
        for point in (0j, orbit[-1], INF, -1.1 + 0.2j):
            low = (-(len(R.poly) - 1) if point == INF
                   else -R.pole_order(point))
            for m in range(1, 8):
                for top in range(m * low, m * low + 4):
                    s = R.power_series(point, m, top)
                    ref = R.laurent_expand(point,
                                           top + 6 + 3 * (m - 1)).power(m)
                    assert s.low == ref.low and s.trunc == top
                    for n in range(s.low, top + 1):
                        same(s.coeff(n), ref.coeff(n))
                    with pytest.raises(TruncationError):
                        s.coeff(top + 1)


def test_series_product_matches_cauchy_loop(rng):
    # one Cauchy product for matrix and scalar (trace) coefficient stacks
    dim = 3
    mats = [LaurentSeries(dim, 0.5, low, [random_matrix(rng, dim) for _ in range(n)])
            for low, n in ((-2, 5), (1, 3))]
    scas = [LaurentSeries(dim, 0.5, low, rng.normal(size=n) + 1j * rng.normal(size=n))
            for low, n in ((-1, 4), (0, 6))]
    for a in mats + scas:
        for b in mats + scas:
            prod = a.mul(b)
            assert prod.low == a.low + b.low
            for n in range(prod.low, prod.trunc + 1):
                expect = 0
                for i in range(a.low, a.trunc + 1):
                    if b.low <= n - i <= b.trunc:
                        ca, cb = a.coeff(i), b.coeff(n - i)
                        expect = expect + (ca @ cb if ca.ndim == cb.ndim == 2
                                           else ca * cb)
                np.testing.assert_allclose(prod.coeff(n), expect, atol=1e-12)


def test_series_product_rejects_shapes_it_cannot_multiply(rng):
    # series multiply matrix and scalar stacks only: a Jacobian stack
    # (coefficients (m, n, T, T)) raises against every series
    dim = 2
    M = LaurentSeries(dim, 0.5, 0, [random_matrix(rng, dim) for _ in range(3)])
    tr = LaurentSeries(dim, 0.5, 0, rng.normal(size=3))
    J3 = LaurentSeries(dim, 0.5, 0, rng.normal(size=(3, 3, dim, dim)))
    J4 = LaurentSeries(dim, 0.5, 0, rng.normal(size=(3, 4, dim, dim)))
    rows = LaurentSeries(dim, 0.5, 0, rng.normal(size=(3, dim)))
    for a, b in ((J3, J4), (M, rows), (rows, J3), (rows, rows), (J3, M),
                 (J3, tr)):
        with pytest.raises(DimensionError):
            a.mul(b)


def _assert_same_rational(got, ref):
    """Same pole points in the same order, same coefficient stacks (and
    so the same lengths after trim) and the same polynomial part."""
    assert [z for z, _ in got.poles] == [z for z, _ in ref.poles]
    for (_, a), (_, b) in zip(got.poles, ref.poles):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert got.poly.shape == ref.poly.shape
    assert np.array_equal(got.poly, ref.poly)


def _all_points(A, B):
    """The pole points of A, then those of B that A lacks, then INF: the
    points at which A.mul(B) forms A B."""
    return A.pole_points() + [z for z in B.pole_points()
                              if not A.pole_order(z)] + [INF]


def test_commutator_equals_the_two_products(rng):
    # the oracle A B - B A, pole by pole, for poles at 0 and on Gamma-orbits
    # shared or not, orders 1..3 and polynomial parts of degree -1..2; at
    # some of the points, the oracle's poles there in the order asked, and
    # its polynomial part only when INF is asked for
    for T in range(1, 6):
        root = primitive_root(T)
        orbit = [root.power(k) * (0.8 + 0.3j) for k in range(T)]
        for _ in range(4):
            ops = []
            for _ in range(2):
                pts = [p for p in [0j] + orbit if rng.uniform() < 0.6]
                poles = [(z, [random_matrix(rng, T)
                              for _ in range(int(rng.integers(1, 4)))])
                         for z in pts]
                poly = [random_matrix(rng, T)
                        for _ in range(int(rng.integers(0, 4)))]
                ops.append(RationalMatrix(T, poly, poles))
            A, B = ops
            ref = A.mul(B) - B.mul(A)
            _assert_same_rational(A.commutator(B, _all_points(A, B)), ref)
            _assert_same_rational(A.commutator(A, _all_points(A, A)),
                                  A.mul(A) - A.mul(A))
            some = [z for z in ([0j] + orbit)[::-1] if rng.uniform() < 0.5]
            part = [(w, cs) for w in some for z, cs in ref.poles if z == w]
            _assert_same_rational(A.commutator(B, some),
                                  RationalMatrix(T, [], part, validate=False))
            _assert_same_rational(A.commutator(B, some + [INF]),
                                  RationalMatrix(T, ref.poly, part))


def test_commutator_equals_the_two_products_on_lax_rhs_inputs(rng):
    for T in (2, 3, 4):
        for s in (mdl.random_toda(T, rng), mdl.random_dst(T, rng, zeta1=0.9),
                  mdl.random_coupled(T, rng, beta=0.7, zeta1=0.9)):
            L, P = mdl.lax(s), mdl.config_of(s)
            for f in mdl.admissible_flows(s, 3):
                h = gaudin.lax_partner(f, L, P)
                _assert_same_rational(L.commutator(h, _all_points(L, h)),
                                      L.mul(h) - h.mul(L))


def _lax_rhs_two_products(f, L, P):
    """gaudin.lax_rhs with the commutator formed as L h - h L and every
    pole order of L looked up where it is used: the route it replaced."""
    h = gaudin.lax_partner(f, L, P)
    rhs = L.mul(h) - h.mul(L)
    for z, cs in rhs.poles:
        for k in range(L.pole_order(z), len(cs)):
            assert float(np.max(np.abs(cs[k]))) <= gaudin._STRUCT_TOL
    for c in rhs.poly:
        assert float(np.max(np.abs(c))) <= gaudin._STRUCT_TOL
    reduced = RationalMatrix(L.dim, [], [(z, cs[:L.pole_order(z)])
                                         for z, cs in rhs.poles
                                         if L.pole_order(z)], validate=False)
    at0 = reduced.laurent_expand(0j, 0)
    return reduced, [at0.coeff(-1), at0.coeff(-2),
                     np.zeros((L.dim, L.dim), complex),
                     *[P.T * reduced.residue(z) for z in P.zetas]]


def _abs_expansion(R, w, J):
    """The moduli of the terms of the expansion of R at w up to u^J,
    summed term by term, entrywise: a bound on every partial sum that
    laurent_expand forms there."""
    o = R.pole_order(w)
    out = np.zeros((o + J + 1, R.dim, R.dim))
    for z, cs in R.poles:
        if abs(z - w) <= 1e-12:
            out[:o] += np.abs(cs[::-1])
            continue
        for n, c in enumerate(cs, 1):
            out[o:] += np.multiply.outer(
                np.abs(binomial_weights(-n, w - z, J + 1)), np.abs(c))
    for m, c in enumerate(R.poly):
        out[o:] += np.multiply.outer(np.abs(binomial_weights(m, w, J + 1)),
                                     np.abs(c))
    return out


def _commutator_scale(A, B, w):
    """Entrywise bound on the moduli of the terms that the coefficient of
    (lambda - w)^-n of A B - B A sums, n = 1, 2, ..: the Cauchy products
    of the two term-modulus expansions, both ways round."""
    oa, ob = A.pole_order(w), B.pole_order(w)
    a = _abs_expansion(A, w, max(oa, ob))
    b = _abs_expansion(B, w, max(oa, ob))
    S = np.zeros((oa + ob, A.dim, A.dim))
    for i in range(len(a)):
        for j in range(len(b)):
            n = oa + ob - i - j  # u^(i - oa) u^(j - ob) = u^-n
            if 1 <= n <= oa + ob:
                S[n - 1] += a[i] @ b[j] + b[j] @ a[i]
    return S


def _gamma(m):
    """gamma_m = m u / (1 - m u), u the unit roundoff of float64."""
    u = np.finfo(float).eps / 2
    return m * u / (1 - m * u)


def test_lax_rhs_equals_its_two_product_form(rng):
    # lax_rhs forms [L, h] at 0, zeta_1..zeta_N only and writes the other
    # T - 1 poles of each orbit by weight-1 equivariance; the oracle forms
    # L h - h L at every pole point.  D, the pole points, the stack shapes
    # and the representative poles are bit for bit.  Every other orbit pole
    # is orbit_family of the oracle's representative, and differs from the
    # oracle's own pole there by at most the sum of the two direct
    # computations' forward-error bounds, gamma_M times the term moduli
    # (_commutator_scale), with M the sequential roundings of an expansion
    # coefficient, a Cauchy product and the difference, tripled for complex
    # multiplication and the binomial weights' powers.  Beside the three
    # models, generic coefficients with two orbits (N = 2), which no model
    # has, at T = 1..5.
    cases = []
    for T in (2, 3):
        for s in (mdl.random_toda(T, rng), mdl.random_dst(T, rng, zeta1=0.9),
                  mdl.random_coupled(T, rng, beta=0.7, zeta1=0.9)):
            cases.append((mdl.lax(s), mdl.config_of(s),
                          mdl.admissible_flows(s, 3)))
    for T in range(1, 6):
        P = gaudin.PoleConfig(T, (0.9 + 0.2j, -0.4 + 1.1j))
        C = gaudin.GaudinCoefficients(
            grade_component(random_matrix(rng, T), 0, T),
            grade_component(random_matrix(rng, T), -1, T),
            [random_matrix(rng, T), random_matrix(rng, T)],
            grade_component(random_matrix(rng, T), 1, T), T)
        cases.append((gaudin.assemble_lax(C, P), P,
                      [gaudin.FlowId(p, r) for p in (1, 2, 3)
                       for r in range(P.N + 1)]))
    for L, P, flows in cases:
        for f in flows:
            rhs, D = gaudin.lax_rhs(f, L, P)
            ref, coefficients = _lax_rhs_two_products(f, L, P)
            for a, b in zip([D.dA0_0, D.dA0_1, D.dAinf, *D.dA_list],
                            coefficients):
                assert a.shape == b.shape and np.array_equal(a, b)
            assert rhs.pole_points() == ref.pole_points()
            for (_, a), (_, b) in zip(rhs.poles, ref.poles):
                assert a.shape == b.shape
            h = gaudin.lax_partner(f, L, P)
            terms = sum(len(cs) for _, cs in L.poles + h.poles) + len(L.poly)
            for zr in [0j, *P.zetas]:
                if ref._pole_index(zr) is None:  # the points agree: none
                    continue
                rep = ref.poles[ref._pole_index(zr)][1]
                if zr == 0j:
                    assert np.array_equal(rhs.poles[rhs._pole_index(0j)][1],
                                          rep)
                    continue
                bound_rep = _commutator_scale(L, h, zr)
                for k, (w, cs) in enumerate(
                        orbit_family(zr, rep, P.root, 1)):
                    got = rhs.poles[rhs._pole_index(w)][1]
                    direct = ref.poles[ref._pole_index(w)][1]
                    assert np.array_equal(got, cs)
                    if k == 0:
                        assert np.array_equal(got, direct)
                        continue
                    M = 3 * (terms + 2 * len(direct) + P.T + 2)
                    bound = _gamma(M) * (bound_rep + _commutator_scale(L, h, w))
                    assert np.all(np.abs(got - direct) <= bound[:len(got)])


def test_residues_and_residue_theorem(rng):
    dim = 3
    z = 1.1 - 0.6j
    R = _random_rational(rng, dim, [z, -0.5, 0.9j], deg=1)
    # the simple-pole residue is the order-1 principal coefficient
    for zp, cs in R.poles:
        np.testing.assert_allclose(R.residue(zp), cs[0], atol=0)
    total = sum(R.residue(zp) for zp in R.pole_points())
    total = total + residue_at_infinity(R)
    np.testing.assert_allclose(total, np.zeros((dim, dim)), atol=1e-12)


def test_split_reconstructs_locally(rng):
    # a genuine weight-1 equivariant input: a Toda Lax matrix
    s = mdl.random_toda(3, rng)
    L = mdl.lax(s)
    root = primitive_root(3)
    reg, sing = split(L, root, [], weight=1)
    assert check_equivariance(sing, 1, root) < 1e-11
    # remainder at the origin slot + singular part == L near the origin
    u = 0.013 + 0.004j
    np.testing.assert_allclose(reg.series[0].eval_sum(u) + sing.eval(u),
                               L.eval(u), atol=1e-9)


def test_split_rejects_stray_poles(rng):
    R = _random_rational(rng, 2, [0.77])
    with pytest.raises(StructuralError):
        split(R, primitive_root(2), [], weight=0)


def test_equivariance_residual_flags_generic_input(rng):
    R = _random_rational(rng, 3, [0.7 + 0.2j])
    assert check_equivariance(R, 0, primitive_root(3)) > 1e-2


def test_local_tuple_arithmetic(rng):
    R = _random_rational(rng, 2, [1.3])
    A = localize(R, [1.3], 5)
    Z = A - A
    assert isinstance(Z, LocalTuple)
    for srs in Z.series:
        for n in range(srs.low, srs.trunc + 1):
            assert np.max(np.abs(srs.coeff(n))) == 0.0
