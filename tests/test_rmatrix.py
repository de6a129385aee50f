"""The cyclotomic r-matrix kernel: Yang-Baxter equation, the
partial-fraction averaging identity, kernel projections, and the quadratic
bracket of Lax matrix entries."""
from math import comb

import numpy as np
import pytest

from cyclogaudin import rmatrix
from cyclogaudin.algebra import grade_component, primitive_root, sigma_pow
from cyclogaudin.errors import PoleProximityError
from cyclogaudin.gaudin import FlowId, PoleConfig, assemble_lax, lax_partner
from cyclogaudin.ratmat import (INF, LaurentSeries, LocalTuple, RationalMatrix,
                                _is_inf, localize, slot_weight, split)
from cyclogaudin.rmatrix import (averaging_residual, casimir, cybe_residual,
                                 kernel_projection, r_kernel,
                                 sklyanin_residual)
from cyclogaudin import models as mdl
from cyclogaudin.suites import _random_coefficients

from conftest import random_matrix


def _draw_point(rng):
    return complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()))


def test_casimir_swaps_tensor_factors(rng):
    T = 3
    C = casimir(T)
    u = rng.normal(size=T) + 1j * rng.normal(size=T)
    v = rng.normal(size=T) + 1j * rng.normal(size=T)
    np.testing.assert_allclose(C @ np.kron(u, v), np.kron(v, u), atol=1e-14)


def test_r_kernel_reduces_to_rational_case_at_order_one():
    root = primitive_root(1)
    lam, mu = 0.3 + 0.1j, 1.2 - 0.4j
    np.testing.assert_allclose(r_kernel(lam, mu, root),
                               casimir(1) / (mu - lam), atol=1e-14)


def test_r_kernel_collision_guard():
    root = primitive_root(3)
    with pytest.raises(PoleProximityError):
        r_kernel(0.7, root.power(-1) * 0.7, root)


def test_cybe_residual_vanishes(rng):
    for T in (1, 2, 3):
        root = primitive_root(T)
        for _ in range(5):
            lam, mu, nu = (_draw_point(rng) for _ in range(3))
            try:
                res = cybe_residual(lam, mu, nu, root)
            except PoleProximityError:
                continue
            assert res <= 1e-12


def _r_kernel_loop(lam, mu, root):
    """r_12(lam, mu) entry by entry, accumulated over k = 0..T-1."""
    T = root.order
    R = np.zeros((T * T, T * T), dtype=complex)
    for k in range(T):
        den = 1.0 / (mu - root.power(-k) * lam)
        for i in range(T):
            for j in range(T):
                R[i * T + j, j * T + i] += root.power(k * (j - i)) * den
    return R / T


def test_r_kernel_bit_for_bit_against_loop(rng):
    for T in range(1, 7):
        root = primitive_root(T)
        for _ in range(20):
            lam, mu = _draw_point(rng), _draw_point(rng)
            R = r_kernel(lam, mu, root)
            np.testing.assert_array_equal(
                R.view(np.int64), _r_kernel_loop(lam, mu, root).view(np.int64))
            np.testing.assert_array_equal(R != 0, casimir(T) != 0)


def _embed(K, slots, T):
    """Dense embedding of a two-slot kernel into the triple tensor space on
    the tensor legs slots = (first, second)."""
    a, b = slots
    spare = ({0, 1, 2} - {a, b}).pop()
    rows, cols = "abc", "def"
    sub = (rows[a] + rows[b] + cols[a] + cols[b] + "," + rows[spare]
           + cols[spare] + "->" + rows + cols)
    return np.einsum(sub, K.reshape(T, T, T, T), np.eye(T)).reshape(T ** 3, T ** 3)


def _cybe_dense(lam, mu, nu, root, r32_args=None):
    """(residual, max |r_ab| |r_cd| over the six products) from dense
    (T^3, T^3) kernels; r32_args replaces the arguments (nu, mu) of r_32."""
    T = root.order
    r12 = _embed(r_kernel(lam, mu, root), (0, 1), T)
    r13 = _embed(r_kernel(lam, nu, root), (0, 2), T)
    r23 = _embed(r_kernel(mu, nu, root), (1, 2), T)
    r32 = _embed(r_kernel(*(r32_args or (nu, mu)), root), (2, 1), T)
    pairs = ((r12, r13), (r12, r23), (r32, r13))
    acc = sum(a @ b - b @ a for a, b in pairs)
    scale = max(np.max(np.abs(a)) * np.max(np.abs(b)) for a, b in pairs)
    return float(np.max(np.abs(acc))), scale


def _cybe_draws(rng, T, n):
    """n generic (lam, mu, nu) triples, then n with one pair 1e-3..1e-2 from
    a collision mu = omega^(-k) lam (still above the collision guard)."""
    root = primitive_root(T)
    for i in range(2 * n):
        pts = [_draw_point(rng) for _ in range(3)]
        if i >= n:
            a, b = rng.choice(3, size=2, replace=False)
            k = int(rng.integers(T))
            gap = rng.uniform(1e-3, 1e-2) * np.exp(2j * np.pi * rng.uniform())
            pts[b] = complex(root.power(-k) * pts[a] + gap)
        yield tuple(pts)


def test_cybe_residual_matches_dense_reference(rng):
    eps = np.finfo(float).eps
    for T in range(1, 7):
        root = primitive_root(T)
        for lam, mu, nu in _cybe_draws(rng, T, 6):
            try:
                dense, scale = _cybe_dense(lam, mu, nu, root)
            except PoleProximityError:
                continue
            assert abs(cybe_residual(lam, mu, nu, root) - dense) <= 8 * eps * scale


def _cybe_dense_accumulator(lam, mu, nu, root):
    """The CYBE residual with every product's (column, value) pairs added
    into a dense T^6 accumulator, one product after the other."""
    T = root.order
    legs = np.indices((T, T, T)).reshape(3, -1)
    cube = np.arange(T ** 3).reshape(T, T, T)
    r12, r13, r23, r32 = [
        (rmatrix._coefficients(x, y, root)[legs[a], legs[b]],
         cube.swapaxes(a, b).ravel())
        for x, y, a, b in ((lam, mu, 0, 1), (lam, nu, 0, 2), (mu, nu, 1, 2),
                           (nu, mu, 2, 1))]
    row = np.arange(T ** 3) * T ** 3
    acc = np.zeros(T ** 6, dtype=complex)
    for (va, ca), (vb, cb) in ((r12, r13), (r12, r23), (r32, r13)):
        acc[row + cb[ca]] += va * vb[ca]
        acc[row + ca[cb]] -= vb * va[cb]
    return float(np.max(np.abs(acc)))


def test_cybe_residual_equals_the_dense_accumulator(rng):
    # the per-row slots sum each entry's pairs in the dense accumulator's
    # order: equal by ==, generic and near-collision draws, T = 1..7
    for T in range(1, 8):
        root = primitive_root(T)
        for lam, mu, nu in _cybe_draws(rng, T, 8):
            try:
                want = _cybe_dense_accumulator(lam, mu, nu, root)
            except PoleProximityError:
                continue
            assert cybe_residual(lam, mu, nu, root) == want


def test_cybe_residual_detects_wrong_r32(rng, monkeypatch):
    # control: r_32 built as r(mu, nu) instead of r(nu, mu) breaks the CYBE
    # on both the structured and the dense route (at T = 1 every kernel is
    # a scalar and every commutator vanishes)
    coefficients = rmatrix._coefficients
    for T in range(2, 7):
        root = primitive_root(T)
        lam, mu, nu = next(_cybe_draws(rng, T, 1))

        def wrong_r32(x, y, root):
            return coefficients(*((y, x) if (x, y) == (nu, mu) else (x, y)), root)

        assert _cybe_dense(lam, mu, nu, root, r32_args=(mu, nu))[0] > 1e-3
        with monkeypatch.context() as m:
            m.setattr(rmatrix, "_coefficients", wrong_r32)
            assert cybe_residual(lam, mu, nu, root) > 1e-3
        assert cybe_residual(lam, mu, nu, root) <= 1e-12


def test_averaging_identity(rng):
    for T in (1, 2, 4, 6):
        root = primitive_root(T)
        n_ok = 0
        while n_ok < 20:
            z1, z2 = _draw_point(rng), _draw_point(rng)
            if min(abs(z1 - root.power(k) * z2) for k in range(T)) < 0.25:
                continue
            l = int(rng.integers(-T, 2 * T))
            assert averaging_residual(z1, z2, l, root) <= 1e-12
            n_ok += 1


def test_averaging_collision_guard():
    root = primitive_root(2)
    with pytest.raises(PoleProximityError):
        averaging_residual(0.8, -0.8, 1, root)


def _weight_zero_input(rng, T, zeta1):
    """A weight-0 equivariant rational function with poles on the slot
    orbits, built from hierarchy partners plus a graded constant."""
    P = PoleConfig(T, (zeta1,))
    L = assemble_lax(_random_coefficients(rng, T), P)
    R0 = lax_partner(FlowId(1, 0), L, P) + lax_partner(FlowId(2, 1), L, P) \
        + RationalMatrix.constant(grade_component(random_matrix(rng, T), 0, T))
    return R0, P


def test_kernel_projection_matches_split(rng):
    T = 3
    zeta1 = 0.9 + 0.2j
    R0, P = _weight_zero_input(rng, T, zeta1)
    root = P.root
    X = localize(R0, P.zetas, 8)
    reg, sing = split(R0, root, P.zetas, weight=0)
    Rp = kernel_projection(X, "+", root)
    Rm = kernel_projection(X, "-", root)
    worst = max(np.max(np.abs(np.asarray(a.coeff(n)) - np.asarray(b.coeff(n))))
                for a, b in zip(Rp.series, reg.series)
                for n in range(max(a.low, b.low), min(a.trunc, b.trunc) + 1))
    assert worst <= 1e-10
    for lam in (0.45 + 0.2j, -1.35 + 0.28j):
        assert np.max(np.abs(Rm.eval(lam) + sing.eval(lam))) <= 1e-10


def test_kernel_projection_difference_is_identity(rng):
    # R_+ - R_- acts as the identity on equivariant weight-0 data
    T = 2
    R0, P = _weight_zero_input(rng, T, 1.1)
    X = localize(R0, P.zetas, 8)
    Rp = kernel_projection(X, "+", P.root)
    Rm = kernel_projection(X, "-", P.root)
    # compare at the origin slot: regular series + singular value == R0
    u = 0.03 - 0.01j
    np.testing.assert_allclose(Rp.series[0].eval_sum(u) - Rm.eval(u),
                               R0.eval(u), atol=1e-9)


def _projection_plus_loop(X, root, out_trunc=6):
    """R_+(X) by the residue sums, order by order, k by k and slot by slot."""
    T = root.order
    dim = X.dim
    out_series = []
    for spt in X.points:
        coeffs = []
        if _is_inf(spt):
            coeffs.append(np.zeros((dim, dim), complex))
            for m in range(0, out_trunc):
                acc = np.zeros((dim, dim), complex)
                for k in range(T):
                    res_sum = np.zeros((dim, dim), complex)
                    for pt, s in zip(X.points, X.series):
                        if _is_inf(pt):
                            res = -s.coeff(m + 1)
                        else:
                            res = np.zeros((dim, dim), complex)
                            for j, c in enumerate(s.principal()):
                                if j > m:
                                    break
                                res = res + comb(m, j) * pt ** (m - j) * c
                        res_sum = res_sum + slot_weight(pt, T) * res
                    acc = acc + root.power(k * (m + 1)) * sigma_pow(res_sum, k, root)
                coeffs.append(-acc / T)
            out_series.append(LaurentSeries(dim, INF, 0, coeffs))
        else:
            zs = complex(spt)
            for m in range(0, out_trunc + 1):
                acc = np.zeros((dim, dim), complex)
                for k in range(T):
                    b = root.power(-k) * zs
                    res_sum = np.zeros((dim, dim), complex)
                    for pt, s in zip(X.points, X.series):
                        if _is_inf(pt):
                            res = np.zeros((dim, dim), complex)
                            j = 0
                            while -(m + j) >= s.low:
                                res = res - comb(m + j, j) * b ** j * s.coeff(-(m + j))
                                j += 1
                        elif abs(pt - b) <= 1e-12:
                            res = s.coeff(m)
                        else:
                            a = complex(pt) - b
                            res = np.zeros((dim, dim), complex)
                            for j, c in enumerate(s.principal()):
                                res = res + (comb(m + j, j) * (-1) ** j
                                             * a ** (-(m + 1 + j))) * c
                        res_sum = res_sum + slot_weight(pt, T) * res
                    acc = acc + root.power(-k * m) * sigma_pow(res_sum, k, root)
                coeffs.append(acc / T)
            out_series.append(LaurentSeries(dim, zs, 0, coeffs))
    return LocalTuple(list(X.points), out_series)


def test_kernel_projection_plus_matches_loop(rng):
    for T in range(1, 6):
        root = primitive_root(T)
        for N in range(3):
            points = [0j] + [complex((0.8 + 0.55 * r)
                                     * np.exp(2j * np.pi * rng.uniform()))
                             for r in range(N)] + [INF]
            series = []
            for pt in points:
                low = -int(rng.integers(0, 4))
                series.append(LaurentSeries(
                    T, pt, low, [random_matrix(rng, T) for _ in range(9 - low)]))
            X = LocalTuple(points, series)
            got = kernel_projection(X, "+", root)
            ref = _projection_plus_loop(X, root)
            for a, b in zip(got.series, ref.series):
                assert (a.low, a.trunc) == (b.low, b.trunc)
                for ca, cb in zip(a.coeffs, b.coeffs):
                    assert np.max(np.abs(ca - cb)) <= 1e-13 * np.max(np.abs(cb))


def test_kernel_projection_sign_validation(rng):
    T = 2
    R0, P = _weight_zero_input(rng, T, 1.1)
    X = localize(R0, P.zetas, 8)
    with pytest.raises(ValueError):
        kernel_projection(X, "*", P.root)


def test_sklyanin_residual_all_models(rng):
    states = [mdl.random_toda(3, rng),
              mdl.random_dst(3, rng, zeta1=0.9),
              mdl.random_coupled(2, rng, beta=0.6, zeta1=1.1)]
    for s in states:
        for _ in range(3):
            lam = complex(rng.uniform(0.45, 0.62)
                          * np.exp(2j * np.pi * rng.uniform()))
            mu = complex(rng.uniform(1.55, 1.8)
                         * np.exp(2j * np.pi * rng.uniform()))
            assert sklyanin_residual(s, lam, mu) <= 1e-9
