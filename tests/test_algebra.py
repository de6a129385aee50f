"""The order-T automorphism sigma, its grading of gl_T, and root-of-unity
bookkeeping."""
import numpy as np
import pytest

from cyclogaudin.algebra import (grade_component, grading_residual,
                                 primitive_root, sigma_pow)
from cyclogaudin.errors import DimensionError, InvalidOrderError

from conftest import random_matrix


def test_primitive_root_values():
    r4 = primitive_root(4)
    assert r4.order == 4
    assert abs(r4.omega - 1j) < 1e-15
    # power table reduces any integer exponent mod T
    assert abs(r4.power(5) - 1j) < 1e-15
    assert abs(r4.power(-1) + 1j) < 1e-15
    assert abs(primitive_root(1).omega - 1.0) < 1e-15


def test_primitive_root_rejects_bad_order():
    with pytest.raises(InvalidOrderError):
        primitive_root(0)


def test_sigma_has_order_T(rng):
    for T in (1, 2, 3, 5):
        root = primitive_root(T)
        X = random_matrix(rng, T)
        np.testing.assert_allclose(sigma_pow(X, T, root), X, atol=1e-14)
        # sigma^j sigma^k = sigma^(j+k)
        Y = sigma_pow(sigma_pow(X, 2, root), 3, root)
        np.testing.assert_allclose(Y, sigma_pow(X, 5, root), atol=1e-14)


def test_sigma_is_an_algebra_automorphism(rng):
    T = 4
    root = primitive_root(T)
    X = random_matrix(rng, T)
    Y = random_matrix(rng, T)
    lhs = sigma_pow(X @ Y, 1, root)
    rhs = sigma_pow(X, 1, root) @ sigma_pow(Y, 1, root)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_sigma_on_elementary_matrix():
    # sigma(E_ij) = omega^(j-i) E_ij
    T = 3
    root = primitive_root(T)
    E = np.zeros((T, T), complex)
    E[0, 2] = 1.0
    np.testing.assert_allclose(sigma_pow(E, 1, root), root.power(2) * E,
                               atol=1e-15)


def test_grades_decompose_and_diagonalise_sigma(rng):
    T = 5
    root = primitive_root(T)
    X = random_matrix(rng, T)
    parts = [grade_component(X, n, T) for n in range(T)]
    np.testing.assert_allclose(sum(parts), X, atol=1e-14)
    for n, Xn in enumerate(parts):
        np.testing.assert_allclose(sigma_pow(Xn, 1, root),
                                   root.power(n) * Xn, atol=1e-14)
        assert grading_residual(Xn, n, T) == 0.0


def test_grading_residual_detects_off_grade():
    T = 3
    X = np.eye(T) + 0.5 * np.roll(np.eye(T), 1, axis=1)
    assert grading_residual(X, 0, T) == pytest.approx(0.5)


def test_sigma_dimension_check(rng):
    with pytest.raises(DimensionError):
        sigma_pow(random_matrix(rng, 3), 1, primitive_root(4))


def test_sigma_on_dual_number_matrix(rng):
    # the phase acts on every slice of a stacked (n, T, T) array, such as
    # the derivative part of a dual-number matrix
    T = 3
    root = primitive_root(T)
    stack = np.stack([random_matrix(rng, T) for _ in range(3)])
    S = sigma_pow(stack, 1, root)
    assert S.shape == stack.shape
    for k in range(3):
        np.testing.assert_allclose(S[k], sigma_pow(stack[k], 1, root),
                                   atol=1e-14)
    with pytest.raises(DimensionError):
        sigma_pow(np.zeros((2, 3, 4)), 1, root)
