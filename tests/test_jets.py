"""Forward-mode dual numbers: scalar and matrix jets."""
import numpy as np
import pytest

from cyclogaudin.errors import DimensionError
from cyclogaudin.jets import Jet, JetMatrix, matrix_value, value_of

from conftest import random_matrix


def _fd(fun, z0, eps=1e-7):
    return (fun(z0 + eps) - fun(z0 - eps)) / (2 * eps)


def test_scalar_jet_arithmetic_matches_finite_differences():
    x0, y0 = 0.7 - 0.2j, 1.3 + 0.4j

    def f(x, y):
        return x * y + (x + 2.0) * (y - 3.0) - x * x

    x = Jet.variable(x0, 0, 2)
    y = Jet.variable(y0, 1, 2)
    out = f(x, y)
    assert abs(out.val - f(x0, y0)) < 1e-14
    assert abs(out.grad[0] - _fd(lambda t: f(t, y0), x0)) < 1e-7
    assert abs(out.grad[1] - _fd(lambda t: f(x0, t), y0)) < 1e-7


def test_scalar_jet_exp_and_negation():
    x = Jet.variable(0.3 + 0.1j, 0, 1)
    e = (-x).exp()
    assert abs(e.val - np.exp(-x.val)) < 1e-14
    assert abs(e.grad[0] + np.exp(-x.val)) < 1e-14


def test_jet_constants_have_zero_gradient():
    s = 2.5 + Jet.variable(1.0, 1, 3)
    assert s.val == 3.5
    assert s.grad[1] == 1.0 and s.grad[0] == s.grad[2] == 0.0


def test_matrix_jet_product_rule(rng):
    T, n = 3, 2
    A0, B0 = random_matrix(rng, T), random_matrix(rng, T)
    dA = np.stack([random_matrix(rng, T) for _ in range(n)])
    dB = np.stack([random_matrix(rng, T) for _ in range(n)])
    A, B = JetMatrix(A0, dA), JetMatrix(B0, dB)
    P = A @ B
    np.testing.assert_allclose(P.val, A0 @ B0, atol=1e-13)
    for k in range(n):
        np.testing.assert_allclose(P.grad[k], dA[k] @ B0 + A0 @ dB[k],
                                   atol=1e-13)


def test_matrix_jet_mixed_operands(rng):
    T, n = 3, 2
    A0 = random_matrix(rng, T)
    dA = np.stack([random_matrix(rng, T) for _ in range(n)])
    C = random_matrix(rng, T)
    A = JetMatrix(A0, dA)
    left, right = C @ A, A @ C
    np.testing.assert_allclose(left.val, C @ A0, atol=1e-13)
    np.testing.assert_allclose(left.grad[1], C @ dA[1], atol=1e-13)
    np.testing.assert_allclose(right.grad[0], dA[0] @ C, atol=1e-13)
    S = 2.0 * A + C - A / 2.0
    np.testing.assert_allclose(S.val, 1.5 * A0 + C, atol=1e-13)
    np.testing.assert_allclose(S.grad[0], 1.5 * dA[0], atol=1e-13)


def test_matrix_jet_trace_and_entry(rng):
    T, n = 3, 4
    A0 = random_matrix(rng, T)
    dA = np.stack([random_matrix(rng, T) for _ in range(n)])
    A = JetMatrix(A0, dA)
    tr = A.trace()
    assert isinstance(tr, Jet)
    assert abs(tr.val - np.trace(A0)) < 1e-14
    np.testing.assert_allclose(tr.grad, dA.trace(axis1=1, axis2=2), atol=1e-14)
    e = A.entry(1, 2)
    assert e.val == A0[1, 2]
    np.testing.assert_allclose(e.grad, dA[:, 1, 2], atol=0)


def test_matrix_jet_shape_validation(rng):
    with pytest.raises(DimensionError):
        JetMatrix(np.eye(3), np.zeros((2, 4, 4)))


def test_value_extractors(rng):
    assert value_of(Jet.variable(2.0, 0, 1)) == 2.0
    assert value_of(1.5) == 1.5 + 0j
    M = random_matrix(rng, 2)
    np.testing.assert_allclose(matrix_value(JetMatrix.const(M, 3)), M)
    np.testing.assert_allclose(matrix_value(M), M)
