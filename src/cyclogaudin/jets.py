"""Forward-mode dual numbers ("jets") carrying first derivatives with
respect to a fixed list of n real or complex coordinates.

Jet is a scalar (value + gradient vector); JetMatrix is a T x T matrix whose
every entry is such a scalar, stored as a value matrix plus a stacked
gradient tensor of shape (n, T, T).  All arithmetic is exact to roundoff.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError


class Jet:
    """Dual-number scalar: value and gradient w.r.t. n coordinates."""

    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = complex(val)
        self.grad = np.asarray(grad, dtype=complex)

    @classmethod
    def variable(cls, val, i: int, n: int) -> "Jet":
        g = np.zeros(n, dtype=complex)
        g[i] = 1.0
        return cls(val, g)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad)
        return Jet(self.val + other, self.grad)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val * other.val,
                       self.val * other.grad + other.val * self.grad)
        return Jet(self.val * other, self.grad * other)

    __rmul__ = __mul__

    def exp(self) -> "Jet":
        e = np.exp(self.val)
        return Jet(e, e * self.grad)

    def __repr__(self):
        return f"Jet({self.val!r}, grad[{self.grad.shape[0]}])"


class JetMatrix:
    """Matrix of dual numbers: value (T,T) plus gradient stack (n,T,T)."""

    __slots__ = ("val", "grad")
    # make ndarray @ JetMatrix defer to __rmatmul__
    __array_priority__ = 1000

    def __init__(self, val, grad):
        self.val = np.asarray(val, dtype=complex)
        self.grad = np.asarray(grad, dtype=complex)
        if self.grad.shape[1:] != self.val.shape:
            raise DimensionError(
                f"gradient stack {self.grad.shape} incompatible with value {self.val.shape}")

    @property
    def dim(self) -> int:
        return self.val.shape[0]

    @property
    def nvars(self) -> int:
        return self.grad.shape[0]

    @classmethod
    def const(cls, mat, nvars: int) -> "JetMatrix":
        mat = np.asarray(mat, dtype=complex)
        return cls(mat, np.zeros((nvars,) + mat.shape, complex))

    def _coerce(self, other):
        if isinstance(other, JetMatrix):
            return other
        return JetMatrix.const(other, self.nvars)

    def __add__(self, other):
        o = self._coerce(other)
        return JetMatrix(self.val + o.val, self.grad + o.grad)

    __radd__ = __add__

    def __neg__(self):
        return JetMatrix(-self.val, -self.grad)

    def __sub__(self, other):
        o = self._coerce(other)
        return JetMatrix(self.val - o.val, self.grad - o.grad)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, scalar):
        # scalar multiplication only (complex, not Jet)
        return JetMatrix(self.val * scalar, self.grad * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return JetMatrix(self.val / scalar, self.grad / scalar)

    def __matmul__(self, other):
        if isinstance(other, JetMatrix):
            return JetMatrix(
                self.val @ other.val,
                np.einsum("nij,jk->nik", self.grad, other.val)
                + np.einsum("ij,njk->nik", self.val, other.grad))
        other = np.asarray(other, dtype=complex)
        return JetMatrix(self.val @ other,
                         np.einsum("nij,jk->nik", self.grad, other))

    def __rmatmul__(self, other):
        other = np.asarray(other, dtype=complex)
        return JetMatrix(other @ self.val,
                         np.einsum("ij,njk->nik", other, self.grad))

    def phase_mul(self, phase: np.ndarray) -> "JetMatrix":
        """Entrywise multiply by a fixed phase matrix (sigma action)."""
        return JetMatrix(self.val * phase, self.grad * phase)

    def trace(self) -> Jet:
        return Jet(np.trace(self.val), np.trace(self.grad, axis1=1, axis2=2))

    def entry(self, i: int, j: int) -> Jet:
        return Jet(self.val[i, j], self.grad[:, i, j])

    def __repr__(self):
        return f"JetMatrix(dim={self.dim}, nvars={self.nvars})"


def value_of(x):
    """Plain complex value of a scalar that may be a Jet."""
    return x.val if isinstance(x, Jet) else complex(x)


def matrix_value(X):
    """Plain ndarray value of a matrix that may be a JetMatrix."""
    return X.val if isinstance(X, JetMatrix) else np.asarray(X, dtype=complex)
