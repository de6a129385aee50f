"""Finite-dimensional backbone: gl_T over C, the cyclic automorphism sigma
and its Z_T grading, root-of-unity bookkeeping.

The automorphism acts entrywise, sigma(E_ij) = omega^(j-i) E_ij, where omega
is a fixed primitive T-th root of unity.  Its eigenspaces are the "grades"
g^(n) = span{E_{i,i+n}} with indices mod T.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DimensionError, InvalidOrderError


@dataclass(frozen=True)
class RootOfUnity:
    """Primitive T-th root of unity with a cached power table."""

    order: int
    omega: complex
    powers: np.ndarray  # omega^0 .. omega^(T-1)

    def power(self, k: int) -> complex:
        """omega^k for any integer k (reduced mod order)."""
        return self.powers[k % self.order]

    def orbit(self, z: complex) -> list:
        """The Gamma-orbit of z: the T points omega^k z, k = 0..T-1, each
        the scalar product power(k) * z."""
        return [w * z for w in self.powers]


@cache
def primitive_root(T: int) -> RootOfUnity:
    """omega = exp(2*pi*i/T) with its power table (cached per order)."""
    if T < 1:
        raise InvalidOrderError(f"root-of-unity order must be >= 1, got {T}")
    powers = np.exp(2j * np.pi * np.arange(T) / T)
    return RootOfUnity(order=T, omega=complex(powers[1] if T > 1 else 1.0),
                       powers=powers)


@cache
def _sigma_phase(T: int, k: int) -> np.ndarray:
    """Entrywise phase matrix of sigma^k: phase[i,j] = omega^(k(j-i))
    (cached; read-only)."""
    idx = np.arange(T)
    grid = (k % T * (idx[None, :] - idx[:, None])) % T
    phase = primitive_root(T).powers[grid]
    phase.setflags(write=False)
    return phase


def _check_dim(X: np.ndarray, T: int) -> None:
    if X.shape[-2:] != (T, T):
        raise DimensionError(f"expected trailing shape {(T, T)}, got {X.shape}")


def sigma_pow(X, k: int, root: RootOfUnity) -> np.ndarray:
    """Apply sigma^k entrywise: (sigma^k X)_ij = omega^(k(j-i)) X_ij.

    X is a (T, T) matrix or a stack (..., T, T) of them, e.g. a Jacobian
    stack; sigma acts on every slice.
    """
    X = np.asarray(X)
    _check_dim(X, root.order)
    return X * _sigma_phase(root.order, k)


def grade_component(X, n: int, T: int) -> np.ndarray:
    """Project X (a matrix or a (..., T, T) stack) onto g^(n) =
    span{E_{i,i+n}} (indices mod T)."""
    X = np.asarray(X)
    _check_dim(X, T)
    idx = np.arange(T)
    mask = ((idx[None, :] - idx[:, None]) % T == n % T)
    return np.where(mask, X, 0.0)


def grading_residual(X: np.ndarray, n: int, T: int) -> float:
    """Max-abs of the part of X outside grade n."""
    X = np.asarray(X)
    return float(np.max(np.abs(X - grade_component(X, n, T))))
