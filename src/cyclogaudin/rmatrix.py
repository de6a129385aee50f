"""The cyclotomic non-skew-symmetric r-matrix and its identities as
numerical verifiers: CYBE, the averaging identity, the kernel projections
R_+ / R_-, and the quadratic (Sklyanin-type) bracket of the Lax matrix.

Tensor convention: an element of g (x) g is a (T^2, T^2) array whose row
index is the composite (slot1_row * T + slot2_row) and likewise for
columns, i.e. exactly numpy.kron(slot1, slot2).

r_12(lam, mu) = sum_ij c_ij E_ij (x) E_ji is a weighted leg swap: each row
holds one nonzero, c_ij at the column with the two legs swapped, and c_ij
depends on j - i mod T only.  Embedded on legs (a, b) of the triple tensor
space it stays monomial, so cybe_residual multiplies two kernels by one
gather and one multiply, and each row of the residual holds at most six
nonzeros: O(T^3) work and memory, where dense (T^3, T^3) products cost
O(T^9) work and the dense residual O(T^6) memory.  kernel_projection
contracts, per (output slot, input slot), the (order m, coefficient j)
tables of residue weights for all T kernel poles omega^(-k) spt at once
with the input slot's stacked coefficients, in one matrix product, and
applies sigma^k and the omega phases as one phase tensor summed over k.
"""
from __future__ import annotations

from functools import cache
from math import comb, prod

import numpy as np

from .algebra import RootOfUnity, grade_component
from .errors import PoleProximityError
from .ratmat import (_POLE_TOL, INF, LaurentSeries, LocalTuple, RationalMatrix,
                     _is_inf, orbit_family, slot_weight)

_COLLISION_TOL = 1e-10


def casimir(T: int) -> np.ndarray:
    """C_12 = sum_ij E_ij (x) E_ji on the (T^2, T^2) tensor space."""
    return _on_swap(np.ones((T, T)))


def _on_swap(c: np.ndarray) -> np.ndarray:
    """sum_ij c_ij E_ij (x) E_ji: row i*T + j holds c_ij at column j*T + i."""
    T = len(c)
    out = np.zeros((T * T, T * T), dtype=complex)
    out[np.arange(T * T), np.arange(T * T).reshape(T, T).T.ravel()] = c.ravel()
    return out


def _coefficients(lam: complex, mu: complex, root: RootOfUnity) -> np.ndarray:
    """The (T, T) table c with r_12(lam, mu) = sum_ij c_ij E_ij (x) E_ji,
    c_ij = (1/T) sum_k omega^(k(j-i)) / (mu - omega^(-k) lam)."""
    T = root.order
    gaps = [mu - root.power(-k) * lam for k in range(T)]
    for k, gap in enumerate(gaps):
        if abs(gap) <= _COLLISION_TOL:
            raise PoleProximityError(
                f"mu={mu} collides with omega^(-{k}) lam={lam}")
    # c_ij depends on j - i mod T only; its T values are summed over k with
    # scalar products, rounded as per entry (array products may fuse them)
    powers, dens = root.powers.tolist(), [complex(1.0 / g) for g in gaps]
    values = [sum((powers[k * n % T] * d for k, d in enumerate(dens)), 0j)
              for n in range(T)]
    return np.array([values[-i:] + values[:-i] for i in range(T)]) / T


def r_kernel(lam: complex, mu: complex, root: RootOfUnity) -> np.ndarray:
    """r_12(lam, mu) = (1/T) sum_k sum_ij omega^(k(j-i))
    / (mu - omega^(-k) lam) E_ij (x) E_ji."""
    return _on_swap(_coefficients(lam, mu, root))


# the legs (a, b) of r_12, r_13, r_23 and r_32, and the commutators
# [r_12, r_13] + [r_12, r_23] + [r_32, r_13] of the CYBE as index pairs
_CYBE_LEGS = ((0, 1), (0, 2), (1, 2), (2, 1))
_CYBE_PAIRS = ((0, 1), (0, 2), (3, 1))


@cache
def _cybe_layout(T: int) -> tuple:
    """The index arrays of cybe_residual at order T (cached): per kernel
    r_ab, the flat index into its (T, T) coefficient table of the value
    each row of the triple tensor space holds, and the row's column (legs a
    and b of the row swapped); and per product of two kernels, in the order
    of the commutators (A B, then B A), and per row, the slot of the
    product's column among the row's: the first product with that column,
    times T^3, plus the row."""
    n = T ** 3
    legs, cube = np.indices((T, T, T)).reshape(3, -1), np.arange(n).reshape(T, T, T)
    at = [legs[a] * T + legs[b] for a, b in _CYBE_LEGS]
    col = [cube.swapaxes(a, b).ravel() for a, b in _CYBE_LEGS]
    cols = np.array([c for A, B in _CYBE_PAIRS
                     for c in (col[B][col[A]], col[A][col[B]])])
    slot = ((cols[:, None] == cols).argmax(axis=1) * n + np.arange(n)).ravel()
    for arr in (*at, *col, slot):
        arr.setflags(write=False)
    return at, col, slot


def cybe_residual(lam: complex, mu: complex, nu: complex,
                  root: RootOfUnity) -> float:
    """Max-abs of [r_12(l,m), r_13(l,n)] + [r_12(l,m), r_23(m,n)]
    + [r_32(n,m), r_13(l,n)] on the triple tensor space, with each r_ab
    held as (value per row, column per row).  Each of the six products
    holds one (column, value) pair per row, so a row of the residual has
    at most six nonzeros: the pairs are summed into one slot per distinct
    column of the row, in the order of the commutators, from zero, as a
    dense (T^6) accumulator would sum them; the other entries are zero."""
    at, col, slot = _cybe_layout(root.order)
    v = [_coefficients(x, y, root).ravel()[i] for (x, y), i in
         zip(((lam, mu), (lam, nu), (mu, nu), (nu, mu)), at)]
    terms = []   # B A is subtracted as its negation, which rounds the same
    for A, B in _CYBE_PAIRS:
        terms += [v[A] * v[B][col[A]], -(v[B] * v[A][col[B]])]
    acc = np.zeros(slot.size, dtype=complex)
    np.add.at(acc, slot, np.concatenate(terms))   # in index order
    return float(np.max(np.abs(acc)))


def averaging_residual(z1: complex, z2: complex, l: int,
                       root: RootOfUnity) -> float:
    """Residual of the partial-fraction averaging identity
    z1^(T-1-[l]) z2^([l]) / (z1^T - z2^T) = (1/T) sum_k omega^(-kl)/(z1 - omega^k z2),
    where [l] is the representative of l in {0,..,T-1}."""
    T = root.order
    if abs(z1 ** T - z2 ** T) <= _COLLISION_TOL:
        raise PoleProximityError("z1^T = z2^T: identity sides are singular")
    lm = l % T
    lhs = z1 ** (T - 1 - lm) * z2 ** lm / (z1 ** T - z2 ** T)
    rhs = sum(root.power(-k * l) / (z1 - root.power(k) * z2)
              for k in range(T)) / T
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Kernel projections R_+ / R_- of the regular/singular decomposition (weight
# 0): R_+ by the residue sums of the r-kernel pairing, R_- directly.
# ---------------------------------------------------------------------------

def _orders(s: LaurentSeries, lo: int, hi: int) -> np.ndarray:
    """Stack of the coefficients of u^lo .. u^(hi-1)."""
    return np.array([s.coeff(n) for n in range(lo, hi)],
                    dtype=complex).reshape(hi - lo, *s.coeffs.shape[1:])


@cache
def _residue_table(kind: str, M: int, J: int):
    """(weight, exponent) over (m < M, j < J) of the residue weight
    W[m, j] = weight x^exponent of stacked coefficient j in output order m:
    'taylor' comb(m, j) x^(m-j), 'laurent' comb(m+j, j) (-1)^j x^(m+1+j),
    'poly' -comb(j, m) x^(j-m); math.comb is zero off the support."""
    m, j = np.ogrid[:M, :J]
    pascal = np.array([[comb(a, c) for c in range(M + J)]
                       for a in range(M + J)], dtype=float)
    return {"taylor": (pascal[m, j], np.maximum(m - j, 0)),
            "laurent": (pascal[m + j, j] * (-1.0) ** j, m + 1 + j),
            "poly": (-pascal[j, m], np.maximum(j - m, 0))}[kind]


def _slot_residues(pt, s: LaurentSeries, bs, M: int) -> np.ndarray:
    """sum_j W[m, j] c_j for m < M: the residues of slot pt's series against
    each kernel pole b in bs, stacked over bs (bs None: the output slot at
    infinity, no stack axis), with c_j its principal part, or at infinity
    its polynomial part.  One matrix product serves every b."""
    on = []  # the kernel poles that sit on this slot
    if bs is None:
        if _is_inf(pt):
            return -_orders(s, 1, M + 1)
        kind, xs, stack = "taylor", [pt], s.principal()
    elif _is_inf(pt):
        kind, xs, stack = "poly", bs, s.polynomial()
    else:
        on = [k for k, b in enumerate(bs) if abs(pt - b) <= _POLE_TOL]
        kind, stack = "laurent", s.principal()
        xs = [0j if k in on else 1.0 / (complex(pt) - b)
              for k, b in enumerate(bs)]
    weight, exponent = _residue_table(kind, M, len(stack))
    powers = np.ones((len(xs), M + len(stack) + 1), complex)
    powers[:, 1:] = np.array(xs)[:, None]
    W = weight * np.cumprod(powers, axis=1)[:, exponent]
    # the contraction over j as np.tensordot makes it, without its wrapper
    J, shape = len(stack), stack.shape[1:]
    res = W.reshape(len(xs) * M, J).dot(stack.reshape(J, prod(shape)))
    res = res.reshape((len(xs), M) + shape)
    res[on] = _orders(s, 0, M)
    return res if bs is not None else res[0]


def _phases(root: RootOfUnity, ex: np.ndarray) -> np.ndarray:
    """omega^(k ex_m) sigma^k as phases omega^(k (ex_m + j - i)) over (k, m, i, j)."""
    k = idx = np.arange(root.order)
    return root.powers[k[:, None, None, None]
                       * (ex[:, None, None] + idx - idx[:, None]) % root.order]


def kernel_projection(X: LocalTuple, sign: str, root: RootOfUnity):
    """R_+(X) (sign '+', a regular LocalTuple) via the residue sums of the
    pairing against the two opposite double expansions of the r-kernel, or
    R_-(X) (sign '-', a RationalMatrix) by the direct singular-part formula
    of _r_minus, not the r-kernel: R_- against split checks one formula.

    Satisfies R_+ - R_- = id on equivariant weight-0 tuples; R_+ agrees
    with the regular part of split and R_- with minus its singular part.
    The series of R_+ run to order 6 at every slot (u^6 at infinity).
    """
    T = root.order
    out_trunc = 6
    if sign == "-":
        return _r_minus(X, root)
    if sign != "+":
        raise ValueError("sign must be '+' or '-'")
    slots = [(pt, slot_weight(pt, T), s) for pt, s in zip(X.points, X.series)]
    out_series = []
    for spt in X.points:
        if _is_inf(spt):
            # u^(m+1), u = 1/lambda, m < out_trunc (u^0 is 0); no k dependence
            res = sum(w * _slot_residues(pt, s, None, out_trunc)
                      for pt, w, s in slots)
            acc = _phases(root, np.arange(1, out_trunc + 1)).sum(axis=0) * res
            coeffs = np.concatenate([np.zeros((1, X.dim, X.dim)), -acc / T])
            out_series.append(LaurentSeries(X.dim, INF, 0, coeffs))
        else:
            M = out_trunc + 1
            bs = [root.power(-k) * spt for k in range(T)]
            res = sum(w * _slot_residues(pt, s, bs, M) for pt, w, s in slots)
            acc = (_phases(root, -np.arange(M)) * res).sum(axis=0)
            out_series.append(LaurentSeries(X.dim, complex(spt), 0, acc / T))
    return LocalTuple(list(X.points), out_series)


def _r_minus(X: LocalTuple, root: RootOfUnity) -> RationalMatrix:
    """R_-(X): minus the singular rational function carried by X, with
    grade projections at 0/infinity and, at the finite nonzero slots, the
    orbit families that ratmat.pi_project gives split (weight-0 phases)."""
    T = root.order
    poles = []
    poly = []
    for pt, s in zip(X.points, X.series):
        if _is_inf(pt):
            poly = [-grade_component(d, m, T) for m, d in enumerate(s.polynomial())]
        elif abs(pt) <= _POLE_TOL:
            cs = [-grade_component(c, -(n + 1), T)
                  for n, c in enumerate(s.principal())]
            poles.append((0j, cs))
        else:
            poles += orbit_family(pt, -s.principal(), root, 0)
    return RationalMatrix(X.dim, poly, poles, validate=False).trim()


# ---------------------------------------------------------------------------
# Sklyanin-type quadratic bracket of the Lax matrix
# ---------------------------------------------------------------------------

def sklyanin_residual(state, lam: complex, mu: complex) -> float:
    """Max-abs of {L_1(lam), L_2(mu)} - [r_12(lam,mu), L_1(lam)]
    + [r_21(mu,lam), L_2(mu)] for the model state's Lax matrix.

    The left side is assembled entrywise from the model's canonical
    bracket with the Jacobian dL/d(coords), read off the Lax matrix
    assembled from the coefficient Jacobian stacks.
    """
    from . import models as _models  # local import: models sits above this layer

    cfg, L, dL, sectors = _models.jet_context(state)
    root = cfg.root
    T = root.order
    for z in L.pole_points() + dL.pole_points():
        if min(abs(lam - z), abs(mu - z)) <= _COLLISION_TOL:
            raise PoleProximityError("spectral point too close to a Lax pole")
    for k in range(T):
        if abs(mu - root.power(-k) * lam) <= _COLLISION_TOL:
            raise PoleProximityError("mu lies on the Gamma-orbit of lam")

    L1, L2 = L.eval(lam), L.eval(mu)
    dL1, dL2 = dL.eval(lam), dL.eval(mu)
    lhs = np.zeros((T, T, T, T), dtype=complex)
    for iP, iQ, cf in sectors:
        lhs += cf * (np.einsum("iab,icd->abcd", dL1[iP], dL2[iQ])
                     - np.einsum("iab,icd->abcd", dL1[iQ], dL2[iP]))
    lhs_mat = lhs.transpose(0, 2, 1, 3).reshape(T * T, T * T)

    r12 = r_kernel(lam, mu, root)
    r21 = _on_swap(_coefficients(mu, lam, root).T)  # legs of r_12(mu, lam) swapped
    # L1 (x) 1 and 1 (x) L2 as the broadcast products that np.kron forms
    eye = np.eye(T)
    L1m = (L1[:, None, :, None] * eye[None, :, None, :]).reshape(T * T, T * T)
    L2m = (eye[:, None, :, None] * L2[None, :, None, :]).reshape(T * T, T * T)
    rhs = (r12 @ L1m - L1m @ r12) - (r21 @ L2m - L2m @ r21)
    return float(np.max(np.abs(lhs_mat - rhs)))
