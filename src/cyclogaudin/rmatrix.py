"""The cyclotomic non-skew-symmetric r-matrix and its identities as
numerical verifiers: CYBE, the averaging identity, the kernel projections
R_+ / R_-, and the quadratic (Sklyanin-type) bracket of the Lax matrix.

Tensor convention: an element of g (x) g is a (T^2, T^2) array whose row
index is the composite (slot1_row * T + slot2_row) and likewise for
columns, i.e. exactly numpy.kron(slot1, slot2).
"""
from __future__ import annotations

from math import comb

import numpy as np

from .algebra import RootOfUnity, grade_component, sigma_pow
from .errors import PoleProximityError
from .ratmat import (INF, LaurentSeries, LocalTuple, RationalMatrix, _is_inf,
                     orbit_family, slot_weight)

_COLLISION_TOL = 1e-10


def casimir(T: int) -> np.ndarray:
    """C_12 = sum_ij E_ij (x) E_ji on the (T^2, T^2) tensor space."""
    C = np.zeros((T * T, T * T), dtype=complex)
    for i in range(T):
        for j in range(T):
            C[i * T + j, j * T + i] = 1.0
    return C


def r_kernel(lam: complex, mu: complex, root: RootOfUnity) -> np.ndarray:
    """r_12(lam, mu) = (1/T) sum_k sum_ij omega^(k(j-i))
    / (mu - omega^(-k) lam) E_ij (x) E_ji."""
    T = root.order
    for k in range(T):
        if abs(mu - root.power(-k) * lam) <= _COLLISION_TOL:
            raise PoleProximityError(
                f"mu={mu} collides with omega^(-{k}) lam={lam}")
    R = np.zeros((T * T, T * T), dtype=complex)
    for k in range(T):
        den = 1.0 / (mu - root.power(-k) * lam)
        for i in range(T):
            for j in range(T):
                R[i * T + j, j * T + i] += root.power(k * (j - i)) * den
    return R / T


def _embed(K: np.ndarray, slots: tuple, T: int) -> np.ndarray:
    """Embed a (T^2,T^2) two-slot kernel into the triple tensor space.

    slots is the (first, second) tensor-leg assignment, e.g. (0, 1) for
    r_12, (2, 1) for r_32.
    """
    K4 = K.reshape(T, T, T, T)  # [row1, row2, col1, col2]
    eye = np.eye(T)
    a, b = slots
    spare = ({0, 1, 2} - {a, b}).pop()
    letters_r = ["a", "b", "c"]
    letters_c = ["d", "e", "f"]
    sub = (letters_r[a] + letters_r[b] + letters_c[a] + letters_c[b]
           + "," + letters_r[spare] + letters_c[spare]
           + "->" + "".join(letters_r) + "".join(letters_c))
    out = np.einsum(sub, K4, eye)
    return out.reshape(T ** 3, T ** 3)


def cybe_residual(lam: complex, mu: complex, nu: complex,
                  root: RootOfUnity) -> float:
    """Max-abs of [r_12(l,m), r_13(l,n)] + [r_12(l,m), r_23(m,n)]
    + [r_32(n,m), r_13(l,n)] on the triple tensor space."""
    T = root.order
    r12 = _embed(r_kernel(lam, mu, root), (0, 1), T)
    r13 = _embed(r_kernel(lam, nu, root), (0, 2), T)
    r23 = _embed(r_kernel(mu, nu, root), (1, 2), T)
    r32 = _embed(r_kernel(nu, mu, root), (2, 1), T)
    acc = (r12 @ r13 - r13 @ r12) + (r12 @ r23 - r23 @ r12) \
        + (r32 @ r13 - r13 @ r32)
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
# Kernel projections R_+ / R_- of the regular/singular decomposition,
# realised through the residue sums of the pairing with the r-kernel
# (weight-0 function spaces).
# ---------------------------------------------------------------------------

def _poly_coeffs_at_inf(s: LaurentSeries) -> list:
    """[d_0, d_{-1}, ...]: coefficients of u^0, u^-1, ... (poly part)."""
    out = []
    m = 0
    while -m >= s.low:
        out.append(s.coeff(-m))
        m += 1
    return out


def kernel_projection(X: LocalTuple, sign: str, root: RootOfUnity,
                      out_trunc: int = 6):
    """R_+(X) (sign '+', a regular LocalTuple) or R_-(X) (sign '-', a
    RationalMatrix) via the residue sums defining the pairing against the
    two opposite double expansions of the r-kernel.

    Satisfies R_+ - R_- = id on equivariant weight-0 tuples; R_+ agrees
    with the regular part of split and R_- with minus its singular part.
    """
    T = root.order
    if sign == "-":
        return _r_minus(X, root)
    if sign != "+":
        raise ValueError("sign must be '+' or '-'")
    dim = X.dim
    out_series = []
    fin_pts = [pt for pt in X.points if not _is_inf(pt)]
    for spt in X.points:
        coeffs = []
        if _is_inf(spt):
            # coefficient of u^(m+1), u = 1/lambda; u^0 coefficient is 0
            coeffs.append(np.zeros((dim, dim), complex))
            for m in range(0, out_trunc):
                acc = np.zeros((dim, dim), complex)
                for k in range(T):
                    res_sum = np.zeros((dim, dim), complex)
                    for pt, s in zip(X.points, X.series):
                        w = slot_weight(pt, T)
                        if _is_inf(pt):
                            res = -s.coeff(m + 1)
                        else:
                            cs = s.principal()
                            res = np.zeros((dim, dim), complex)
                            for j, c in enumerate(cs):
                                if j > m:
                                    break
                                res = res + comb(m, j) * pt ** (m - j) * c
                        res_sum = res_sum + w * res
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
                        w = slot_weight(pt, T)
                        if _is_inf(pt):
                            res = np.zeros((dim, dim), complex)
                            j = 0
                            while -(m + j) >= s.low:
                                res = res - comb(m + j, j) * b ** j * s.coeff(-(m + j))
                                j += 1
                        elif abs(pt - b) <= 1e-12:
                            # kernel pole sits on this slot: pick the Taylor
                            # coefficient directly
                            res = s.coeff(m)
                        else:
                            a = complex(pt) - b
                            res = np.zeros((dim, dim), complex)
                            for j, c in enumerate(s.principal()):
                                res = res + (comb(m + j, j) * (-1) ** j
                                             * a ** (-(m + 1 + j))) * c
                        res_sum = res_sum + w * res
                    acc = acc + root.power(-k * m) * sigma_pow(res_sum, k, root)
                coeffs.append(acc / T)
            out_series.append(LaurentSeries(dim, zs, 0, coeffs))
    return LocalTuple(list(X.points), out_series)


def _r_minus(X: LocalTuple, root: RootOfUnity) -> RationalMatrix:
    """R_-(X): minus the singular rational function carried by X, with
    grade projections at 0/infinity and sigma-averaged orbit families at
    the finite nonzero slots (weight-0 phases)."""
    T = root.order
    dim = X.dim
    poles = []
    poly = []
    for pt, s in zip(X.points, X.series):
        if _is_inf(pt):
            for m, d in enumerate(_poly_coeffs_at_inf(s)):
                while len(poly) <= m:
                    poly.append(np.zeros((dim, dim), complex))
                poly[m] = poly[m] - grade_component(d, m, T)
        elif abs(pt) <= 1e-12:
            cs = [-grade_component(c, -(n + 1), T)
                  for n, c in enumerate(s.principal())]
            poles.append((0j, cs))
        else:
            poles += orbit_family(pt, -s.principal(), root, 0)
    return RationalMatrix(dim, poly, poles, validate=False).trim()


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

    ctx = _models.jet_context(state)
    root = ctx.config.root
    T = root.order
    for z in ctx.lax.pole_points() + ctx.jacobian.pole_points():
        if min(abs(lam - z), abs(mu - z)) <= _COLLISION_TOL:
            raise PoleProximityError("spectral point too close to a Lax pole")
    for k in range(T):
        if abs(mu - root.power(-k) * lam) <= _COLLISION_TOL:
            raise PoleProximityError("mu lies on the Gamma-orbit of lam")

    L1, L2 = ctx.lax.eval(lam), ctx.lax.eval(mu)
    dL1, dL2 = ctx.jacobian.eval(lam), ctx.jacobian.eval(mu)
    lhs = np.zeros((T, T, T, T), dtype=complex)
    for iP, iQ, cf in ctx.sectors:
        lhs += cf * (np.einsum("iab,icd->abcd", dL1[iP], dL2[iQ])
                     - np.einsum("iab,icd->abcd", dL1[iQ], dL2[iP]))
    lhs_mat = lhs.transpose(0, 2, 1, 3).reshape(T * T, T * T)

    r12 = r_kernel(lam, mu, root)
    r21 = r_kernel(mu, lam, root).reshape(T, T, T, T).transpose(1, 0, 3, 2) \
        .reshape(T * T, T * T)
    eye = np.eye(T)
    L1m = np.kron(L1, eye)
    L2m = np.kron(eye, L2)
    rhs = (r12 @ L1m - L1m @ r12) - (r21 @ L2m - L2m @ r21)
    return float(np.max(np.abs(lhs_mat - rhs)))
