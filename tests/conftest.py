from types import SimpleNamespace

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_matrix(rng, T, scale=1.0):
    return scale * (rng.normal(size=(T, T)) + 1j * rng.normal(size=(T, T)))


def mis_scaled_closure(s, fA, fB, **kw):
    """dynamics.closure_residual with the fB arcs driven by 1.1 times the
    true field (its structural-zero flag kept), an RK4 step of 1.1 f at h
    being one of f at 1.1 h: the falsifiability control, which must break
    the closure identity."""
    from cyclogaudin import dynamics as dyn

    true_field_of = dyn._field_of

    def field_of(template, f):
        kernel = true_field_of(template, f)
        if f != fB:
            return kernel
        return SimpleNamespace(zero=kernel.zero,
                               step=lambda y, h: kernel.step(y, 1.1 * h))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dyn, "_field_of", field_of)
        return dyn.closure_residual(s, fA, fB, **kw)


def out_of_place_step(field, y, h):
    """RK4 with every stage point formed out of place as y + c * k, the
    field called on it alone, and the seven-operation combination
    y + (h/6) (k1 + 2 k2 + 2 k3 + k4): the reference for
    dynamics.rk4_step, returned with its stages (k1, k2, k3, k4)."""
    k1 = field(y)
    k2 = field(y + 0.5 * h * k1)
    k3 = field(y + 0.5 * h * k2)
    k4 = field(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (k1, k2, k3, k4)


def contracted_step(y, h, ks):
    """y + w . K on the stages ks, w = h * models.RK4_B in K's dtype: what
    dynamics.rk4_step states a kernel's step to be, bit for bit."""
    from cyclogaudin import models

    K = np.array(ks)
    return y + (h * models.RK4_B).astype(K.dtype).dot(K)


def step_bound_ratio(got, ref, ks, h):
    """The largest ratio, over the real components, of |got - ref| to the
    forward-error bound that dynamics.rk4_step states against the
    seven-operation reference ref on the same stages ks:
    gamma_11 S + gamma_1 (|got| + |ref|), S = sum_j |h b_j| |k_j|.  A
    ratio above 1 breaks the bound."""
    u = np.finfo(float).eps / 2

    def gamma(n):
        return n * u / (1 - n * u)

    def parts(a):   # the real components, as float
        return np.ascontiguousarray(a, complex).view(float)

    b = np.array([1.0, 2.0, 2.0, 1.0]) / 6.0
    S = sum(abs(h * bj) * np.abs(parts(k)) for bj, k in zip(b, ks))
    got, ref = parts(got), parts(ref)
    bound = gamma(11) * S + gamma(1) * (np.abs(got) + np.abs(ref))
    diff = np.abs(got - ref)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(diff == 0, 0.0, diff / bound)
    return float(ratio.max())
