import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_matrix(rng, T, scale=1.0):
    return scale * (rng.normal(size=(T, T)) + 1j * rng.normal(size=(T, T)))


def mis_scaled_closure(s, fA, fB, **kw):
    """dynamics.closure_residual with the fB arcs driven by 1.1 times the
    true field (its structural-zero flag kept): the falsifiability
    control, which must break the closure identity."""
    from cyclogaudin import dynamics as dyn

    true_field_of = dyn._field_of

    def field_of(template, f):
        kernel = true_field_of(template, f)
        if f != fB:
            return kernel

        def scaled(y, *stage):
            return 1.1 * kernel(y, *stage)
        scaled.zero = kernel.zero
        return scaled

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dyn, "_field_of", field_of)
        return dyn.closure_residual(s, fA, fB, **kw)
