import numpy as np
import pytest

from foliation_lab.coeff_ring import GridSpec
from foliation_lab.coeff_ring import _bump as mollifier  # noqa: F401  (shared with the suites)
from foliation_lab.groupoid_conv import GroupoidKernel


def plateau(u, r_in, r_out):
    """Smooth cutoff: exactly 1 on |u| <= r_in, 0 on |u| >= r_out."""

    def half(v):
        out = np.zeros_like(v)
        pos = v > 0
        out[pos] = np.exp(-1.0 / v[pos])
        return out

    u = np.asarray(u, dtype=float)
    v = (r_out - np.abs(u)) / (r_out - r_in)
    a = half(np.clip(v, 0.0, 1.0))
    b = half(np.clip(1.0 - v, 0.0, 1.0))
    return a / (a + b)


def make_kernel(model, fn, x_radius=0.65, x_step=0.004, t_radius=0.5, t_step=0.02):
    xg = GridSpec.centered(x_radius, x_step)
    tg = GridSpec.centered(t_radius, t_step)
    return GroupoidKernel.from_function(model, xg, tg, fn)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
