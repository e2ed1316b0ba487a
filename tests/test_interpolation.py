"""The lab's numpy interpolation kernels against scipy.interpolate as the oracle."""

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator, RegularGridInterpolator

from onephase_lab.axisym_field import GridSpec
from onephase_lab.numerics import Pchip, pchip_slopes

from oracles import from_function


def _pchip_data(kind, rng):
    x = np.sort(rng.uniform(-2.0, 3.0, 40))
    if kind == "monotone":
        y = np.cumsum(rng.uniform(0.0, 1.0, 40))
    elif kind == "flat":
        y = np.repeat(rng.uniform(-1.0, 1.0, 8), 5)  # steps: flat segments between jumps
    else:
        y = np.sin(3.0 * x) + 0.1 * rng.standard_normal(40)
    return x, y


def _close(a, b):
    return np.max(np.abs(a - b)) <= 1e-13 * max(1.0, float(np.max(np.abs(b))))


@pytest.mark.parametrize("kind", ["monotone", "flat", "sign-changing"])
def test_pchip_matches_scipy_value_derivative_and_antiderivative(kind, rng):
    x, y = _pchip_data(kind, rng)
    ours, oracle = Pchip(x, y), PchipInterpolator(x, y)
    # the knots themselves, interior points and the ends of the last piece
    p = np.concatenate((x, rng.uniform(x[0], x[-1], 2000), [x[-1]]))
    assert _close(pchip_slopes(x, y), oracle.derivative()(x))
    assert _close(ours(p), oracle(p))
    assert _close(ours.derivative(p), oracle.derivative()(p))
    assert _close(ours.antiderivative(p), oracle.antiderivative()(p))
    # the interpolant is defined on its knots: a point past an end reads that
    # end's value, slope and integral
    q, ends = np.array([x[0] - 0.3, x[-1] + 0.2]), x[[0, -1]]
    for read in (ours, ours.derivative, ours.antiderivative):
        assert np.array_equal(read(q), read(ends))


def test_pchip_keeps_monotone_data_monotone_and_two_knots_linear(rng):
    x, y = _pchip_data("monotone", rng)
    p = np.linspace(x[0], x[-1], 5001)
    assert np.all(np.diff(Pchip(x, y)(p)) >= 0.0)
    line = Pchip(np.array([0.0, 2.0]), np.array([1.0, 5.0]))
    assert np.array_equal(line(np.array([0.0, 0.5, 2.0])), np.array([1.0, 2.0, 5.0]))


@pytest.mark.parametrize("s_min", [0.0, 0.4])
def test_bilinear_sample_matches_regular_grid_interpolator(s_min, rng):
    g = GridSpec(n=3, s_min=s_min, s_max=2.0, t_min=-1.0, t_max=1.5, ns=17, nt=23)
    f = from_function(g, lambda s, t: np.sin(2.0 * s + t) + s * s * t)
    oracle = RegularGridInterpolator((f.s, f.t), f.values, bounds_error=False, fill_value=np.nan)
    s_in, t_in = rng.uniform(s_min, 2.0, 3000), rng.uniform(-1.0, 1.5, 3000)
    axis = np.stack((np.full(200, s_min), rng.uniform(-1.0, 1.5, 200)), axis=-1)  # the first column exactly
    nodes = np.stack(np.meshgrid(f.s, f.t, indexing="ij"), axis=-1).reshape(-1, 2)
    s_out, t_out = rng.uniform(s_min - 1.0, 3.0, 3000), rng.uniform(-2.5, 3.0, 3000)
    for pts in (np.stack((s_in, t_in), axis=-1), axis, nodes):
        assert _close(f.sample(pts), oracle(pts))
    # off the closed box both read NaN
    out = np.stack((s_out, t_out), axis=-1)
    got, want = f.sample(out), oracle(out)
    on = ~np.isnan(want)
    assert np.array_equal(np.isnan(got), ~on) and 0 < on.sum() < len(on)
    assert _close(got[on], want[on])
    assert np.array_equal(f.sample(nodes).reshape(f.values.shape), f.values)
    grid_pts = np.stack(np.broadcast_arrays(s_out[:, None], t_out[None, :50]), axis=-1)
    assert f.sample(grid_pts).shape == (3000, 50)
