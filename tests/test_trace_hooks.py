"""The module-level names the benchmark tracer wraps must stay on the solve paths.

``perfbench/tracer.py`` attributes time by replacing ``splu`` in the solver
modules and ``axisym_field.apply_axisym_laplacian`` from outside.  A
refactor that reaches these through another name still computes the right
answer but leaves the layer silently unattributed; these tests fail instead.
"""

import numpy as np
import pytest

from onephase_lab import axisym_field, onephase_geometry, stability
from onephase_lab.axisym_field import GridSpec
from onephase_lab.experiments import tiled_layer_field
from onephase_lab.reference import StripNeckExact

HOOKS = {
    "axisym_field.splu": (axisym_field, "splu"),
    "onephase_geometry.splu": (onephase_geometry, "splu"),
    "axisym_field.apply_axisym_laplacian": (axisym_field, "apply_axisym_laplacian"),
}


@pytest.fixture
def calls(monkeypatch):
    seen = dict.fromkeys(HOOKS, 0)
    for name, (module, attr) in HOOKS.items():
        original = getattr(module, attr)

        def counted(*args, name=name, original=original, **kwargs):
            seen[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    return seen


def _hooks_hit(calls, run):
    before = dict(calls)
    run()
    return {name for name in calls if calls[name] > before[name]}


def test_newton_solves_factor_through_axisym_field_splu(calls, beta, layer_profile):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=9, nt=9)
    data = lambda s, t: np.maximum(0.0, t) + 0.0 * s
    hit = _hooks_hit(calls, lambda: axisym_field.solve_semilinear(beta, g, data))
    assert "axisym_field.splu" in hit
    left, right = float(layer_profile.sample(-3.0)), float(layer_profile.sample(3.0))
    hit = _hooks_hit(
        calls,
        lambda: axisym_field.solve_semilinear_1d(beta, -3.0, 3.0, 17, left, right, init=layer_profile.sample),
    )
    assert "axisym_field.splu" in hit


def test_eigen_solve_factors_once_through_axisym_field_splu(calls, beta):
    # the eigen solve's one factor is the multilevel layer's coarsest LU
    u = tiled_layer_field(beta, GridSpec(n=3, s_max=2.0, t_min=-3.0, t_max=3.0, ns=9, nt=17))
    before = calls["axisym_field.splu"]
    hit = _hooks_hit(calls, lambda: stability.linearized_rayleigh_min(u, beta, tol=1e-8))
    assert {"axisym_field.splu", "axisym_field.apply_axisym_laplacian"} <= hit
    assert calls["axisym_field.splu"] - before == 1


def test_masked_solve_reaches_splu_and_laplacian_hooks(calls):
    neck = StripNeckExact()
    g = GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=19, nt=17)
    hit = _hooks_hit(calls, lambda: onephase_geometry.solve_harmonic_masked(g, neck.level, neck.u))
    assert {"onephase_geometry.splu", "axisym_field.apply_axisym_laplacian"} <= hit
