import dataclasses
import itertools
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import gmres, splu, spsolve

from onephase_lab import axisym_field
from onephase_lab.axisym_field import (
    AxiField,
    GridSpec,
    _assemble_laplacian,
    _axis_fold,
    _axis_transfers,
    _band,
    _damped_newton,
    _fgmres,
    _KrylovSolve,
    _grid_transfers,
    _Level,
    _unknown_mask,
    _zebra_lines,
    apply_axisym_laplacian,
    blow_down,
    energy,
    grid_weights,
    lipschitz_monitor,
    max_principle_defect,
    one_phase_energy,
    residual_semilinear,
    solve_semilinear,
    solve_semilinear_1d,
)
from onephase_lab.config import ExperimentConfig
from onephase_lab.errors import (
    InvalidParameterError,
    NonconvergenceError,
)
from onephase_lab.experiments import _onephase_case, boundary_data
from onephase_lab.numerics import LU_OPTIONS, LUCounts, unit_sphere_area
from onephase_lab.profile1d import extend_to_nd, unique_increasing_profile
from onephase_lab.reaction_terms import make_tabulated_term, rescale
from onephase_lab.stability import _require_vanishing_border

from oracles import from_function


def zero_term():
    return make_tabulated_term(np.linspace(0, 1, 9), np.zeros(9), name="zero")


def test_laplacian_kills_linear_fields():
    g = GridSpec(n=4, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=17)
    f = from_function(g, lambda s, t: t)
    assert np.nanmax(np.abs(apply_axisym_laplacian(f).values)) < 1e-13


def test_laplacian_exact_on_radial_quadratic():
    g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=21, nt=21)
    f = from_function(g, lambda s, t: s**2 + 0.0 * t)
    assert np.nanmax(np.abs(apply_axisym_laplacian(f).values - 4.0)) < 1e-11


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_laplacian_full_quadratic_gives_2n(n):
    g = GridSpec(n=n, s_max=1.0, t_min=-1.0, t_max=1.0, ns=21, nt=21)
    f = from_function(g, lambda s, t: s**2 + t**2)
    assert np.nanmax(np.abs(apply_axisym_laplacian(f).values - 2.0 * n)) < 1e-10


def test_laplacian_convergence_rate():
    def exact(s, t):
        return np.exp(-(s**2)) * np.sin(t)

    def exact_lap(s, t, n):
        return (4 * s**2 - 2 - 2 * (n - 2) - 1) * np.exp(-(s**2)) * np.sin(t)

    errs = []
    for ns in (33, 65, 129):
        g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=ns, nt=ns)
        f = from_function(g, exact)
        s, t = g.axes()
        err = apply_axisym_laplacian(f).values - exact_lap(s[:, None], t[None, :], 3)
        errs.append(np.nanmax(np.abs(err)))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) >= 1.9


def test_solve_reproduces_harmonic_data_exactly():
    g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=17)
    res = solve_semilinear(zero_term(), g, lambda s, t: 0.0 * s + t, tol=1e-12)
    f_expected = from_function(g, lambda s, t: 0.0 * s + t)
    assert np.array_equal(res.field.values, f_expected.values)
    assert res.iterations == 0


def test_solve_affine_data_above_one_is_harmonic(beta):
    # data >= 1 everywhere: the reaction vanishes, affine data is already exact
    g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=17)
    res = solve_semilinear(beta, g, lambda s, t: 2.0 + 0.5 * t + 0.0 * s, tol=1e-12)
    assert res.residuals[-1] < 1e-12
    assert res.iterations == 0


def test_solve_matches_independent_1d_oracle(beta, layer_profile):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=33, nt=33)
    s, t = g.axes()
    left = float(layer_profile.sample(g.t_min))
    right = float(layer_profile.sample(g.t_max))

    # independent tridiagonal Newton oracle
    v = layer_profile.sample(t).copy()
    v[0], v[-1] = left, right
    ht = t[1] - t[0]
    for _ in range(40):
        lap = (v[2:] - 2 * v[1:-1] + v[:-2]) / ht**2
        res = lap - 0.5 * beta.eval(v[1:-1])
        if np.max(np.abs(res)) < 1e-13:
            break
        m = len(v) - 2
        J = np.zeros((m, m))
        np.fill_diagonal(J, -2 / ht**2 - 0.5 * beta.deriv(v[1:-1]))
        idx = np.arange(m - 1)
        J[idx, idx + 1] = 1 / ht**2
        J[idx + 1, idx] = 1 / ht**2
        v[1:-1] += np.linalg.solve(J, -res)

    tiled = AxiField(n=3, s=s, t=t, values=np.tile(v, (g.ns, 1)))
    res2d = solve_semilinear(beta, g, lambda s, t: tiled.values, tol=1e-12)
    assert np.max(np.abs(res2d.field.values - tiled.values)) < 1e-6

    helper = solve_semilinear_1d(beta, g.t_min, g.t_max, layer_profile.sample(t))
    assert np.max(np.abs(helper - v)) < 1e-10


def test_solve_continuum_data_deviation_is_second_order(beta, layer_profile):
    # continuum-profile side data differs from the discrete solution by O(ht^2)
    devs = []
    for nt in (33, 65):
        g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=nt, nt=nt)
        res = solve_semilinear(beta, g, lambda s, t: layer_profile.sample(0.0 * s + t), tol=1e-11)
        s, t = g.axes()
        devs.append(np.max(np.abs(res.field.values - layer_profile.sample(t)[None, :])))
    assert devs[0] / devs[1] > 3.0


def test_solver_respects_maximum_principle(beta, layer_profile):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=33, nt=33)
    res = solve_semilinear(beta, g, lambda s, t: layer_profile.sample(0.0 * s + t), tol=1e-11)
    assert max_principle_defect(res.field) <= 1e-12


def test_solver_residual_history_decreases(beta):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=33, nt=33)
    res = solve_semilinear(beta, g, lambda s, t: np.maximum(0.0, 0.9 * t) + 0.0 * s, tol=1e-11)
    hist = res.residuals
    assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))


def test_solver_nonconvergence_carries_last_iterate(beta):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=17, nt=17)
    with pytest.raises(NonconvergenceError) as err:
        solve_semilinear(beta, g, lambda s, t: np.maximum(0.0, t) + 0.0 * s, tol=1e-12, max_iter=0)
    assert err.value.last is not None
    assert err.value.last.values.shape == (17, 17)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_newton_solves_refuse_a_tolerance_that_is_not_positive_and_finite(beta, layer_profile, monkeypatch, tol):
    # a NaN or infinite tol used to end the loop before its first step: the
    # 33^2 catenoid start came back as converged with sup residual 7.52
    def refuse(*args, **kwargs):
        raise AssertionError("the solve started before its tol was checked")

    monkeypatch.setattr(axisym_field, "_damped_newton", refuse)
    g, data = _neck(beta, 33)
    with pytest.raises(InvalidParameterError, match="^tol must be positive and finite") as err:
        solve_semilinear(beta, g, lambda s, t: refuse(), tol=tol)
    assert err.value.name == "tol"
    with pytest.raises(InvalidParameterError, match="^tol must be positive and finite") as err:
        solve_semilinear_1d(beta, -3.0, 3.0, layer_profile.sample(np.linspace(-3.0, 3.0, 33)), tol=tol)
    assert err.value.name == "tol"


def _last_sup_residual(message):
    match = re.search(r"in 2 iterations \(last sup residual ([0-9.e+-]+)\)", message)
    assert match, message
    return float(match.group(1))


def test_solver_nonconvergence_names_iterations_and_residual(beta):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=17, nt=17)
    with pytest.raises(NonconvergenceError) as err:
        solve_semilinear(beta, g, lambda s, t: np.maximum(0.0, t) + 0.0 * s, tol=1e-12, max_iter=2)
    trace = err.value.trace
    assert len(trace) == 3 and trace[-1] > 1e-12
    assert _last_sup_residual(str(err.value)) == float(f"{trace[-1]:.3e}")


def test_solver_rejects_a_start_with_a_nan_node(beta):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=33, nt=33)
    data = from_function(g, lambda s, t: np.maximum(0.0, t) + 0.0 * s)
    data.values[16, 16] = np.nan
    message = r"^Newton residual is not finite at iteration 0 \(last sup residual nan\)"
    with pytest.raises(NonconvergenceError, match=message) as err:
        solve_semilinear(beta, g, lambda s, t: data.values)
    assert np.isnan(err.value.last.values[16, 16])


def test_solver_copies_the_values_of_its_boundary_callable(beta):
    # the levels write their start in place; the caller's array stays as it was
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=33, nt=33)
    start = from_function(g, lambda s, t: np.maximum(0.0, t) + 0.0 * s).values
    kept = start.copy()
    res = solve_semilinear(beta, g, lambda s, t: start)
    assert np.array_equal(start, kept)
    assert not np.array_equal(res.field.values, kept)


def test_1d_solve_keeps_the_ends_of_its_start(beta, layer_profile):
    # the ends of ``init`` are the Dirichlet values, returned bit for bit
    init = layer_profile.sample(np.linspace(-3.0, 3.0, 65)) + 1e-3
    kept = init.copy()
    v = solve_semilinear_1d(beta, -3.0, 3.0, init)
    assert (v[0], v[-1]) == (kept[0], kept[-1])
    assert np.array_equal(init, kept) and v is not init
    assert _sup_residual_1d(beta, v, 6.0 / 64) <= 1e-12


@pytest.mark.parametrize("init", [[0.0, 1.0], [[0.0, 0.5, 1.0]]])
def test_1d_solve_rejects_a_start_of_fewer_than_3_nodes(beta, init):
    with pytest.raises(InvalidParameterError, match="at least 3 nodal values"):
        solve_semilinear_1d(beta, -1.0, 1.0, init)


def test_1d_solve_rejects_a_nan_start(beta):
    with pytest.raises(NonconvergenceError, match=r"^1D Newton residual is not finite at iteration 0 ") as err:
        solve_semilinear_1d(beta, -3.0, 3.0, np.full(31, np.nan))
    assert len(err.value.trace) == 1 and np.isnan(err.value.trace[0])


@pytest.mark.parametrize(
    "extents",
    [
        dict(s_max=np.inf),
        dict(s_max=np.nan),
        dict(t_min=-np.inf),
        dict(t_max=np.inf),
        dict(t_min=np.nan),
        dict(t_min=-1e308, t_max=1e308),  # a width beyond the largest double
    ],
)
def test_grid_requires_finite_extents(extents):
    with pytest.raises(InvalidParameterError, match="non-finite grid extents"):
        GridSpec(**{"n": 3, "s_max": 2.0, "t_min": -2.0, "t_max": 2.0, "ns": 9, "nt": 9, **extents})


@pytest.mark.parametrize("extent", [1e-3, 0.7, 1.0, 1.5, 2.2, 3.0, 2.2 * 1.7])
def test_symmetric_t_extents_give_mirror_exact_nodes(extent):
    # linspace misses -t[j] == t[nt - 1 - j] by an ulp at most counts (449 and
    # 299 on +-1.5 and +-1); the nodes are mirror-exact at every count, equal to
    # linspace's where those already are and elsewhere at most two ulps of the
    # extent from them (measured: 1.5 on +-1.5, 2 on +-3.74)
    for nt in range(3, 1200):
        t = GridSpec(n=3, s_max=1.0, t_min=-extent, t_max=extent, ns=3, nt=nt).axes()[1]
        ref = np.linspace(-extent, extent, nt)
        assert np.array_equal(t, -t[::-1]) and (t[0], t[-1]) == (-extent, extent)
        if np.array_equal(ref, -ref[::-1]):
            assert np.array_equal(t, ref)
        assert np.all(np.abs(t - ref) <= 2.0 * np.spacing(extent))
    # an extent not symmetric about 0 keeps linspace's nodes
    off = GridSpec(n=3, s_max=1.0, t_min=-extent, t_max=1.25 * extent, ns=3, nt=449)
    assert np.array_equal(off.axes()[1], np.linspace(-extent, 1.25 * extent, 449))


def _strip_neck_grid(resolution):
    return _onephase_case(ExperimentConfig(experiment="onephase", onephase_resolution=resolution))[1]


@pytest.mark.parametrize(
    "grid",
    [GridSpec(n=3, s_max=3.0, t_min=-1.5, t_max=1.5, ns=449, nt=449), *map(_strip_neck_grid, (64, 128, 256))],
    ids=["neck-449", "strip-neck-64", "strip-neck-128", "strip-neck-256"],
)
def test_a_field_reads_the_spacing_its_grid_assembles_with(grid):
    # the node difference s[1] - s[0] missed (s_max - s_min) / (ns - 1) by
    # 2.54e-16 in t on the neck and by 4.2e-17, 9.0e-17 and 4.8e-17 in s on
    # the strip neck, so the residual judging a Newton step read a spacing
    # its Jacobian was not built with
    f = AxiField(grid.n, *grid.axes(), np.zeros((grid.ns, grid.nt)))
    assert (f.hs, f.ht) == (grid.hs, grid.ht)


def test_every_grid_axis_is_uniform_within_4_eps_of_its_spacing():
    # the spacing AxiField reads off its axes is GridSpec's bit for bit, and
    # every step lies within the 4 eps max|x| that load_binary allows
    rng = np.random.default_rng(48)
    for _ in range(2000):
        t_max = rng.uniform(0.01, 10.0)
        grid = GridSpec(
            n=3,
            s_min=rng.choice([0.0, rng.uniform(0.0, 5.0)]),
            s_max=5.0 + rng.uniform(0.01, 10.0) * 10.0 ** rng.integers(-3, 4),
            t_min=rng.choice([-t_max, rng.uniform(-10.0, t_max - 0.01)]),
            t_max=t_max,
            ns=int(rng.integers(3, 600)),
            nt=int(rng.integers(3, 600)),
        )
        f = AxiField(grid.n, *grid.axes(), np.zeros((grid.ns, grid.nt)))
        assert (f.hs, f.ht) == (grid.hs, grid.ht)
        for x, h in ((f.s, f.hs), (f.t, f.ht)):
            assert np.max(np.abs(np.diff(x) - h)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(x))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_every_weight_family_sums_to_the_measure_of_the_box(n):
    # |S^(n-2)| S^(n-1)/(n-1) T: the node weights (a trapezoid rule in s with
    # the exact axis half cell) are exact at n = 2, the s-edge and cell
    # weights (a midpoint rule in s) also at n = 3; otherwise all converge at
    # second order, and the t-edges sum as the nodes do
    s_max, t_min, t_max = 2.0, -1.5, 1.5
    box = unit_sphere_area(n - 2) * s_max ** (n - 1) / (n - 1) * (t_max - t_min)
    errors = {}
    for nodes in (33, 65, 129):
        f = AxiField(n, *GridSpec(n, s_max, t_min, t_max, nodes, nodes).axes(), np.zeros((nodes, nodes)))
        sums = {family: float(np.sum(grid_weights(f, family))) for family in ("node", "s-edge", "t-edge", "cell")}
        sums["t-edge"] *= nodes - 1  # one column of t-edge weights stands for nodes - 1 edges
        sums["cell"] *= nodes - 1
        assert sums["t-edge"] == pytest.approx(sums["node"], rel=1e-14)
        for family, total in sums.items():
            errors.setdefault(family, []).append(abs(total - box) / box)
    exact = {"node": n == 2, "s-edge": n <= 3, "t-edge": n == 2, "cell": n <= 3}
    for family, (coarse, mid, fine) in errors.items():
        if exact[family]:
            assert max(coarse, mid, fine) <= 8.0 * np.finfo(float).eps, family
        else:
            assert 1.95 < math.log2(coarse / mid) < 2.05 and 1.95 < math.log2(mid / fine) < 2.05, family


def test_1d_nonconvergence_carries_sup_residual_trace(beta, layer_profile):
    left, right = float(layer_profile.sample(-3.0)), float(layer_profile.sample(3.0))
    with pytest.raises(NonconvergenceError) as err:
        solve_semilinear_1d(beta, -3.0, 3.0, left + (right - left) * (np.linspace(-3.0, 3.0, 65) + 3.0) / 6.0, max_iter=2)
    trace = err.value.trace
    assert len(trace) == 3 and trace[-1] > 1e-12
    assert _last_sup_residual(str(err.value)) == float(f"{trace[-1]:.3e}")
    # the trace holds sup norms: its first entry is the residual of the linear start
    t = np.linspace(-3.0, 3.0, 65)
    v = left + (right - left) * (t + 3.0) / 6.0
    lap = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (t[1] - t[0]) ** 2
    assert trace[0] == pytest.approx(np.max(np.abs(lap - 0.5 * beta.eval(v[1:-1]))), rel=1e-12)


def _constant_deriv(beta, value):
    """``beta`` with its derivative replaced: a wrong Jacobian that stalls the line search."""
    return dataclasses.replace(beta, deriv=lambda v: np.full_like(np.asarray(v, dtype=float), value))


def _stagnation(message):
    match = re.search(r"backtracking stagnated at iteration (\d+) \(last sup residual ([0-9.e+-]+)\)", message)
    assert match, message
    return int(match.group(1)), float(match.group(2))


def test_solver_backtracking_stagnation_carries_last_iterate(beta):
    g = GridSpec(n=3, s_max=2.0, t_min=-2.0, t_max=2.0, ns=17, nt=17)
    with pytest.raises(NonconvergenceError) as err:
        solve_semilinear(_constant_deriv(beta, -1e3), g, lambda s, t: np.maximum(0.0, t) + 0.0 * s)
    assert str(err.value).startswith("Newton backtracking")
    trace = err.value.trace
    # the stall is at the first step: the wrong Jacobian's direction lowers
    # the merit at no length (a null step of equal merit is not accepted)
    assert _stagnation(str(err.value)) == (1, float(f"{trace[-1]:.3e}"))
    assert len(trace) == 1
    last = err.value.last
    assert last.values.shape == (17, 17)
    # the carried iterate is the one whose residual closes the trace
    assert residual_semilinear(last, beta) == pytest.approx(trace[-1], rel=1e-9)


def test_1d_backtracking_stagnation_carries_trace(beta, layer_profile):
    left, right = float(layer_profile.sample(-3.0)), float(layer_profile.sample(3.0))
    init = left + (right - left) * (np.linspace(-3.0, 3.0, 65) + 3.0) / 6.0
    with pytest.raises(NonconvergenceError) as err:
        solve_semilinear_1d(_constant_deriv(beta, -20.0), -3.0, 3.0, init)
    assert str(err.value).startswith("1D Newton backtracking")
    trace = err.value.trace
    assert _stagnation(str(err.value)) == (1, float(f"{trace[-1]:.3e}"))
    assert len(trace) == 1  # the stall is at the first step
    v = err.value.last
    assert (v[0], v[-1]) == (init[0], init[-1])
    lap = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (6.0 / 64) ** 2
    assert np.max(np.abs(lap - 0.5 * beta.eval(v[1:-1]))) == pytest.approx(trace[-1], rel=1e-12)


def _sup_residual_1d(beta, v, ht):
    lap = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / ht**2
    return float(np.max(np.abs(lap - 0.5 * beta.eval(v[1:-1]))))


def _floor_1d(v, ht):
    """The round-off floor 4 eps max|v| / ht^2 of the three-point residual."""
    return 4.0 * np.finfo(float).eps * float(np.max(np.abs(v))) / ht**2


def test_1d_solve_at_its_floor_stagnates_without_null_steps(beta, layer_profile, monkeypatch):
    # the tiled layer's 385-node axial solve stalls at 1.82e-12, above
    # tol = 1e-12 but below the grid's round-off floor (1.09e-11).  A trial
    # that does not lower the merit strictly is a failed one, so the Newton
    # loop stops with the stagnation error after a few steps; it used to
    # accept trials equal to the iterate (the Armijo margin rounds away at
    # lam ~ 1e-12) for 100 iterations, 4088 residual calls.  The solve then
    # returns the last iterate, whose residual is at the floor.
    evaluated, raised = [], []

    def recorded(v):
        evaluated.append(np.array(v, dtype=float))
        return beta.eval(v)

    def newton(*args, **kwargs):
        try:
            return _damped_newton(*args, **kwargs)
        except NonconvergenceError as err:
            raised.append(err)
            raise

    monkeypatch.setattr(axisym_field, "_damped_newton", newton)
    t = np.linspace(-3.0, 3.0, 385)
    init = layer_profile.sample(t)
    v = solve_semilinear_1d(dataclasses.replace(beta, eval=recorded), -3.0, 3.0, init)
    (err,) = raised
    trace = err.trace
    assert _stagnation(str(err)) == (len(trace), float(f"{trace[-1]:.3e}"))
    assert len(trace) <= 5 and trace[-1] > 1e-12
    assert v is err.last and (v[0], v[-1]) == (init[0], init[-1])
    ht = t[1] - t[0]
    assert _sup_residual_1d(beta, v, ht) == pytest.approx(trace[-1], rel=1e-12)
    assert trace[-1] <= _floor_1d(v, ht)
    # no residual evaluation repeats the trial before it; the sup norms may
    # (1.819e-12 = 2^-39 twice: a step at the floor that lowers the 2-norm)
    assert not any(np.array_equal(a, b) for a, b in zip(evaluated, evaluated[1:]))
    assert len(evaluated) <= 60  # measured 27


def test_1d_solve_returns_at_its_floor_on_513_nodes(beta, layer_profile):
    # stuck at 3.23e-12 > tol = 1e-12, a sixth of the floor; this used to raise
    t = np.linspace(-3.0, 3.0, 513)
    init = layer_profile.sample(t)
    v = solve_semilinear_1d(beta, -3.0, 3.0, init)
    assert (v[0], v[-1]) == (init[0], init[-1])
    assert 1e-12 < _sup_residual_1d(beta, v, t[1] - t[0]) <= _floor_1d(v, t[1] - t[0])


@settings(max_examples=25, deadline=None)
@given(nt=st.integers(min_value=65, max_value=2049), half_width=st.floats(min_value=1.5, max_value=9.0))
def test_1d_solve_reaches_tol_or_its_floor(beta, layer_profile, nt, half_width):
    # measured on nt 65-2049 x half-widths 1.5-9: the stuck residuals are
    # 0.08-0.22 of the floor, and 34 of 50 such solves used to raise
    t = np.linspace(-half_width, half_width, nt)
    v = solve_semilinear_1d(beta, -half_width, half_width, layer_profile.sample(t))
    ht = t[1] - t[0]
    assert _sup_residual_1d(beta, v, ht) <= max(1e-12, _floor_1d(v, ht))


def test_1d_nonconvergence_above_the_floor_names_it(beta, layer_profile):
    left, right = float(layer_profile.sample(-3.0)), float(layer_profile.sample(3.0))
    with pytest.raises(NonconvergenceError) as err:
        solve_semilinear_1d(beta, -3.0, 3.0, left + (right - left) * (np.linspace(-3.0, 3.0, 65) + 3.0) / 6.0, max_iter=2)
    match = re.search(r"; round-off floor ([0-9.e+-]+)$", str(err.value))
    assert match and float(match.group(1)) < err.value.trace[-1]


def _start_jacobian(beta, grid, data):
    """Newton's Jacobian Delta_h - beta'(u)/2 at the data, on the unknowns of ``grid``."""
    L, mask = _assemble_laplacian(grid)
    s, t = grid.axes()
    vec = data(s[:, None], t[None, :])[mask]
    return (L - sp.diags(0.5 * beta.deriv(vec))).tocsc()


def test_newton_factors_hold_at_most_0_6_of_colamd_fill(beta):
    # the 129^2 catenoid neck of the benchmark; only its 65^2 coarsest level
    # is factored (measured 0.53 of COLAMD there, 0.504 on the 129^2 Jacobian)
    g = GridSpec(n=3, s_max=3.0, t_min=-1.5, t_max=1.5, ns=129, nt=129)
    data = boundary_data(ExperimentConfig(boundary_model="catenoid"), beta)
    res = solve_semilinear(beta, g, data)
    J = _start_jacobian(beta, g, data)
    assert splu(J, **LU_OPTIONS).nnz <= 0.6 * splu(J, permc_spec="COLAMD").nnz
    coarse = _start_jacobian(beta, dataclasses.replace(g, ns=65, nt=65), data)
    # measured: 2 factors for the Newton steps on 65^2, the last of which is
    # the V-cycle's coarse solve; the 129^2 steps are GMRES solves
    assert res.factors.factorizations <= 2
    assert res.factors.fill_nnz <= 0.6 * splu(coarse, permc_spec="COLAMD").nnz
    assert res.factors.krylov_iterations > 0


@pytest.mark.parametrize("n", [3, 4])
def test_level_jacobian_rewrites_one_matrix_as_the_sparse_difference(beta, n):
    # at n = 4 the drift cancels the s- arm of the column s = hs: the level's
    # matrix stores that zero, the sparse difference L - diag drops it, and
    # the LU factors the pattern without it
    g = GridSpec(n=n, s_max=2.0, t_min=-1.0, t_max=1.0, ns=17, nt=21)
    level = _Level(beta, g, np.zeros((17, 21)))
    L, mask = _assemble_laplacian(g)
    rng = np.random.default_rng(n)
    for _ in range(2):
        vec = rng.uniform(0.0, 1.0, L.shape[0])
        J = level.jacobian(vec)
        assert J is level.J
        ref = (L - sp.diags(0.5 * beta.deriv(vec))).tocsr()
        assert np.array_equal(J.toarray(), ref.toarray())
        pruned = J.tocsc()
        pruned.eliminate_zeros()
        assert (J.nnz > ref.nnz) == (n == 4)
        assert all(np.array_equal(getattr(pruned, a), getattr(ref.tocsc(), a)) for a in ("data", "indices", "indptr"))


def test_neck_at_257_keeps_its_traced_memory_under_15_mib(beta):
    # one CSR per level, whose diagonal each Jacobian rewrites, every level
    # folded onto its t >= 0 half and kept by the one above until the solve
    # returns (SuperLU's own memory is not traced): measured 14.4 MiB while
    # each level also kept its last whole-grid residual rows for their norms,
    # 13.7 MiB since the residual returns its norms with its rows
    g, data = _neck(beta, 257)
    tracemalloc.start()
    try:
        solve_semilinear(beta, g, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15 * 2**20, f"{peak / 2**20:.1f} MiB"


def _neck(beta, nodes):
    g = GridSpec(n=3, s_max=3.0, t_min=-1.5, t_max=1.5, ns=nodes, nt=nodes)
    return g, boundary_data(ExperimentConfig(boundary_model="catenoid"), beta)


@pytest.mark.parametrize("nodes", [33, 129])
def test_reported_residual_is_the_independent_one(beta, nodes):
    # 33^2 has no coarse level, 129^2 starts from the 65^2 solution
    res = solve_semilinear(beta, *_neck(beta, nodes))
    assert res.residuals[-1] == residual_semilinear(res.field, beta)  # bitwise


def _spy_mirror(monkeypatch):
    """The ``mirror`` flag of every ``_Level`` built, coarsest first."""
    flags, init = [], _Level.__init__

    def spy(self, beta, grid, values, mirror=False, below=None, counts=None):
        flags.append(mirror)
        init(self, beta, grid, values, mirror, below, counts)

    monkeypatch.setattr(_Level, "__init__", spy)
    return flags


def test_folded_neck_matches_the_translated_unfolded_neck(beta, monkeypatch):
    # the 129^2 neck is even in t on mirror-exact nodes and folds; moved up by
    # c in t, with data g(s, t - c), its extent is no longer symmetric and it
    # is solved on both halves, to the same field
    flags = _spy_mirror(monkeypatch)
    g, data = _neck(beta, 129)
    folded = solve_semilinear(beta, g, data)
    assert flags == [True, True]
    c = 0.25
    moved_grid = dataclasses.replace(g, t_min=g.t_min + c, t_max=g.t_max + c)
    moved = solve_semilinear(beta, moved_grid, lambda s, t: data(s, t - c))
    assert flags[2:] == [False, False]
    assert np.max(np.abs(folded.field.values - moved.field.values)) <= 1e-12
    assert folded.iterations == moved.iterations
    v = folded.field.values
    assert np.array_equal(v, v[:, ::-1])
    # the reported residual is the whole grid's, and certified
    assert folded.residuals[-1] == residual_semilinear(folded.field, beta) <= 1e-10
    # the coarsest LU factors the 65^2 level's t >= 0 half
    assert folded.factors.order == 64 * 32 and moved.factors.order == 64 * 63


def test_solve_does_not_fold_odd_data(beta, monkeypatch):
    flags = _spy_mirror(monkeypatch)
    grid = GridSpec(n=3, s_max=3.0, t_min=-1.5, t_max=1.5, ns=129, nt=129)
    catenoid = boundary_data(ExperimentConfig(boundary_model="catenoid"), beta)
    res = solve_semilinear(beta, grid, lambda s, t: catenoid(s, t) + 1e-3 * t)
    assert flags == [False, False]
    coarse = dataclasses.replace(grid, ns=65, nt=65)
    assert res.factors.order == int(_assemble_laplacian(coarse)[1].sum())
    assert res.residuals[-1] == residual_semilinear(res.field, beta) <= 1e-10


@pytest.mark.parametrize(
    "grid, levels",
    [
        # the domain study's grids: the 150^2 and 86^2 coarsest levels of
        # 299^2 and 171^2 have their mirror line between two nodes
        (GridSpec(n=3, s_max=2.0, t_min=-1.0, t_max=1.0, ns=299, nt=299), 2),
        (GridSpec(n=3, s_max=2.0, t_min=-1.0, t_max=1.0, ns=171, nt=171), 2),
        # one level, even nt
        (GridSpec(n=3, s_max=3.0, t_min=-1.5, t_max=1.5, ns=97, nt=100), 1),
    ],
    ids=["299", "171", "97x100"],
)
def test_solve_folds_even_data_with_an_even_coarsest_level(beta, monkeypatch, grid, levels):
    flags = _spy_mirror(monkeypatch)
    data = boundary_data(ExperimentConfig(boundary_model="catenoid"), beta)
    folded = solve_semilinear(beta, grid, data)
    assert flags == [True] * levels
    c = 0.25
    moved_grid = dataclasses.replace(grid, t_min=grid.t_min + c, t_max=grid.t_max + c)
    moved = solve_semilinear(beta, moved_grid, lambda s, t: data(s, t - c))
    assert flags[levels:] == [False] * levels
    assert np.max(np.abs(folded.field.values - moved.field.values)) <= 1e-12
    assert folded.iterations == moved.iterations
    assert folded.factors.krylov_iterations == moved.factors.krylov_iterations
    v = folded.field.values
    assert np.array_equal(v, v[:, ::-1])
    assert folded.residuals[-1] == residual_semilinear(folded.field, beta) <= 1e-10
    # the coarsest LU factors the columns past the mirror line, half of them
    assert 2 * folded.factors.order == moved.factors.order


def _assert_folded_transfers_are_the_whole_ones(n, rng):
    """On even vectors, each folded transfer of an axis of n nodes gives the
    kept rows of the whole axis's, bit for bit."""
    for whole, folded in zip(_axis_transfers(n, False), _axis_transfers(n, True)):
        for matrix in (whole, folded):
            matrix.check_format(full_check=True)
        a = rng.standard_normal(whole.shape[1])
        v = a + a[::-1]
        rows, cols = _axis_fold(whole.shape[0], True)[0], _axis_fold(whole.shape[1], True)[0]
        assert folded.shape == (len(rows), len(cols))
        assert np.array_equal(folded @ v[cols], (whole @ v)[rows])


@pytest.mark.parametrize("n, s_min", [(2, 0.4), (5, 0.0)])
def test_folded_level_is_the_unfolded_one_on_even_fields(n, s_min):
    # 21 x 17 nodes over a 11 x 9 coarse level, nt = 17 = 1 (mod 4): the t = 0
    # column is the kept half's first, an odd line of the whole block and a
    # coarse node.  21 x 19 over 11 x 10, nt = 19 = 3 (mod 4): the t = 0
    # column is an even line and falls between two coarse nodes
    rng = np.random.default_rng(n)

    def even(shape):
        a = rng.uniform(0.0, 3.0, shape)
        return a + a[:, ::-1]

    # the transfers of the s axis through s = 0, 2 ns - 1 = 41 nodes
    _assert_folded_transfers_are_the_whole_ones(41, rng)
    for nt in (17, 19):
        # a node mirror (coarse nt 9) and a mid-cell mirror (coarse nt 10);
        # an even fine count has no every-other-node axis
        _assert_folded_transfers_are_the_whole_ones(nt, rng)
        with pytest.raises(ValueError):
            _axis_transfers(nt + 1, True)
        g = GridSpec(n=n, s_min=s_min, s_max=2.0, t_min=-1.0, t_max=1.0, ns=21, nt=nt)
        g_c = dataclasses.replace(g, ns=11, nt=(nt + 1) // 2)
        h, h_c = nt // 2, g_c.nt // 2  # the columns before the kept ones
        shift, coarse_shift = even((21, nt)), even((11, g_c.nt))
        systems = []
        for mirror in (False, True):
            half, half_c = (h, h_c) if mirror else (0, 0)
            L, mask = _assemble_laplacian(g, mirror)
            Lc, coarse_mask = _assemble_laplacian(g_c, mirror)
            J = (L - sp.diags(shift[:, half:][mask])).tocsr()
            coarse = splu((Lc - sp.diags(coarse_shift[:, half_c:][coarse_mask])).tocsc()).solve
            transfers = _grid_transfers(21, nt, s_min == 0.0, mirror)
            systems.append((J, mask, _KrylovSolve(J, LUCounts(), transfers, coarse).cycle))
        (J, mask, cycle), (J_h, mask_h, cycle_h) = systems
        assert np.array_equal(mask_h, mask[:, h:])
        b = np.where(mask, even((21, nt)), 0.0)
        # the kept rows of J b and of one V-cycle on b, an even field
        for apply, apply_h in ((J.__matmul__, J_h.__matmul__), (cycle, cycle_h)):
            whole = np.zeros((21, nt))
            whole[mask] = apply(b[mask])
            got = apply_h(b[:, h:][mask_h])
            assert np.max(np.abs(got - whole[:, h:][mask_h])) <= 1e-12 * np.max(np.abs(whole))


def test_neck_at_513_converges_with_few_factors(beta, monkeypatch):
    # the 513^2 catenoid neck used to cycle between 1.16e-10 and 1.31e-10 and
    # raise after 40 factors; measured 4.7e-11 with 2 factors, both on the
    # 65^2 coarsest level, and 17 GMRES iterations on 129^2, 257^2 and 513^2.
    # The data are even in t, so every level is folded onto its t >= 0 half
    factored = []
    monkeypatch.setattr(axisym_field, "splu", lambda J, **kw: factored.append((J.shape, kw)) or splu(J, **kw))
    res = solve_semilinear(beta, *_neck(beta, 513), tol=1e-10)
    assert res.residuals[-1] <= 1e-10
    assert residual_semilinear(res.field, beta) <= 1e-10
    coarsest = int(_assemble_laplacian(_neck(beta, 65)[0], mirror=True)[1].sum())
    assert {shape for shape, _ in factored} == {(coarsest, coarsest)}
    assert all(kw == LU_OPTIONS for _, kw in factored)
    assert res.factors.factorizations == len(factored) <= 2
    assert 0 < res.factors.krylov_iterations <= 20


def _spy_levels(monkeypatch):
    """Record, per level (its number of unknowns), the iterates its Jacobian is
    taken at, its final iterate, and the LU factors and the ``_KrylovSolve``s
    built above the coarsest level (those with grid transfers)."""
    spied = {"jacobian": [], "solution": {}, "lu": [], "krylov": []}
    jacobian, finish, init = _Level.jacobian, _Level.finish, _KrylovSolve.__init__

    def spy_jacobian(self, vec):
        spied["jacobian"].append((len(vec), vec.copy()))
        return jacobian(self, vec)

    def spy_finish(self, vec):
        spied["solution"][len(vec)] = vec.copy()
        return finish(self, vec)

    def spy_init(self, J, counts, transfers, coarse):
        if transfers is not None:
            spied["krylov"].append(J.shape[0])
        init(self, J, counts, transfers, coarse)

    monkeypatch.setattr(_Level, "jacobian", spy_jacobian)
    monkeypatch.setattr(_Level, "finish", spy_finish)
    monkeypatch.setattr(_KrylovSolve, "__init__", spy_init)
    monkeypatch.setattr(axisym_field, "splu", lambda J, **kw: spied["lu"].append(J.shape[0]) or splu(J, **kw))
    return spied


@pytest.mark.parametrize("nodes", [129, 257, 449, 513])
def test_no_coarse_level_factors_at_its_solution(beta, monkeypatch, nodes):
    # a coarse level stops at sqrt(tol) and hands up the factor it built last,
    # so no Jacobian is taken, let alone factored, at a coarse solution
    spied = _spy_levels(monkeypatch)
    res = solve_semilinear(beta, *_neck(beta, nodes))
    assert res.residuals[-1] <= 1e-10
    sizes = sorted(spied["solution"])  # the levels, coarsest first
    assert spied["lu"] == [sizes[0]] * 2 == [sizes[0]] * res.factors.factorizations
    for m in sizes[:-1]:
        assert not any(k == m and np.array_equal(x, spied["solution"][m]) for k, x in spied["jacobian"])
    # every Jacobian is factored once: by an LU on the coarsest level, by a
    # _KrylovSolve above it
    assert sorted(k for k, _ in spied["jacobian"]) == sorted(spied["lu"] + spied["krylov"])


def test_coarse_levels_without_a_step_build_no_factor(beta, monkeypatch):
    # affine data >= 1 solves every level already, so no level takes a step
    # and no level applies the coarse correction handed up to it: no
    # Jacobian is taken, no LU and no V-cycle built
    spied = _spy_levels(monkeypatch)
    g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=257, nt=257)
    res = solve_semilinear(beta, g, lambda s, t: 2.0 + 0.5 * t + 0.0 * s, tol=1e-8)
    assert res.iterations == 0 and res.residuals[-1] <= 1e-8
    assert len(spied["solution"]) == 3
    assert (spied["jacobian"], spied["lu"], spied["krylov"]) == ([], [], [])
    assert res.factors.factorizations == 0 and res.factors.krylov_iterations == 0


def test_coarse_level_on_its_solution_hands_up_the_factor_at_its_start(beta, monkeypatch):
    # the 65^2 level starts at its own solution and takes no step: its one LU
    # is taken there and preconditions the 129^2 level, which converges
    g, start = _neck_on_its_coarse_solution(beta)
    spied = _spy_levels(monkeypatch)
    res = solve_semilinear(beta, g, lambda s, t: start)
    coarsest, finest = sorted(spied["solution"])
    assert spied["lu"] == [coarsest] and res.factors.factorizations == 1
    # the LU is built when the 129^2 level's first V-cycle applies it
    (x,) = [x for k, x in spied["jacobian"] if k == coarsest]
    # the start is even in t, so the level is folded onto its t >= 0 half
    assert np.array_equal(x, start[::2, 64::2][_unknown_mask((65, 33), True, True)])
    above = [k for k, _ in spied["jacobian"] if k != coarsest]
    assert all(k == finest for k in above) and len(above) == len(spied["krylov"]) > 0
    assert res.residuals[-1] <= 1e-10


def test_middle_level_without_a_step_corrects_with_the_cycle_at_its_start(beta, monkeypatch):
    # the 65^2 and 129^2 levels of the folded 257^2 neck, chained, neither
    # having taken a step: the 129^2 level's first correction builds its
    # V-cycle at its start over one LU at the 65^2 level's start
    g, data = _neck(beta, 257)
    s, t = g.axes()
    u = data(s[:, None], t[None, :])
    grids = [dataclasses.replace(g, ns=m, nt=m) for m in (65, 129)]
    counts = LUCounts()
    coarsest = _Level(beta, grids[0], u[::4, ::4].copy(), True, None, counts)
    middle = _Level(beta, grids[1], u[::2, ::2].copy(), True, coarsest, counts)
    # the reference, assembled apart: each level's Jacobian at its start
    starts = [coarsest.values[coarsest.mask].copy(), middle.values[middle.mask].copy()]
    J_coarse, J = [
        (_assemble_laplacian(grid, mirror=True)[0] - sp.diags(0.5 * beta.deriv(x))).tocsr()
        for grid, x in zip(grids, starts)
    ]
    lu = splu(J_coarse.tocsc(), **LU_OPTIONS)
    transfers = _grid_transfers(129, 129, True, True)
    b = np.random.default_rng(5).standard_normal(len(starts[1]))
    expected = _KrylovSolve(J, LUCounts(), transfers, lu.solve).cycle(b)
    spied = _spy_levels(monkeypatch)
    got = middle.correct(b)
    assert np.array_equal(got, expected)
    assert counts.factorizations == 1 and spied["lu"] == [len(starts[0])]
    assert spied["krylov"] == [len(starts[1])]
    assert [len(x) for _, x in spied["jacobian"]] == [len(starts[1]), len(starts[0])]
    assert all(np.array_equal(x, start) for (_, x), start in zip(spied["jacobian"], starts[::-1]))
    # a second correction reuses both
    assert np.array_equal(middle.correct(b), got)
    assert counts.factorizations == 1 and len(spied["jacobian"]) == 2
    assert (spied["lu"], spied["krylov"]) == ([len(starts[0])], [len(starts[1])])


# n, s_min, t-extent (s-extent 3, so ht = 4 hs at 12) and boundary model:
# every value of each appears, and n = 7 on the axis grid with ht = 4 hs, the
# case point-Jacobi smoothing could not precondition; measured at most 20
# GMRES iterations per solve (n = 7, t-extent 12, on the axis)
_KRYLOV_CASES = [
    (2, 0.0, 12.0, "catenoid"),
    (2, 0.5, 3.0, "profile"),
    (3, 0.0, 3.0, "catenoid"),
    (3, 0.5, 6.0, "affine"),
    (3, 0.0, 12.0, "profile"),
    (5, 0.0, 6.0, "profile"),
    (5, 0.5, 12.0, "catenoid"),
    (5, 0.0, 3.0, "affine"),
    (7, 0.0, 12.0, "catenoid"),
    (7, 0.0, 6.0, "affine"),
    (7, 0.5, 12.0, "affine"),
    (7, 0.5, 3.0, "profile"),
]


@pytest.mark.parametrize("n, s_min, extent, model", _KRYLOV_CASES)
def test_krylov_level_matches_a_direct_lu_newton(beta, n, s_min, extent, model):
    # the 129^2 level solved with V-cycle preconditioned GMRES against
    # _damped_newton with sparse LU factors from the same start: the
    # prolongation of the 65^2 solution
    g = GridSpec(n=n, s_min=s_min, s_max=s_min + 3.0, t_min=-extent / 2, t_max=extent / 2, ns=129, nt=129)
    data = boundary_data(ExperimentConfig(boundary_model=model), beta)
    tol = 1e-10
    res = solve_semilinear(beta, g, data, tol=tol)
    coarse = solve_semilinear(beta, dataclasses.replace(g, ns=65, nt=65), data, tol=tol).field
    level = _Level(beta, g, from_function(g, data).values)
    (start_s, _, _), (start_t, _, _) = _grid_transfers(129, 129, s_min == 0.0, False)
    level.values[level.mask] = (start_t @ (start_s @ coarse.values).T).T.ravel()
    factors = LUCounts()
    ref, history, _ = _damped_newton(
        level.field.values[level.mask], level.residual, level.jacobian, level.finish, tol, 40, "LU", factors
    )
    assert res.residuals[-1] <= tol and history[-1] <= tol
    assert factors.factorizations > 0 and factors.krylov_iterations == 0
    assert 0 < res.factors.krylov_iterations <= 25
    assert np.max(np.abs(res.field.values - ref.values)) <= 1e-11


# with the axis or not, 8 x 10, 7 x 10, 9 x 9 and 8 x 9 unknowns: odd and
# even line counts in both directions
@pytest.mark.parametrize("axis, ns, nt", [(True, 9, 12), (False, 9, 12), (True, 10, 11), (False, 10, 11)])
def test_zebra_half_sweeps_carry_the_residual(axis, ns, nt):
    g = GridSpec(n=5, s_min=0.0 if axis else 0.5, s_max=2.0, t_min=-1.0, t_max=1.5, ns=ns, nt=nt)
    L, mask = _assemble_laplacian(g)
    rng = np.random.default_rng(ns * nt + axis)
    J = (L - sp.diags(rng.uniform(0.0, 3.0, L.shape[0]))).tocsr()
    S, T = int(mask.sum(axis=0).max()), int(mask.sum(axis=1).max())  # the block of unknowns
    assert S * T == J.shape[0] and S == ns - 2 + axis
    s_lines, t_lines = _zebra_lines(J, S, T)
    b, x = rng.standard_normal(S * T), rng.standard_normal(S * T)
    # s-lines are the rows of the (T, S) transpose, t-lines those of (S, T)
    for lines, flip in ((s_lines, True), (t_lines, False)):
        layout = (lambda a: a.reshape(S, T).T.copy()) if flip else (lambda a: a.reshape(S, T).copy())
        X, R = layout(x), layout(b - J @ x)
        for parity in (1, 0):
            lines.sweep(X, R, parity)
            exact = layout(b - J @ (X.T if flip else X).ravel())
            assert np.linalg.norm(R - exact) <= 1e-14 * np.linalg.norm(exact)
            assert np.all(R[parity::2] == 0.0)


def _five_point_case(beta, case):
    """(J, S, T): a 5-point CSR on an S x T block of unknowns."""
    if case in ("stored-zeros", "pruned"):
        g = GridSpec(n=5, s_max=2.0, t_min=-1.0, t_max=1.5, ns=9, nt=12)
        L, mask = _assemble_laplacian(g)
        rng = np.random.default_rng(5)
        J = (L - sp.diags(rng.uniform(0.0, 3.0, L.shape[0]))).tocsr()
        arms = np.flatnonzero(J.indices != np.repeat(np.arange(J.shape[0]), np.diff(J.indptr)))
        J.data[rng.choice(arms, len(arms) // 4, replace=False)] = 0.0
        if case == "pruned":
            J.eliminate_zeros()
    else:
        # a level folded at t = 0, and an n = 4 level, whose drift cancels
        # the s- arm of the column s = hs and which stores that zero
        g = GridSpec(n=4 if case == "n4" else 3, s_max=2.0, t_min=-1.0, t_max=1.0, ns=17, nt=17)
        level = _Level(beta, g, np.full((17, 17), 0.5), case == "folded")
        J, mask = level.jacobian(np.linspace(0.1, 0.9, level.mask.sum())), level.mask
    S, T = int(mask.sum(axis=0).max()), int(mask.sum(axis=1).max())
    assert S * T == J.shape[0]
    return J, S, T


@pytest.mark.parametrize("case", ["stored-zeros", "pruned", "folded", "n4"])
def test_zebra_lines_read_each_below_coupling_off_the_minus_arms(beta, monkeypatch, case):
    # J[k + 1, k] of an s-line or t-line is the s- or t- arm one line or one
    # entry on; the bands of J^T are the oracle, bit for bit
    J, S, T = _five_point_case(beta, case)
    pruned = J.copy()
    pruned.eliminate_zeros()
    assert (pruned.nnz < J.nnz) == (case in ("stored-zeros", "n4"))
    lowers = []
    monkeypatch.setattr(axisym_field, "_ZebraLines", lambda lower, *bands: lowers.append(lower))
    _zebra_lines(J, S, T)
    oracle = (_band(J.T, T, (S, T)).T, _band(J.T, 1, (S, T)))
    assert [lower.tobytes() for lower in lowers] == [band.tobytes() for band in oracle]


def test_coarsest_krylov_solve_is_the_pruned_lu(beta):
    # without grid transfers a _KrylovSolve is the coarsest level: one sparse
    # LU of J with its zero arms dropped (at n = 4 the drift cancels the s-
    # arm of the column s = hs), whose solve is both solve and cycle
    level = _Level(beta, GridSpec(n=4, s_max=2.0, t_min=-1.0, t_max=1.0, ns=9, nt=11), np.full((9, 11), 0.5))
    J = level.jacobian(np.linspace(0.1, 0.9, level.mask.sum()))  # the level's matrix stores the zero arms
    counts = LUCounts()
    solver = _KrylovSolve(J, counts, None, None)
    pruned = J.tocsc()
    pruned.eliminate_zeros()
    assert pruned.nnz < J.nnz
    b = np.random.default_rng(4).standard_normal(J.shape[0])
    expected = splu(pruned, **LU_OPTIONS).solve(b)
    assert solver.solve is solver.cycle
    assert np.array_equal(solver.solve(b), expected) and np.array_equal(solver.cycle(b), expected)
    assert (counts.factorizations, counts.order, counts.krylov_iterations) == (1, J.shape[0], 0)


@pytest.mark.parametrize("mirror", [False, True])
def test_krylov_level_reads_its_bands_off_any_5_point_csr(beta, mirror):
    # at n = 4 the drift cancels the s- arm of the column s = hs, so the
    # level's matrix stores zero entries; without them it is the same matrix,
    # and its V-cycle and GMRES solve are the same bit for bit
    g = GridSpec(n=4, s_max=2.0, t_min=-1.0, t_max=1.0, ns=17, nt=17)
    level = _Level(beta, g, np.full((17, 17), 0.5), mirror)
    J = level.jacobian(np.linspace(0.1, 0.9, level.mask.sum()))
    pruned = J.copy()
    pruned.eliminate_zeros()
    assert pruned.nnz < J.nnz
    transfers = _grid_transfers(17, 17, True, mirror)
    coarse = splu(_assemble_laplacian(dataclasses.replace(g, ns=9, nt=9), mirror)[0].tocsc()).solve
    solvers = [_KrylovSolve(M, LUCounts(), transfers, coarse) for M in (J, pruned)]
    b = np.random.default_rng(6).standard_normal(J.shape[0])
    assert np.array_equal(solvers[0].cycle(b), solvers[1].cycle(b))
    assert np.array_equal(solvers[0].solve(b), solvers[1].solve(b))


def test_fine_level_failure_names_no_coarser_levels_gmres_solve(beta, monkeypatch):
    # a NaN at the boundary node (1, 0) of the 257^2 neck lies on no coarse
    # grid and breaks the mirror symmetry: the 65^2 and 129^2 levels solve
    # unfolded, the 129^2 one with GMRES, and the 257^2 level fails at its
    # start, before any GMRES solve of its own, so its message names none
    g, data = _neck(beta, 257)
    s, t = g.axes()
    start = data(s[:, None], t[None, :])
    start[1, 0] = np.nan
    solved, solve = [], _KrylovSolve.solve

    def spy_solve(self, b):
        x = solve(self, b)
        solved.append((self.J.shape[0], self.counts.krylov_last))
        return x

    monkeypatch.setattr(_KrylovSolve, "solve", spy_solve)
    with pytest.raises(NonconvergenceError) as err:
        solve_semilinear(beta, g, lambda s, t: start)
    assert str(err.value) == "Newton residual is not finite at iteration 0 (last sup residual nan)"
    assert err.value.last.values.shape == (257, 257)
    middle = int(_unknown_mask((129, 129), True).sum())  # unfolded
    assert solved and {m for m, _ in solved} == {middle}
    assert all(last[0] > 0 for _, last in solved)


@pytest.mark.parametrize("nodes", [129, 257])
def test_coarse_level_nonconvergence_names_its_grid(beta, nodes):
    # the coarsest level, 65^2, is solved first and fails first
    g, data = _neck(beta, nodes)
    with pytest.raises(NonconvergenceError) as err:
        solve_semilinear(beta, g, data, max_iter=0)
    message = str(err.value)
    # a coarse level stops at sqrt(tol)
    assert message.startswith("Newton on the coarse 65x65 grid did not reach tol=1e-05 in 0 iterations")
    assert err.value.last.values.shape == (65, 65)
    assert len(err.value.trace) == 1
    assert residual_semilinear(err.value.last, beta) == err.value.trace[-1]
    with pytest.raises(NonconvergenceError) as err:
        solve_semilinear(_constant_deriv(beta, -1e3), g, data)
    assert str(err.value).startswith("Newton on the coarse 65x65 grid backtracking stagnated")
    assert err.value.last.values.shape == (65, 65)
    assert _stagnation(str(err.value))[1] == float(f"{err.value.trace[-1]:.3e}")


def _neck_on_its_coarse_solution(beta):
    """The 129^2 neck grid and its data, with the 65^2 solution on every other node."""
    g, data = _neck(beta, 129)
    coarse = solve_semilinear(beta, *_neck(beta, 65)).field
    s, t = g.axes()
    start = data(s[:, None], t[None, :])
    start[::2, ::2] = coarse.values
    return g, start


def test_top_level_nonconvergence_above_a_coarse_level_keeps_its_message(beta):
    # the 65^2 level starts at its own solution and takes no step; the 129^2
    # level then fails under the plain label
    g, start = _neck_on_its_coarse_solution(beta)
    with pytest.raises(NonconvergenceError) as err:
        solve_semilinear(beta, g, lambda s, t: start, max_iter=0)
    assert re.fullmatch(r"Newton did not reach tol=1e-10 in 0 iterations \(last sup residual [0-9.e+-]+\)", str(err.value))
    assert err.value.last.values.shape == (129, 129)


def test_krylov_level_nonconvergence_names_its_last_gmres_solve(beta):
    # as above, but one step allowed: the 129^2 level takes one GMRES solve
    g, start = _neck_on_its_coarse_solution(beta)
    with pytest.raises(NonconvergenceError) as err:
        solve_semilinear(beta, g, lambda s, t: start, max_iter=1)
    match = re.fullmatch(
        r"Newton did not reach tol=1e-10 in 1 iterations \(last sup residual ([0-9.e+-]+)\); "
        r"last GMRES solve: (\d+) iterations, exit status 0",
        str(err.value),
    )
    assert match, str(err.value)
    assert float(match.group(1)) == float(f"{err.value.trace[-1]:.3e}")
    assert 0 < int(match.group(2)) <= 30


def test_exhausted_gmres_restarts_are_named_by_the_newton_failure(beta, monkeypatch):
    # one restart cycle of one iteration cannot meet KRYLOV_RTOL on 129^2
    monkeypatch.setattr(axisym_field, "KRYLOV_RESTART", 1)
    monkeypatch.setattr(axisym_field, "KRYLOV_MAXITER", 1)
    g, start = _neck_on_its_coarse_solution(beta)
    with pytest.raises(NonconvergenceError) as err:
        solve_semilinear(beta, g, lambda s, t: start, max_iter=1)
    assert str(err.value).endswith("; last GMRES solve: 1 iterations, exit status 1"), str(err.value)


def _drift_system(ns, nt):
    """A nonsymmetric 5-point Jacobian (n = 5, drift 3/s, with the axis), a
    right-hand side and the Jacobi preconditioner."""
    g = GridSpec(n=5, s_max=2.0, t_min=-1.0, t_max=1.5, ns=ns, nt=nt)
    L, _ = _assemble_laplacian(g)
    rng = np.random.default_rng(ns * nt)
    J = (L - sp.diags(rng.uniform(0.0, 3.0, L.shape[0]))).tocsr()
    assert abs(J - J.T).max() > 1.0
    d = J.diagonal()
    return J, rng.standard_normal(J.shape[0]), lambda v: v / d


def _gmres_iterations(A, b):
    """Iterations of scipy's unrestarted, unpreconditioned GMRES to KRYLOV_RTOL."""
    count = []
    _, info = gmres(A, b, rtol=axisym_field.KRYLOV_RTOL, atol=0.0, restart=A.shape[0], callback=count.append, callback_type="pr_norm")
    assert info == 0
    return len(count)


@pytest.mark.parametrize("ns, nt", [(6, 7), (9, 9)])
def test_fgmres_solves_a_nonsymmetric_jacobian(ns, nt):
    J, b, jacobi = _drift_system(ns, nt)
    x, iterations, status = _fgmres(J, b, jacobi)
    assert status == 0
    assert np.linalg.norm(b - J @ x) <= axisym_field.KRYLOV_RTOL * np.linalg.norm(b)
    exact = spsolve(J.tocsc(), b)
    cond = np.linalg.cond(J.toarray())
    assert np.linalg.norm(x - exact) <= cond * axisym_field.KRYLOV_RTOL * np.linalg.norm(exact)
    # right preconditioning by D^-1 is GMRES on J D^-1 (measured 16 and 23)
    assert iterations == _gmres_iterations(J @ sp.diags(1.0 / J.diagonal()), b)


def test_fgmres_restarts_on_the_true_residual(monkeypatch):
    # 56 unknowns need 23 iterations unrestarted; restarted every 5, 41
    J, b, jacobi = _drift_system(9, 9)
    monkeypatch.setattr(axisym_field, "KRYLOV_RESTART", 5)
    x, iterations, status = _fgmres(J, b, jacobi)
    assert status == 0 and 23 < iterations <= 5 * axisym_field.KRYLOV_MAXITER
    assert np.linalg.norm(b - J @ x) <= axisym_field.KRYLOV_RTOL * np.linalg.norm(b)


def test_fgmres_exhausted_restarts_return_a_nonzero_status(monkeypatch):
    J, b, jacobi = _drift_system(9, 9)
    monkeypatch.setattr(axisym_field, "KRYLOV_RESTART", 2)
    x, iterations, status = _fgmres(J, b, jacobi)
    assert status != 0 and iterations == 2 * axisym_field.KRYLOV_MAXITER
    assert np.linalg.norm(b - J @ x) > axisym_field.KRYLOV_RTOL * np.linalg.norm(b)


def test_fgmres_happy_breakdown_takes_one_iteration():
    b = np.arange(1.0, 41.0)
    x, iterations, status = _fgmres(sp.identity(40, format="csr"), b, lambda v: v)
    assert (iterations, status) == (1, 0)
    assert np.max(np.abs(x - b)) <= 1e-15 * np.max(b)


def test_fine_level_applies_one_cycle_per_gmres_iteration(beta, monkeypatch):
    # the 257^2 neck: the finest level's cycles are its GMRES iterations (a
    # left-preconditioned GMRES also cycles for its tolerance, for M r0 and
    # on each restart)
    cycles, iterations = [], []
    cycle, solve = _KrylovSolve.cycle, _KrylovSolve.solve

    def count_cycle(self, b):
        cycles.append(self.J.shape[0])
        return cycle(self, b)

    def count_solve(self, b):
        before = self.counts.krylov_iterations
        x = solve(self, b)
        iterations.append((self.J.shape[0], self.counts.krylov_iterations - before))
        return x

    monkeypatch.setattr(_KrylovSolve, "cycle", count_cycle)
    monkeypatch.setattr(_KrylovSolve, "solve", count_solve)
    res = solve_semilinear(beta, *_neck(beta, 257))
    finest = int(_assemble_laplacian(_neck(beta, 257)[0], mirror=True)[1].sum())  # folded
    assert sum(k for _, k in iterations) == res.factors.krylov_iterations
    finest_iterations = sum(k for m, k in iterations if m == finest)
    assert finest_iterations > 0 and cycles.count(finest) == finest_iterations


def test_failed_chord_step_is_redone_with_a_fresh_factor():
    # x[0] is linear and dominates the start, so the first Newton step cuts the
    # merit more than tenfold while x[1] (b^3 = 1 from b = 0.5) overshoots to
    # 5/3; the chord step on the old factor then fails at full length and is
    # redone with a factor taken at the same iterate
    calls = []

    def jacobian(x):
        calls.append(x.copy())
        return sp.csc_matrix(np.diag([1.0, 3.0 * x[1] ** 2]))

    def residual(x):
        r = np.array([x[0], x[1] ** 3 - 1.0])
        return r, *axisym_field._norms(r)

    factors = LUCounts()
    x, history, merits = _damped_newton(np.array([100.0, 0.5]), residual, jacobian, lambda x: x, 1e-12, 40, "test", factors)
    assert history[-1] <= 1e-12 and x == pytest.approx([0.0, 1.0])
    assert calls[1][0] == 0.0 and calls[1][1] == pytest.approx(5.0 / 3.0)
    assert history[1] == pytest.approx((5.0 / 3.0) ** 3 - 1.0)  # the failed chord step left no entry
    assert all(b < a for a, b in zip(merits, merits[1:]))
    assert factors.factorizations == len(calls) < len(history) - 1


def test_energy_piecewise_affine_exact():
    # in the plane the cylindrical weight is the constant |S^0| = 2
    g = GridSpec(n=2, s_max=1.0, t_min=-1.0, t_max=1.0, ns=33, nt=65)
    f = from_function(g, lambda s, t: np.maximum(0.0, t))
    eb = one_phase_energy(f)
    assert eb.dirichlet == 2.0
    assert eb.potential == 2.0
    assert eb.total == 4.0


def test_energy_zero_field():
    g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=17)
    f = from_function(g, lambda s, t: 0.0 * s)
    eb = one_phase_energy(f)
    assert eb.total == 0.0


@pytest.mark.parametrize("eps", [1.0, 0.25])
def test_layer_and_one_phase_energies_share_the_dirichlet_part(beta, eps):
    g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=33)
    f = from_function(g, lambda s, t: np.sin(2.0 * t) + 0.3 * s * s)
    assert one_phase_energy(f).dirichlet == energy(f, beta, eps).dirichlet


def test_blow_down_identity_is_bitwise(beta):
    g = GridSpec(n=2, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=17)
    f = from_function(g, lambda s, t: np.maximum(0.0, t))
    bd = blow_down(f, 1.0)
    assert np.array_equal(bd.values, f.values)
    assert np.array_equal(bd.s, f.s)


def test_blow_down_linear_field_invariant():
    g = GridSpec(n=2, s_max=4.0, t_min=-4.0, t_max=4.0, ns=33, nt=33)
    f = from_function(g, lambda s, t: 1.3 * t + 0.0 * s)
    bd = blow_down(f, 0.25)
    assert np.max(np.abs(bd.values - 1.3 * bd.t[None, :])) < 1e-13


def test_blow_down_rejects_bad_epsilon():
    g = GridSpec(n=2, s_max=1.0, t_min=-1.0, t_max=1.0, ns=9, nt=9)
    f = from_function(g, lambda s, t: 0.0 * s)
    with pytest.raises(InvalidParameterError):
        blow_down(f, 0.0)


def test_blow_down_layer_family_approaches_ramp(beta):
    # each eps blows down its own source grid onto [0, 1] x [-2, 2]
    prof = unique_increasing_profile(beta, u_lo=1e-6, n_samples=20001)
    sups = []
    for eps in (1.0, 0.5, 0.25):
        src = GridSpec(n=2, s_max=1.0 / eps, t_min=-2.0 / eps, t_max=2.0 / eps, ns=3, nt=2049)
        bd = blow_down(extend_to_nd(prof, src), eps)
        ramp = np.maximum(0.0, bd.t)[None, :]
        sups.append(np.max(np.abs(bd.values - ramp)))
        assert np.isfinite(residual_semilinear(bd, rescale(beta, eps)))
    assert sups[2] < sups[1] < sups[0]


def test_lipschitz_monitor_on_ramp():
    g = GridSpec(n=2, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=65)
    f = from_function(g, lambda s, t: np.maximum(0.0, t))
    assert abs(lipschitz_monitor(f) - 1.0) <= g.ht


def test_lipschitz_monitor_on_layer_attained_above_one(beta, layer_profile):
    g = GridSpec(n=3, s_max=2.0, t_min=-3.0, t_max=3.0, ns=65, nt=129)
    f = extend_to_nd(layer_profile, g)
    sup = lipschitz_monitor(f)
    assert abs(sup - 1.0) < 5e-3
    # centered gradient equals 1 to round-off on the affine region u >= 1
    gt = (f.values[0, 2:] - f.values[0, :-2]) / (2 * g.ht)
    above = f.values[0, 1:-1] >= 1.0 + g.ht
    assert np.max(np.abs(gt[above] - 1.0)) < 1e-11


@pytest.mark.parametrize("s_min", [0.0, 0.5])
def test_a_spike_breaks_the_max_principle_and_passes_the_border_check_exactly_on_unknowns(s_min):
    g = GridSpec(n=3, s_min=s_min, s_max=2.0, t_min=-1.0, t_max=1.0, ns=5, nt=6)
    unknown = _unknown_mask((g.ns, g.nt), s_min == 0.0)
    assert unknown[0, 1:-1].all() == (s_min == 0.0)
    for i, j in itertools.product(range(g.ns), range(g.nt)):
        spike = np.zeros((g.ns, g.nt))
        spike[i, j] = 1.0
        f = AxiField(g.n, *g.axes(), spike)
        assert (max_principle_defect(f) > 0.0) == unknown[i, j], (i, j)
        try:
            _require_vanishing_border(f)
            passed = True
        except InvalidParameterError:
            passed = False
        assert passed == unknown[i, j], (i, j)


def test_sample_is_bilinear_on_the_closed_grid_and_nan_off_it(rng):
    g = GridSpec(n=3, s_min=0.5, s_max=2.0, t_min=-1.0, t_max=1.5, ns=7, nt=9)
    a, b, c, d = rng.uniform(-2.0, 2.0, 4)
    f = from_function(g, lambda s, t: a + b * s + c * t + d * s * t)
    s, t = rng.uniform(0.5, 2.0, 200), rng.uniform(-1.0, 1.5, 200)
    # the four edges and the four corners of the closed box belong to it
    s = np.concatenate((s, np.full(20, 0.5), np.full(20, 2.0), s[:40], [0.5, 0.5, 2.0, 2.0]))
    t = np.concatenate((t, t[:40], np.full(20, -1.0), np.full(20, 1.5), [-1.0, 1.5, -1.0, 1.5]))
    inside = f.sample(np.stack((s, t), axis=-1))
    assert np.max(np.abs(inside - (a + b * s + c * t + d * s * t))) <= 1e-13
    # every point off the box reads NaN, one ulp past an edge included
    s, t = rng.uniform(-1.0, 3.5, 400), rng.uniform(-2.5, 3.0, 400)
    outside = (s < 0.5) | (s > 2.0) | (t < -1.0) | (t > 1.5)
    assert outside.sum() > 200
    assert np.array_equal(np.isnan(f.sample(np.stack((s, t), axis=-1))), outside)
    below, above = np.nextafter([0.5, -1.0], -np.inf), np.nextafter([2.0, 1.5], np.inf)
    ulp = np.array([[below[0], 0.0], [above[0], 0.0], [1.0, below[1]], [1.0, above[1]]])
    assert np.isnan(f.sample(ulp)).all()


def test_monitor_invariant_under_blow_down():
    g = GridSpec(n=2, s_max=4.0, t_min=-4.0, t_max=4.0, ns=65, nt=65)
    for fn in (lambda s, t: np.maximum(0.0, t), lambda s, t: 0.7 * t + 0.0 * s):
        f = from_function(g, fn)
        vals = [lipschitz_monitor(blow_down(f, eps)) for eps in (1.0, 0.5, 0.25)]
        assert max(vals) - min(vals) <= 1e-8


def _loop_apply_laplacian(f):
    """The per-row loop, kept as the reference of apply_axisym_laplacian."""
    u, n, s = f.values, f.n, f.s
    hs2, ht2 = f.hs * f.hs, f.ht * f.ht
    out = np.full_like(u, np.nan)
    for i in range(1, u.shape[0] - 1):
        row = u[i]
        uss = (u[i + 1, 1:-1] - 2.0 * row[1:-1] + u[i - 1, 1:-1]) / hs2
        us = (u[i + 1, 1:-1] - u[i - 1, 1:-1]) / (2.0 * f.hs)
        utt = (row[2:] - 2.0 * row[1:-1] + row[:-2]) / ht2
        out[i, 1:-1] = uss + (n - 2) / s[i] * us + utt
    if f.has_axis:
        u0 = u[0]
        uss0 = 2.0 * (u[1, 1:-1] - u0[1:-1]) / hs2
        utt0 = (u0[2:] - 2.0 * u0[1:-1] + u0[:-2]) / ht2
        out[0, 1:-1] = (n - 1) * uss0 + utt0
    return out


def test_laplacian_expression_matches_row_loop():
    rng = np.random.default_rng(7)
    for n, s_min, (ns, nt) in itertools.product((2, 3, 5), (0.0, 0.3), ((3, 3), (17, 9), (40, 65))):
        g = GridSpec(n=n, s_min=s_min, s_max=1.7, t_min=-1.1, t_max=0.9, ns=ns, nt=nt)
        f = from_function(g, lambda s, t: np.exp(-(s**2) - t**2))
        assert f.has_axis == (s_min == 0.0)
        for values in (f.values, rng.standard_normal((ns, nt))):
            lap = apply_axisym_laplacian(f.with_values(values)).values
            ref = _loop_apply_laplacian(f.with_values(values))
            assert np.array_equal(np.isnan(lap), np.isnan(ref))
            assert lap.tobytes() == ref.tobytes()  # bit for bit, NaNs and signed zeros included


def _loop_laplacian(grid):
    """The per-node assembly loop, kept as the reference of _assemble_laplacian."""
    s, _ = grid.axes()
    hs, ht, n, ns, nt = grid.hs, grid.ht, grid.n, grid.ns, grid.nt
    mask = np.zeros((ns, nt), dtype=bool)
    mask[1:-1, 1:-1] = True
    if grid.s_min == 0.0:
        mask[0, 1:-1] = True
    index = -np.ones((ns, nt), dtype=int)
    index[mask] = np.arange(int(mask.sum()))
    rows, cols, vals = [], [], []

    def add(i, j, ii, jj, w):
        if mask[ii, jj]:  # couplings to boundary nodes are not derivatives
            rows.append(index[i, j]), cols.append(index[ii, jj]), vals.append(w)

    for i in range(ns):
        for j in range(nt):
            if not mask[i, j]:
                continue
            if i == 0:
                cs_p = (n - 1) * 2.0 / hs**2
                add(i, j, i, j, -cs_p)
                add(i, j, i + 1, j, cs_p)
            else:
                add(i, j, i - 1, j, 1.0 / hs**2 - (n - 2) / (2.0 * hs * s[i]))
                add(i, j, i + 1, j, 1.0 / hs**2 + (n - 2) / (2.0 * hs * s[i]))
                add(i, j, i, j, -2.0 / hs**2)
            add(i, j, i, j - 1, 1.0 / ht**2)
            add(i, j, i, j + 1, 1.0 / ht**2)
            add(i, j, i, j, -2.0 / ht**2)
    m = int(mask.sum())
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m)), mask


def assert_same_csr(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("s_min", [0.0, 0.4])
def test_assembled_laplacian_is_the_stencil(n, s_min):
    g = GridSpec(n=n, s_min=s_min, s_max=2.0, t_min=-1.0, t_max=1.0, ns=21, nt=17)
    L, mask = _assemble_laplacian(g)
    L0, mask0 = _loop_laplacian(g)
    assert_same_csr(L, L0)
    assert np.array_equal(mask, mask0)
    # on a field that vanishes on the boundary the stencil is L alone
    u = np.where(mask, np.random.default_rng(n).standard_normal((g.ns, g.nt)), 0.0)
    s, t = g.axes()
    lap = apply_axisym_laplacian(AxiField(n=n, s=s, t=t, values=u)).values[mask]
    got = L @ u[mask]
    assert np.max(np.abs(got - lap)) <= 1e-12 * np.max(np.abs(lap))


@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("s_min", [0.0, 0.4])
def test_laplacian_matrix_is_the_derivative_of_the_stencil(n, s_min):
    # the Newton residual is apply_axisym_laplacian(u)[mask] - beta(u)/2, and
    # L is its stencil part's derivative: the stencil is linear, so a change d
    # of the unknowns (boundary held fixed) moves it by exactly L d
    g = GridSpec(n=n, s_min=s_min, s_max=2.0, t_min=-1.0, t_max=1.0, ns=21, nt=17)
    L, mask = _assemble_laplacian(g)
    s, t = g.axes()
    rng = np.random.default_rng(100 + n)
    u = AxiField(n=n, s=s, t=t, values=rng.standard_normal((g.ns, g.nt)))
    base = apply_axisym_laplacian(u).values[mask]
    for scale in (1.0, 1e-3):
        d = scale * rng.standard_normal(int(mask.sum()))
        moved = u.values.copy()
        moved[mask] += d
        step = apply_axisym_laplacian(u.with_values(moved)).values[mask] - base
        assert np.max(np.abs(step - L @ d)) <= 1e-12 * np.max(np.abs(base))


def test_field_binary_bytes_match_axif_layout(tmp_path):
    g = GridSpec(n=3, s_max=1.0, t_min=-0.5, t_max=1.5, ns=7, nt=5)
    f = from_function(g, lambda s, t: np.exp(s * t) / 3.0 - 0.25 * t)
    f.values[2, 3] = -0.0
    f.save_binary(tmp_path / "f.bin")
    values = [f.values[i, j] for i in range(7) for j in range(5)]
    expected = b"AXIF" + struct.pack("<3i7d5d35d", 3, 7, 5, *f.s, *f.t, *values)
    assert (tmp_path / "f.bin").read_bytes() == expected
    back = AxiField.load_binary(tmp_path / "f.bin")
    assert math.copysign(1.0, back.values[2, 3]) == -1.0


@pytest.mark.parametrize(
    "grid",
    [
        # the strip-neck masked solve at resolution 256 and the largest newton-neck rung
        GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=590, nt=513),
        GridSpec(n=3, s_max=3.0, t_min=-1.5, t_max=1.5, ns=449, nt=449),
    ],
    ids=["masked-590x513", "neck-449x449"],
)
def test_field_binary_roundtrip_is_bit_exact(tmp_path, grid):
    s, t = grid.axes()
    f = AxiField(n=grid.n, s=s, t=t, values=np.random.default_rng(grid.ns).standard_normal((grid.ns, grid.nt)))
    f.save_binary(tmp_path / "f.bin")
    back = AxiField.load_binary(tmp_path / "f.bin")
    assert back.n == grid.n
    for got, want in ((back.s, s), (back.t, t), (back.values, f.values)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("cut", ["truncated", "trailing", "magic"])
def test_load_binary_rejects_a_block_that_disagrees_with_its_header(tmp_path, cut):
    g = GridSpec(n=3, s_max=1.0, t_min=-0.5, t_max=1.5, ns=5, nt=5)
    path = tmp_path / "f.bin"
    from_function(g, lambda s, t: s + t).save_binary(path)
    blob = path.read_bytes()
    path.write_bytes({"truncated": blob[:-16], "trailing": blob + b"\0" * 8, "magic": b"AXIG" + blob[4:]}[cut])
    with pytest.raises(InvalidParameterError, match=re.escape(str(path))):
        AxiField.load_binary(path)


def _axif(n, s, t):
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    header = b"AXIF" + struct.pack("<iii", n, len(s), len(t))
    return header + np.concatenate((s, t, np.zeros(len(s) * len(t)))).astype("<f8").tobytes()


@pytest.mark.parametrize(
    "n, s, t",
    [
        (-7, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]),
        (1, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]),
        (3, [0.0, 0.0, 0.0], [0.0, 1.0, 2.0]),
        (3, [0.0, 1.0], [0.0, 1.0, 2.0]),
        (3, [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]),
        (3, [0.0, 1.0, math.inf], [0.0, 1.0, 2.0]),
        (3, [0.0, 1.0, 2.0], [math.nan, 1.0, 2.0]),
        (3, [-1.0, 0.0, 1.0], [0.0, 1.0, 2.0]),
        (3, [0.0, 0.1, 0.5, 0.6], [0.0, 1.0, 2.0]),
        (3, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0 + 1e-12]),
        (3, [0.0, 1.0, 2.0], [-1.7e308, 0.0, 1.7e308]),
        (3, [0.0, 1.0, 2.0], [-1.7e308, 1.7e308, 1.75e308]),
    ],
    ids=[
        "n-negative", "n-one", "s-repeated", "s-two-nodes", "t-unordered", "s-infinite", "t-nan", "s-negative",
        "s-not-uniform", "t-not-uniform", "t-width-overflows", "t-step-overflows",
    ],
)
def test_load_binary_applies_the_grid_rules_to_its_header(tmp_path, n, s, t):
    # n = -7 and s = [0, 0, 0] loaded once: the latter with hs = 0, so that
    # apply_axisym_laplacian read all NaN; s = [0, 0.1, 0.5, 0.6] loaded and
    # read hs = 0.1 for the 0.4 step in its middle
    path = tmp_path / "f.bin"
    path.write_bytes(_axif(n, s, t))
    with pytest.raises(InvalidParameterError, match=re.escape(str(path)) + ".*grid rules"):
        AxiField.load_binary(path)
    # the same block with the rules kept loads, bit for bit
    path.write_bytes(_axif(3, [0.0, 1.0, 2.0], [-1.0, 0.0, 1.0]))
    back = AxiField.load_binary(path)
    back.save_binary(tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_axis_symmetry_of_solved_fields(beta, layer_profile):
    # the ghost treatment enforces even symmetry: the one-sided radial
    # derivative on the axis vanishes at second order under refinement
    vals = []
    for ns in (33, 65):
        g = GridSpec(n=3, s_max=3.0, t_min=-1.5, t_max=1.5, ns=ns, nt=ns)
        res = solve_semilinear(
            beta, g, lambda s, t: layer_profile.sample(np.sqrt(1.0 + s * s) - np.cosh(t) + 1.0), tol=1e-11
        )
        u = res.field.values
        one_sided = (-3.0 * u[0, 1:-1] + 4.0 * u[1, 1:-1] - u[2, 1:-1]) / (2.0 * g.hs)
        vals.append(np.max(np.abs(one_sided)))
    assert vals[0] / vals[1] > 3.0


def test_residual_of_tiled_discrete_solution(beta, layer_profile):
    g = GridSpec(n=5, s_max=2.0, t_min=-2.0, t_max=2.0, ns=33, nt=33)
    s, t = g.axes()
    v = solve_semilinear_1d(beta, g.t_min, g.t_max, layer_profile.sample(t))
    f = AxiField(n=5, s=s, t=t, values=np.tile(v, (g.ns, 1)))
    assert residual_semilinear(f, beta) < 1e-12
