import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from hypothesis import given, settings
from hypothesis import strategies as st

from onephase_lab import experiments, onephase_geometry, reference
from onephase_lab.axisym_field import GridSpec, _fold, _fold_map
from onephase_lab.config import ExperimentConfig
from onephase_lab.errors import (
    CurvatureSingularityError,
    GeometryMismatchError,
    InvalidParameterError,
    NonconvergenceError,
    PreconditionViolationError,
)
from onephase_lab.numerics import (
    LU_OPTIONS,
    LUCounts,
    smoothstep_quintic,
    smoothstep_quintic_deriv,
    stencil_matrix,
    unit_sphere_area,
)
from onephase_lab.onephase_geometry import (
    Generator,
    _masked_system,
    _mirror_fold,
    _refined_solve,
    _schur_complement,
    _unfold_system,
    crossing_fractions,
    curvature_of_revolution,
    normal_derivative_identity,
    onephase_stability_form,
    solve_harmonic_masked,
    surface_integral,
)
from onephase_lab.reference import SphereShellExact, StripNeckExact
from onephase_lab.stability import BORDER_TOL, StabilityProbe, probe_inequality, quadratic_form, us_derivative

from oracles import (
    curvature_sq,
    extract_graph_boundary,
    from_function,
    graph_generator,
    gradient_magnitude_identity,
    neck_generator_s,
    neck_gradient,
    neck_mean_curvature,
    neck_us_gradient,
    shell_du_of_r,
)

# ---------------------------------------------------------------- curvature


def test_cylinder_curvature_exact():
    t = np.linspace(-1, 1, 101)
    b = curvature_of_revolution(graph_generator(t, np.full_like(t, 0.7), 0.0 * t, 0.0 * t, outside=True), n=3)
    assert np.max(np.abs(b.mean_curv - 1.0 / 0.7)) < 1e-12
    assert np.max(np.abs(curvature_sq(b) - 1.0 / 0.49)) < 1e-12


def test_sphere_curvature_exact():
    shell = SphereShellExact(n=3, r0=2.0)
    b = curvature_of_revolution(shell.boundary_generator(), n=3)
    assert np.max(np.abs(b.mean_curv - 1.0)) < 1e-13
    assert np.max(np.abs(np.hypot(b.normals[:, 0], b.normals[:, 1]) - 1.0)) < 1e-14


def test_flat_generator_has_zero_curvature():
    tau = np.linspace(0, 2, 41)
    ones, zeros = np.ones_like(tau), np.zeros_like(tau)
    gen = Generator(s=tau + 0.5, t=zeros, ds=ones, dt=zeros, dss=zeros, dtt=zeros)
    b = curvature_of_revolution(gen, n=4)
    assert np.max(np.abs(b.mean_curv)) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_catenoid_closed_forms(n):
    t = np.linspace(-1.0, 1.0, 401)
    # s = cosh t: H = (n-3)/cosh^2 t and |A|^2 = (n-1)/cosh^4 t, the positivity set above the curve
    b = curvature_of_revolution(graph_generator(t, np.cosh(t), np.sinh(t), np.cosh(t), outside=True), n=n)
    c2 = np.cosh(t) ** 2
    assert np.max(np.abs(b.mean_curv - (n - 3) / c2)) < 1e-13
    assert np.max(np.abs(curvature_sq(b) - (n - 1) / c2**2)) < 1e-13


def test_sphere_total_curvature_identity():
    # int H dsigma = 2 * area, exactly as integrated (H is constant 2)
    theta = np.linspace(1e-8, math.pi - 1e-8, 4001)
    gen = Generator(
        s=np.sin(theta), t=np.cos(theta),
        ds=np.cos(theta), dt=-np.sin(theta), dss=-np.sin(theta), dtt=-np.cos(theta),
    )
    b = curvature_of_revolution(gen, n=3)
    area = surface_integral(b, np.ones_like(theta))
    total_h = surface_integral(b, b.mean_curv)
    assert abs(total_h - 2.0 * area) < 1e-12 * area
    assert abs(area - 4.0 * math.pi) < 1e-6


def test_axis_touch_with_slanted_tangent_raises():
    tau = np.linspace(0.0, 1.0, 21)
    ones, zeros = np.ones_like(tau), np.zeros_like(tau)
    gen = Generator(s=tau.copy(), t=tau.copy(), ds=ones, dt=ones, dss=zeros, dtt=zeros)
    with pytest.raises(CurvatureSingularityError):
        curvature_of_revolution(gen, n=3)


def test_pole_touch_is_umbilic():
    # a full sphere generator through both poles stays finite: the pole
    # rotational curvature equals the profile curvature
    theta = np.linspace(0.0, math.pi, 201)
    gen = Generator(
        s=np.sin(theta), t=np.cos(theta),
        ds=np.cos(theta), dt=-np.sin(theta), dss=-np.sin(theta), dtt=-np.cos(theta),
    )
    b = curvature_of_revolution(gen, n=3)
    assert np.max(np.abs(b.mean_curv - 2.0)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=7),
)
def test_curvature_cauchy_schwarz(seed, n):
    # sum of squares dominates the square of the sum over n-1 curvatures
    rng = np.random.default_rng(seed)
    t = np.linspace(-1, 1, 101)
    coeffs = rng.standard_normal(3) * 0.3
    s = 2.0 + coeffs[0] * np.sin(t) + coeffs[1] * np.cos(2 * t) + coeffs[2] * t**2
    ds = coeffs[0] * np.cos(t) - 2 * coeffs[1] * np.sin(2 * t) + 2 * coeffs[2] * t
    dss = -coeffs[0] * np.sin(t) - 4 * coeffs[1] * np.cos(2 * t) + 2 * coeffs[2]
    b = curvature_of_revolution(graph_generator(t, s, ds, dss, outside=True), n=n)
    assert np.all((n - 1) * curvature_sq(b) >= b.mean_curv**2 - 1e-12)


# ---------------------------------------------------------------- exact references


def test_strip_neck_is_an_exact_interface_solution():
    neck = StripNeckExact()
    tg = np.linspace(-0.9, 0.9, 61)
    sg = neck_generator_s(tg)
    assert np.max(np.abs(neck.u(sg - 1e-12, tg))) < 1e-10
    gs, gt = neck_gradient(neck, sg - 1e-10, tg)
    assert np.max(np.abs(np.hypot(gs, gt) - 1.0)) < 1e-8
    # harmonic inside (finite-difference probe)
    h = 1e-4
    for s0, t0 in ((1.2, 0.3), (2.0, -0.5), (0.5, 0.8)):
        lap = (
            neck.u(s0 + h, t0) + neck.u(s0 - h, t0) + neck.u(s0, t0 + h) + neck.u(s0, t0 - h)
            - 4 * neck.u(s0, t0)
        ) / h**2
        assert abs(lap) < 1e-6


def test_strip_neck_curvature_closed_form():
    neck = StripNeckExact()
    tg = np.linspace(-0.8, 0.8, 41)
    b = curvature_of_revolution(neck.boundary_generator(tg), n=2)
    assert np.max(np.abs(b.mean_curv - neck_mean_curvature(tg))) < 1e-13


def test_strip_neck_normal_identity_analytic():
    # grad(u_s) . nu = H u_s from the closed-form derivatives, to round-off
    neck = StripNeckExact()
    tg = np.linspace(-0.8, 0.8, 41)
    sg = neck_generator_s(tg) - 1e-9
    b = curvature_of_revolution(neck.boundary_generator(tg), n=2)
    vs, vt = neck_us_gradient(neck, sg, tg)
    u_s, _ = neck_gradient(neck, sg, tg)
    lhs = vs * b.normals[:, 0] + vt * b.normals[:, 1]
    assert np.max(np.abs(lhs - b.mean_curv * u_s)) < 1e-7


def test_strip_neck_inversion_is_pointwise():
    # each node stops at its own round-off floor: a subset of the grid
    # evaluates to the same bits as the whole grid
    neck = StripNeckExact()
    s, t = np.linspace(1.0, 3.3, 93), np.linspace(-1.0, 1.0, 81)
    full = neck.u(s[:, None], t[None, :])
    assert np.array_equal(neck.u(s[::7, None], t[None, ::5]), full[::7, ::5])
    i, j = np.unravel_index(np.arange(0, full.size, 41), full.shape)
    single = [neck.u(s[a], t[b]) for a, b in zip(i, j)]
    assert np.array_equal(single, full[i, j])


def test_strip_neck_inversion_failure_names_its_numbers(monkeypatch):
    monkeypatch.setattr(reference, "NEWTON_STEPS", 2)
    neck = StripNeckExact()
    with pytest.raises(NonconvergenceError, match=r"after 2 Newton steps \(residual [0-9.e+-]+, threshold 1e-11\)"):
        neck.u(np.array([2.0, 2.5]), np.array([0.1, -0.4]))


def test_sphere_shell_boundary_conditions():
    for n in (2, 3, 4, 5):
        shell = SphereShellExact(n=n, r0=1.0)
        assert shell.u_of_r(1.0) == 0.0
        assert abs((shell.u_of_r(1.0 + 1e-7) - shell.u_of_r(1.0)) / 1e-7 - 1.0) < 1e-6
        # radial harmonicity: u'' + (n-1)/r u' = 0
        r, h = 1.7, 1e-4
        d2 = (shell.u_of_r(r + h) - 2 * shell.u_of_r(r) + shell.u_of_r(r - h)) / h**2
        assert abs(d2 + (n - 1) / r * shell_du_of_r(shell, r)) < 1e-5


# ---------------------------------------------------------------- masked solve


def _loop_masked_system(grid, level_fn, boundary_fn, theta_floor=1e-9):
    """The per-node Shortley-Weller loop with scalar bisection, kept as the
    reference of the vectorized assembly: returns (A, rhs, border data,
    number of bisected arms)."""
    s, t = grid.axes()
    hs, ht, n = grid.hs, grid.ht, grid.n
    S, T = np.meshgrid(s, t, indexing="ij")
    level = np.asarray(level_fn(S, T), dtype=float)
    pos = level > 0.0
    border = np.zeros_like(pos)
    border[0, :] = border[-1, :] = True
    border[:, 0] = border[:, -1] = True
    if grid.s_min == 0.0:
        border[0, 1:-1] = False
    g = np.zeros((grid.ns, grid.nt))
    g[border & pos] = np.asarray(boundary_fn(S, T), dtype=float)[border & pos]
    unknown = pos & ~border
    m = int(unknown.sum())
    index = -np.ones((grid.ns, grid.nt), dtype=int)
    index[unknown] = np.arange(m)
    rows, cols, vals = [], [], []
    rhs = np.zeros(m)
    bisected = 0

    def theta(i0, j0, i1, j1):
        nonlocal bisected
        bisected += 1
        a, b = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (a + b)
            sm = s[i0] + mid * (s[i1] - s[i0])
            tm = t[j0] + mid * (t[j1] - t[j0])
            if float(level_fn(np.array([sm]), np.array([tm]))[0]) > 0.0:
                a = mid
            else:
                b = mid
        return max(0.5 * (a + b), theta_floor)

    def arm(row, ii, jj, w):
        if not pos[ii, jj]:
            return
        if unknown[ii, jj]:
            rows.append(row), cols.append(index[ii, jj]), vals.append(w)
        else:
            rhs[row] -= w * g[ii, jj]

    for i, j in zip(*np.nonzero(unknown)):
        row = index[i, j]
        if grid.s_min == 0.0 and i == 0:
            if pos[i + 1, j]:
                c = 2.0 * (n - 1) / hs**2
            else:
                c = 2.0 * (n - 1) / (theta(i, j, i + 1, j) ** 2 * hs**2)
            rows.append(row), cols.append(row), vals.append(-c)
            arm(row, i + 1, j, c)
        else:
            th_m = 1.0 if pos[i - 1, j] else theta(i, j, i - 1, j)
            th_p = 1.0 if pos[i + 1, j] else theta(i, j, i + 1, j)
            fac = (n - 2) / s[i]
            cc = -2.0 / (th_m * th_p * hs**2)
            dc = (th_p - th_m) / (th_m * th_p * hs)
            rows.append(row), cols.append(row), vals.append(cc + fac * dc)
            cm = 2.0 / (th_m * (th_m + th_p) * hs**2)
            dm = -th_p / (th_m * (th_m + th_p) * hs)
            arm(row, i - 1, j, cm + fac * dm)
            cp = 2.0 / (th_p * (th_m + th_p) * hs**2)
            dp = th_m / (th_p * (th_m + th_p) * hs)
            arm(row, i + 1, j, cp + fac * dp)
        th_m = 1.0 if pos[i, j - 1] else theta(i, j, i, j - 1)
        th_p = 1.0 if pos[i, j + 1] else theta(i, j, i, j + 1)
        rows.append(row), cols.append(row), vals.append(-2.0 / (th_m * th_p * ht**2))
        arm(row, i, j - 1, 2.0 / (th_m * (th_m + th_p) * ht**2))
        arm(row, i, j + 1, 2.0 / (th_p * (th_m + th_p) * ht**2))
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m)), rhs, g, bisected


_NECK = StripNeckExact()
_SHELL3 = SphereShellExact(n=3, r0=1.0)


_SYSTEM_GRIDS = pytest.mark.parametrize(
    "grid, level_fn, boundary_fn",
    [
        (GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=38, nt=33), _NECK.level, _NECK.u),
        (GridSpec(n=3, s_max=2.2, t_min=-2.2, t_max=2.2, ns=36, nt=71), _SHELL3.level, _SHELL3.u),
        # a ball around the axis: one axis node has a cut s+ arm
        (
            GridSpec(n=4, s_max=1.5, t_min=-1.5, t_max=1.5, ns=13, nt=25),
            lambda s, t: 1.03 - np.hypot(s, t - 0.1) - 0.2 * s * s,
            lambda s, t: np.exp(s) * np.cos(t),
        ),
    ],
    ids=["neck", "shell-n3-axis", "ball-n4-axis"],
)


def _system(grid, level_fn, boundary_fn):
    """The masked system as the solve assembles it: A built from the stencil
    coefficients, rhs, border data, both masks and the bisected arms."""
    diag, arms, rhs, g, unknown, pos, cut_edges = _masked_system(grid, level_fn, boundary_fn)
    return stencil_matrix(unknown, diag, arms), rhs, g, unknown, pos, cut_edges


def _folded_system(grid, level_fn, boundary_fn):
    """A, rhs and the unknown mask of the masked system, with the (kept, fold)
    its coefficient mirror test gives."""
    diag, arms, rhs, _, unknown, _, _ = _masked_system(grid, level_fn, boundary_fn)
    return stencil_matrix(unknown, diag, arms), rhs, unknown, *_mirror_fold(unknown, diag, arms, rhs)


def _red(unknown):
    """The even checkerboard colour of the unknowns, as the masked solve eliminates it."""
    i, j = np.nonzero(unknown)
    return (i + j) % 2 == 0


@_SYSTEM_GRIDS
def test_masked_system_matches_loop_reference(grid, level_fn, boundary_fn):
    A, rhs, g, unknown, pos, cut_edges = _system(grid, level_fn, boundary_fn)
    A0, rhs0, g0, bisected = _loop_masked_system(grid, level_fn, boundary_fn)
    assert A.shape == A0.shape
    assert np.array_equal(A.indptr, A0.indptr) and np.array_equal(A.indices, A0.indices)
    # bit for bit, signed zeros included
    for got, want in ((A.data, A0.data), (rhs, rhs0), (g, g0)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert cut_edges == bisected > 0


@_SYSTEM_GRIDS
def test_masked_system_couples_only_the_two_colours(grid, level_fn, boundary_fn):
    A, _, _, unknown, _, _ = _system(grid, level_fn, boundary_fn)
    red = _red(unknown)
    assert red.any() and not red.all()
    for colour in (red, ~red):
        block = A[colour][:, colour].tocoo()
        assert block.nnz == np.count_nonzero(colour) and np.array_equal(block.row, block.col)


@pytest.mark.parametrize(
    "grid, shape",
    [
        # strip_neck at resolution 16 and the n = 3 sphere preset at resolution 8
        (GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=38, nt=33), _NECK),
        (GridSpec(n=3, s_max=2.2, t_min=-2.2, t_max=2.2, ns=19, nt=37), _SHELL3),
    ],
    ids=["neck-16", "shell-n3-8"],
)
def test_schur_complement_matches_dense_elimination(grid, shape):
    A, _, _, unknown, _, _ = _system(grid, shape.level, shape.u)
    red = _red(unknown)
    S = _schur_complement(A, red)
    dense = A.toarray()
    black = ~red
    expected = dense[np.ix_(black, black)] - dense[np.ix_(black, red)] @ np.linalg.solve(
        dense[np.ix_(red, red)], dense[np.ix_(red, black)]
    )
    assert S.shape == (np.count_nonzero(black),) * 2
    # relative to its largest entry, measured 1.0e-17 (neck) and 6.5e-17 (shell)
    assert np.max(np.abs(S.toarray() - expected)) <= 1e-15 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "n, s_min, level",
    [
        (2, 0.5, lambda s, t: s - (1.1 + 1.0 / 48.0)),
        (2, 0.5, lambda s, t: (0.3 + 1.0 / 48.0) - t + 0.0 * s),
        (3, 0.0, lambda s, t: t - (-0.2 - 1.0 / 40.0) + 0.0 * s),
    ],
    ids=["n2-radial-cut", "n2-axial-cut", "n3-axis-axial-cut"],
)
def test_masked_solve_exact_on_cut_linear_fields(n, s_min, level):
    # Shortley-Weller arms are exact on fields linear along them; each cut
    # sits between grid nodes, so every crossing goes through the bisection
    g = GridSpec(n=n, s_min=s_min, s_max=2.0, t_min=-1.0, t_max=1.0, ns=25, nt=33)
    sol = solve_harmonic_masked(g, level, level)
    s, t = g.axes()
    exact = np.maximum(level(s[:, None], t[None, :]), 0.0)
    assert np.max(np.abs(sol.field.values - exact)) <= 1e-12


def test_masked_factor_holds_at_most_0_6_of_colamd_fill():
    # strip_neck at resolution 64, the smallest masked-refinement rung: the
    # LU_OPTIONS factor of the whole system holds 0.470 of COLAMD's fill, the
    # float32 factor of the black Schur complement on its kept mirror half,
    # which the solve builds, 0.197 (0.403 for both halves)
    neck = StripNeckExact()
    g = GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=148, nt=129)
    sol = solve_harmonic_masked(g, neck.level, neck.u)
    A = _system(g, neck.level, neck.u)[0].tocsc()
    colamd = splu(A, permc_spec="COLAMD").nnz
    assert sol.factors.factorizations == 1
    assert splu(A, **LU_OPTIONS).nnz <= 0.6 * colamd
    assert sol.factors.fill_nnz <= 0.21 * colamd


_EPS = np.finfo(float).eps


def _spy_on_factors(monkeypatch):
    """The (dtype, shape, options) of every matrix the masked solve factors."""
    factored = []

    def spy(A, **kwargs):
        factored.append((A.dtype, A.shape, kwargs))
        return splu(A, **kwargs)

    monkeypatch.setattr(onephase_geometry, "splu", spy)
    return factored


@pytest.mark.parametrize(
    "grid, shape, black",
    [
        # strip_neck at resolution 64 and the n = 3 sphere preset at
        # resolution 32 are even in t on mirror-exact t nodes, so only the
        # black unknowns of their kept halves are factored (of 7,034 and 4,061)
        (GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=148, nt=129), _NECK, 3542),
        (GridSpec(n=3, s_max=2.2, t_min=-2.2, t_max=2.2, ns=71, nt=141), _SHELL3, 2040),
    ],
    ids=["neck-64", "shell-n3-32"],
)
def test_refined_masked_solve_matches_float64_factor(monkeypatch, grid, shape, black):
    factored = _spy_on_factors(monkeypatch)
    sol = solve_harmonic_masked(grid, shape.level, shape.u)
    A, rhs, _, unknown, _, _ = _system(grid, shape.level, shape.u)
    # one float32 factor, of the Schur complement on the black unknowns
    assert factored == [(np.float32, (black, black), LU_OPTIONS)]
    assert sol.factors.order == black
    exact = splu(A.tocsc(), **LU_OPTIONS).solve(rhs)
    assert np.max(np.abs(sol.field.values[unknown] - exact)) <= 1e-12
    assert sol.factors.factorizations == 1
    assert 1 <= sol.factors.refinement_steps <= 10
    assert sol.factors.backward_error <= 6.0 * _EPS


@pytest.mark.parametrize("ns, nt", [(148, 129), (295, 257)], ids=["neck-64", "neck-128"])
def test_mirror_folded_neck_solve_matches_the_whole_float64_factor(ns, nt):
    g = GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=ns, nt=nt)
    sol = solve_harmonic_masked(g, _NECK.level, _NECK.u)
    A, rhs, _, unknown, _, _ = _system(g, _NECK.level, _NECK.u)
    kept = 2 * np.nonzero(unknown)[1] >= nt - 1
    assert sol.factors.order == np.count_nonzero(~_red(unknown) & kept)
    values = sol.field.values
    assert np.array_equal(values, values[:, ::-1])
    x = values[unknown]
    assert np.max(np.abs(x - splu(A.tocsc(), **LU_OPTIONS).solve(rhs))) <= 1e-12
    # the certificate is the whole system's componentwise backward error, of the unfolded unknowns
    omega = float(np.max(np.abs(rhs - A @ x) / (abs(A) @ np.abs(x) + np.abs(rhs))))
    assert sol.factors.backward_error == omega <= 6.0 * _EPS


def test_refinement_leaves_the_folded_matrix_unmerged():
    # scipy's abs(A) sums duplicate entries in place; |A| must leave the
    # mirror pairs _fold keeps apart, or every later product adds them in
    # another order than the unfolded one (measured 7.3e-12 apart)
    g = GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=148, nt=129)
    A, rhs, unknown, kept, fold = _folded_system(g, _NECK.level, _NECK.u)
    Af = _fold(A, kept, fold)
    nnz = Af.nnz
    _refined_solve(Af, rhs[kept], _red(unknown)[kept], LUCounts())
    assert Af.nnz == nnz
    v = np.random.default_rng(0).standard_normal(Af.shape[1])
    assert np.array_equal((Af @ v).view(np.int64), (A @ v[fold])[kept].view(np.int64))


def test_masked_solve_at_128_starts_its_factor_holding_at_most_7_mib(monkeypatch):
    # the strip neck at resolution 128, traced memory held when the float32
    # factor starts: 9.2 MiB while the whole system, its coefficients, the
    # grid values and the fold's column map were held, 4.6 MiB with only the
    # folded system, the kept half of its coefficients, int32 fold indices
    # and the border data (SuperLU's own memory is not traced)
    g = GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=295, nt=257)
    held = []

    def spy(A, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return splu(A, **kwargs)

    monkeypatch.setattr(onephase_geometry, "splu", spy)
    tracemalloc.start()
    try:
        solve_harmonic_masked(g, _NECK.level, _NECK.u)
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] <= 7 * 2**20, f"{held[0] / 2**20:.1f} MiB"


def test_masked_solve_at_128_keeps_its_traced_memory_under_15_mib():
    # the strip neck at resolution 128: the assembly's buffers, then the
    # system, its Schur complement and the refinement's vectors (SuperLU's
    # own memory is not traced): measured 20.4 MiB while the assembly held
    # every arm's indices, masks and weights at once, 13.6 MiB since it
    # gathers the arms one at a time into one buffer
    g = GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=295, nt=257)
    tracemalloc.start()
    try:
        solve_harmonic_masked(g, _NECK.level, _NECK.u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_one_ulp_off_the_mirror_solves_the_whole_system(monkeypatch):
    g, _, data = _off_mirror_data()
    A, rhs, _, unknown, _, _ = _system(g, _NECK.level, data)
    mirror = np.full(unknown.shape, -1)
    mirror[unknown] = np.arange(A.shape[0])
    assert not np.array_equal(rhs[mirror[:, ::-1][unknown]], rhs)
    factored = _spy_on_factors(monkeypatch)
    sol = solve_harmonic_masked(g, _NECK.level, data)
    red = _red(unknown)
    black = np.count_nonzero(~red)
    assert [shape for _, shape, _ in factored] == [(black, black)]
    whole = _refined_solve(A, rhs, red, LUCounts())
    assert np.array_equal(sol.field.values[unknown], whole)


def test_the_certificate_is_the_whole_systems(monkeypatch):
    # a folded matrix 1e-10 off the restriction still refines on its half, but
    # its unfolded solution misses the whole system's backward-error floor
    assemble = onephase_geometry.stencil_matrix

    def off(unknown, diag, arms, fold=None):
        A = assemble(unknown, diag, arms, fold)
        return A if fold is None else A * (1.0 + 1e-10)

    monkeypatch.setattr(onephase_geometry, "stencil_matrix", off)
    g = GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=38, nt=33)
    with pytest.raises(NonconvergenceError, match=r"unfolded masked solve has backward error \d\.\d{3}e-1\d above"):
        solve_harmonic_masked(g, _NECK.level, _NECK.u)


_EVEN_LEVEL = lambda s, t: 7.3 + 0.05 * t * t - s
_EVEN_NT = GridSpec(n=2, s_min=1.0, s_max=9.0, t_min=-7.5, t_max=7.5, ns=9, nt=16)


@pytest.mark.parametrize(
    "grid, level_fn, boundary_fn",
    [
        # the strip neck at resolution 16, a column at t = 0
        (GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=38, nt=33), _NECK.level, _NECK.u),
        # an even column count on exact unit steps: the two middle columns
        # are mirror partners, so each one's inner t arm folds onto itself
        (_EVEN_NT, _EVEN_LEVEL, _EVEN_LEVEL),
    ],
    ids=["neck-16", "even-nt"],
)
def test_mirror_fold_is_the_restriction_to_the_even_subspace(grid, level_fn, boundary_fn):
    A, rhs, unknown, kept, fold = _folded_system(grid, level_fn, boundary_fn)
    m = A.shape[0]
    assert 2 * len(kept) - m == np.count_nonzero(unknown[:, (grid.nt - 1) // 2]) * (grid.nt % 2)
    E = np.zeros((m, len(kept)))
    E[np.arange(m), fold] = 1.0
    dense = A.toarray()
    assert np.array_equal(_fold(A, kept, fold).toarray(), dense[kept] @ E)
    # a rectangular M, its columns on a 7-node axis folded onto the last 4
    M = sp.random(m, 7, density=0.5, format="csr", random_state=0)
    E_7 = np.zeros((7, 4))
    E_7[np.arange(7), np.abs(np.arange(7) - 3)] = 1.0
    assert np.array_equal(_fold(M, kept, np.abs(np.arange(7) - 3)).toarray(), M.toarray()[kept] @ E_7)
    x = E @ np.linalg.solve(dense[kept] @ E, rhs[kept])
    assert np.max(np.abs(x - np.linalg.solve(dense, rhs))) <= 1e-12 * np.max(np.abs(x))


def _matrix_mirror_fold(A, b, unknown):
    """The oracle of ``_mirror_fold``: its (kept, fold) when the assembled
    system is bitwise invariant under the mirror P, P A P^T == A and
    P b == b, and the identity otherwise."""
    number = np.full(unknown.shape, -1)
    number[unknown] = np.arange(A.shape[0])
    mirror = number[:, ::-1][unknown]
    identity = np.arange(A.shape[0])
    if np.any(mirror < 0) or not np.array_equal(b[mirror], b) or (A[mirror][:, mirror] != A).nnz:
        return identity, identity
    return _fold_map(2 * np.nonzero(unknown)[1] >= unknown.shape[1] - 1, mirror)


def _onephase(preset, n, resolution):
    """The exact reference and grid of an ``onephase`` run."""
    cfg = ExperimentConfig(experiment="onephase", onephase_preset=preset, n=n, onephase_resolution=resolution)
    ref, grid, _ = experiments._onephase_case(cfg)
    return ref, grid


def _case(preset, n, resolution):
    """(grid, level_fn, boundary_fn) of an ``onephase`` run, or of ``_EVEN_NT`` for "even-nt"."""
    if preset == "even-nt":
        return _EVEN_NT, _EVEN_LEVEL, _EVEN_LEVEL
    ref, grid = _onephase(preset, n, resolution)
    return grid, ref.level, ref.u


@pytest.mark.parametrize(
    "preset, n, resolution",
    [("strip_neck", 2, r) for r in (16, 48, 64, 128, 256)] + [("sphere", n, r) for n in (2, 3, 5) for r in (16, 64)],
)
def test_the_references_are_bitwise_even_on_the_onephase_grids(preset, n, resolution):
    # onephase evaluates its reference on the t >= 0 columns and mirrors them
    ref, grid = _onephase(preset, n, resolution)
    s, t = grid.axes()
    u = ref.u(s[:, None], t[None, :])
    assert np.array_equal(ref.u(s[:, None], -t[None, :]).view(np.int64), u.view(np.int64))


@pytest.mark.parametrize(
    "preset, n, resolution",
    # the grids the masked solve's fold was first checked on, and an even column count
    [("strip_neck", 2, r) for r in (16, 32, 64, 128, 256)]
    + [("sphere", n, r) for n in (2, 3, 5) for r in (16, 64)]
    + [("even-nt", 2, None)],
)
def test_the_coefficient_mirror_test_matches_the_matrix_oracle(preset, n, resolution):
    A, rhs, unknown, kept, fold = _folded_system(*_case(preset, n, resolution))
    assert len(kept) < A.shape[0]  # it folds
    oracle = _matrix_mirror_fold(A, rhs, unknown)
    assert np.array_equal(kept, oracle[0]) and np.array_equal(fold, oracle[1])


def _bits(a):
    return a.view(np.int64) if a.dtype == np.float64 else a


_FOLDED_GRIDS = pytest.mark.parametrize(
    "preset, n, resolution",
    [("strip_neck", 2, r) for r in (16, 48, 64, 256)]
    + [("sphere", n, r) for n in (2, 3) for r in (33, 64)]
    + [("even-nt", 2, None)],
)


def _folded_coefficients(preset, n, resolution):
    """The masked system's (unknown, diag, arms, rhs, kept, fold) on a grid that folds."""
    diag, arms, rhs, _, unknown, _, _ = _masked_system(*_case(preset, n, resolution))
    kept, fold = _mirror_fold(unknown, diag, arms, rhs)
    assert len(kept) < len(fold)
    return unknown, diag, arms, rhs, kept, fold


@_FOLDED_GRIDS
def test_fold_at_assembly_is_the_fold_of_the_whole_matrix(preset, n, resolution):
    unknown, diag, arms, _, kept, fold = _folded_coefficients(preset, n, resolution)
    want = _fold(stencil_matrix(unknown, diag, arms), kept, fold)
    got = stencil_matrix(unknown, diag[kept], arms[:, kept], (kept, fold))
    assert got.shape == want.shape
    # bit for bit, the mirror pairs left unsummed
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(_bits(a), _bits(b))


@_FOLDED_GRIDS
def test_the_kept_half_unfolds_to_the_whole_coefficients(preset, n, resolution):
    unknown, diag, arms, rhs, kept, fold = _folded_coefficients(preset, n, resolution)
    got = _unfold_system(diag[kept], arms[:, kept], rhs[kept], kept, fold)
    for a, b in zip(got, (diag, arms, rhs)):
        assert np.array_equal(_bits(a), _bits(b))


def _off_mirror_data():
    """A neck grid at resolution 64, its border data one ulp off at one node on the t > 0 side."""
    g = GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=148, nt=129)
    t_off = g.axes()[1][100]  # t = 0.5625

    def data(s, t):
        u = _NECK.u(s, t)
        return np.where((s == g.s_min) & (t == t_off), np.nextafter(u, np.inf), u)

    return g, _NECK.level, data


def _shifted_level():
    """A neck grid at resolution 64, its level set moved by 1e-3 h in t."""
    g = GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=148, nt=129)
    return g, lambda s, t: _NECK.level(s, t - 1e-3 * g.ht), _NECK.u


@pytest.mark.parametrize("case", [_off_mirror_data, _shifted_level], ids=["one-ulp-data", "shifted-level"])
def test_both_mirror_tests_fold_nothing_off_the_mirror(case):
    A, rhs, unknown, kept, fold = _folded_system(*case())
    identity = np.arange(A.shape[0])
    for got in ((kept, fold), _matrix_mirror_fold(A, rhs, unknown)):
        assert np.array_equal(got[0], identity) and np.array_equal(got[1], identity)


def test_both_mirror_tests_see_t_arms_left_unswapped():
    # one node on the t > 0 side with a cut t arm gets its two t arm
    # weights exchanged: the mask, the diagonal, the s arms and rhs stay
    # mirror-invariant, only the t arms no longer swap under the mirror
    g = GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=148, nt=129)
    diag, arms, rhs, _, unknown, _, _ = _masked_system(g, _NECK.level, _NECK.u)
    k = np.flatnonzero((arms[2] != arms[3]) & (2 * np.nonzero(unknown)[1] > g.nt - 1))[0]
    arms[2, k], arms[3, k] = arms[3, k], arms[2, k]
    identity = np.arange(len(rhs))
    A = stencil_matrix(unknown, diag, arms)
    for got in (_mirror_fold(unknown, diag, arms, rhs), _matrix_mirror_fold(A, rhs, unknown)):
        assert np.array_equal(got[0], identity) and np.array_equal(got[1], identity)


def test_refinement_of_an_ill_conditioned_system_raises():
    # condition number 1e9: a float32 factor (unit roundoff 6e-8) cannot refine it
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((40, 40)))
    A = sp.csr_matrix(q @ np.diag(np.logspace(0, -9, 40)) @ q.T)
    factors = LUCounts()
    with pytest.raises(
        NonconvergenceError, match=r"after \d+ steps \(backward error \d\.\d{3}e-\d+, floor 1\.332e-15\)"
    ) as err:
        _refined_solve(A, np.ones(40), np.zeros(40, dtype=bool), factors)  # no red unknowns: S = A
    assert err.value.trace[-1] > 6.0 * _EPS
    assert factors.factorizations == 1 and factors.refinement_steps == 0


def test_crossing_fractions_match_neck_closed_form():
    neck = StripNeckExact()
    g = GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=75, nt=65)
    s, t = g.axes()
    pos = neck.level(s[:, None], t[None, :]) > 0.0
    edges = []
    for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        i, j = np.nonzero(pos[1:-1, 1:-1])
        i, j = i + 1, j + 1
        cut = ~pos[i + di, j + dj]
        edges.append((s[i[cut]], t[j[cut]], s[i[cut] + di], t[j[cut] + dj]))
    s0, t0, s1, t1 = (np.concatenate(x) for x in zip(*edges))
    theta = crossing_fractions(neck.level, s0, t0, s1, t1)
    assert len(theta) > 50 and np.any(t0 != t1) and np.any(s0 != s1)
    sc, tc = s0 + theta * (s1 - s0), t0 + theta * (t1 - t0)
    assert np.max(np.abs(sc - (math.pi / 2.0 + np.cosh(tc)))) <= 1e-14


def test_boundary_csv_bytes_match_per_row_format(tmp_path):
    tg = np.linspace(-0.6, 0.6, 7)
    b = curvature_of_revolution(StripNeckExact().boundary_generator(tg), n=2)
    b.save_csv(tmp_path / "b.csv")
    rows = "".join(
        f"{b.t[k]:.17g},{b.s[k]:.17g},{b.mean_curv[k]:.17g},{b.normals[k, 0]:.17g},{b.normals[k, 1]:.17g}\n"
        for k in range(len(tg))
    )
    assert (tmp_path / "b.csv").read_bytes() == ("t,s,H,nu_s,nu_t\n" + rows).encode()


def test_masked_solve_second_order_strip_neck():
    neck = StripNeckExact()
    errs = []
    for h_inv in (32, 64):
        g = GridSpec(
            n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0,
            ns=int(2.3 * h_inv) + 1, nt=2 * h_inv + 1,
        )
        sol = solve_harmonic_masked(g, neck.level, neck.u)
        s, t = g.axes()
        errs.append(np.max(np.abs(sol.field.values - neck.u(s[:, None], t[None, :]))))
        assert sol.residual < 1e-9
    assert errs[0] / errs[1] > 3.4


def test_masked_solve_second_order_sphere():
    shell = SphereShellExact(n=3, r0=1.0)
    errs = []
    for h_inv in (32, 64):
        ext = 2.0
        g = GridSpec(
            n=3, s_max=ext, t_min=-ext, t_max=ext,
            ns=int(ext * h_inv) + 1, nt=2 * int(ext * h_inv) + 1,
        )
        sol = solve_harmonic_masked(g, shell.level, shell.u)
        s, t = g.axes()
        errs.append(np.max(np.abs(sol.field.values - shell.u(s[:, None], t[None, :]))))
    assert errs[0] / errs[1] > 3.0


# ---------------------------------------------------------------- boundary identity


def _ramp_field(n=3, slope=1.0):
    g = GridSpec(n=n, s_max=2.0, t_min=-1.0, t_max=1.0, ns=65, nt=65)
    f = from_function(g, lambda s, t: np.maximum(0.0, slope * t))
    tau = np.linspace(0.2, 1.8, 33)
    gen = Generator(
        s=tau.copy(), t=np.zeros_like(tau),
        ds=np.ones_like(tau), dt=np.zeros_like(tau),
        dss=np.zeros_like(tau), dtt=np.zeros_like(tau),
    )
    boundary = curvature_of_revolution(gen, n=n)
    return f, boundary


def test_identity_trivial_on_flat_interface():
    f, boundary = _ramp_field()
    assert np.max(np.abs(boundary.mean_curv)) < 1e-12
    rep = normal_derivative_identity(boundary, f)
    assert rep.max_defect < 1e-12
    assert np.max(np.abs(rep.lhs)) < 1e-12
    assert np.max(np.abs(rep.rhs)) < 1e-12


def test_identity_precondition_rejects_wrong_gradient():
    f, boundary = _ramp_field(slope=2.0)
    with pytest.raises(PreconditionViolationError):
        normal_derivative_identity(boundary, f)


def test_identity_rejects_displaced_boundary():
    neck = StripNeckExact()
    g = GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=149, nt=129)
    sol = solve_harmonic_masked(g, neck.level, neck.u)
    tg = np.linspace(-0.7, 0.7, 41)
    displaced = graph_generator(tg, neck_generator_s(tg) - 0.2, np.sinh(tg), np.cosh(tg))
    boundary = curvature_of_revolution(displaced, n=2)
    with pytest.raises(GeometryMismatchError):
        normal_derivative_identity(boundary, sol.field)


def test_identity_first_order_on_solved_neck():
    neck = StripNeckExact()
    defects = []
    for h_inv in (32, 64):
        g = GridSpec(
            n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0,
            ns=int(2.3 * h_inv) + 1, nt=2 * h_inv + 1,
        )
        sol = solve_harmonic_masked(g, neck.level, neck.u)
        tg = np.linspace(-0.75, 0.75, 101)
        boundary = curvature_of_revolution(neck.boundary_generator(tg), n=2)
        defects.append(normal_derivative_identity(boundary, sol.field).max_defect)
    assert defects[0] / defects[1] > 1.5


@pytest.fixture(scope="module")
def neck64():
    """The resolution-64 strip_neck solve of the ``onephase`` preset, its
    reference and the preset's probe xi with its border zeroed."""
    cfg = ExperimentConfig(experiment="onephase", onephase_preset="strip_neck", onephase_resolution=64)
    neck, grid, _ = experiments._onephase_case(cfg)
    sol = solve_harmonic_masked(grid, neck.level, neck.u)
    xi_vals = probe_inequality(sol.field, experiments._probe(cfg)).xi.values.copy()
    xi_vals[[0, -1], :] = xi_vals[:, [0, -1]] = 0.0
    return neck, sol.field, sol.field.with_values(xi_vals)


def _gauge_reads_defined(field, boundary):
    """Samples whose identity reads are all defined, judged on the axes: the
    interface point on the grid, and the points 2.5h, 4h and 5.5h inward in
    cells clear of the border ring where centered differences are undefined
    (a point on a cell's lower edge takes the cell above it)."""
    s, t = field.s, field.t
    h = max(field.hs, field.ht)
    p0 = np.stack((boundary.s, boundary.t), axis=1)
    ok = (p0[:, 0] >= s[0]) & (p0[:, 0] <= s[-1]) & (p0[:, 1] >= t[0]) & (p0[:, 1] <= t[-1])
    for d in (2.5 * h, 4.0 * h, 5.5 * h):
        p = p0 - d * boundary.normals
        ok &= (p[:, 0] >= s[1]) & (p[:, 0] < s[-2]) & (p[:, 1] >= t[1]) & (p[:, 1] < t[-2])
    return ok


@pytest.mark.parametrize("reach, kept", [(0.99, 93), (0.95, 97)])
def test_identity_keeps_exactly_the_samples_whose_reads_are_defined(neck64, reach, kept):
    # near the box's top and bottom the |grad u| gauge's 5.5h point leaves
    # the grid, or its cell touches the ring where the centered gradient is
    # undefined; reading zeros there raised a 1.73 gauge deviation
    neck, field, _ = neck64
    gen = neck.boundary_generator(np.linspace(-reach, reach, 101))
    rep = normal_derivative_identity(curvature_of_revolution(gen, n=2), field)
    assert len(rep.lhs) == kept
    assert rep.gradient_defect < 1e-3
    keep = _gauge_reads_defined(field, curvature_of_revolution(gen, n=2))
    assert np.count_nonzero(keep) == kept
    sub = Generator(*(v[keep] for v in (gen.s, gen.t, gen.ds, gen.dt, gen.dss, gen.dtt)))
    alone = normal_derivative_identity(curvature_of_revolution(sub, n=2), field)
    assert np.array_equal(alone.lhs, rep.lhs) and np.array_equal(alone.rhs, rep.rhs)
    assert alone.gradient_defect == rep.gradient_defect


# ---------------------------------------------------------------- stability form


def test_interface_form_trivial_cases():
    f, boundary = _ramp_field()
    zero = f.with_values(np.zeros_like(f.values))
    rep = onephase_stability_form(boundary, f, zero)
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    s, t = f.s, f.t
    bump = (
        np.sin(math.pi * s / 2.0)[:, None] ** 2 * np.sin(math.pi * (t + 1.0) / 2.0)[None, :] ** 2
    )
    rep2 = onephase_stability_form(boundary, f, f.with_values(bump))
    assert rep2.lhs == 0.0  # flat interface
    assert rep2.rhs > 0.0
    assert rep2.verdict == "stable-on-grid"


def test_interface_form_rejects_trace_stencils_off_the_grid(neck64):
    # over t in [-0.99, 0.99] the neck generator comes within 4h of the box's
    # top and bottom: four samples would read an extrapolated xi (lhs 0.3912
    # against 0.3735 over [-0.75, 0.75]), so the integral refuses them; over
    # [-0.95, 0.95] every read of xi is on the grid
    neck, field, xi = neck64
    for reach in (0.75, 0.95):
        gen = neck.boundary_generator(np.linspace(-reach, reach, 101))
        assert onephase_stability_form(curvature_of_revolution(gen, n=2), field, xi).lhs > 0.0
    wide = curvature_of_revolution(neck.boundary_generator(np.linspace(-0.99, 0.99, 101)), n=2)
    with pytest.raises(InvalidParameterError, match="^4 interface samples have their trace stencil off the grid$"):
        onephase_stability_form(wide, field, xi)


def test_interface_form_rejects_a_boundary_of_another_dimension(neck64):
    neck, field, xi = neck64
    boundary = curvature_of_revolution(neck.boundary_generator(np.linspace(-0.75, 0.75, 101)), n=3)
    zero = field.with_values(np.zeros_like(field.values))
    for test_function in (zero, xi):
        with pytest.raises(InvalidParameterError, match="dimensions differ"):
            onephase_stability_form(boundary, field, test_function)


@pytest.mark.parametrize("check", ["normal_derivative_identity", "onephase_stability_form"])
def test_the_one_phase_checks_refuse_a_field_that_is_not_finite(neck64, check):
    # values > 0 read the NaN node as zero phase and the two-cell erosion cut
    # a hole around it: the identity reported the clean field's max_defect
    # 0.0911 and the form a finite verdict
    neck, field, xi = neck64
    boundary = curvature_of_revolution(neck.boundary_generator(np.linspace(-0.75, 0.75, 101)), n=2)
    values = field.values.copy()
    values[40, 64] = np.nan
    broken = field.with_values(values)
    evaluate = {
        "normal_derivative_identity": lambda: normal_derivative_identity(boundary, broken),
        "onephase_stability_form": lambda: onephase_stability_form(boundary, broken, xi),
    }[check]
    with pytest.raises(InvalidParameterError, match="^field must be finite$"):
        evaluate()


@pytest.mark.parametrize("form", ["quadratic_form", "onephase_stability_form"])
@pytest.mark.parametrize("edge", ["outer", "bottom", "top"])
@pytest.mark.parametrize("factor, rejected", [(1.1, True), (0.9, False)])
def test_test_function_must_vanish_on_the_outer_boundary(beta, form, edge, factor, rejected):
    f, boundary = _ramp_field()
    s, t = f.s, f.t
    bump = np.sin(math.pi * s / 2.0)[:, None] ** 2 * np.sin(math.pi * (t + 1.0) / 2.0)[None, :] ** 2
    # both forms' threshold is BORDER_TOL * (1 + max|xi|); the bump peaks at 1
    value = factor * BORDER_TOL * (1.0 + np.max(np.abs(bump)))
    where = {"outer": (-1, slice(1, -1)), "bottom": (slice(1, -1), 0), "top": (slice(1, -1), -1)}[edge]
    bump[where] = value
    xi = f.with_values(bump)
    evaluate = {
        "quadratic_form": lambda: quadratic_form(f, xi, beta),
        "onephase_stability_form": lambda: onephase_stability_form(boundary, f, xi),
    }[form]
    if rejected:
        with pytest.raises(InvalidParameterError, match="vanish on the outer boundary"):
            evaluate()
    else:
        evaluate()


@pytest.mark.parametrize("form", ["quadratic_form", "onephase_stability_form"])
@pytest.mark.parametrize("nan_at", [(-1, 3), (20, 20)])
def test_test_function_must_be_finite(beta, form, nan_at):
    # a NaN on the border compares false against the threshold; a NaN inside
    # makes the threshold NaN, which would let the border value 1 through
    f, boundary = _ramp_field()
    s, t = f.s, f.t
    bump = np.sin(math.pi * s / 2.0)[:, None] ** 2 * np.sin(math.pi * (t + 1.0) / 2.0)[None, :] ** 2
    bump[nan_at] = np.nan
    if nan_at != (-1, 3):
        bump[-1, 3] = 1.0
    xi = f.with_values(bump)
    evaluate = {
        "quadratic_form": lambda: quadratic_form(f, xi, beta),
        "onephase_stability_form": lambda: onephase_stability_form(boundary, f, xi),
    }[form]
    with pytest.raises(InvalidParameterError, match="must be finite"):
        evaluate()


def test_test_function_may_be_nonzero_on_the_axis(beta):
    f, boundary = _ramp_field()
    s, t = f.s, f.t
    xi = f.with_values((1.0 - (s / 2.0) ** 2)[:, None] * np.sin(math.pi * (t + 1.0) / 2.0)[None, :] ** 2)
    assert f.has_axis and np.max(xi.values[0]) == 1.0
    quadratic_form(f, xi, beta)
    onephase_stability_form(boundary, f, xi)


def _sphere_dual_path(n, r0, alpha, R, eps_inner, n_r_panels=120, n_th=28):
    """Both defects of the interface form with xi = u_s * eta, by panel quadrature."""
    from onephase_lab.numerics import gl5_points

    cn = unit_sphere_area(n - 2)
    edges_r = np.concatenate(
        (np.linspace(r0, R, n_r_panels + 1), np.linspace(R, 2 * R, n_r_panels + 1)[1:])
    )
    r_nodes, w_r = gl5_points(edges_r)
    th1 = np.arcsin(np.minimum(eps_inner / r_nodes, 1.0))
    cap_edges = th1[:, None] * np.linspace(0.0, 1.0, 9)[None, :]
    gfrac = np.concatenate(([0.0], np.geomspace(1e-3, 1.0, n_th)))
    up_edges = th1[:, None] + (math.pi / 2 - th1)[:, None] * gfrac[None, :]
    lower = np.concatenate((cap_edges, up_edges[:, 1:]), axis=1)
    edges_th = np.concatenate((lower, (math.pi - lower[:, ::-1])[:, 1:]), axis=1)
    th, w_th = (np.array(rows) for rows in zip(*(gl5_points(edges) for edges in edges_th)))

    r = r_nodes[:, None]
    s = r * np.sin(th)
    t = r * np.cos(th)
    meas = cn * np.sin(th) ** (n - 2) * r ** (n - 2) * r * (w_r[:, None] * w_th)

    up = r0 ** (n - 1) * r ** (1 - n)
    upp = (1 - n) * r0 ** (n - 1) * r ** (-n)
    A = up / r
    Ap = upp / r - up / r**2
    us = A * s

    x = (r - R) / R
    rho = 1.0 - smoothstep_quintic(x)
    drho = -smoothstep_quintic_deriv(x) / R
    capped = s <= eps_inner
    f = np.where(capped, eps_inner ** (-alpha), np.maximum(s, 1e-300) ** (-alpha))
    fp = np.where(capped, 0.0, -alpha * np.maximum(s, 1e-300) ** (-alpha - 1.0))
    eta = f * rho

    grad_eta_sq = (fp * rho + f * drho * s / r) ** 2 + (f * drho * t / r) ** 2
    lhs_bulk = (n - 2) * np.sum(us**2 * eta**2 / np.maximum(s, 1e-300) ** 2 * meas)
    rhs_bulk = np.sum(us**2 * grad_eta_sq * meas)

    xi_s = (Ap * s / r) * s * f * rho + A * f * rho + A * s * fp * rho + A * s * f * drho * s / r
    xi_t = (Ap * t / r) * s * f * rho + A * s * f * drho * t / r
    rhs_surf = np.sum((xi_s**2 + xi_t**2) * meas)

    H = (n - 1) / r0
    th_s = math.asin(min(eps_inner / r0, 1.0))
    low_e = np.concatenate(
        (th_s * np.linspace(0, 1, 9), (th_s + (math.pi / 2 - th_s) * gfrac)[1:])
    )
    all_e = np.concatenate((low_e, (math.pi - low_e[::-1])[1:]))
    thb, wb = gl5_points(all_e)
    sb = r0 * np.sin(thb)
    fb = np.where(sb <= eps_inner, eps_inner ** (-alpha), sb ** (-alpha))
    xib = (1.0 / r0) * sb * fb
    dsig = cn * sb ** (n - 2) * r0 * wb
    lhs_surf = np.sum(H * xib**2 * dsig)
    return rhs_surf - lhs_surf, rhs_bulk - lhs_bulk


@pytest.mark.parametrize("n,alpha", [(3, 0.7), (4, 1.2), (5, 1.6)])
def test_dual_path_agreement_semi_analytic(n, alpha):
    # the interface form with xi = u_s eta equals the bulk radial inequality
    # form exactly; both sides evaluated by independent panel quadrature
    d_surf, d_bulk = _sphere_dual_path(n, 1.0, alpha, 3.0, 0.3)
    assert abs(d_surf - d_bulk) < 1e-6
    assert d_surf < 0.0  # the shell is unstable against the radial probe


def test_dual_path_agreement_on_grid():
    # grid operators: interface form vs bulk probe on the solved shell field;
    # the two independent discrete pipelines converge to the same (exact,
    # semi-analytic) defect, the gap shrinking at first order
    n, alpha, R, eps_inner = 3, 0.7, 1.05, 0.3
    shell = SphereShellExact(n=n, r0=1.0)
    ext = 2.2
    _, d_exact = _sphere_dual_path(n, 1.0, alpha, R, eps_inner)
    from onephase_lab.stability import _eta_and_gradsq, _rays

    gaps, bulk_errors = [], []
    for ns, nt in ((177, 353), (353, 705)):
        g = GridSpec(n=n, s_max=ext, t_min=-ext, t_max=ext, ns=ns, nt=nt)
        sol = solve_harmonic_masked(g, shell.level, shell.u)
        boundary = curvature_of_revolution(shell.boundary_generator(513), n=n)
        probe = StabilityProbe(alpha=alpha, R=R, eps_inner=eps_inner)
        eta, _ = _eta_and_gradsq(probe, sol.field, _rays(sol.field))
        xi_vals = us_derivative(sol.field).values * eta
        xi_vals[0, :] = xi_vals[-1, :] = 0.0
        xi_vals[:, 0] = xi_vals[:, -1] = 0.0
        xi = sol.field.with_values(xi_vals)
        form = onephase_stability_form(boundary, sol.field, xi)
        bulk = probe_inequality(sol.field, probe)
        bulk_defect = bulk.defect
        gaps.append(abs(form.defect - bulk_defect))
        bulk_errors.append(abs(bulk_defect - d_exact))
        # this tight cutoff does not certify instability: both paths agree
        assert bulk_defect > 0.0
    assert bulk_errors[0] < 0.02 * abs(d_exact)
    assert bulk_errors[1] < 0.01 * abs(d_exact)
    assert gaps[1] < 0.6 * gaps[0]
    assert gaps[1] < 0.25 * abs(d_exact)


# ---------------------------------------------------------------- gradient identity


def test_gradient_identity_exact_on_quadratics():
    g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=33, nt=33)
    f = from_function(g, lambda s, t: s**2 + t**2)
    assert np.nanmax(np.abs(gradient_magnitude_identity(f).values)) == 0.0


def test_gradient_identity_zero_for_axial_fields():
    g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=17)
    f = from_function(g, lambda s, t: np.sin(t) + 0.0 * s)
    assert np.nanmax(np.abs(gradient_magnitude_identity(f).values)) < 1e-14


def test_gradient_identity_second_order():
    errs = []
    for ns in (33, 65, 129):
        g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=ns, nt=ns)
        f = from_function(g, lambda s, t: np.exp(-(s**2)) * np.sin(2 * t) + s**3 * t)
        errs.append(np.nanmax(np.abs(gradient_magnitude_identity(f).values)))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) >= 1.9


# ---------------------------------------------------------------- extraction


def test_extract_graph_boundary_tracks_generator():
    neck = StripNeckExact()
    g = GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=149, nt=129)
    sol = solve_harmonic_masked(g, neck.level, neck.u)
    ts, ss = extract_graph_boundary(sol.field)
    keep = np.abs(ts) <= 0.75
    expected = neck_generator_s(ts[keep])
    assert np.max(np.abs(ss[keep] - expected)) < 2.5 * g.hs
