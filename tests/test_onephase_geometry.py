import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from hypothesis import given, settings
from hypothesis import strategies as st

from onephase_lab import onephase_geometry, reference
from onephase_lab.axisym_field import GridSpec
from onephase_lab.errors import (
    CurvatureSingularityError,
    GeometryMismatchError,
    InvalidParameterError,
    NonconvergenceError,
    PreconditionViolationError,
)
from onephase_lab.numerics import LU_OPTIONS, LUCounts, smoothstep_quintic, smoothstep_quintic_deriv, unit_sphere_area
from onephase_lab.onephase_geometry import (
    Generator,
    _fold,
    _masked_system,
    _mirror_fold,
    _refined_solve,
    _schur_complement,
    crossing_fractions,
    curvature_of_revolution,
    normal_derivative_identity,
    onephase_stability_form,
    solve_harmonic_masked,
    surface_integral,
)
from onephase_lab.reference import SphereShellExact, StripNeckExact
from onephase_lab.stability import StabilityProbe, probe_inequality, quadratic_form, us_derivative

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
    reference of the vectorized assembly: returns (A, rhs, border data)."""
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

    def theta(i0, j0, i1, j1):
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
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m)), rhs, g


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


def _red(unknown):
    """The even checkerboard colour of the unknowns, as the masked solve eliminates it."""
    i, j = np.nonzero(unknown)
    return (i + j) % 2 == 0


@_SYSTEM_GRIDS
def test_masked_system_matches_loop_reference(grid, level_fn, boundary_fn):
    A, rhs, g, unknown, pos = _masked_system(grid, level_fn, boundary_fn)
    A0, rhs0, g0 = _loop_masked_system(grid, level_fn, boundary_fn)
    assert A.shape == A0.shape
    assert np.array_equal(A.indptr, A0.indptr) and np.array_equal(A.indices, A0.indices)
    assert np.array_equal(A.data, A0.data)
    assert np.array_equal(rhs, rhs0)
    assert np.array_equal(g, g0)


@_SYSTEM_GRIDS
def test_masked_system_couples_only_the_two_colours(grid, level_fn, boundary_fn):
    A, _, _, unknown, _ = _masked_system(grid, level_fn, boundary_fn)
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
    A, _, _, unknown, _ = _masked_system(grid, shape.level, shape.u)
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
    A = _masked_system(g, neck.level, neck.u)[0].tocsc()
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
    A, rhs, _, unknown, _ = _masked_system(grid, shape.level, shape.u)
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
    A, rhs, _, unknown, _ = _masked_system(g, _NECK.level, _NECK.u)
    kept = 2 * np.nonzero(unknown)[1] >= nt - 1
    assert sol.factors.order == np.count_nonzero(~_red(unknown) & kept)
    values = sol.field.values
    assert np.array_equal(values, values[:, ::-1])
    x = values[unknown]
    assert np.max(np.abs(x - splu(A.tocsc(), **LU_OPTIONS).solve(rhs))) <= 1e-12
    # the certificate is the whole system's componentwise backward error, of the unfolded unknowns
    omega = float(np.max(np.abs(rhs - A @ x) / (abs(A) @ np.abs(x) + np.abs(rhs))))
    assert sol.factors.backward_error == omega <= 6.0 * _EPS


def test_one_ulp_off_the_mirror_solves_the_whole_system(monkeypatch):
    g = GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=148, nt=129)
    t_off = g.axes()[1][100]  # t = 0.5625: one border node, on the t > 0 side only

    def data(s, t):
        u = _NECK.u(s, t)
        return np.where((s == g.s_min) & (t == t_off), np.nextafter(u, np.inf), u)

    A, rhs, _, unknown, _ = _masked_system(g, _NECK.level, data)
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
    fold = onephase_geometry._fold
    monkeypatch.setattr(onephase_geometry, "_fold", lambda A, kept, f: fold(A, kept, f) * (1.0 + 1e-10))
    g = GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=38, nt=33)
    with pytest.raises(NonconvergenceError, match=r"unfolded masked solve has backward error \d\.\d{3}e-1\d above"):
        solve_harmonic_masked(g, _NECK.level, _NECK.u)


_EVEN_LEVEL = lambda s, t: 7.3 + 0.05 * t * t - s


@pytest.mark.parametrize(
    "grid, level_fn, boundary_fn",
    [
        # the strip neck at resolution 16, a column at t = 0
        (GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=38, nt=33), _NECK.level, _NECK.u),
        # an even column count on exact unit steps: the two middle columns
        # are mirror partners, so each one's inner t arm folds onto itself
        (GridSpec(n=2, s_min=1.0, s_max=9.0, t_min=-7.5, t_max=7.5, ns=9, nt=16), _EVEN_LEVEL, _EVEN_LEVEL),
    ],
    ids=["neck-16", "even-nt"],
)
def test_mirror_fold_is_the_restriction_to_the_even_subspace(grid, level_fn, boundary_fn):
    A, rhs, _, unknown, _ = _masked_system(grid, level_fn, boundary_fn)
    kept, fold = _mirror_fold(A, rhs, unknown)
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


@pytest.mark.parametrize("form, rel", [("quadratic_form", 1e-13), ("onephase_stability_form", 1e-12)])
@pytest.mark.parametrize("edge", ["outer", "bottom", "top"])
@pytest.mark.parametrize("factor, rejected", [(1.1, True), (0.9, False)])
def test_test_function_must_vanish_on_the_outer_boundary(beta, form, rel, edge, factor, rejected):
    f, boundary = _ramp_field()
    s, t = f.s, f.t
    bump = np.sin(math.pi * s / 2.0)[:, None] ** 2 * np.sin(math.pi * (t + 1.0) / 2.0)[None, :] ** 2
    # each form's threshold is rel * (1 + max|xi|); the bump peaks at 1
    value = factor * rel * (1.0 + np.max(np.abs(bump)))
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
    from onephase_lab.reaction_terms import make_polynomial_beta
    from onephase_lab.stability import _eta_and_gradsq

    gaps, bulk_errors = [], []
    for ns, nt in ((177, 353), (353, 705)):
        g = GridSpec(n=n, s_max=ext, t_min=-ext, t_max=ext, ns=ns, nt=nt)
        sol = solve_harmonic_masked(g, shell.level, shell.u)
        boundary = curvature_of_revolution(shell.boundary_generator(513), n=n)
        probe = StabilityProbe(alpha=alpha, R=R, eps_inner=eps_inner)
        eta, _ = _eta_and_gradsq(probe, sol.field)
        xi_vals = us_derivative(sol.field).values * eta
        xi_vals[0, :] = xi_vals[-1, :] = 0.0
        xi_vals[:, 0] = xi_vals[:, -1] = 0.0
        xi = sol.field.with_values(xi_vals)
        form = onephase_stability_form(boundary, sol.field, xi)
        bulk = probe_inequality(sol.field, probe, make_polynomial_beta())
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
