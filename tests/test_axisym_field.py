import itertools
import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from onephase_lab.axisym_field import (
    AxiField,
    GridSpec,
    _assemble_laplacian,
    apply_axisym_laplacian,
    blow_down,
    energy,
    lipschitz_monitor,
    max_principle_defect,
    residual_semilinear,
    solve_semilinear,
    solve_semilinear_1d,
)
from onephase_lab.config import ExperimentConfig
from onephase_lab.errors import (
    DomainError,
    InvalidParameterError,
    NonconvergenceError,
)
from onephase_lab.experiments import boundary_data
from onephase_lab.numerics import LU_ORDER
from onephase_lab.profile1d import extend_to_nd, unique_increasing_profile
from onephase_lab.reaction_terms import make_polynomial_beta, make_tabulated_term


def zero_term():
    return make_tabulated_term(np.linspace(0, 1, 9), np.zeros(9), name="zero")


def test_laplacian_kills_linear_fields():
    g = GridSpec(n=4, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=17)
    f = AxiField.from_function(g, lambda s, t: t)
    assert np.nanmax(np.abs(apply_axisym_laplacian(f).values)) < 1e-13


def test_laplacian_exact_on_radial_quadratic():
    g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=21, nt=21)
    f = AxiField.from_function(g, lambda s, t: s**2 + 0.0 * t)
    assert np.nanmax(np.abs(apply_axisym_laplacian(f).values - 4.0)) < 1e-11


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_laplacian_full_quadratic_gives_2n(n):
    g = GridSpec(n=n, s_max=1.0, t_min=-1.0, t_max=1.0, ns=21, nt=21)
    f = AxiField.from_function(g, lambda s, t: s**2 + t**2)
    assert np.nanmax(np.abs(apply_axisym_laplacian(f).values - 2.0 * n)) < 1e-10


def test_laplacian_convergence_rate():
    def exact(s, t):
        return np.exp(-(s**2)) * np.sin(t)

    def exact_lap(s, t, n):
        return (4 * s**2 - 2 - 2 * (n - 2) - 1) * np.exp(-(s**2)) * np.sin(t)

    errs = []
    for ns in (33, 65, 129):
        g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=ns, nt=ns)
        f = AxiField.from_function(g, exact)
        s, t = g.axes()
        err = apply_axisym_laplacian(f).values - exact_lap(s[:, None], t[None, :], 3)
        errs.append(np.nanmax(np.abs(err)))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) >= 1.9


def test_solve_reproduces_harmonic_data_exactly():
    g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=17)
    res = solve_semilinear(zero_term(), g, lambda s, t: 0.0 * s + t, tol=1e-12)
    f_expected = AxiField.from_function(g, lambda s, t: 0.0 * s + t)
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
    res2d = solve_semilinear(beta, g, tiled, tol=1e-12)
    assert np.max(np.abs(res2d.field.values - tiled.values)) < 1e-6

    helper = solve_semilinear_1d(beta, g.t_min, g.t_max, g.nt, left, right, init=layer_profile.sample(t))
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


def test_1d_nonconvergence_carries_sup_residual_trace(beta, layer_profile):
    left, right = float(layer_profile.sample(-3.0)), float(layer_profile.sample(3.0))
    with pytest.raises(NonconvergenceError) as err:
        solve_semilinear_1d(beta, -3.0, 3.0, 65, left, right, max_iter=2)
    trace = err.value.trace
    assert len(trace) == 3 and trace[-1] > 1e-12
    assert _last_sup_residual(str(err.value)) == float(f"{trace[-1]:.3e}")
    # the trace holds sup norms: its first entry is the residual of the linear start
    t = np.linspace(-3.0, 3.0, 65)
    v = left + (right - left) * (t + 3.0) / 6.0
    lap = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (t[1] - t[0]) ** 2
    assert trace[0] == pytest.approx(np.max(np.abs(lap - 0.5 * beta.eval(v[1:-1]))), rel=1e-12)


def test_newton_factors_hold_at_most_0_6_of_colamd_fill(beta):
    # the 129^2 catenoid neck of the benchmark; measured 0.504
    g = GridSpec(n=3, s_max=3.0, t_min=-1.5, t_max=1.5, ns=129, nt=129)
    data = boundary_data(ExperimentConfig(boundary_model="catenoid"), beta)
    res = solve_semilinear(beta, g, data)
    L, _, mask = _assemble_laplacian(g)
    s, t = g.axes()
    vec = data(s[:, None], t[None, :])[mask]
    J = (L - sp.diags(0.5 * beta.deriv(vec))).tocsc()
    colamd = splu(J, permc_spec="COLAMD").nnz
    assert res.factors.factorizations == res.iterations
    assert splu(J, permc_spec=LU_ORDER).nnz <= 0.6 * colamd
    assert res.factors.fill_nnz <= 0.6 * colamd


def test_energy_piecewise_affine_exact():
    g = GridSpec(n=2, s_max=1.0, t_min=-1.0, t_max=1.0, ns=33, nt=65)
    f = AxiField.from_function(g, lambda s, t: np.maximum(0.0, t))
    eb = energy(f, one_phase=True, weighted=False)
    assert eb.dirichlet == 1.0
    assert eb.potential == 1.0
    assert eb.total == 2.0


def test_energy_zero_field():
    g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=17)
    f = AxiField.from_function(g, lambda s, t: 0.0 * s)
    eb = energy(f, one_phase=True, weighted=True)
    assert eb.total == 0.0


def test_energy_weight_flag_is_sphere_area_factor():
    # in the plane the cylindrical weight is the constant |S^0| = 2
    g = GridSpec(n=2, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=33)
    f = AxiField.from_function(g, lambda s, t: np.sin(s) * t + 0.2 * t**2)
    flat = energy(f, one_phase=True, weighted=False)
    weighted = energy(f, one_phase=True, weighted=True)
    assert abs(weighted.total - 2.0 * flat.total) < 1e-12


def test_energy_argument_validation(beta):
    g = GridSpec(n=2, s_max=1.0, t_min=-1.0, t_max=1.0, ns=9, nt=9)
    f = AxiField.from_function(g, lambda s, t: 0.0 * s)
    with pytest.raises(InvalidParameterError):
        energy(f)
    with pytest.raises(InvalidParameterError):
        energy(f, beta=beta, one_phase=True, epsilon=1.0)
    with pytest.raises(InvalidParameterError):
        energy(f, beta=beta)  # epsilon required


def test_blow_down_identity_is_bitwise(beta):
    g = GridSpec(n=2, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=17)
    f = AxiField.from_function(g, lambda s, t: np.maximum(0.0, t))
    bd = blow_down(f, 1.0)
    assert np.array_equal(bd.field.values, f.values)
    assert np.array_equal(bd.field.s, f.s)


def test_blow_down_linear_field_invariant():
    g = GridSpec(n=2, s_max=4.0, t_min=-4.0, t_max=4.0, ns=33, nt=33)
    f = AxiField.from_function(g, lambda s, t: 1.3 * t + 0.0 * s)
    target = GridSpec(n=2, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=17)
    bd = blow_down(f, 0.25, target=target)
    assert np.max(np.abs(bd.field.values - 1.3 * bd.field.t[None, :])) < 1e-13


def test_blow_down_out_of_domain_raises():
    g = GridSpec(n=2, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=17)
    f = AxiField.from_function(g, lambda s, t: 0.0 * s)
    with pytest.raises(DomainError):
        blow_down(f, 0.5, target=g)  # needs source twice as large


def test_blow_down_rejects_bad_epsilon():
    g = GridSpec(n=2, s_max=1.0, t_min=-1.0, t_max=1.0, ns=9, nt=9)
    f = AxiField.from_function(g, lambda s, t: 0.0 * s)
    with pytest.raises(InvalidParameterError):
        blow_down(f, 0.0)


def test_blow_down_layer_family_approaches_ramp(beta):
    prof = unique_increasing_profile(beta, u_lo=1e-6, u_hi=20.0, n_samples=20001)
    big = GridSpec(n=2, s_max=8.0, t_min=-20.0, t_max=20.0, ns=3, nt=40001)
    src = extend_to_nd(prof, (0.0, 1.0), big)
    target = GridSpec(n=2, s_max=1.0, t_min=-2.0, t_max=2.0, ns=3, nt=2049)
    sups = []
    for eps in (1.0, 0.5, 0.25):
        bd = blow_down(src, eps, beta=beta, target=target)
        ramp = np.maximum(0.0, bd.field.t)[None, :]
        sups.append(np.max(np.abs(bd.field.values - ramp)))
        assert bd.residual is not None
    assert sups[2] < sups[1] < sups[0]


def test_lipschitz_monitor_on_ramp():
    g = GridSpec(n=2, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=65)
    f = AxiField.from_function(g, lambda s, t: np.maximum(0.0, t))
    assert abs(lipschitz_monitor(f) - 1.0) <= g.ht


def test_lipschitz_monitor_on_layer_attained_above_one(beta, layer_profile):
    g = GridSpec(n=3, s_max=2.0, t_min=-3.0, t_max=3.0, ns=65, nt=129)
    f = extend_to_nd(layer_profile, (0.0, 1.0), g)
    sup = lipschitz_monitor(f)
    assert abs(sup - 1.0) < 5e-3
    # centered gradient equals 1 to round-off on the affine region u >= 1
    gt = (f.values[0, 2:] - f.values[0, :-2]) / (2 * g.ht)
    above = f.values[0, 1:-1] >= 1.0 + g.ht
    assert np.max(np.abs(gt[above] - 1.0)) < 1e-11


def test_monitor_invariant_under_blow_down():
    g = GridSpec(n=2, s_max=4.0, t_min=-4.0, t_max=4.0, ns=65, nt=65)
    for fn in (lambda s, t: np.maximum(0.0, t), lambda s, t: 0.7 * t + 0.0 * s):
        f = AxiField.from_function(g, fn)
        target = GridSpec(n=2, s_max=1.0, t_min=-1.0, t_max=1.0, ns=17, nt=17)
        vals = [lipschitz_monitor(blow_down(f, eps, target=target).field) for eps in (1.0, 0.5, 0.25)]
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
        f = AxiField.from_function(g, lambda s, t: np.exp(-(s**2) - t**2))
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
    rows, cols, vals, brows, bcols, bvals = [], [], [], [], [], []

    def add(i, j, ii, jj, w):
        if mask[ii, jj]:
            rows.append(index[i, j]), cols.append(index[ii, jj]), vals.append(w)
        else:
            brows.append(index[i, j]), bcols.append(ii * nt + jj), bvals.append(w)

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
    L = sp.csr_matrix((vals, (rows, cols)), shape=(m, m))
    B = sp.csr_matrix((bvals, (brows, bcols)), shape=(m, ns * nt))
    return L, B, mask


def assert_same_csr(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("s_min", [0.0, 0.4])
def test_assembled_laplacian_is_the_stencil(n, s_min):
    g = GridSpec(n=n, s_min=s_min, s_max=2.0, t_min=-1.0, t_max=1.0, ns=21, nt=17)
    L, B, mask = _assemble_laplacian(g)
    L0, B0, mask0 = _loop_laplacian(g)
    assert_same_csr(L, L0)
    assert_same_csr(B, B0)
    assert np.array_equal(mask, mask0)
    u = np.random.default_rng(n).standard_normal((g.ns, g.nt))
    s, t = g.axes()
    lap = apply_axisym_laplacian(AxiField(n=n, s=s, t=t, values=u)).values[mask]
    got = L @ u[mask] + B @ u.ravel()
    assert np.max(np.abs(got - lap)) <= 1e-12 * np.max(np.abs(lap))


def test_field_csv_bytes_match_per_row_format(tmp_path):
    g = GridSpec(n=3, s_max=1.0, t_min=-0.5, t_max=1.5, ns=7, nt=5)
    f = AxiField.from_function(g, lambda s, t: np.exp(s * t) / 3.0 - 0.25 * t)
    f.values[2, 3] = -0.0
    f.save_csv(tmp_path / "f.csv")
    rows = "".join(
        f"{si:.17g},{tj:.17g},{f.values[i, j]:.17g}\n" for i, si in enumerate(f.s) for j, tj in enumerate(f.t)
    )
    expected = f"# n=3 ns=7 nt=5\ns,t,u\n{rows}"
    assert (tmp_path / "f.csv").read_bytes() == expected.encode()


def test_field_csv_and_binary_roundtrip(tmp_path):
    g = GridSpec(n=4, s_max=1.0, t_min=-0.5, t_max=1.5, ns=9, nt=11)
    f = AxiField.from_function(g, lambda s, t: s * t + 0.3)
    path = tmp_path / "f.bin"
    f.save_binary(path)
    back = AxiField.load_binary(path)
    assert back.n == 4
    assert np.array_equal(back.values, f.values)
    assert np.allclose(back.s, f.s) and np.allclose(back.t, f.t)
    f.save_csv(tmp_path / "f.csv")
    lines = (tmp_path / "f.csv").read_text().splitlines()
    assert lines[0].startswith("# n=4")
    assert lines[1] == "s,t,u"
    assert len(lines) == 2 + 9 * 11


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
    v = solve_semilinear_1d(
        beta, g.t_min, g.t_max, g.nt,
        float(layer_profile.sample(g.t_min)), float(layer_profile.sample(g.t_max)),
        init=layer_profile.sample(t),
    )
    f = AxiField(n=5, s=s, t=t, values=np.tile(v, (g.ns, 1)))
    assert residual_semilinear(f, beta) < 1e-12
