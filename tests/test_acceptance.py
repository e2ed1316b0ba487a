"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with ``pytest -s``) carrying the
measured quantity; tolerances are pinned here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import jn_zeros, jv

from onephase_lab.axisym_field import (
    AxiField,
    GridSpec,
    apply_axisym_laplacian,
    blow_down,
    energy,
    one_phase_energy,
    solve_semilinear_1d,
)
from onephase_lab.experiments import tiled_layer_field
from onephase_lab.onephase_geometry import (
    curvature_of_revolution,
    normal_derivative_identity,
    solve_harmonic_masked,
)
from onephase_lab.profile1d import (
    CASE_I,
    CASE_II,
    CASE_III,
    classify,
    extend_to_nd,
    shoot,
    unique_increasing_profile,
)
from onephase_lab.reaction_terms import make_polynomial_beta
from onephase_lab.reference import SphereShellExact, StripNeckExact
from onephase_lab.stability import (
    StabilityProbe,
    admissible_alpha,
    linearized_rayleigh_min,
    probe_inequality,
)

from beta_recovery import beta_from_profile
from oracles import crossing, from_function, gradient_magnitude_identity, graph_generator, log_cutoff_2d

BETA = make_polynomial_beta()


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_01_two_sided_slope_law():
    worst = 0.0
    for a in (1.1, 1.5, 2.0, 5.0):
        t0 = time.perf_counter()
        rep = classify(shoot(BETA, a=a, domain_halfwidth=20.0, step=0.002), beta=BETA)
        elapsed = time.perf_counter() - t0
        defect = abs(rep.slope_plus**2 - rep.slope_minus**2 - 1.0)
        worst = max(worst, defect)
        assert rep.case_tag == CASE_I
        assert defect <= 1e-6, f"a={a}: defect {defect:.3e}"
        assert elapsed < 1.0, f"a={a}: took {elapsed:.2f}s"
    report(f"criterion 1 PASS: two-sided slope law, worst |a^2-b^2-1| = {worst:.3e}")


def test_criterion_02_layer_slope_and_oracle_equivalence():
    t0 = time.perf_counter()
    layer = unique_increasing_profile(BETA)
    above = layer.us >= 1.0
    slope_defect = float(np.max(np.abs(layer.dus[above] - 1.0)))
    assert slope_defect <= 1e-8

    shot = shoot(BETA, a=1.0, domain_halfwidth=25.0, step=0.002)
    assert classify(shot, beta=BETA).case_tag == CASE_II
    shot_above = shot.us >= 1.0
    assert float(np.max(np.abs(shot.dus[shot_above] - 1.0))) <= 1e-8

    shift = crossing(layer, 0.5) - crossing(shot, 0.5)
    lo = max(shot.xs[0] + shift, layer.xs[0])
    hi = min(shot.xs[-1] + shift, layer.xs[-1])
    xs = np.linspace(lo, hi, 4001)
    sup = float(np.max(np.abs(shot.sample(xs - shift) - layer.sample(xs))))
    elapsed = time.perf_counter() - t0
    assert sup <= 1e-6
    assert elapsed < 1.0
    report(
        f"criterion 2 PASS: unit ramp slope defect {slope_defect:.2e}, "
        f"shoot vs quadrature sup {sup:.2e}"
    )


def test_criterion_03_well_minimum_relation():
    t0 = time.perf_counter()
    rep = classify(shoot(BETA, a=0.5, domain_halfwidth=20.0, step=0.002), beta=BETA)
    elapsed = time.perf_counter() - t0
    assert rep.case_tag == CASE_III
    defect = abs(BETA.primitive(1.0) - BETA.primitive(rep.min_value) - 0.25)
    assert defect <= 1e-6
    assert elapsed < 1.0
    report(f"criterion 3 PASS: well relation defect {defect:.3e} (y0 = {rep.min_value:.8f})")


def test_criterion_04_dimension_window_exact():
    t0 = time.perf_counter()
    assert admissible_alpha(3) == (0.5, math.sqrt(1.0))
    assert admissible_alpha(4) == (1.0, math.sqrt(2.0))
    assert admissible_alpha(5) == (1.5, math.sqrt(3.0))
    for n in (2, 6, 7, 8):
        assert admissible_alpha(n) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 1e-3
    report(f"criterion 4 PASS: exponent windows exact ({elapsed*1e6:.0f} us)")


def test_criterion_05_recovery_roundtrip():
    t0 = time.perf_counter()
    layer = unique_increasing_profile(BETA)
    recovered, _ = beta_from_profile(layer)
    ts = np.linspace(0.05, 0.95, 2001)
    sup = float(np.max(np.abs(recovered.eval(ts) - BETA.eval(ts))))
    elapsed = time.perf_counter() - t0
    assert sup <= 1e-6
    assert elapsed < 2.0
    report(f"criterion 5 PASS: recovery roundtrip sup {sup:.3e} in {elapsed:.2f}s")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion_06_layer_extension_stability(n):
    t0 = time.perf_counter()
    grid = GridSpec(n=n, s_max=3.0, t_min=-3.0, t_max=3.0, ns=129, nt=129)
    layer = unique_increasing_profile(BETA)
    s, t = grid.axes()
    v = solve_semilinear_1d(BETA, grid.t_min, grid.t_max, layer.sample(t))
    u = AxiField(n=n, s=s, t=t, values=np.tile(v, (grid.ns, 1)))
    spectral = linearized_rayleigh_min(u, BETA, tol=1e-8)
    assert spectral.rayleigh_min >= -1e-6

    lo, hi = admissible_alpha(n)
    worst = math.inf
    for probe in (
        StabilityProbe(alpha=0.5 * (lo + hi), R=2.0, eps_inner=0.05),
        StabilityProbe(alpha=lo + 0.1 * (hi - lo), R=1.5, eps_inner=0.2),
        StabilityProbe(alpha=0.0, R=2.5, eps_inner=0.01),
    ):
        rep = probe_inequality(u, probe)
        worst = min(worst, rep.defect)
    elapsed = time.perf_counter() - t0
    assert worst >= -1e-10
    assert elapsed < 30.0
    report(
        f"criterion 6 PASS (n={n}): rayleigh_min {spectral.rayleigh_min:.6f} >= -1e-6, "
        f"worst probe defect {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_07_layer_energy_gap_monotone():
    t0 = time.perf_counter()
    eps_list = (1.0, 0.5, 0.25, 0.125, 0.0625)
    layer = unique_increasing_profile(BETA, u_lo=1e-6, n_samples=40001)
    sharp_total = 4.0  # the sharp energy on [0, 1] x [-2, 2]
    gaps = []
    for eps in eps_list:
        # each row blows down its own source grid, as the blowdown experiment does
        src = GridSpec(n=2, s_max=1.0 / eps, t_min=-2.0 / eps, t_max=2.0 / eps, ns=3, nt=8193)
        field = blow_down(extend_to_nd(layer, src), eps)
        gaps.append(abs(energy(field, BETA, eps).total / 2.0 - sharp_total))
    elapsed = time.perf_counter() - t0
    assert all(gaps[i + 1] <= gaps[i] + 1e-4 for i in range(len(gaps) - 1))
    assert elapsed < 10.0
    report(
        "criterion 7 PASS: energy gaps "
        + " > ".join(f"{g:.4f}" for g in gaps)
        + f" nonincreasing, {elapsed:.1f}s"
    )


def test_criterion_08_discretization_order():
    t0 = time.perf_counter()

    def exact(s, t):
        return np.exp(-(s**2)) * np.sin(t)

    def exact_lap(s, t, n):
        return (4 * s**2 - 2 - 2 * (n - 2) - 1) * np.exp(-(s**2)) * np.sin(t)

    lap_errs, gmi_errs = [], []
    for ns in (33, 65, 129):
        g = GridSpec(n=3, s_max=1.0, t_min=-1.0, t_max=1.0, ns=ns, nt=ns)
        f = from_function(g, exact)
        s, t = g.axes()
        lap_errs.append(
            np.nanmax(np.abs(apply_axisym_laplacian(f).values - exact_lap(s[:, None], t[None, :], 3)))
        )
        f2 = from_function(g, lambda s, t: np.exp(-(s**2)) * np.sin(2 * t) + s**3 * t)
        gmi_errs.append(np.nanmax(np.abs(gradient_magnitude_identity(f2).values)))
    lap_rate = min(np.log2(lap_errs[i] / lap_errs[i + 1]) for i in range(2))
    gmi_rate = min(np.log2(gmi_errs[i] / gmi_errs[i + 1]) for i in range(2))
    elapsed = time.perf_counter() - t0
    assert lap_rate >= 1.9
    assert gmi_rate >= 1.9
    assert elapsed < 10.0
    report(
        f"criterion 8 PASS: measured orders {lap_rate:.2f} (laplacian), "
        f"{gmi_rate:.2f} (gradient identity)"
    )


def test_criterion_09_geometry_closed_forms():
    t0 = time.perf_counter()
    t = np.linspace(-1, 1, 101)
    cyl = curvature_of_revolution(graph_generator(t, np.full_like(t, 0.5), 0.0 * t, 0.0 * t, outside=True), n=3)
    cyl_err = float(np.max(np.abs(cyl.mean_curv - 2.0)))
    assert cyl_err < 1e-12

    shell = SphereShellExact(n=3, r0=0.5)
    sph = curvature_of_revolution(shell.boundary_generator(), n=3)
    sph_err = float(np.max(np.abs(sph.mean_curv - 4.0)))
    assert sph_err < 1e-12

    # the catenoid s = cosh t is minimal in three dimensions
    tt = np.linspace(-1.0, 1.0, 513)
    cat = curvature_of_revolution(graph_generator(tt, np.cosh(tt), np.sinh(tt), np.cosh(tt), outside=True), n=3)
    cat_err = float(np.max(np.abs(cat.mean_curv)))
    elapsed = time.perf_counter() - t0
    assert cat_err < 1e-12
    assert elapsed < 1.0
    report(f"criterion 9 PASS: cylinder {cyl_err:.1e}, sphere {sph_err:.1e}, catenoid {cat_err:.1e}")


def test_criterion_10_interface_identity_first_order():
    t0 = time.perf_counter()
    neck = StripNeckExact()
    defects = []
    for h_inv in (64, 128, 256):
        g = GridSpec(
            n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0,
            ns=int(round(2.3 * h_inv)) + 1, nt=2 * h_inv + 1,
        )
        sol = solve_harmonic_masked(g, neck.level, neck.u)
        tg = np.linspace(-0.75, 0.75, 101)
        boundary = curvature_of_revolution(
            neck.boundary_generator(tg), n=2
        )
        defects.append(normal_derivative_identity(boundary, sol.field).max_defect)
    elapsed = time.perf_counter() - t0
    slope = np.polyfit(np.log([64, 128, 256]), np.log(defects), 1)[0]
    assert defects[0] > defects[1] > defects[2]
    assert -slope >= 0.8, f"decay order {-slope:.2f}"
    assert elapsed < 120.0
    report(
        "criterion 10 PASS: interface identity defects "
        + " -> ".join(f"{d:.4f}" for d in defects)
        + f", order {-slope:.2f}, {elapsed:.0f}s"
    )


def test_criterion_11_log_cutoff_law():
    t0 = time.perf_counter()
    g = GridSpec(n=2, s_max=3000.0, t_min=-3000.0, t_max=3000.0, ns=11, nt=11)
    rels = []
    for k in (2.0, 4.0, 8.0):
        lc = log_cutoff_2d(math.e**k, g)
        law = 2.0 * math.pi / k
        rels.append(abs(lc.grad_energy - law) / law)
    elapsed = time.perf_counter() - t0
    assert max(rels) <= 1e-3
    assert elapsed < 1.0
    # the grid Dirichlet energy of the returned field itself approaches the law
    law = math.pi  # 2 pi / log R at R = e^2
    grid_rels = []
    for h_inv in (8, 16, 32, 64):
        fine = GridSpec(n=2, s_max=8.0, t_min=-8.0, t_max=8.0, ns=8 * h_inv + 1, nt=16 * h_inv + 1)
        dirichlet = one_phase_energy(log_cutoff_2d(math.e**2, fine).field).dirichlet
        grid_rels.append(abs(dirichlet - law) / law)
    assert all(a > b for a, b in zip(grid_rels, grid_rels[1:]))
    assert grid_rels[-1] <= 2e-3
    report(
        f"criterion 11 PASS: log-cutoff law, worst relative error {max(rels):.2e}; grid energy "
        + " -> ".join(f"{r:.2e}" for r in grid_rels)
    )


def _first_bessel_zero(nu: float) -> float:
    """j_{nu,1}: ``jn_zeros`` for integer nu, else bisection of ``jv`` on its
    first sign change after x = nu (where J_nu is still positive)."""
    if nu == int(nu):
        return float(jn_zeros(int(nu), 1)[0])
    x = np.linspace(nu, nu + 10.0, 1001)
    k = int(np.flatnonzero(jv(nu, x) <= 0.0)[0])
    lo, hi = float(x[k - 1]), float(x[k])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if jv(nu, mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def _axial_ground_state(nodes: int) -> float:
    """Lowest Dirichlet eigenvalue of -d^2/dt^2 + beta'(g)/2 on [-3, 3], g the
    layer profile, from the three-point stencil on ``nodes`` nodes."""
    t = np.linspace(-3.0, 3.0, nodes)
    h = t[1] - t[0]
    pot = 0.5 * BETA.deriv(unique_increasing_profile(BETA).sample(t[1:-1]))
    off = np.full(nodes - 3, -1.0 / h**2)
    return float(eigh_tridiagonal(2.0 / h**2 + pot, off, eigvals_only=True, select="i", select_range=(0, 0))[0])


# C of |error| <= C hs^2, hs = 3 / (nodes - 1); measured |error| / hs^2 at
# 65/129/257^2: 2.006, 2.436, 2.245 (n = 3), 1.999, 2.429, 2.238 (n = 5) and
# 11.21, 10.79, 10.98 (n = 20)
_LAMBDA_ERROR_C = {3: 2.5, 5: 2.5, 20: 11.5}


def test_criterion_12_lambda_min_converges_to_the_continuum_value():
    # The tiled layer on s <= 3, |t| <= 3 separates: lambda = j_{nu,1}^2 / 9
    # + mu_t, nu = (n-3)/2, with mu_t the axial ground state (one Richardson
    # step on 8193 and 16385 nodes).  Measured errors: -4.41e-3, -1.34e-3,
    # -3.08e-4 (n = 3), -4.39e-3, -1.33e-3, -3.07e-4 (n = 5) and +2.46e-2,
    # +5.93e-3, +1.51e-3 (n = 20): shrink ratios 3.29-4.34.
    t0 = time.perf_counter()
    coarse, fine = _axial_ground_state(8193), _axial_ground_state(16385)
    mu_t = fine + (fine - coarse) / 3.0
    assert abs(mu_t - 0.35610911) <= 5e-9
    assert abs(_first_bessel_zero(0.5) - math.pi) <= 1e-14  # j_{1/2,1} = pi
    lines = []
    for n in (3, 5, 20):
        exact = _first_bessel_zero((n - 3) / 2.0) ** 2 / 9.0 + mu_t
        errors = []
        for nodes in (65, 129, 257):
            grid = GridSpec(n=n, s_max=3.0, t_min=-3.0, t_max=3.0, ns=nodes, nt=nodes)
            error = linearized_rayleigh_min(tiled_layer_field(BETA, grid), BETA).rayleigh_min - exact
            assert abs(error) <= _LAMBDA_ERROR_C[n] * grid.hs**2, f"n={n}, {nodes}^2: error {error:.3e}"
            errors.append(error)
        ratios = [abs(a / b) for a, b in zip(errors, errors[1:])]
        assert min(ratios) >= 3.0, f"n={n}: errors {errors} shrink by {ratios}"
        lines.append(f"n={n} " + " -> ".join(f"{e:+.2e}" for e in errors))
    elapsed = time.perf_counter() - t0
    report(f"criterion 12 PASS: lambda_min - continuum, {'; '.join(lines)}, {elapsed:.1f}s")
