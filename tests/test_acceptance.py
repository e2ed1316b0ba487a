"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with ``pytest -s``) carrying the
measured quantity; tolerances are pinned here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from onephase_lab.axisym_field import (
    AxiField,
    GridSpec,
    apply_axisym_laplacian,
    blow_down,
    energy,
    solve_semilinear_1d,
)
from onephase_lab.onephase_geometry import (
    Generator,
    curvature_of_revolution,
    gradient_magnitude_identity,
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
from onephase_lab.reaction_terms import beta_from_profile, make_polynomial_beta
from onephase_lab.reference import SphereShellExact, StripNeckExact
from onephase_lab.stability import (
    StabilityProbe,
    admissible_alpha,
    linearized_rayleigh_min,
    log_cutoff_2d,
    probe_inequality,
)

BETA = make_polynomial_beta(1.0)


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

    shift = layer.crossing(0.5) - shot.crossing(0.5)
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
    recovered = beta_from_profile(layer)
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
    v = solve_semilinear_1d(
        BETA, grid.t_min, grid.t_max, grid.nt,
        float(layer.sample(grid.t_min)), float(layer.sample(grid.t_max)),
        init=layer.sample(t),
    )
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
        rep = probe_inequality(u, probe, BETA)
        worst = min(worst, rep.form_rhs - rep.form_lhs)
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
    layer = unique_increasing_profile(BETA, u_lo=1e-6, u_hi=40.0, n_samples=40001)
    big = GridSpec(n=2, s_max=16.0, t_min=-40.0, t_max=40.0, ns=3, nt=160001)
    src = extend_to_nd(layer, (0.0, 1.0), big)
    target = GridSpec(n=2, s_max=1.0, t_min=-2.0, t_max=2.0, ns=3, nt=8193)
    sharp_total = 2.0 * target.t_max
    gaps = []
    for eps in eps_list:
        field = blow_down(src, eps, target=target).field
        gaps.append(abs(energy(field, beta=BETA, epsilon=eps, weighted=False).total - sharp_total))
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
        f = AxiField.from_function(g, exact)
        s, t = g.axes()
        lap_errs.append(
            np.nanmax(np.abs(apply_axisym_laplacian(f).values - exact_lap(s[:, None], t[None, :], 3)))
        )
        f2 = AxiField.from_function(g, lambda s, t: np.exp(-(s**2)) * np.sin(2 * t) + s**3 * t)
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
    cyl = curvature_of_revolution(Generator.from_graph(t, np.full_like(t, 0.5)), n=3)
    cyl_err = float(np.max(np.abs(cyl.mean_curv - 2.0)))
    assert cyl_err < 1e-12

    shell = SphereShellExact(n=3, r0=0.5)
    sph = curvature_of_revolution(shell.boundary_generator(), n=3, positive_side="left")
    sph_err = float(np.max(np.abs(sph.mean_curv - 4.0)))
    assert sph_err < 1e-12

    tt = np.linspace(-1.0, 1.0, 513)  # spacing 1/256, differences only
    cat = curvature_of_revolution(Generator.from_graph(tt, np.cosh(tt)), n=3)
    cat_err = float(np.max(np.abs(cat.mean_curv[2:-2])))
    elapsed = time.perf_counter() - t0
    assert cat_err <= 1e-4
    assert elapsed < 1.0
    report(
        f"criterion 9 PASS: cylinder {cyl_err:.1e}, sphere {sph_err:.1e}, "
        f"catenoid {cat_err:.2e} at h=1/256"
    )


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
            neck.boundary_generator(tg), n=2, positive_side="below"
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
        dirichlet = energy(log_cutoff_2d(math.e**2, fine).field, one_phase=True).dirichlet
        grid_rels.append(abs(dirichlet - law) / law)
    assert all(a > b for a, b in zip(grid_rels, grid_rels[1:]))
    assert grid_rels[-1] <= 2e-3
    report(
        f"criterion 11 PASS: log-cutoff law, worst relative error {max(rels):.2e}; grid energy "
        + " -> ".join(f"{r:.2e}" for r in grid_rels)
    )
