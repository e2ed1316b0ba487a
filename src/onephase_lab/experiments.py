"""Named experiments binding the compute modules, with reproducible reports.

Every experiment consumes an :class:`ExperimentConfig`, returns a report
whose ``results`` block is bitwise reproducible from the echoed config, and
writes its artifacts (JSON report plus CSV/plot data files) into one
directory per run.  Wall-clock timings, solver counters and provenance live
in the ``meta`` block, outside the reproducible results.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .axisym_field import (
    AxiField,
    GridSpec,
    blow_down,
    energy,
    lipschitz_monitor,
    max_principle_defect,
    residual_semilinear,
    solve_semilinear,
    solve_semilinear_1d,
)
from .config import ExperimentConfig
from .errors import ConfigError, LabError
from .onephase_geometry import (
    curvature_of_revolution,
    normal_derivative_identity,
    onephase_stability_form,
    solve_harmonic_masked,
)
from .profile1d import (
    save_profile_csv,
    save_profile_dat,
    shoot,
    unique_increasing_profile,
)
from .reaction_terms import resolve_reaction
from .reference import SphereShellExact, StripNeckExact
from .stability import (
    StabilityProbe,
    admissible_alpha,
    epsilon_schedule,
    linearized_rayleigh_min,
    log_cutoff_2d,
    probe_inequality,
    us_derivative,
)


@dataclass
class ExperimentReport:
    experiment: str
    results: dict
    config_text: str
    config_hash: str
    version: str = __version__
    timings: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "results": self.results,
            "meta": {
                "version": self.version,
                "config_hash": self.config_hash,
                "timings": self.timings,
                "counters": self.counters,
            },
            "config": self.config_text,
        }


def _grid(cfg: ExperimentConfig) -> GridSpec:
    return GridSpec(
        n=cfg.n,
        s_min=cfg.s_min,
        s_max=cfg.s_max,
        t_min=cfg.t_min,
        t_max=cfg.t_max,
        ns=cfg.ns,
        nt=cfg.nt,
    )


def _probe(cfg: ExperimentConfig) -> StabilityProbe:
    return StabilityProbe(alpha=cfg.alpha, R=cfg.R, eps_inner=cfg.eps_inner, eps0=cfg.eps0)


def tiled_layer_field(beta, grid: GridSpec) -> AxiField:
    """The monotone-layer solution extended constantly in s.

    The axial data comes from the discrete two-point solve, so the tiling is
    an exact discrete solution with u_s identically zero.
    """
    prof = unique_increasing_profile(beta)
    s, t = grid.axes()
    v = solve_semilinear_1d(
        beta,
        grid.t_min,
        grid.t_max,
        grid.nt,
        float(prof.sample(grid.t_min)),
        float(prof.sample(grid.t_max)),
        init=prof.sample(t),
    )
    return AxiField(n=grid.n, s=s, t=t, values=np.tile(v, (grid.ns, 1)))


def boundary_data(cfg: ExperimentConfig, beta):
    """Dirichlet data callable for the configured far-field model."""
    if cfg.boundary_model == "affine":
        slope, offset = cfg.boundary_slope, cfg.boundary_offset
        return lambda s, t: np.maximum(0.0, slope * t + offset) + 0.0 * s
    prof = unique_increasing_profile(beta)
    if cfg.boundary_model == "profile":
        return lambda s, t: prof.sample(0.0 * s + t)
    # catenoid-like neck data: a transition layer over the even-in-s excess
    # sqrt(1+s^2) - cosh t, whose zero level is the neck s = sinh|t| and
    # which matches the catenoid profile as the neck opens up
    return lambda s, t: prof.sample(np.sqrt(1.0 + s * s) - np.cosh(t) + 1.0)


def _count_factors(counters: dict, *factors) -> None:
    """Record the LU factors of a run's 2D solves in its ``meta.counters``."""
    counters["lu_factorizations"] = sum(f.factorizations for f in factors)
    counters["lu_fill_nnz"] = max(f.fill_nnz for f in factors)


def _run_profile(cfg: ExperimentConfig, outputs: dict, counters: dict):
    beta = resolve_reaction(cfg.reaction)
    prof = shoot(beta, cfg.a, cfg.halfwidth, cfg.step)
    from .profile1d import classify, convexity_defect, first_integral_spread

    rep = classify(prof, beta=beta, tol=cfg.tolerances["classify"])
    outputs["profile.csv"] = lambda path: save_profile_csv(prof, path)
    outputs["profile.dat"] = lambda path: save_profile_dat(prof, path)
    return {
        "shoot": {
            "a_requested": cfg.a,
            "case_tag": rep.case_tag,
            "slope_plus": rep.slope_plus,
            "slope_minus": rep.slope_minus,
            "turning_point": rep.turning_point,
            "min_value": rep.min_value,
            "case_defect": rep.defect,
        },
        "invariants": {
            "first_integral_spread": first_integral_spread(prof, beta),
            "convexity_defect": convexity_defect(prof),
        },
    }


def _run_figure1(cfg: ExperimentConfig, outputs: dict, counters: dict):
    """The three-panel profile gallery: ramp slopes above, at, and below 1."""
    beta = resolve_reaction(cfg.reaction)
    from .profile1d import classify

    panels = {}
    for name, a in (("case_i", 2.0), ("case_ii", 1.0), ("case_iii", 0.5)):
        prof = shoot(beta, a, cfg.halfwidth, cfg.step)
        rep = classify(prof, beta=beta, tol=cfg.tolerances["classify"])
        outputs[f"fig_{name}.dat"] = (lambda p: lambda path: save_profile_dat(p, path))(prof)
        panels[name] = {
            "a": rep.slope_plus,
            "b": rep.slope_minus,
            "case_tag": rep.case_tag,
            "case_defect": rep.defect,
            "min_value": rep.min_value,
        }
    return {"panels": panels}


def _run_window(cfg: ExperimentConfig, outputs: dict, counters: dict):
    rows = {}
    for n in cfg.dims:
        window = admissible_alpha(n)
        entry = {"interval": None if window is None else list(window)}
        if window is not None:
            alpha_mid = 0.5 * (window[0] + window[1])
            margin = n - 1 - 2.0 * alpha_mid
            eps0 = min(cfg.eps0, 0.5 * margin) if margin > 0 else None
            entry["alpha_mid"] = alpha_mid
            if eps0 is not None and margin - eps0 > 0:
                entry["schedule"] = {
                    str(R): epsilon_schedule(n, alpha_mid, eps0, R) for R in (2.0, 4.0, 8.0, 16.0)
                }
        if n == 6:
            entry["note"] = "boundary dimension: window closes exactly here; exploratory only"
        rows[str(n)] = entry
    return {"admissible_alpha": rows}


def _run_solve(cfg: ExperimentConfig, outputs: dict, counters: dict):
    beta = resolve_reaction(cfg.reaction)
    grid = _grid(cfg)
    data = boundary_data(cfg, beta)
    res = solve_semilinear(beta, grid, data, tol=cfg.tolerances["newton"])
    f = res.field
    e_layer = energy(f, beta=beta, epsilon=1.0, weighted=True)
    e_sharp = energy(f, one_phase=True, weighted=True)
    results = {
        "solve": {
            "newton_iterations": res.iterations,
            "residual": res.residuals[-1],
            "residual_history": res.residuals,
            "lipschitz_sup": lipschitz_monitor(f),
            "max_principle_defect": max_principle_defect(f),
        },
        "energy": {
            "layer": {"dirichlet": e_layer.dirichlet, "potential": e_layer.potential, "total": e_layer.total},
            "one_phase": {"dirichlet": e_sharp.dirichlet, "potential": e_sharp.potential, "total": e_sharp.total},
        },
    }
    if cfg.domain_study:
        # truncation influence: re-solve on a 2/3-extent subgrid, compare
        def shrink(lo, hi):
            c, w = 0.5 * (lo + hi), (hi - lo) / 3.0
            return c - w, c + w

        if grid.s_min == 0.0:
            s_lo, s_hi = 0.0, 2.0 * grid.s_max / 3.0
        else:
            s_lo, s_hi = shrink(grid.s_min, grid.s_max)
        t_lo, t_hi = shrink(grid.t_min, grid.t_max)
        sub = GridSpec(
            n=grid.n,
            s_min=s_lo,
            s_max=s_hi,
            t_min=t_lo,
            t_max=t_hi,
            ns=max(9, 2 * (grid.ns // 3) + 1),
            nt=max(9, 2 * (grid.nt // 3) + 1),
        )
        res2 = solve_semilinear(beta, sub, data, tol=cfg.tolerances["newton"])
        from scipy.interpolate import RegularGridInterpolator

        interp = RegularGridInterpolator((f.s, f.t), f.values)
        s2, t2 = sub.axes()
        S2, T2 = np.meshgrid(s2[1:-1], t2[1:-1], indexing="ij")
        diff = float(np.max(np.abs(interp((S2, T2)) - res2.field.values[1:-1, 1:-1])))
        results["domain_study"] = {
            "sub_extents": [s_lo, s_hi, t_lo, t_hi],
            "max_interior_difference": diff,
        }
        _count_factors(counters, res.factors, res2.factors)
    else:
        _count_factors(counters, res.factors)
    outputs["field.csv"] = lambda path: f.save_csv(path)
    outputs["field.bin"] = lambda path: f.save_binary(path)
    return results


def _run_stability(cfg: ExperimentConfig, outputs: dict, counters: dict):
    beta = resolve_reaction(cfg.reaction)
    grid = _grid(cfg)
    if cfg.boundary_model == "profile":
        f = tiled_layer_field(beta, grid)
        newton = []
    else:
        sol = solve_semilinear(beta, grid, boundary_data(cfg, beta), tol=cfg.tolerances["newton"])
        f, newton = sol.field, [sol.factors]

    spectral = linearized_rayleigh_min(f, beta, tol=cfg.tolerances["eigen"])
    _count_factors(counters, *newton, spectral.factors)
    outputs["spectral.json"] = lambda path: spectral.save_json(path)
    if spectral.eigenvector is not None:
        outputs["eigenvector.csv"] = lambda path: spectral.eigenvector.save_csv(path)

    probes = []
    base = _probe(cfg)
    r_box = min(grid.s_max, grid.t_max, -grid.t_min)
    for R in (base.R, 2.0 * base.R, 4.0 * base.R):
        try:
            eps = epsilon_schedule(grid.n, base.alpha, base.eps0, R)
        except LabError:
            eps = base.eps_inner
        probe = StabilityProbe(alpha=base.alpha, R=R, eps_inner=min(eps, 0.5), eps0=base.eps0)
        rep = probe_inequality(f, probe, beta)
        probes.append(
            {
                "alpha": probe.alpha,
                "R": probe.R,
                "eps_inner": probe.eps_inner,
                "lhs": rep.form_lhs,
                "rhs": rep.form_rhs,
                "defect": rep.form_rhs - rep.form_lhs,
                "cutoff_inside_grid": 2.0 * R <= r_box,
                "verdict": rep.verdict,
                "rayleigh_quotient": rep.rayleigh_min,
            }
        )
    return {
        "rayleigh": {
            "min": spectral.rayleigh_min,
            "iterations": spectral.iterations,
            "verdict": spectral.verdict,
        },
        "probes": probes,
        "residual": residual_semilinear(f, beta),
    }


def _run_blowdown(cfg: ExperimentConfig, outputs: dict, counters: dict):
    beta = resolve_reaction(cfg.reaction)
    eps_list = sorted(cfg.epsilons, reverse=True)
    if not eps_list:
        raise ConfigError("blowdown needs a nonempty epsilon list")
    span = max(2.0 / min(eps_list), 40.0)
    prof = unique_increasing_profile(beta, u_lo=1e-6, u_hi=span, n_samples=40001)
    from .profile1d import extend_to_nd

    big = GridSpec(
        n=2, s_max=1.0 / min(eps_list), t_min=-span, t_max=span, ns=3, nt=4 * 40000 + 1
    )
    src = extend_to_nd(prof, (0.0, 1.0), big)
    target = GridSpec(n=2, s_max=1.0, t_min=-2.0, t_max=2.0, ns=3, nt=8193)
    sharp_total = 2.0 * target.t_max  # |grad|^2 + indicator on {t > 0}, unit s-extent

    rows = []
    for eps in eps_list:
        bd = blow_down(src, eps, beta=beta, target=target)
        eb = energy(bd.field, beta=beta, epsilon=eps, weighted=False)
        lim = np.maximum(0.0, bd.field.t)[None, :]
        rows.append(
            {
                "epsilon": eps,
                "layer_energy": eb.total,
                "sharp_energy": sharp_total,
                "gap": abs(eb.total - sharp_total),
                "sup_distance_to_ramp": float(np.max(np.abs(bd.field.values - lim))),
                "rescaled_residual": bd.residual,
            }
        )
    gaps = [r["gap"] for r in rows]
    sups = [r["sup_distance_to_ramp"] for r in rows]

    def _write_csv(path):
        with open(path, "w") as fh:
            fh.write("epsilon,layer_energy,gap,sup_distance\n")
            for r in rows:
                fh.write(
                    f"{r['epsilon']:.17g},{r['layer_energy']:.17g},{r['gap']:.17g},"
                    f"{r['sup_distance_to_ramp']:.17g}\n"
                )

    outputs["blowdown.csv"] = _write_csv
    return {
        "family": rows,
        "gap_nonincreasing_within_1e-4": all(
            gaps[i + 1] <= gaps[i] + 1e-4 for i in range(len(gaps) - 1)
        ),
        "sup_distance_decreasing": all(sups[i + 1] <= sups[i] for i in range(len(sups) - 1)),
    }


def _run_onephase(cfg: ExperimentConfig, outputs: dict, counters: dict):
    if cfg.onephase_preset == "strip_neck":
        neck = StripNeckExact()
        h = 1.0 / cfg.onephase_resolution
        s_lo, s_hi, t_lo, t_hi = 1.0, 3.3, -1.0, 1.0
        grid = GridSpec(
            n=2,
            s_min=s_lo,
            s_max=s_hi,
            t_min=t_lo,
            t_max=t_hi,
            ns=int(round((s_hi - s_lo) / h)) + 1,
            nt=int(round((t_hi - t_lo) / h)) + 1,
        )
        sol = solve_harmonic_masked(grid, neck.level, neck.u)
        tg = np.linspace(-0.75, 0.75, 101)
        boundary = curvature_of_revolution(
            neck.boundary_generator(tg), n=2, positive_side=neck.positive_side
        )
        exact = neck.u(grid.axes()[0][:, None], grid.axes()[1][None, :])
        sup_err = float(np.max(np.abs(sol.field.values - exact)))
        n_for_probe = 2
    else:
        shell = SphereShellExact(n=cfg.n, r0=cfg.r0)
        h = 1.0 / cfg.onephase_resolution
        ext = 2.2 * cfg.r0
        grid = GridSpec(
            n=cfg.n,
            s_max=ext,
            t_min=-ext,
            t_max=ext,
            ns=int(round(ext / h)) + 1,
            nt=2 * int(round(ext / h)) + 1,
        )
        sol = solve_harmonic_masked(grid, shell.level, shell.u)
        boundary = curvature_of_revolution(
            shell.boundary_generator(257), n=cfg.n, positive_side=shell.positive_side
        )
        exact = shell.u(grid.axes()[0][:, None], grid.axes()[1][None, :])
        sup_err = float(np.max(np.abs(sol.field.values - exact)))
        n_for_probe = cfg.n

    _count_factors(counters, sol.factors)
    identity = normal_derivative_identity(boundary, sol.field)

    # interface stability form with the capped radial probe xi = u_s * eta
    from .stability import _eta_and_gradsq

    probe = _probe(cfg)
    eta, _ = _eta_and_gradsq(probe, sol.field)
    c = us_derivative(sol.field).values
    xi_vals = c * eta
    xi_vals[0, :] = 0.0
    xi_vals[-1, :] = 0.0
    xi_vals[:, 0] = 0.0
    xi_vals[:, -1] = 0.0
    xi = sol.field.with_values(xi_vals)
    form = onephase_stability_form(boundary, sol.field, xi)
    bulk = probe_inequality(sol.field, probe, resolve_reaction(cfg.reaction))

    outputs["boundary.csv"] = lambda path: boundary.save_csv(path)
    outputs["field.csv"] = lambda path: sol.field.save_csv(path)
    return {
        "masked_solve": {
            "preset": cfg.onephase_preset,
            "unknowns": sol.unknowns,
            "residual": sol.residual,
            "sup_error_vs_exact": sup_err,
        },
        "normal_derivative_identity": {
            "max_defect": identity.max_defect,
            "gradient_defect": identity.gradient_defect,
            "samples": len(identity.lhs),
            "notes": list(identity.notes),
        },
        "interface_form": {
            "lhs": form.lhs,
            "rhs": form.rhs,
            "defect": form.defect,
            "verdict": form.verdict,
        },
        "bulk_probe": {
            "n": n_for_probe,
            "lhs": bulk.form_lhs,
            "rhs": bulk.form_rhs,
            "defect": bulk.form_rhs - bulk.form_lhs,
        },
    }


_RUNNERS = {
    "profile": _run_profile,
    "figure1": _run_figure1,
    "window": _run_window,
    "solve": _run_solve,
    "stability": _run_stability,
    "blowdown": _run_blowdown,
    "onephase": _run_onephase,
}


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the configured experiment and write its artifacts.

    The output directory is only created after the configuration validates
    and the computation finishes, so failed runs leave no partial files.
    """
    cfg.validate()
    outputs: dict = {}
    counters: dict = {}
    t0 = time.perf_counter()
    results = _RUNNERS[cfg.experiment](cfg, outputs, counters)
    elapsed = time.perf_counter() - t0

    report = ExperimentReport(
        experiment=cfg.experiment,
        results=results,
        config_text=cfg.canonical_text(),
        config_hash=cfg.config_hash(),
        timings={"run_seconds": elapsed},
        counters=counters,
    )

    import os

    os.makedirs(cfg.out_dir, exist_ok=True)
    for name, writer in outputs.items():
        writer(os.path.join(cfg.out_dir, name))
    with open(os.path.join(cfg.out_dir, "report.json"), "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
    return report
