"""Named experiments binding the compute modules, with reproducible reports.

Every experiment consumes an :class:`ExperimentConfig`, returns a report
whose ``results`` block is bitwise reproducible from the echoed config, and
writes its artifacts (JSON report plus CSV tables and binary fields) into one
directory per run.  Wall-clock timings, solver counters and provenance live
in the ``meta`` block, outside the reproducible results.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .axisym_field import (
    AxiField,
    GridSpec,
    _unknown_mask,
    blow_down,
    energy,
    lipschitz_monitor,
    max_principle_defect,
    residual_semilinear,
    solve_semilinear,
    solve_semilinear_1d,
)
from .config import ExperimentConfig, _grid
from .errors import InvalidParameterError, LabError
from .numerics import csv_lines
from .onephase_geometry import (
    curvature_of_revolution,
    normal_derivative_identity,
    onephase_stability_form,
    solve_harmonic_masked,
)
from .profile1d import (
    classify,
    convexity_defect,
    extend_to_nd,
    first_integral_spread,
    save_profile_csv,
    shoot,
    unique_increasing_profile,
)
from .reaction_terms import rescale, resolve_reaction
from .reference import SphereShellExact, StripNeckExact
from .stability import (
    StabilityProbe,
    admissible_alpha,
    epsilon_schedule,
    linearized_rayleigh_min,
    probe_inequality,
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


def _count_factors(counters: dict, *factors, krylov: bool = False, refined: bool = False) -> None:
    """Record the LU factors of a run's solves in its ``meta.counters`` (their
    count, the largest fill and the largest order), with
    ``krylov`` (a 2D Newton solve ran) the GMRES iterations of its finer levels,
    and with ``refined`` (the masked solve ran) the refinement steps of its
    float32 factor and the final backward error."""
    counters["lu_factorizations"] = sum(f.factorizations for f in factors)
    counters["lu_fill_nnz"] = max(f.fill_nnz for f in factors)
    counters["lu_factor_order"] = max(f.order for f in factors)
    if krylov:
        counters["krylov_iterations"] = sum(f.krylov_iterations for f in factors)
    if refined:
        counters["lu_refinement_steps"] = sum(f.refinement_steps for f in factors)
        counters["lu_backward_error"] = max(f.backward_error for f in factors)


def _run_profile(cfg: ExperimentConfig, outputs: dict, counters: dict):
    beta = resolve_reaction(cfg.reaction)
    prof = shoot(beta, cfg.a, cfg.halfwidth, cfg.step)
    rep = classify(prof, beta=beta, tol=cfg.tolerances["classify"])
    outputs["profile.csv"] = lambda path: save_profile_csv(prof, path)
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
    panels = {}
    for name, a in (("case_i", 2.0), ("case_ii", 1.0), ("case_iii", 0.5)):
        prof = shoot(beta, a, cfg.halfwidth, cfg.step)
        rep = classify(prof, beta=beta, tol=cfg.tolerances["classify"])
        outputs[f"fig_{name}.csv"] = (lambda p: lambda path: save_profile_csv(p, path))(prof)
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
            # eps0 > 0 at most half the margin n - 1 - 2 alpha = n/2 - sqrt(n-2) > 0 keeps the rate positive
            alpha_mid = 0.5 * (window[0] + window[1])
            eps0 = min(cfg.eps0, 0.5 * (n - 1 - 2.0 * alpha_mid))
            entry["alpha_mid"] = alpha_mid
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
    e_layer = energy(f, beta=beta, epsilon=1.0)
    e_sharp = energy(f, one_phase=True)
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
        s2, t2 = sub.axes()
        points = np.stack(np.meshgrid(s2[1:-1], t2[1:-1], indexing="ij"), axis=-1)
        diff = float(np.max(np.abs(f.sample(points) - res2.field.values[1:-1, 1:-1])))
        results["domain_study"] = {
            "sub_extents": [s_lo, s_hi, t_lo, t_hi],
            "max_interior_difference": diff,
        }
        _count_factors(counters, res.factors, res2.factors, krylov=True)
    else:
        _count_factors(counters, res.factors, krylov=True)
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
    _count_factors(counters, *newton, spectral.factors, krylov=bool(newton))
    counters["eigen_iterations"] = spectral.level_iterations
    counters["eigen_values"] = spectral.level_values
    counters["eigen_level_residuals"] = spectral.level_residuals
    counters["eigen_shift"] = spectral.shift
    outputs["spectral.json"] = lambda path: spectral.save_json(path)
    outputs["eigenvector.bin"] = lambda path: spectral.eigenvector.save_binary(path)

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
                "lhs": rep.lhs,
                "rhs": rep.rhs,
                "defect": rep.defect,
                "cutoff_inside_grid": 2.0 * R <= r_box,
                "verdict": rep.verdict,
                "rayleigh_quotient": rep.rayleigh,
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
    # above u = 1 the layer is the slope-1 ramp, which sample() continues exactly
    prof = unique_increasing_profile(beta, u_lo=1e-6, n_samples=40001)
    sharp_total = 4.0  # |grad|^2 + indicator on {t > 0} over [0, 1] x [-2, 2]

    rows = []
    for eps in sorted(cfg.epsilons, reverse=True):
        # each row is the exact blow-down of its own source grid over [0, 1/eps] x [-2/eps, 2/eps]
        src = GridSpec(n=2, s_max=1.0 / eps, t_min=-2.0 / eps, t_max=2.0 / eps, ns=3, nt=8193)
        field = blow_down(extend_to_nd(prof, src), eps)
        # the planar energy: the n = 2 measure is exactly |S^0| = 2 times it
        layer = energy(field, beta=beta, epsilon=eps).total / 2.0
        lim = np.maximum(0.0, field.t)[None, :]
        rows.append(
            {
                "epsilon": eps,
                "layer_energy": layer,
                "sharp_energy": sharp_total,
                "gap": abs(layer - sharp_total),
                "sup_distance_to_ramp": float(np.max(np.abs(field.values - lim))),
                "rescaled_residual": residual_semilinear(field, rescale(beta, eps)),
            }
        )
    gaps = [r["gap"] for r in rows]
    sups = [r["sup_distance_to_ramp"] for r in rows]

    def _write_csv(path):
        with open(path, "w") as fh:
            fh.write("epsilon,layer_energy,gap,sup_distance\n")
            fh.write(csv_lines([r["epsilon"] for r in rows], [r["layer_energy"] for r in rows], gaps, sups))

    outputs["blowdown.csv"] = _write_csv
    return {
        "family": rows,
        "gap_nonincreasing_within_1e-4": all(
            gaps[i + 1] <= gaps[i] + 1e-4 for i in range(len(gaps) - 1)
        ),
        "sup_distance_decreasing": all(sups[i + 1] <= sups[i] for i in range(len(sups) - 1)),
    }


def _even_on_grid(fn, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Grid values of ``fn(s, t)``, a function even in t bit for bit, from
    one call on the columns t >= 0, mirrored onto the others.  The t nodes
    must be mirror-exact about a t = 0 node, t[::-1] == -t at odd count, as
    ``GridSpec.axes`` makes them on every symmetric extent."""
    nt = len(t)
    if nt % 2 == 0 or not np.array_equal(t[::-1], -t):
        raise InvalidParameterError("the t nodes are not mirror-exact about a t = 0 node")
    half = fn(s[:, None], t[None, nt // 2 :])
    return np.concatenate((half[:, :0:-1], half), axis=1)


def _onephase_case(cfg: ExperimentConfig):
    """The preset's exact reference, its grid (dimension and box) and its interface samples."""
    if cfg.onephase_preset == "strip_neck":
        ref, n, s_lo, s_hi, t_hi = StripNeckExact(), 2, 1.0, 3.3, 1.0
        gen = ref.boundary_generator(np.linspace(-0.75, 0.75, 101))
    else:
        ref, n, s_lo = SphereShellExact(n=cfg.n, r0=cfg.r0), cfg.n, 0.0
        s_hi = t_hi = 2.2 * cfg.r0
        gen = ref.boundary_generator(257)
    h = 1.0 / cfg.onephase_resolution
    grid = GridSpec(
        n=n,
        s_min=s_lo,
        s_max=s_hi,
        t_min=-t_hi,
        t_max=t_hi,
        ns=int(round((s_hi - s_lo) / h)) + 1,
        nt=2 * int(round(t_hi / h)) + 1,
    )
    return ref, grid, gen


def _run_onephase(cfg: ExperimentConfig, outputs: dict, counters: dict):
    ref, grid, gen = _onephase_case(cfg)
    n = grid.n
    s, t = grid.axes()
    sol = solve_harmonic_masked(grid, ref.level, ref.u)
    sup_err = float(np.max(np.abs(sol.field.values - _even_on_grid(ref.u, s, t))))
    boundary = curvature_of_revolution(gen, n=n)

    _count_factors(counters, sol.factors, refined=True)
    counters["cut_edges"] = sol.cut_edges
    identity = normal_derivative_identity(boundary, sol.field)

    # interface stability form with the bulk probe's xi = u_s * eta, its border zeroed
    bulk = probe_inequality(sol.field, _probe(cfg), resolve_reaction(cfg.reaction))
    xi_vals = bulk.xi.values.copy()
    xi_vals[~_unknown_mask(xi_vals.shape, sol.field.has_axis)] = 0.0
    form = onephase_stability_form(boundary, sol.field, sol.field.with_values(xi_vals))

    outputs["boundary.csv"] = lambda path: boundary.save_csv(path)
    outputs["field.bin"] = lambda path: sol.field.save_binary(path)
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
            "n": n,
            "lhs": bulk.lhs,
            "rhs": bulk.rhs,
            "defect": bulk.defect,
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

    os.makedirs(cfg.out_dir, exist_ok=True)
    for name, writer in outputs.items():
        writer(os.path.join(cfg.out_dir, name))
    with open(os.path.join(cfg.out_dir, "report.json"), "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
    return report
