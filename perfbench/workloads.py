"""Workload items, seed draws and output checks of the benchmark.

Each item is one ``experiments.run`` call, described by config text that
uses only keys the shipped ``configs/*.cfg`` files use (never ``threads``).
The seed permutes item order and draws the stability probe parameters
(``alpha`` inside the admissible window, ``R``, ``eps_inner``); those change
results but not solver work.  Every item's report is checked against the
program's own tolerances and against values recorded when the benchmark was
created.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Grid rungs of newton-neck.  513^2 is left out on purpose: on the catenoid
# neck data the Newton residual there alternates between 1.16e-10 and
# 1.31e-10 against tol = 1e-10 and the solve raises only after 40 fresh
# factorizations (over two minutes).  449^2 is the largest rung that
# completes; it already spends 2 of its 6 Newton steps at the round-off floor.
NEWTON_NECK_NODES = (129, 257, 449)
EIGEN_DIMS = (3, 4, 5)
EIGEN_NODES = 257
MASKED_RESOLUTIONS = (64, 128, 256)

# The known defect shown on eigen-sweep: building the tiled layer at the
# advertised 385 x 385 raises NonconvergenceError (1D residual stuck near
# 1.3e-11 against tol = 1e-12).  It is timed and reported apart from the
# items, because the items are chosen so that none fails.
DEFECT_TILE_NODES = 385

# Recorded when the benchmark was created (257^2 tiled layer, eigen tolerance
# 1e-8): the smallest Rayleigh quotient per dimension n.
RECORDED_LAMBDA_MIN = {
    3: 0.9983769852905717,
    4: 1.4524248406518419,
    5: 1.9871318414859473,
}
# Recorded sup error of the masked solve against the exact neck, per resolution.
RECORDED_SUP_ERROR = {
    64: 4.367810472249989e-06,
    128: 1.1093336118594976e-06,
    256: 2.7799799573458017e-07,
}
# Relative slack on the recorded sup error: round-off from reordered sums only.
SUP_ERROR_SLACK = 1e-6
# Decay order of the interface identity defect required over the three
# resolutions: the first-order gate of acceptance criterion 10.
MIN_DECAY_ORDER = 0.8
STABLE = "stable-on-grid"


@dataclass
class Item:
    """One ``experiments.run`` call of a workload."""

    name: str
    config: str
    key: int  # grid nodes, dimension or resolution the recorded values use
    top: bool = False  # the workload's heaviest item


def _newton_neck(rng):
    return [
        Item(
            name=f"solve-{nodes}",
            key=nodes,
            top=nodes == max(NEWTON_NECK_NODES),
            config=(
                "[experiment]\nname = solve\nout_dir = {out}\n\n"
                f"[grid]\nn = 3\ns_max = 3.0\nt_min = -1.5\nt_max = 1.5\nns = {nodes}\nnt = {nodes}\n\n"
                "[boundary]\nmodel = catenoid\n\n"
                "[solve]\ndomain_study = true\n\n" + _probe_section(rng, 0.5, 1.0, 1.5, 2.5, 0.03, 0.08)
            ),
        )
        for nodes in NEWTON_NECK_NODES
    ]


def _eigen_sweep(rng):
    windows = {n: ((n - 2) / 2.0, math.sqrt(n - 2)) for n in EIGEN_DIMS}
    return [
        Item(
            name=f"stability-n{n}",
            key=n,
            top=n == 3,
            config=(
                "[experiment]\nname = stability\nout_dir = {out}\n\n"
                f"[grid]\nn = {n}\ns_max = 3.0\nt_min = -3.0\nt_max = 3.0\n"
                f"ns = {EIGEN_NODES}\nnt = {EIGEN_NODES}\n\n"
                "[boundary]\nmodel = profile\n\n"
                + _probe_section(rng, lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo), 1.5, 2.5, 0.03, 0.08)
            ),
        )
        for n, (lo, hi) in windows.items()
    ]


def _masked_refinement(rng):
    return [
        Item(
            name=f"onephase-{res}",
            key=res,
            top=res == max(MASKED_RESOLUTIONS),
            config=(
                "[experiment]\nname = onephase\nout_dir = {out}\n\n"
                f"[onephase]\npreset = strip_neck\nresolution = {res}\n\n"
                + _probe_section(rng, 0.5, 0.9, 1.2, 1.6, 0.2, 0.4)
            ),
        )
        for res in MASKED_RESOLUTIONS
    ]


def _probe_section(rng, a_lo, a_hi, r_lo, r_hi, e_lo, e_hi):
    return (
        f"[probe]\nalpha = {rng.uniform(a_lo, a_hi)!r}\nR = {rng.uniform(r_lo, r_hi)!r}\n"
        f"eps_inner = {rng.uniform(e_lo, e_hi)!r}\neps0 = 0.1\n"
    )


WORKLOADS = {
    "newton-neck": _newton_neck,
    "eigen-sweep": _eigen_sweep,
    "masked-refinement": _masked_refinement,
}

# Seconds one pass takes on the 2-core Xeon host (Python 3.11, numpy 2.4,
# scipy 1.17) the benchmark was sized on.  A run makes as many passes as fit
# in ``--seconds`` at this pace, so the pass count, and with it which passes
# the medians see, does not follow the machine's momentary speed.
PASS_SECONDS = {"newton-neck": 24.0, "eigen-sweep": 17.0, "masked-refinement": 14.0}


def make_items(workload: str, seed: int) -> list[Item]:
    """The workload's items in the order the seed gives."""
    rng = random.Random(f"{workload}:{seed}")
    items = WORKLOADS[workload](rng)
    rng.shuffle(items)
    return items


def check_item(workload: str, item: Item, results: dict, tolerances: dict) -> str | None:
    """Why the item's report is wrong, or None when it passes."""
    if workload == "newton-neck":
        residual = results["solve"]["residual"]
        if not residual <= tolerances["newton"]:
            return f"final residual {residual:.3e} above Newton tol {tolerances['newton']:g}"
    elif workload == "eigen-sweep":
        ray = results["rayleigh"]
        if ray["verdict"] != STABLE:
            return f"verdict {ray['verdict']!r}, expected {STABLE!r}"
        recorded = RECORDED_LAMBDA_MIN[item.key]
        if not abs(ray["min"] - recorded) <= tolerances["eigen"]:
            return f"lambda_min {ray['min']!r} differs from recorded {recorded!r}"
    else:
        err = results["masked_solve"]["sup_error_vs_exact"]
        recorded = RECORDED_SUP_ERROR[item.key]
        if not err <= recorded * (1.0 + SUP_ERROR_SLACK):
            return f"sup error {err!r} worse than recorded {recorded!r}"
    return None


def check_pass(workload: str, results_by_key: dict) -> str | None:
    """Checks across the items of one pass; a failure is charged to one item.

    masked-refinement: the identity defect must fall from each resolution to
    the next and decay at least at first order over the three.
    """
    if workload != "masked-refinement" or len(results_by_key) < len(MASKED_RESOLUTIONS):
        return None
    defects = [results_by_key[r]["normal_derivative_identity"]["max_defect"] for r in MASKED_RESOLUTIONS]
    logs = [math.log(r) for r in MASKED_RESOLUTIONS]
    lx, ly = sum(logs) / len(logs), sum(math.log(d) for d in defects) / len(defects)
    slope = sum((x - lx) * (math.log(d) - ly) for x, d in zip(logs, defects)) / sum((x - lx) ** 2 for x in logs)
    if not all(a > b for a, b in zip(defects, defects[1:])) or -slope < MIN_DECAY_ORDER:
        return f"identity defects {defects} decay at order {-slope:.2f} < {MIN_DECAY_ORDER}"
    return None


# Workload -> traced spans and counters that see calls on it.  When one of
# them goes silent after a refactor, ``trace.unattributed`` counts it.
TRACED = {
    "newton-neck": {
        "experiments.run", "axisym_field.solve_semilinear", "axisym_field.energy",
        "lu.axisym_field.factor", "lu.axisym_field.solve", "profile1d.unique_increasing_profile",
        "reaction_terms.eval", "reaction_terms.deriv", "io",
    },
    "eigen-sweep": {
        "experiments.run", "axisym_field.solve_semilinear_1d", "axisym_field.apply_axisym_laplacian",
        "lu.axisym_field.factor", "lu.axisym_field.solve", "lu.stability.factor", "lu.stability.solve",
        "stability.linearized_rayleigh_min", "stability.assemble_operator", "stability.probe_inequality",
        "profile1d.unique_increasing_profile", "reaction_terms.eval", "reaction_terms.deriv", "io",
    },
    "masked-refinement": {
        "experiments.run", "axisym_field.apply_axisym_laplacian", "lu.onephase_geometry.factor",
        "lu.onephase_geometry.solve", "stability.probe_inequality", "onephase_geometry.solve_harmonic_masked",
        "onephase_geometry.normal_derivative_identity", "onephase_geometry.onephase_stability_form",
        "reference.u", "reference.level", "reaction_terms.deriv", "io",
    },
}


def self_test() -> None:
    """Each output check accepts a good report and rejects a deliberately broken one."""
    tol = {"newton": 1e-10, "eigen": 1e-8}
    neck, eig, masked = Item("solve-129", "", 129), Item("stability-n3", "", 3), Item("onephase-64", "", 64)
    lam, err = RECORDED_LAMBDA_MIN[3], RECORDED_SUP_ERROR[64]
    cases = [
        ("newton-neck", neck, {"solve": {"residual": 0.5 * tol["newton"]}}, True),
        ("newton-neck", neck, {"solve": {"residual": 2.0 * tol["newton"]}}, False),
        ("eigen-sweep", eig, {"rayleigh": {"verdict": STABLE, "min": lam}}, True),
        ("eigen-sweep", eig, {"rayleigh": {"verdict": "unstable-direction-found", "min": lam}}, False),
        ("eigen-sweep", eig, {"rayleigh": {"verdict": STABLE, "min": lam + 10 * tol["eigen"]}}, False),
        ("masked-refinement", masked, {"masked_solve": {"sup_error_vs_exact": err}}, True),
        ("masked-refinement", masked, {"masked_solve": {"sup_error_vs_exact": 2.0 * err}}, False),
    ]
    for workload, item, results, ok in cases:
        if (check_item(workload, item, results, tol) is None) != ok:
            raise SystemExit(f"perfbench: self-test: check of {workload} {results} should {'pass' if ok else 'fail'}")
    for defects, ok in (((4e-2, 2e-2, 1e-2), True), ((4e-2, 3.9e-2, 3.8e-2), False), ((4e-2, 1e-2, 2e-2), False)):
        results = {r: {"normal_derivative_identity": {"max_defect": d}} for r, d in zip(MASKED_RESOLUTIONS, defects)}
        if (check_pass("masked-refinement", results) is None) != ok:
            raise SystemExit(f"perfbench: self-test: decay check of {defects} should {'pass' if ok else 'fail'}")
