#!/usr/bin/env python3
"""Benchmark of the lab: time to certified results on three solver-bound workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload newton-neck --seed 1 --seconds 40 --trace 0

``--workload all`` runs the three workloads one after the other, each in
its own process, and prints the report of each.

Each workload drives ``experiments.run`` (the path the CLI takes, minus
click) over a fixed list of items in this one process, checks every item's
report, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (see ``workloads.py``):

* ``newton-neck``: ``solve`` on catenoid neck data (n = 3, domain study on)
  at 129^2, 257^2 and 449^2; bound by Newton factorizations.
* ``eigen-sweep``: ``stability`` of the tiled layer at 257^2 for n = 3, 4, 5;
  bound by back-solves of the inverse iteration.  It also times the known
  385 x 385 tiled-layer failure, apart from the items.
* ``masked-refinement``: ``onephase`` ``strip_neck`` at resolutions 64, 128
  and 256; bound by the exact reference, the Python assembly loop of the
  masked solve and scalar interface bisection.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced:

* ``wall_s``: one pass over all items, artifacts written (median over passes);
* ``top_item_s``: the heaviest item of a pass (median over passes);
* ``setup_s``: process start until the package is imported and the item
  configs are resolved, the median of several fresh processes;
* ``peak_rss_mb``: peak resident set of this process;
* ``pass_frac``: items that ran and passed their checks over items attempted.

A run makes as many passes as fit in ``--seconds`` at the pace measured
when the benchmark was sized (``workloads.PASS_SECONDS``), at least one.
With ``--trace 1`` the run makes one untraced pass, then one traced pass,
and reports the per-layer metrics of ``tracer.py`` for the traced pass.

The package is imported from ``src/`` of the checkout and nowhere else: in
a directory without it the benchmark exits nonzero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = [
    ("wall_s", "s"),
    ("top_item_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
]


def import_lab() -> dict:
    """The package modules and classes, imported from this checkout's ``src``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import onephase_lab
        from onephase_lab import axisym_field, config, errors, experiments, onephase_geometry, reference, stability
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import onephase_lab from {src}: {exc}")
    if Path(onephase_lab.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: onephase_lab came from {onephase_lab.__file__}, not from {src}")
    return {
        "experiments": experiments,
        "config": config,
        "errors": errors,
        "axisym_field": axisym_field,
        "stability": stability,
        "onephase_geometry": onephase_geometry,
        "StripNeckExact": reference.StripNeckExact,
        "AxiField": axisym_field.AxiField,
        "SpectralReport": stability.SpectralReport,
        "RevolutionBoundary": onephase_geometry.RevolutionBoundary,
    }


def resolve_configs(lab, items, workdir: Path) -> list:
    """Write each item's config file and parse it the way the CLI does."""
    cfgs = []
    for item in items:
        path = workdir / f"{item.name}.cfg"
        path.write_text(item.config.format(out=workdir / item.name))
        cfgs.append(lab["config"].parse_config(path))
    return cfgs


def measure_setup(args) -> float:
    """Median time for a fresh process to import the package and resolve the configs."""
    samples = []
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            rest = proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: setup probe failed ({proc.returncode}): {line}{rest}")
    return statistics.median(samples)


def run_pass(lab, workload, items, cfgs) -> dict:
    """One pass over the items; returns times, failures and the pass wall time."""
    experiments = lab["experiments"]
    item_s, failures, results = {}, {}, {}
    t0 = time.perf_counter()
    for item, cfg in zip(items, cfgs):
        t_item = time.perf_counter()
        try:
            report = experiments.run(cfg)
        except Exception as exc:  # one failed item; the pass goes on
            failures[item.name] = f"{type(exc).__name__}: {exc}"
            continue
        finally:
            item_s[item.name] = time.perf_counter() - t_item
        reason = workloads.check_item(workload, item, report.results, cfg.tolerances)
        if reason:
            failures[item.name] = reason
        else:
            results[item.key] = report.results
    reason = workloads.check_pass(workload, results)
    if reason:
        failures[next(i.name for i in items if i.top)] = reason
    wall = time.perf_counter() - t0
    for name, why in failures.items():
        print(f"FAILED {workload} {name}: {why}")
    return {"wall": wall, "item_s": item_s, "failures": len(failures)}


def known_defect(lab, workload) -> int:
    """Run the workload's known-defect probe; returns 1 when it fails as on the seed."""
    if workload != "eigen-sweep":
        return 0
    experiments = lab["experiments"]
    n = workloads.DEFECT_TILE_NODES
    grid = lab["axisym_field"].GridSpec(n=3, s_max=3.0, t_min=-3.0, t_max=3.0, ns=n, nt=n)
    t0 = time.perf_counter()
    try:
        experiments.tiled_layer_field(experiments.resolve_reaction("poly2"), grid)
    except lab["errors"].LabError as exc:
        print(f"known defect: tiled_layer_field {n}x{n} raised {type(exc).__name__} "
              f"after {time.perf_counter() - t0:.3f} s: {exc}")
        return 1
    print(f"known defect: tiled_layer_field {n}x{n} now passes in {time.perf_counter() - t0:.3f} s")
    return 0


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level, kind = (index / "level").read_text().strip(), (index / "type").read_text().strip()
            if kind != "Instruction":
                facts[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    return facts


def thread_count() -> int:
    try:
        with open("/proc/self/status") as fh:
            return next(int(ln.split()[1]) for ln in fh if ln.startswith("Threads:"))
    except (OSError, StopIteration):
        return 0


def check_benchmark_json():
    """Every metric this file can print is declared in BENCHMARK.json with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    printed = {
        "end_to_end": dict(END_TO_END),
        "per_layer": {name: unit for name, unit, *_ in tracer.PER_LAYER},
    }
    for kind in declared:
        if declared[kind] != printed[kind]:
            diff = set(declared[kind].items()) ^ set(printed[kind].items())
            sys.exit(f"perfbench: {kind} metrics disagree with BENCHMARK.json: {sorted(diff)}")


def run_all(args):
    """Run every workload, each in its own process, one after the other."""
    failed = []
    for workload in workloads.WORKLOADS:
        print(f"== {workload}", flush=True)
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if subprocess.run(cmd).returncode != 0:
            failed.append(workload)
    if failed:
        sys.exit(f"perfbench: workloads exited nonzero: {', '.join(failed)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    # One BLAS thread: numpy and scipy each bundle an OpenBLAS whose pool
    # would otherwise hold idle threads beyond the cores; the lab itself is
    # single-threaded.  Values set by the caller are kept and recorded.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        run_all(args)
        return

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            resolve_configs(import_lab(), workloads.make_items(args.workload, args.seed), workdir)
            print("ready", flush=True)
            return
        check_benchmark_json()
        workloads.self_test()
        lab = import_lab()
        setup_s = measure_setup(args)
        items = workloads.make_items(args.workload, args.seed)
        cfgs = resolve_configs(lab, items, workdir)
        top = next(i.name for i in items if i.top)
        print(f"machine: {json.dumps(machine_facts())}")
        print(f"items: {', '.join(i.name for i in items)}")

        n_passes = 1 if args.trace else max(1, int(args.seconds // workloads.PASS_SECONDS[args.workload]))
        passes = [run_pass(lab, args.workload, items, cfgs) for _ in range(n_passes)]
        if args.trace:
            with tracer.Tracer(lab) as tr:
                traced = run_pass(lab, args.workload, items, cfgs)
            passes.append(traced)
        defects = known_defect(lab, args.workload)
        threads = thread_count()
        print(f"threads: {threads} (nproc {os.cpu_count()}){'' if threads <= os.cpu_count() else ' OVER nproc'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(items) * len(passes)
    failed = sum(p["failures"] for p in passes)
    silent = []
    if args.trace:
        values = tr.metrics()
        silent = tr.unattributed()
        values["trace.overhead_s"] = traced["wall"] - passes[0]["wall"]
        values["trace.unattributed"] = len(set(silent) & workloads.TRACED[args.workload])
        values["defects.known_failures"] = defects
        units = {name: unit for name, unit, *_ in tracer.PER_LAYER}
    else:
        values = {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "top_item_s": statistics.median(p["item_s"][top] for p in passes),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
    # A metric whose wrapped name saw no call reads 0 in the JSON line, which
    # needs a number; here it is shown as unattributed so that a refactor that
    # moves a call does not read as a speed-up.
    sources = {name: source for name, _unit, _better, source, _read in tracer.PER_LAYER}
    for name, value in values.items():
        shown = "unattributed" if sources.get(name) in silent else f"{value:.6g} {units[name]}"
        print(f"{name} = {shown}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
