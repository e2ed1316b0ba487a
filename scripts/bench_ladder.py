#!/usr/bin/env python3
"""Benchmark ladder: each CLI experiment on a fixed ladder of grids, one fresh process per run.

Runs ``solve`` (``configs/solve_neck_n3.cfg``) and ``stability``
(``configs/stability_n3.cfg``) at ns = nt on each of ``--nodes``, and
``onephase`` (``configs/onephase_strip_neck.cfg``, strip_neck) at each of
``--resolutions``.  Each run is ``python -m onephase_lab.cli`` on this
checkout's ``src``, started fresh, so its import, its run and its artifacts
are all inside the measured process.  It writes ``BENCH_<tag>.json`` in
the current directory: the machine facts and, per run, the process wall time, the
child's peak resident set (``ru_maxrss`` of that child alone), the report's
``meta.timings.run_seconds`` and ``meta.counters``, or the error line of a
run that failed.  The default ladder is 65, 129, 257, 513 and the even 256
(a single-level grid), and resolutions 32 to 256.

    python scripts/bench_ladder.py --tag mytag
"""

import argparse
import configparser
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ints(text):
    return [int(x) for x in text.split(",") if x.strip()]


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
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return facts


def rung_config(name: str, nodes: int, path: Path) -> Path:
    """``configs/<name>`` with ns = nt = nodes, written to ``path``."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    parser.read(ROOT / "configs" / name)
    parser["grid"]["ns"] = parser["grid"]["nt"] = str(nodes)
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def run_one(args, out: Path, **about) -> dict:
    """One fresh CLI process: ``about`` it, its wall time, peak RSS and report meta."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    cmd = [sys.executable, "-m", "onephase_lab.cli", *args, "--out", str(out)]
    with open(out.parent / f"{out.name}.log", "w+") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=log)
        # wait4 reports the resources of this child alone
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        output = log.read()
    row = {**about, "exit_status": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}
    if proc.returncode == 0:
        meta = json.loads((out / "report.json").read_text())["meta"]
        row.update(run_seconds=meta["timings"]["run_seconds"], counters=meta["counters"])
    else:
        row["error"] = output.strip().splitlines()[-1] if output.strip() else ""
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tag", default=time.strftime("%Y%m%d"), help="names the file BENCH_<tag>.json")
    ap.add_argument("--out", default="runs/bench_ladder", help="directory of the runs' outputs")
    ap.add_argument("--nodes", type=_ints, default=[65, 129, 257, 513, 256], help="ns = nt of solve and stability")
    ap.add_argument("--resolutions", type=_ints, default=[32, 64, 128, 256], help="onephase resolutions")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    plan = [
        (f"{experiment}-{nodes}", [experiment, "--config", str(rung_config(name, nodes, out / f"{experiment}-{nodes}.cfg"))],
         {"config": name, "nodes": nodes})
        for experiment, name in (("solve", "solve_neck_n3.cfg"), ("stability", "stability_n3.cfg"))
        for nodes in args.nodes
    ]
    strip_neck = "onephase_strip_neck.cfg"
    plan += [
        (f"onephase-{res}", ["onephase", "--config", str(ROOT / "configs" / strip_neck), "--resolution", str(res)],
         {"config": strip_neck, "resolution": res})
        for res in args.resolutions
    ]

    runs = {}
    for name, cli_args, about in plan:
        row = runs[name] = run_one(cli_args, out / name, **about)
        status = f"{row['run_seconds']:.3f} s in run" if row["exit_status"] == 0 else f"FAILED: {row['error']}"
        print(f"{name}: {row['wall_s']:.3f} s wall, {row['peak_rss_mb']:.1f} MB, {status}", flush=True)
    bench = {"tag": args.tag, "machine": machine_facts(), "runs": runs}
    path = Path(f"BENCH_{args.tag}.json")
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
