"""Smoke runs of the studies in ``scripts/``, each in its own process at small sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(script, out, args, cwd=None):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(out), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
    )


def test_script_runs_and_writes_its_reports(tmp_path):
    out = tmp_path / "out"
    # at resolution 16 the neck misses the |grad u| = 1 precondition
    proc = _run_script("interface_identity_refinement.py", out, ["--resolutions", "24,32"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    found = sorted(out.rglob("report.json"))
    assert len(found) == 2
    for path in found:
        assert json.loads(path.read_text())["results"]


def test_script_ends_a_lab_error_in_one_error_line(tmp_path):
    proc = _run_script("interface_identity_refinement.py", tmp_path / "out", ["--resolutions", "16"])
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:"), proc.stderr
    assert "|grad u| deviates from 1" in lines[0]


def test_bench_ladder_writes_one_row_per_fresh_process(tmp_path):
    # the smallest rungs that solve: 33^2 for solve and stability, resolution 24 for onephase
    args = ["--tag", "smoke", "--nodes", "33", "--resolutions", "24"]
    proc = _run_script("bench_ladder.py", tmp_path / "runs", args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert bench["machine"]["nproc"] >= 1
    assert list(bench["runs"]) == ["solve-33", "stability-33", "stability-catenoid-33", "onephase-24"]
    for row in bench["runs"].values():
        assert row["exit_status"] == 0
        assert row["wall_s"] > row["run_seconds"] > 0.0 and row["peak_rss_mb"] > 0.0
    # the solves factor; the tiled layer's stability separates, with no LU and no LOBPCG step
    assert bench["runs"]["solve-33"]["counters"]["lu_factorizations"] >= 1
    assert bench["runs"]["onephase-24"]["counters"]["lu_factorizations"] >= 1
    stability = bench["runs"]["stability-33"]["counters"]
    assert stability["lu_factorizations"] == 0 and stability["eigen_iterations"] == [0]
    # the solved neck is not s-independent: the cascade factors and steps
    catenoid = bench["runs"]["stability-catenoid-33"]
    assert catenoid["boundary"] == "catenoid"
    assert catenoid["counters"]["lu_factorizations"] >= 1 and catenoid["counters"]["eigen_iterations"][-1] > 0
