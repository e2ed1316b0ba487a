import json
import math
import os

import numpy as np
import pytest
from click.testing import CliRunner

from onephase_lab.cli import main
from onephase_lab.config import ExperimentConfig, apply_env_overrides, parse_config
from onephase_lab.errors import ConfigError
from onephase_lab.experiments import run
from onephase_lab.stability import admissible_alpha


@pytest.fixture()
def runner():
    return CliRunner()


def test_window_command_matches_module(tmp_path, runner):
    out = tmp_path / "win"
    result = runner.invoke(main, ["window", "--out", str(out), "--dims", "3,5,6"])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    rows = report["results"]["admissible_alpha"]
    assert rows["3"]["interval"] == list(admissible_alpha(3))
    assert rows["5"]["interval"] == list(admissible_alpha(5))
    assert rows["6"]["interval"] is None
    assert "exploratory" in rows["6"]["note"]


def test_profile_command_reports_slope_law(tmp_path, runner):
    out = tmp_path / "prof"
    result = runner.invoke(main, ["profile", "--a", "2.0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    shoot = report["results"]["shoot"]
    assert shoot["case_tag"] == "case_i"
    assert shoot["case_defect"] <= 1e-6
    assert (out / "profile.csv").exists()
    assert (out / "profile.dat").exists()


def test_gallery_command_emits_three_panels(tmp_path, runner):
    out = tmp_path / "fig"
    result = runner.invoke(main, ["figure1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    for name in ("fig_case_i.dat", "fig_case_ii.dat", "fig_case_iii.dat"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    panels = report["results"]["panels"]
    assert panels["case_i"]["case_defect"] <= 1e-6
    assert abs(panels["case_ii"]["a"] - 1.0) <= 1e-8
    # the well panel is even about its minimum
    data = np.loadtxt(out / "fig_case_iii.dat")
    x, u = data[:, 0], data[:, 1]
    p = x[np.argmin(u)]
    interp = np.interp(p + (x - p), x, u)
    mirror = np.interp(p - (x - p), x, u)
    inside = (p + np.abs(x - p) < x[-1]) & (p - np.abs(x - p) > x[0])
    assert np.max(np.abs((interp - mirror)[inside])) < 1e-4


def test_malformed_config_exits_nonzero_without_outputs(tmp_path, runner):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[experiment]\nname = profile\n\n[grid]\nn = not_a_number\n")
    out = tmp_path / "never"
    result = runner.invoke(main, ["profile", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code != 0
    assert not out.exists()


def test_unknown_experiment_rejected(tmp_path):
    cfg = ExperimentConfig(experiment="nonsense")
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_file_parsing_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[experiment]\nname = window\nout_dir = runs/x\n\n"
        "[window]\ndims = 4,5\n\n"
        "[tolerances]\nnewton = 1e-9\n"
    )
    cfg = parse_config(path)
    assert cfg.experiment == "window"
    assert cfg.dims == (4, 5)
    assert cfg.tolerances["newton"] == 1e-9
    assert cfg.tolerances["eigen"] == 1e-8  # default preserved


def test_env_tolerance_override():
    tols = apply_env_overrides({"newton": 1e-10}, environ={"ONEPHASE_LAB_TOL_NEWTON": "1e-6"})
    assert tols["newton"] == 1e-6
    with pytest.raises(ConfigError):
        apply_env_overrides({}, environ={"ONEPHASE_LAB_TOL_X": "zzz"})


def test_stale_threads_line_still_parses(tmp_path):
    path = tmp_path / "old.cfg"
    path.write_text("[experiment]\nname = profile\nthreads = 4\n\n[profile]\na = 1.5\n")
    cfg = parse_config(path)
    assert (cfg.experiment, cfg.a) == ("profile", 1.5)
    assert "threads" not in cfg.canonical_text()


def _lu_counters(report, out, artifacts):
    """The run's LU counters, which live in ``meta`` and nowhere else."""
    counters = report["meta"]["counters"]
    assert sorted(counters) == ["lu_factorizations", "lu_fill_nnz"]
    assert "lu_" not in json.dumps(report["results"])
    for name in artifacts:
        assert b"lu_" not in (out / name).read_bytes()
    return counters


def test_report_results_are_bitwise_reproducible(tmp_path):
    cfg1 = ExperimentConfig(experiment="profile", a=1.5, out_dir=str(tmp_path / "r1"))
    cfg2 = ExperimentConfig(experiment="profile", a=1.5, out_dir=str(tmp_path / "r2"))
    rep1 = run(cfg1)
    rep2 = run(cfg2)
    assert json.dumps(rep1.results, sort_keys=True) == json.dumps(rep2.results, sort_keys=True)
    # the echoed config parses back to an equivalent run
    echo = tmp_path / "echo.cfg"
    echo.write_text(rep1.config_text)
    cfg3 = parse_config(echo)
    rep3 = run(cfg3)
    assert json.dumps(rep3.results, sort_keys=True) == json.dumps(rep1.results, sort_keys=True)
    assert rep3.config_hash == rep1.config_hash


def test_blowdown_command(tmp_path, runner):
    out = tmp_path / "bd"
    result = runner.invoke(
        main, ["blowdown", "--out", str(out), "--epsilons", "1,0.5,0.25"]
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    rows = report["results"]["family"]
    assert [r["epsilon"] for r in rows] == [1.0, 0.5, 0.25]
    gaps = [r["gap"] for r in rows]
    assert gaps[2] < gaps[1] < gaps[0]
    assert report["results"]["gap_nonincreasing_within_1e-4"]
    assert (out / "blowdown.csv").exists()


def test_solve_command_with_domain_study(tmp_path, runner):
    out = tmp_path / "solve"
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(
        "[experiment]\nname = solve\n\n"
        "[grid]\nn = 3\ns_max = 2.0\nt_min = -2.0\nt_max = 2.0\nns = 33\nnt = 33\n\n"
        "[solve]\ndomain_study = true\n"
    )
    result = runner.invoke(main, ["solve", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["solve"]["residual"] <= 1e-10
    assert report["results"]["solve"]["max_principle_defect"] <= 1e-10
    assert "domain_study" in report["results"]
    assert report["results"]["domain_study"]["max_interior_difference"] < 0.05
    assert (out / "field.bin").exists()
    counters = _lu_counters(report, out, ["field.csv", "field.bin"])
    # one factor per Newton step, on the grid and on the domain-study subgrid
    assert counters["lu_factorizations"] > report["results"]["solve"]["newton_iterations"] > 0
    assert counters["lu_fill_nnz"] >= 32 * 31  # at least the unknowns of the 33^2 grid


def test_stability_command_layer(tmp_path, runner):
    out = tmp_path / "stab"
    cfg = tmp_path / "stab.cfg"
    cfg.write_text(
        "[experiment]\nname = stability\n\n"
        "[grid]\nn = 3\ns_max = 2.0\nt_min = -2.0\nt_max = 2.0\nns = 33\nnt = 33\n"
    )
    result = runner.invoke(main, ["stability", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["rayleigh"]["min"] >= -1e-6
    assert report["results"]["rayleigh"]["verdict"] == "stable-on-grid"
    for row in report["results"]["probes"]:
        assert row["defect"] >= -1e-10
    assert (out / "spectral.json").exists()
    assert (out / "eigenvector.csv").exists()
    counters = _lu_counters(report, out, ["spectral.json", "eigenvector.csv"])
    assert 1 <= counters["lu_factorizations"] <= 6  # one factor per shift stage
    assert counters["lu_fill_nnz"] >= 32 * 31


def test_onephase_command_strip_neck(tmp_path, runner):
    out = tmp_path / "op"
    result = runner.invoke(
        main, ["onephase", "--preset", "strip_neck", "--resolution", "48", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    res = report["results"]
    assert res["masked_solve"]["sup_error_vs_exact"] < 1e-4
    assert res["normal_derivative_identity"]["max_defect"] < 0.2
    assert (out / "boundary.csv").exists()
    counters = _lu_counters(report, out, ["boundary.csv", "field.csv"])
    assert counters["lu_factorizations"] == 1
    assert counters["lu_fill_nnz"] >= res["masked_solve"]["unknowns"]
