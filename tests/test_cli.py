import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import onephase_lab
from onephase_lab import cli, experiments
from onephase_lab.axisym_field import AxiField, _unknown_mask
from onephase_lab.cli import main
from onephase_lab.config import (
    _KEYS,
    BOUNDARY_MODELS,
    EXPERIMENTS,
    MIN_EPSILON,
    ONEPHASE_PRESETS,
    ExperimentConfig,
    parse_config,
)
from onephase_lab.errors import ConfigError, LabError
from onephase_lab.experiments import ExperimentReport, run
from onephase_lab.numerics import csv_lines
from onephase_lab.reaction_terms import make_polynomial_beta
from onephase_lab.reference import SphereShellExact, StripNeckExact
from onephase_lab.stability import admissible_alpha

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    assert sorted(os.listdir(out)) == ["profile.csv", "report.json"]


def test_gallery_command_emits_three_panels(tmp_path, runner):
    out = tmp_path / "fig"
    result = runner.invoke(main, ["figure1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert sorted(os.listdir(out)) == ["fig_case_i.csv", "fig_case_ii.csv", "fig_case_iii.csv", "report.json"]
    report = json.loads((out / "report.json").read_text())
    panels = report["results"]["panels"]
    assert panels["case_i"]["case_defect"] <= 1e-6
    assert abs(panels["case_ii"]["a"] - 1.0) <= 1e-8
    # the well panel is even about its minimum
    assert (out / "fig_case_iii.csv").read_text().startswith("x,u,du\n")
    data = np.loadtxt(out / "fig_case_iii.csv", delimiter=",", skiprows=1)
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


def test_environment_is_not_an_input_of_a_run(tmp_path, runner, monkeypatch):
    # a variable named like the retired tolerance override: the CLI run must
    # echo the config and results of the same file run through the package
    monkeypatch.setenv(onephase_lab.__name__.upper() + "_TOL_NEWTON", "1e-3")
    path = tmp_path / "run.cfg"
    path.write_text(f"[experiment]\nname = window\nout_dir = {tmp_path / 'win'}\n\n[window]\ndims = 3\n")
    result = runner.invoke(main, ["window", "--config", str(path)])
    assert result.exit_code == 0, result.output
    echoed = json.loads((tmp_path / "win" / "report.json").read_text())
    report = run(parse_config(path))
    assert echoed["config"] == report.config_text
    assert "newton = 1e-10" in echoed["config"].splitlines()
    assert json.dumps(echoed["results"], sort_keys=True) == json.dumps(report.results, sort_keys=True)


def test_blas_thread_count_of_the_caller_is_not_an_input_of_a_run(tmp_path):
    # a threaded BLAS sums in an order set by its thread count: at 1 and 2
    # threads the eigen solve differed in the 15th digit of rayleigh.min
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    src = str(Path(onephase_lab.__file__).resolve().parent.parent)
    reports = []
    for count in ("1", "2"):
        env = {**os.environ, **dict.fromkeys(threads, count)}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = tmp_path / count
        args = ["stability", "--config", str(CONFIGS / "stability_n3.cfg"), "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "onephase_lab.cli", *args], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        reports.append(json.loads((out / "report.json").read_text()))
    first, second = (json.dumps(report["results"], sort_keys=True) for report in reports)
    assert first == second
    assert all(report["meta"]["blas_threads"] == dict.fromkeys(threads, "1") for report in reports)


def test_unknown_tolerance_name_is_rejected(tmp_path, runner):
    path = tmp_path / "typo.cfg"
    path.write_text("[tolerances]\nnewtn = 1e-3\n")
    with pytest.raises(ConfigError, match="'newtn'"):
        parse_config(path)
    with pytest.raises(ConfigError, match="'newtn'"):
        ExperimentConfig(tolerances={"newton": 1e-10, "newtn": 1e-3}).validate()
    out = tmp_path / "never"
    result = runner.invoke(main, ["window", "--config", str(path), "--out", str(out)])
    assert result.exit_code != 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:") and "'newtn'" in lines[0]
    assert not out.exists()


def test_unknown_config_section_is_rejected(tmp_path, runner):
    path = tmp_path / "typo.cfg"
    path.write_text("[experiment]\nname = profile\n\n[gird]\nn = 5\n")
    with pytest.raises(ConfigError, match=r"unknown config section \[gird\]"):
        parse_config(path)
    out = tmp_path / "never"
    result = runner.invoke(main, ["solve", "--config", str(path), "--out", str(out)])
    assert result.exit_code != 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:") and "[gird]" in lines[0]
    assert not out.exists()


def test_default_section_is_rejected(tmp_path, runner):
    # configparser would hand a = 2.0 to no field, and profile would run at a = 1
    path = tmp_path / "default.cfg"
    path.write_text("[DEFAULT]\na = 2.0\n")
    with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
        parse_config(path)
    out = tmp_path / "never"
    result = runner.invoke(main, ["profile", "--config", str(path), "--out", str(out)])
    assert result.exit_code != 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:") and "[DEFAULT]" in lines[0]
    assert not out.exists()


def test_malformed_reaction_table_exits_with_one_error_line(tmp_path, runner):
    table = tmp_path / "bad.csv"
    table.write_text("t,beta,beta_prime,Phi\n0,0,0,0\nabc,1,0,0\n")
    path = tmp_path / "table.cfg"
    path.write_text(f"[experiment]\nname = profile\n\n[reaction]\nkind = table:{table}\n")
    out = tmp_path / "never"
    result = runner.invoke(main, ["profile", "--config", str(path), "--out", str(out)])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:") and f"{table}, line 3" in lines[0]
    assert not out.exists()


def _table_run(tmp_path, runner, t, beta_values):
    """Run ``profile`` on the reaction table beta(t); return the result and its out dir."""
    table = tmp_path / "beta.csv"
    table.write_text("t,beta\n" + csv_lines(t, beta_values))
    path = tmp_path / "table.cfg"
    path.write_text(f"[experiment]\nname = profile\n\n[reaction]\nkind = table:{table}\n")
    out = tmp_path / "out"
    return runner.invoke(main, ["profile", "--config", str(path), "--out", str(out)]), out


def test_reaction_table_of_mass_two_exits_naming_the_unit_mass_clause(tmp_path, runner):
    t = np.linspace(0.0, 1.0, 2001)
    result, out = _table_run(tmp_path, runner, t, 2.0 * make_polynomial_beta().eval(t))
    assert result.exit_code != 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:") and "violates A1, unit mass clause" in lines[0]
    assert abs(float(re.search(r"defect (\S+) above", lines[0]).group(1)) - 1.0) < 1e-9
    assert not out.exists()


def test_reaction_table_with_a_negative_sample_exits_naming_nonnegativity(tmp_path, runner):
    # poly2 at 2001 knots with the sample at t = 0.4995 set to -5: the mass is
    # off too (by 3.4e-3), and the negative dip falls between the knots that
    # the [-1, 2] grid of require_a1 hits
    t = np.linspace(0.0, 1.0, 2001)
    values = make_polynomial_beta().eval(t)
    values[999] = -5.0
    result, out = _table_run(tmp_path, runner, t, values)
    assert result.exit_code != 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:") and "violates A1, nonnegative clause" in lines[0]
    assert "unit mass" not in lines[0]
    assert float(re.search(r"defect (\S+) above", lines[0]).group(1)) == 5.0
    assert not out.exists()


@pytest.mark.parametrize("pad", [0, 1000], ids=["plain", "zero-padded"])
def test_unit_mass_reaction_table_runs(tmp_path, runner, pad):
    # poly2 at 2001 knots on [0, 1] (mass defect 1.2e-12), plus, padded, zeros
    # at ``pad`` knots on each of [-0.5, 0) and (1, 1.5]: outside [0, 1] the
    # values vanish, whatever the knot range
    side = np.linspace(0.0, 0.5, pad + 1)[1:]
    t = np.concatenate((-side[::-1], np.linspace(0.0, 1.0, 2001), 1.0 + side))
    result, out = _table_run(tmp_path, runner, t, make_polynomial_beta().eval(t))
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["shoot"]["case_tag"] == "case_ii"


def test_unknown_config_key_is_rejected(tmp_path, runner):
    path = tmp_path / "typo.cfg"
    path.write_text("[experiment]\nname = profile\n\n[profile]\nhalfwidht = 5\n")
    with pytest.raises(ConfigError, match=r"unknown config key \[profile\] halfwidht"):
        parse_config(path)
    out = tmp_path / "never"
    result = runner.invoke(main, ["profile", "--config", str(path), "--out", str(out)])
    assert result.exit_code != 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:") and "[profile] halfwidht" in lines[0]
    assert not out.exists()


# a = 0.5 on [-1.5, 3.5]: the well's left tail is affine only to about 1e-4
_SHORT_WELL = "[profile]\na = 0.5\nhalfwidth = 2.5\n"


def test_classify_tolerance_governs_the_profile_run(tmp_path, runner):
    path = tmp_path / "well.cfg"
    path.write_text(_SHORT_WELL + "\n[tolerances]\nclassify = 1e-3\n")
    out = tmp_path / "well"
    result = runner.invoke(main, ["profile", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["shoot"]["case_tag"] == "case_iii"
    assert "classify = 0.001" in report["config"].splitlines()


def test_default_classify_tolerance_rejects_the_short_well(tmp_path, runner):
    path = tmp_path / "well.cfg"
    path.write_text(_SHORT_WELL)
    out = tmp_path / "never"
    result = runner.invoke(main, ["profile", "--config", str(path), "--out", str(out)])
    assert result.exit_code != 0
    assert "left tail not affine within 1e-06" in result.output
    assert not out.exists()


def test_stale_threads_line_is_rejected(tmp_path):
    path = tmp_path / "old.cfg"
    path.write_text("[experiment]\nname = profile\nthreads = 4\n\n[profile]\na = 1.5\n")
    with pytest.raises(ConfigError, match=r"unknown config key \[experiment\] threads"):
        parse_config(path)


@pytest.mark.parametrize("key", ["slope", "offset"])
def test_stale_boundary_slope_line_is_rejected(tmp_path, runner, key):
    # the affine model is the one-phase ramp max(0, t); it has no slope or offset
    path = tmp_path / "old.cfg"
    path.write_text(f"[experiment]\nname = solve\n\n[boundary]\nmodel = affine\n{key} = 2.0\n")
    with pytest.raises(ConfigError, match=rf"unknown config key \[boundary\] {key} .*choose from \('model',\)"):
        parse_config(path)
    out = tmp_path / "never"
    result = runner.invoke(main, ["solve", "--config", str(path), "--out", str(out)])
    assert result.exit_code != 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:") and f"[boundary] {key}" in lines[0]
    assert not out.exists()
    assert not hasattr(ExperimentConfig(), f"boundary_{key}")


def _lu_counters(report, out, artifacts, krylov=False, refined=False, eigen=False):
    """The run's LU (after a 2D Newton solve also GMRES, after the masked
    solve also refinement and its bisected arms, after the eigen solve also
    its per-level LOBPCG iterations, Rayleigh quotients and residuals and
    its shift) counters,
    which live in ``meta`` and nowhere else; an eigen run uses the default
    tolerances."""
    counters = report["meta"]["counters"]
    expected = ["krylov_iterations"] * krylov + ["lu_factorizations", "lu_fill_nnz", "lu_factor_order"]
    expected += ["lu_backward_error", "lu_refinement_steps", "cut_edges"] * refined
    expected += ["eigen_iterations", "eigen_values", "eigen_level_residuals", "eigen_shift"] * eigen
    assert sorted(counters) == sorted(expected)
    if eigen:
        # one entry per level, coarsest first: the last is the finest level's
        rayleigh = report["results"]["rayleigh"]
        assert counters["eigen_iterations"][-1] == rayleigh["iterations"]
        assert len(counters["eigen_values"]) == len(counters["eigen_iterations"])
        assert len(counters["eigen_level_residuals"]) == len(counters["eigen_iterations"])
        assert counters["eigen_level_residuals"][-1] <= ExperimentConfig().tolerances["eigen"]
        assert abs(counters["eigen_values"][-1] - rayleigh["min"]) <= ExperimentConfig().tolerances["eigen"]
        assert counters["eigen_shift"] < rayleigh["min"]
    for key in ("lu_", "krylov", "eigen_", "cut_edges"):
        assert key not in json.dumps(report["results"])
        for name in artifacts:
            assert key.encode() not in (out / name).read_bytes()
    return counters


def _check_field_artifact(out, name, grid):
    """``name`` is the run's one field artifact, in AXIF on the run's grid bit
    for bit; the only text table any of these runs writes is ``boundary.csv``."""
    f = AxiField.load_binary(out / name)
    s, t = grid.axes()
    assert f.n == grid.n and np.array_equal(f.s, s) and np.array_equal(f.t, t)
    assert [p.name for p in out.glob("*.bin")] == [name]
    assert {p.name for p in out.glob("*.csv")} <= {"boundary.csv"}


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


def test_blowdown_unit_row_does_not_depend_on_the_other_epsilons(tmp_path):
    # every row blows down its own source grid; one grid shared by the family,
    # sized by the smallest epsilon, once moved the eps = 1 gap from 0.757 to 0.009
    rows = [
        run(ExperimentConfig(experiment="blowdown", epsilons=(1.0, eps), out_dir=str(tmp_path / str(eps)))).results["family"][0]
        for eps in (1e-2, 1e-5, 1e-10, 1e-12)
    ]
    assert all(json.dumps(row) == json.dumps(rows[0]) for row in rows)
    assert rows[0]["epsilon"] == 1.0


def test_blowdown_rows_past_the_profile_stay_on_the_nonnegative_layer(tmp_path):
    # a source grid of eps <= 1e-8 reaches t = -2e8, far past the profile's first
    # sample; its affine continuation there once read -63 at t = -2e10, setting
    # every such row's sup distance to 6.3e-9 instead of u(0) eps = 0.2691 eps
    cfg = ExperimentConfig(experiment="blowdown", epsilons=(1.0, 1e-6, 1e-8, 1e-10), out_dir=str(tmp_path))
    results = run(cfg).results
    rows = results["family"]
    at_zero = rows[0]["sup_distance_to_ramp"]
    assert 0.26 < at_zero < 0.28
    for row in rows:
        assert abs(row["sup_distance_to_ramp"] - at_zero * row["epsilon"]) <= 1e-12 * at_zero * row["epsilon"]
    assert results["sup_distance_decreasing"]


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
    _check_field_artifact(out, "field.bin", experiments._grid(parse_config(cfg)))
    counters = _lu_counters(report, out, ["field.bin"], krylov=True)
    # one factor on the grid and one on the domain-study subgrid; the later
    # Newton steps are chord steps on those factors.  Neither grid has a
    # coarser level, so no GMRES solve runs.
    assert counters["lu_factorizations"] == 2
    assert counters["krylov_iterations"] == 0
    assert report["results"]["solve"]["newton_iterations"] > 0
    assert counters["lu_fill_nnz"] >= 32 * 31  # at least the unknowns of the 33^2 grid
    assert counters["lu_factor_order"] == 32 * 31  # the 33^2 grid's unknowns, axis column included


def test_solve_of_the_neck_at_129_factors_folded_halves(tmp_path):
    # catenoid data are even in t, so each grid factors the kept half of its
    # coarsest level: at 129^2 the 65^2 level (64 x 32 unknowns) and the
    # domain study's 87^2 grid (86 x 43, against 86 x 85 unfolded); at 257^2
    # the 65^2 level and the 86^2 coarsest level of the domain study's 171^2
    # grid, whose mirror line falls between two nodes (85 x 42, against
    # 85 x 84 unfolded)
    for nodes, order in ((129, 86 * 43), (257, 85 * 42)):
        out = tmp_path / str(nodes)
        cfg = ExperimentConfig(
            experiment="solve", n=3, s_max=3.0, t_min=-1.5, t_max=1.5, ns=nodes, nt=nodes,
            boundary_model="catenoid", domain_study=True, out_dir=str(out),
        )
        report = run(cfg)
        assert report.counters["lu_factor_order"] == order
        assert report.results["solve"]["residual"] <= 1e-10
        field = AxiField.load_binary(out / "field.bin")
        assert np.array_equal(field.values, field.values[:, ::-1])


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
    _check_field_artifact(out, "eigenvector.bin", experiments._grid(parse_config(cfg)))
    counters = _lu_counters(report, out, ["spectral.json", "eigenvector.bin"], eigen=True)
    # the tiled layer separates: two tridiagonal ground states, no LU and no LOBPCG step
    assert counters["lu_factorizations"] == counters["lu_fill_nnz"] == counters["lu_factor_order"] == 0
    assert counters["eigen_iterations"] == [0]
    assert counters["eigen_values"] == [report["results"]["rayleigh"]["min"]]


def test_stability_command_on_a_solved_field_takes_the_cascade(tmp_path, runner):
    # the catenoid field is solved for, not tiled: the Newton solve's LUs
    # (two on 33^2, on the folded half), then the eigen solve's one LU of
    # its only level, the whole grid's 32 x 31 unknowns
    cfg = tmp_path / "stab.cfg"
    cfg.write_text(
        "[experiment]\nname = stability\n\n"
        "[grid]\nn = 3\ns_max = 2.0\nt_min = -2.0\nt_max = 2.0\nns = 33\nnt = 33\n\n"
        "[boundary]\nmodel = catenoid\n"
    )
    reports = {}
    for experiment in ("solve", "stability"):
        out = tmp_path / experiment
        result = runner.invoke(main, [experiment, "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        reports[experiment] = json.loads((out / "report.json").read_text())
    assert reports["stability"]["results"]["rayleigh"]["verdict"] == "stable-on-grid"
    artifacts = ["spectral.json", "eigenvector.bin"]
    counters = _lu_counters(reports["stability"], tmp_path / "stability", artifacts, krylov=True, eigen=True)
    assert reports["solve"]["meta"]["counters"]["lu_factorizations"] == 2
    assert counters["lu_factorizations"] == 2 + 1
    assert len(counters["eigen_iterations"]) == 1  # 33^2 has no coarser level
    assert counters["eigen_iterations"][0] >= 1
    assert counters["lu_fill_nnz"] >= 32 * 31
    assert counters["lu_factor_order"] == 32 * 31


def test_stability_command_on_a_3x3_catenoid_grid_reports_a_result(tmp_path, runner):
    # 2 unknowns: scipy's LOBPCG answers densely, with no step and no trace;
    # measured rayleigh.min 0.78576
    out = tmp_path / "stab3"
    cfg = tmp_path / "stab3.cfg"
    cfg.write_text(
        "[experiment]\nname = stability\n\n"
        "[grid]\nn = 3\ns_max = 3.0\nt_min = -3.0\nt_max = 3.0\nns = 3\nnt = 3\n\n"
        "[boundary]\nmodel = catenoid\n"
    )
    result = runner.invoke(main, ["stability", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    rayleigh = report["results"]["rayleigh"]
    assert rayleigh["verdict"] == "stable-on-grid" and rayleigh["iterations"] == 0
    assert abs(rayleigh["min"] - 0.78576) <= 1e-5
    # the catenoid data are first solved for: GMRES counters too
    counters = _lu_counters(report, out, ["spectral.json", "eigenvector.bin"], krylov=True, eigen=True)
    assert counters["eigen_iterations"] == [0] and counters["lu_factor_order"] == 2


@pytest.mark.parametrize(
    "model, expected", [("profile", 18.55897098842118), ("catenoid", 18.45141074328808)]
)
def test_stability_command_certifies_the_default_layer_at_n20(tmp_path, runner, model, expected):
    # the catenoid field takes the cascade: in the symmetrized form LOBPCG
    # solves, the ground state near the axis is of size s^9, below its
    # round-off of the largest entry, and one sign sweep (measured) rebuilds
    # it; the certified eigenvector must still be positive.  The tiled layer
    # separates, positive by construction, with no LOBPCG step
    out = tmp_path / "stab20"
    result = runner.invoke(main, ["stability", "--n", "20", "--boundary", model, "--out", str(out)])
    assert result.exit_code == 0, result.output
    rayleigh = json.loads((out / "report.json").read_text())["results"]["rayleigh"]
    assert rayleigh["verdict"] == "stable-on-grid"
    assert abs(rayleigh["min"] - expected) <= 1e-9
    assert (rayleigh["iterations"] >= 1) == (model == "catenoid")
    eigenvector = AxiField.load_binary(out / "eigenvector.bin")
    assert np.all(eigenvector.values[:, 1:-1][:-1] > 0.0)


def test_stability_config_certifies_n20_from_the_coarse_eigenvector(tmp_path, runner):
    # the tiled layer at 129^2 separates, with no LOBPCG step; the catenoid
    # field at 129^2 takes the cascade over its two levels, and started from
    # the 65^2 level's eigenvector the finest LOBPCG certifies in 23 steps
    # (measured)
    tol = parse_config(CONFIGS / "stability_n3.cfg").tolerances["eigen"]
    reports = {}
    for model in ("profile", "catenoid"):
        out = tmp_path / model
        args = ["stability", "--config", str(CONFIGS / "stability_n3.cfg"), "--n", "20", "--boundary", model]
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 0, result.output
        reports[model] = json.loads((out / "report.json").read_text())
        assert reports[model]["results"]["rayleigh"]["verdict"] == "stable-on-grid"
    layer, neck = (reports[m]["results"]["rayleigh"] for m in ("profile", "catenoid"))
    assert abs(layer["min"] - 18.54026922905267) <= tol
    assert layer["iterations"] == 0 and reports["profile"]["meta"]["counters"]["eigen_iterations"] == [0]
    assert reports["profile"]["meta"]["counters"]["lu_factorizations"] == 0
    assert abs(neck["min"] - 18.43373664296758) <= tol
    assert 1 <= neck["iterations"] <= 40
    assert len(reports["catenoid"]["meta"]["counters"]["eigen_iterations"]) == 2


def test_stability_config_certifies_n100(tmp_path, runner):
    # near the axis the radial ground state is of size s^49, far below
    # LOBPCG's round-off; the separable solve certifies the value that
    # counting the negative pivots of LDL^T factors of B - sigma brackets
    # in [347.6088545, 347.6088548]
    out = tmp_path / "stab100"
    args = ["stability", "--config", str(CONFIGS / "stability_n3.cfg"), "--n", "100", "--out", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    rayleigh = report["results"]["rayleigh"]
    assert rayleigh["verdict"] == "stable-on-grid"
    assert abs(rayleigh["min"] - 347.608854585808) <= 1e-8
    tol = parse_config(CONFIGS / "stability_n3.cfg").tolerances["eigen"]
    assert report["meta"]["counters"]["eigen_level_residuals"][0] <= tol


# the tiled layer at 129^2 separates, with no LOBPCG step; the catenoid
# field takes the cascade, measured at levels [21, 25] at n = 25 and
# [30, 36] at n = 40
@pytest.mark.parametrize(
    "n, most, layer_min, neck_min",
    [(25, 40, 27.377792755546075, 27.28295391041724), (40, 60, 63.40078466453723, 63.323615416403335)],
)
def test_stability_config_certifies_large_n(tmp_path, runner, n, most, layer_min, neck_min):
    tol = parse_config(CONFIGS / "stability_n3.cfg").tolerances["eigen"]
    for model, expected in (("profile", layer_min), ("catenoid", neck_min)):
        out = tmp_path / model
        args = ["stability", "--config", str(CONFIGS / "stability_n3.cfg"), "--n", str(n), "--boundary", model]
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 0, result.output
        rayleigh = json.loads((out / "report.json").read_text())["results"]["rayleigh"]
        assert rayleigh["verdict"] == "stable-on-grid"
        assert abs(rayleigh["min"] - expected) <= tol
        if model == "profile":
            assert rayleigh["iterations"] == 0
        else:
            assert 1 <= rayleigh["iterations"] <= most


def test_onephase_command_strip_neck(tmp_path, runner, monkeypatch):
    out = tmp_path / "op"
    grids, solve = [], experiments.solve_harmonic_masked

    def spy(grid, *args):
        grids.append(grid)
        return solve(grid, *args)

    monkeypatch.setattr(experiments, "solve_harmonic_masked", spy)
    result = runner.invoke(
        main, ["onephase", "--preset", "strip_neck", "--resolution", "48", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    res = report["results"]
    assert res["masked_solve"]["sup_error_vs_exact"] < 1e-4
    assert res["normal_derivative_identity"]["max_defect"] < 0.2
    assert (out / "boundary.csv").exists()
    [grid] = grids
    _check_field_artifact(out, "field.bin", grid)
    counters = _lu_counters(report, out, ["boundary.csv", "field.bin"], refined=True)
    assert counters["lu_factorizations"] == 1
    assert counters["lu_fill_nnz"] >= res["masked_solve"]["unknowns"]
    assert 1 <= counters["lu_refinement_steps"] <= 10
    assert 0.0 <= counters["lu_backward_error"] <= 6.0 * np.finfo(float).eps
    # the t nodes are mirror-exact at resolution 48 too, so the factor holds
    # the black unknowns of the t >= 0 half, about a quarter of the 7865 unknowns
    assert counters["lu_factor_order"] == 1984
    # the interface cuts the s+ arm of each of the 95 inner columns and 24
    # t arms on either side of the mirror line, each bisected once
    assert counters["cut_edges"] == 95 + 2 * 24


@pytest.mark.parametrize(
    "preset, n, ref, order",
    [("strip_neck", 2, StripNeckExact(), 3542), ("sphere", 3, SphereShellExact(n=3), 8291)],
    ids=["strip_neck", "sphere-n3"],
)
def test_onephase_runs_on_one_thread_and_reports_the_sup_error_of_its_field(
    tmp_path, monkeypatch, preset, n, ref, order
):
    # the run starts no thread: the exact field is evaluated once, on the
    # t >= 0 columns, after the masked solve, and mirrored onto the others;
    # the sup error must be bit for bit the one recomputed over the whole
    # grid from the written field.
    # The factor's order shows the fold: the neck at resolution 64 factors
    # the black unknowns of its t >= 0 half (14,082 unknowns in all), the
    # sphere those of its t >= 0 half too (33,098)
    cfg = ExperimentConfig(
        experiment="onephase", onephase_preset=preset, n=n, onephase_resolution=64, out_dir=str(tmp_path / preset)
    )

    def no_thread(self):
        raise AssertionError(f"onephase started a thread: {self!r}")

    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", no_thread)
        report = run(cfg)
    field = AxiField.load_binary(tmp_path / preset / "field.bin")
    exact = ref.u(field.s[:, None], field.t[None, :])
    assert report.results["masked_solve"]["sup_error_vs_exact"] == float(np.max(np.abs(field.values - exact)))
    assert report.counters["lu_factor_order"] == order


def test_onephase_inverts_the_neck_map_on_the_kept_half_and_the_border_only(tmp_path, monkeypatch):
    # a count, not a timing: the exact field is inverted at the inside nodes
    # of the columns j >= nt // 2 and, as boundary data, at the border nodes
    points, invert = [], StripNeckExact._invert

    def counted(self, z):
        points.append(np.size(z))
        return invert(self, z)

    monkeypatch.setattr(StripNeckExact, "_invert", counted)
    cfg = ExperimentConfig(experiment="onephase", onephase_resolution=128, out_dir=str(tmp_path))
    run(cfg)
    ref, grid, _ = experiments._onephase_case(cfg)
    s, t = grid.axes()
    inside = ref.level(s[:, None], t[None, :]) > 0.0
    border = inside & ~_unknown_mask(inside.shape, grid.s_min == 0.0)
    assert sum(points) <= np.count_nonzero(inside[:, grid.nt // 2 :]) + np.count_nonzero(border)


def _onephase_results(tmp_path, name, **kw):
    cfg = ExperimentConfig(experiment="onephase", onephase_resolution=48, out_dir=str(tmp_path / name), **kw)
    return json.dumps(run(cfg).results)


def test_onephase_never_resolves_a_reaction_term(tmp_path, monkeypatch):
    # the radial probe and the interface form read the field alone
    expected = _onephase_results(tmp_path, "poly2")

    def unused(name):
        raise AssertionError(f"onephase resolved the reaction term {name!r}")

    monkeypatch.setattr(experiments, "resolve_reaction", unused)
    assert _onephase_results(tmp_path, "patched") == expected


def test_onephase_runs_on_a_reaction_table_that_violates_a1(tmp_path):
    # the table that stops a profile run on the nonnegative clause: onephase
    # reads no reaction term, so it neither checks nor uses the table
    t = np.linspace(0.0, 1.0, 2001)
    values = make_polynomial_beta().eval(t)
    values[999] = -5.0
    table = tmp_path / "beta.csv"
    table.write_text("t,beta\n" + csv_lines(t, values))
    expected = _onephase_results(tmp_path, "poly2")
    assert _onephase_results(tmp_path, "table", reaction=f"table:{table}") == expected


@pytest.mark.parametrize(
    "t",
    [np.linspace(-1.0, 1.0, 6), np.array([-1.0, -0.5, 0.0, 0.5, np.nextafter(1.0, 2.0)])],
    ids=["even-count", "one-ulp-off"],
)
def test_the_reference_needs_mirror_exact_t_nodes(t):
    with pytest.raises(LabError, match="not mirror-exact"):
        experiments._even_on_grid(StripNeckExact().u, np.linspace(1.0, 3.3, 5), t)


# value text that survives an INI line: no whitespace and no comment prefixes,
# with "%" to catch interpolation
_TEXT = st.text(alphabet="abcXYZ019_-./:%", max_size=12)
_FLOATS = st.floats(allow_nan=False) | st.sampled_from([-0.0, 1e-300, 1e300, -1.7976931348623157e308])
_INTS = st.integers(-(10**12), 10**12)
_BY_TYPE = {
    "str": _TEXT,
    "float": _FLOATS,
    "int": _INTS,
    "bool": st.booleans(),
    "tuple[float, ...]": st.lists(_FLOATS, max_size=4).map(tuple),
    "tuple[int, ...]": st.lists(_INTS, max_size=4).map(tuple),
}
_BY_FIELD = {
    "experiment": st.sampled_from(EXPERIMENTS),
    "reaction": _TEXT.filter(lambda r: not r.startswith("table:")),
    "n": st.integers(2, 10**6),
    "boundary_model": st.sampled_from(BOUNDARY_MODELS),
    "onephase_preset": st.sampled_from(ONEPHASE_PRESETS),
    "onephase_resolution": st.integers(1, 10**12),
    "r0": _FLOATS.filter(lambda r0: r0 > 0.0),
    "alpha": _FLOATS.filter(lambda alpha: alpha >= 0.0),
    "R": _FLOATS.filter(lambda R: R > 1.0),
    "eps_inner": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "eps0": _FLOATS.filter(lambda eps0: eps0 > 0.0),
    "epsilons": st.lists(_FLOATS.filter(lambda eps: eps >= MIN_EPSILON), min_size=1, max_size=4).map(tuple),
    "dims": st.lists(st.integers(2, 10**12), min_size=1, max_size=4).map(tuple),
    "tolerances": st.fixed_dictionaries(
        {key: st.floats(min_value=0.0, exclude_min=True) for key in ("newton", "eigen", "classify")}
    ),
}
_CONFIGS = st.builds(
    ExperimentConfig, **{f.name: _BY_FIELD.get(f.name, _BY_TYPE.get(f.type)) for f in fields(ExperimentConfig)}
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_CONFIGS, table=st.none() | _TEXT.filter(lambda name: "/" not in name))
def test_canonical_text_round_trips_through_parse_config(tmp_path, cfg, table):
    if table is not None:
        path = tmp_path / f"beta{table}.csv"
        path.write_text("")
        cfg = replace(cfg, reaction=f"table:{path}")
    path = tmp_path / "echo.cfg"
    path.write_text(cfg.canonical_text())
    try:
        cfg.validate()
    except ConfigError:  # a grid whose weights leave the float range: its file is rejected too
        with pytest.raises(ConfigError):
            parse_config(path)
        return
    back = parse_config(path)
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()


@pytest.mark.parametrize(
    "name, digest",
    [
        (None, "4942b17c7ee0d461c4582cdae08e1b527c10adb8ac9a43cd703f8cf9f02a7794"),
        ("onephase_strip_neck.cfg", "7e83f288e79974b51f02df256c16ad233f218e7c89392a34ec2bf54955a1f75f"),
        ("profile_steep.cfg", "3f95509b9490ea1c919cf01b3247d7f865c2b9cc66f439fb5bafccb594767c77"),
        ("solve_neck_n3.cfg", "430d6402fb86c9b92e0edb6f156742d4fe78489af01bb3a1ef7e5b83ce7a0d5d"),
        ("stability_n3.cfg", "bce76192ae3b917df6915a705ae982606c7f9fdc485807af34ce178809901bc1"),
    ],
    ids=["default", "onephase_strip_neck.cfg", "profile_steep.cfg", "solve_neck_n3.cfg", "stability_n3.cfg"],
)
def test_config_hashes_are_pinned(name, digest):
    cfg = ExperimentConfig() if name is None else parse_config(CONFIGS / name)
    assert cfg.config_hash() == digest


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--n", "1"],
        ["blowdown", "--epsilons", "abc"],
        ["window", "--dims", "x"],
        ["solve", "--config", "missing.cfg"],
    ],
)
def test_malformed_cli_input_exits_with_one_error_line(tmp_path, runner, args):
    args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in args]
    out = tmp_path / "never"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code != 0
    assert "Error:" in result.output
    assert isinstance(result.exception, SystemExit)
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["onephase", "--resolution", "0"],
        ["onephase", "--resolution", "-4"],
        ["blowdown", "--epsilons", "0"],
        ["blowdown", "--epsilons", "0.5,-0.25"],
        ["blowdown", "--epsilons", ""],
        ["solve", "--n", "400"],
        ["stability", "--n", "300"],
    ],
)
def test_out_of_range_cli_values_exit_with_one_error_line(tmp_path, runner, args):
    out = tmp_path / "never"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "args, key",
    [
        (["blowdown", "--epsilons", "1,1e-150"], "[blowdown] epsilons"),
        (["window", "--dims", ","], "[window] dims"),
        (["window", "--dims", "-3"], "[window] dims"),
    ],
)
def test_out_of_range_list_exits_naming_its_key(tmp_path, runner, recwarn, args, key):
    # a scale of 1e-150 once ran to NaN rows under overflow warnings, and an
    # empty or negative dimension list once ran too
    out = tmp_path / "never"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:") and key in lines[0], result.output
    assert not out.exists()
    assert not recwarn.list


@pytest.mark.parametrize(
    "args, probe, key",
    [
        (["stability", "--boundary", "catenoid"], "R = 0.5", "[probe] R"),
        (["onephase"], "eps_inner = 2.0", "[probe] eps_inner"),
        (["window"], "eps0 = -1.0", "[probe] eps0"),
        (["window"], "eps0 = 0.0", "[probe] eps0"),
    ],
)
def test_out_of_range_probe_exits_naming_its_key_before_any_solve(tmp_path, runner, monkeypatch, args, probe, key):
    # R = 0.5 once ran the Newton and eigen solves before failing, eps_inner =
    # 2.0 blamed R, and a nonpositive eps0 printed a window schedule
    monkeypatch.setattr(experiments, "_RUNNERS", {})  # any run would raise KeyError
    path = tmp_path / "probe.cfg"
    path.write_text(f"[probe]\n{probe}\n")
    out = tmp_path / "never"
    result = runner.invoke(main, [*args, "--config", str(path), "--out", str(out)])
    assert isinstance(result.exception, SystemExit) and result.exit_code != 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"Error: {key} is out of range: "), result.output
    assert not out.exists()


@pytest.mark.parametrize("r0", ["0", "-1.0"])
def test_non_positive_sphere_radius_exits_naming_r0(tmp_path, runner, r0):
    path = tmp_path / "sphere.cfg"
    path.write_text(f"[onephase]\npreset = sphere\nr0 = {r0}\n")
    out = tmp_path / "never"
    result = runner.invoke(main, ["onephase", "--config", str(path), "--out", str(out)])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:") and "[onephase] r0" in lines[0], result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("profile", "profile", "halfwidth", "inf"),
        ("profile", "profile", "step", "nan"),
        ("solve", "grid", "s_max", "inf"),
        ("stability", "probe", "alpha", "nan"),
    ],
)
def test_non_finite_config_value_exits_with_one_error_line(tmp_path, runner, command, section, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "never"
    result = runner.invoke(main, [command, "--config", str(path), "--out", str(out)])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:"), result.output
    assert f"[{section}] {key} must be finite" in lines[0]
    assert not out.exists()


def test_stability_rejects_an_underflowing_axis_weight_before_it_runs(tmp_path, runner, monkeypatch):
    # on the 129^2 grid the smallest node weight is 0 in float64 from n = 136 on
    monkeypatch.setattr(experiments, "_RUNNERS", {})  # any run would raise KeyError
    out = tmp_path / "never"
    args = ["stability", "--config", str(CONFIGS / "stability_n3.cfg"), "--n", "170", "--out", str(out)]
    result = runner.invoke(main, args)
    assert isinstance(result.exception, SystemExit) and result.exit_code != 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:"), result.output
    assert "n = 170" in lines[0] and "(hs/2)^(n-1)/(n-1)" in lines[0] and "underflows" in lines[0]
    assert not out.exists()
    replace(parse_config(CONFIGS / "stability_n3.cfg"), n=135).validate()  # the last n it admits there


@pytest.mark.parametrize(
    "s_max, s_min, what",
    [
        # (hs/2)^2 overflowed a Python float in the axis weight: an OverflowError traceback
        ("1e300", "0.0", "the node, s-edge, t-edge, cell weights at n = 3 must be finite"),
        # s_max hs = 1.25e309 made the outer weights inf: SuperLU's singular factor
        ("1e155", "0.0", "the node, s-edge, t-edge, cell weights at n = 3 must be finite"),
        # off the axis the outer weights overflow the same way
        ("1e300", "1.0", "the node, s-edge, t-edge, cell weights at n = 3 must be finite"),
        # the node weights are finite, but |S^1| s_mid hs of the outer s-edges
        # overflowed: SuperLU's singular factor
        ("1.59e154", "0.0", "the s-edge, cell weights at n = 3 must be finite"),
        # hs = 0 made log_min_node_weight's math.log raise a ValueError
        ("5e-324", "0.0", "(hs = 0) the axis-column weight |S^(n-2)| (hs/2)^(n-1)/(n-1) ht/2 underflows"),
    ],
)
def test_stability_rejects_a_grid_whose_node_weights_leave_the_float_range(tmp_path, runner, monkeypatch, s_max, s_min, what):
    monkeypatch.setattr(experiments, "_RUNNERS", {})  # any run would raise KeyError
    path = tmp_path / "huge.cfg"
    path.write_text(f"[grid]\ns_min = {s_min}\ns_max = {s_max}\nns = 9\nnt = 9\n")
    out = tmp_path / "never"
    result = runner.invoke(main, ["stability", "--config", str(path), "--out", str(out)])
    assert isinstance(result.exception, SystemExit) and result.exit_code != 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: stability: the "), result.output
    assert what in lines[0]
    if "finite" in what:
        assert f"s_max = {float(s_max):g}" in lines[0] and "the weight |S^(n-2)| s^(n-2) hs ht overflows" in lines[0]
    assert not out.exists()
    replace(parse_config(path), experiment="stability", s_max=1e100).validate()  # 1e100 runs


@pytest.mark.parametrize("experiment", ["solve", "stability"])
def test_a_grid_whose_axes_cannot_be_allocated_ends_in_one_error_line(tmp_path, runner, monkeypatch, experiment):
    # validate builds both axes: 10^12 s nodes raised a MemoryError traceback
    monkeypatch.setattr(experiments, "_RUNNERS", {})  # any run would raise KeyError
    path = tmp_path / "long.cfg"
    path.write_text("[grid]\nns = 1000000000000\n")
    out = tmp_path / "never"
    result = runner.invoke(main, [experiment, "--config", str(path), "--out", str(out)])
    assert isinstance(result.exception, SystemExit) and result.exit_code != 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"Error: {experiment}: Unable to allocate"), result.output
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_solve_rejects_a_grid_whose_cell_weights_overflow(tmp_path, runner, monkeypatch):
    # the Newton solve converged, then |S^298| s_mid^298 hs ht overflowed in
    # the energy: a numpy warning and Infinity for all six energy values
    monkeypatch.setattr(experiments, "_RUNNERS", {})  # any run would raise KeyError
    path = tmp_path / "wide.cfg"
    path.write_text("[grid]\nn = 300\ns_max = 20\nt_min = -1.5\nt_max = 1.5\nns = 33\nnt = 33\n\n[boundary]\nmodel = catenoid\n")
    out = tmp_path / "never"
    result = runner.invoke(main, ["solve", "--config", str(path), "--out", str(out)])
    assert isinstance(result.exception, SystemExit) and result.exit_code != 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: solve: the "), result.output
    assert "cell weights at n = 300 must be finite" in lines[0] and "s_max = 20" in lines[0]
    assert "the weight |S^(n-2)| s^(n-2) hs ht overflows" in lines[0]
    assert not out.exists()
    # nothing in solve divides by a weight: a grid whose axis weight underflows is admitted
    replace(parse_config(path), n=200, s_max=1.0).validate()


def test_runaway_profile_exits_with_the_truncation_error(tmp_path, runner):
    out = tmp_path / "never"
    result = runner.invoke(main, ["profile", "--a", "1e13", "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == "Error: profile left the representable range\n"
    assert not out.exists()


def test_krylov_iterations_are_counted_in_meta(tmp_path):
    # 129^2 catenoid data: the 65^2 level is factored, the 129^2 one is solved by GMRES
    for experiment, artifacts in (("solve", ["field.bin"]), ("stability", ["spectral.json", "eigenvector.bin"])):
        out = tmp_path / experiment
        cfg = ExperimentConfig(experiment=experiment, ns=129, nt=129, boundary_model="catenoid", out_dir=str(out))
        report = json.loads(json.dumps(run(cfg).to_json_dict()))
        _check_field_artifact(out, artifacts[-1], experiments._grid(cfg))
        counters = _lu_counters(report, out, artifacts, krylov=True, eigen=experiment == "stability")
        assert counters["krylov_iterations"] > 0


# config text: known sections and keys with arbitrary values, mixed with
# arbitrary lines (no surrogates, which no file encoding can hold)
_CHARS = st.characters(blacklist_categories=("Cs",))
_CONFIG_LINES = st.one_of(
    st.sampled_from(sorted({sec for sec, *_ in _KEYS} | {"tolerances"})).map(lambda sec: f"[{sec}]"),
    st.builds(
        "{} = {}".format,
        st.sampled_from([key for _, key, *_ in _KEYS] + ["newton", "eigen", "classify"]),
        st.text(_CHARS, max_size=12) | st.sampled_from(["nan", "-inf", "1e999", "0", "-1", "1,2", "true", "%(x)s"]),
    ),
    st.text(_CHARS, max_size=24),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_CONFIG_LINES, max_size=10))
def test_arbitrary_config_text_parses_or_raises_a_config_error(tmp_path, lines):
    path = tmp_path / "fuzz.cfg"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        cfg = parse_config(path)
    except LabError:
        return
    cfg.validate()


# argument lists: the commands, their own flags and arbitrary tokens
_FLAGS = sorted({opt for cmd in main.commands.values() for p in cmd.params for opt in p.opts + p.secondary_opts})
_TOKENS = st.one_of(
    st.sampled_from([f for f in _FLAGS if f not in ("--out", "--config")]),
    st.sampled_from(["nan", "inf", "-1", "0", "2", "1e999", "0.5,0.25", "", ",", "x", "--", "-h", "--version"]),
    st.text(_CHARS.filter(lambda c: c != "\x00"), max_size=8),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(main.commands) + ["nonsense"]), tokens=st.lists(_TOKENS, max_size=6))
def test_arbitrary_cli_arguments_run_or_end_in_one_error_line(tmp_path, monkeypatch, runner, command, tokens):
    # The runner is replaced by its validation step: the property is about
    # the input path, and a valid but arbitrary grid can cost without bound.
    def validated(cfg):
        cfg.validate()
        return ExperimentReport(experiment=cfg.experiment, results={}, config_text="", config_hash="")

    monkeypatch.setattr(cli, "run", validated)
    out = tmp_path / "never"
    result = runner.invoke(main, [command, *tokens, "--out", str(out)])
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    if result.exit_code != 0:
        # click's usage hint, then one error message, which may quote a token
        # holding a line break (so no splitlines: "\x1e" breaks lines there)
        lines = result.output.split("\n")
        first = next(i for i, line in enumerate(lines) if line.startswith("Error:"))
        assert all(not line or line.startswith(("Usage:", "Try ")) for line in lines[:first]), result.output
        assert not any(line.startswith("Error:") for line in lines[first + 1 :]), result.output
    assert not out.exists()


def test_every_experiment_has_a_runner():
    assert set(EXPERIMENTS) == set(experiments._RUNNERS)
