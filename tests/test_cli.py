import json
import math
import os
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from onephase_lab import cli, experiments
from onephase_lab.axisym_field import AxiField
from onephase_lab.cli import main
from onephase_lab.config import (
    _KEYS,
    BOUNDARY_MODELS,
    ENV_TOL_PREFIX,
    EXPERIMENTS,
    ONEPHASE_PRESETS,
    ExperimentConfig,
    apply_env_overrides,
    parse_config,
)
from onephase_lab.errors import ConfigError, LabError
from onephase_lab.experiments import ExperimentReport, run
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


@pytest.mark.parametrize("with_config", [False, True])
def test_env_tolerance_override_reaches_the_run_with_or_without_a_config(tmp_path, runner, monkeypatch, with_config):
    _clear_env_tolerances(monkeypatch)
    monkeypatch.setenv(ENV_TOL_PREFIX + "NEWTON", "1e-3")
    out = tmp_path / "win"
    args = ["window", "--out", str(out)]
    if with_config:
        path = tmp_path / "run.cfg"
        path.write_text("[window]\ndims = 3\n")
        args += ["--config", str(path)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    echoed = json.loads((out / "report.json").read_text())["config"].splitlines()
    assert "newton = 0.001" in echoed
    assert "eigen = 1e-08" in echoed


def test_unknown_tolerance_name_is_rejected_from_file_and_environment(tmp_path, runner, monkeypatch):
    _clear_env_tolerances(monkeypatch)
    path = tmp_path / "typo.cfg"
    path.write_text("[tolerances]\nnewtn = 1e-3\n")
    with pytest.raises(ConfigError, match="'newtn'"):
        parse_config(path)
    with pytest.raises(ConfigError, match="'newtn'"):
        ExperimentConfig(tolerances={"newton": 1e-10, "newtn": 1e-3}).validate()
    monkeypatch.setenv(ENV_TOL_PREFIX + "NEWTN", "1e-3")
    out = tmp_path / "never"
    result = runner.invoke(main, ["window", "--out", str(out)])
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


# a = 0.5 on [-1.5, 3.5]: the well's left tail is affine only to about 1e-4
_SHORT_WELL = "[profile]\na = 0.5\nhalfwidth = 2.5\n"


@pytest.mark.parametrize("source", ["config", "environment"])
def test_classify_tolerance_governs_the_profile_run(tmp_path, runner, monkeypatch, source):
    _clear_env_tolerances(monkeypatch)
    path = tmp_path / "well.cfg"
    if source == "config":
        path.write_text(_SHORT_WELL + "\n[tolerances]\nclassify = 1e-3\n")
    else:
        path.write_text(_SHORT_WELL)
        monkeypatch.setenv(ENV_TOL_PREFIX + "CLASSIFY", "1e-3")
    out = tmp_path / "well"
    result = runner.invoke(main, ["profile", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["shoot"]["case_tag"] == "case_iii"
    assert "classify = 0.001" in report["config"].splitlines()


def test_default_classify_tolerance_rejects_the_short_well(tmp_path, runner, monkeypatch):
    _clear_env_tolerances(monkeypatch)
    path = tmp_path / "well.cfg"
    path.write_text(_SHORT_WELL)
    out = tmp_path / "never"
    result = runner.invoke(main, ["profile", "--config", str(path), "--out", str(out)])
    assert result.exit_code != 0
    assert "left tail not affine within 1e-06" in result.output
    assert not out.exists()


def test_stale_threads_line_still_parses(tmp_path):
    path = tmp_path / "old.cfg"
    path.write_text("[experiment]\nname = profile\nthreads = 4\n\n[profile]\na = 1.5\n")
    cfg = parse_config(path)
    assert (cfg.experiment, cfg.a) == ("profile", 1.5)
    assert "threads" not in cfg.canonical_text()


def _lu_counters(report, out, artifacts, krylov=False):
    """The run's LU (and, after a 2D Newton solve, GMRES) counters, which
    live in ``meta`` and nowhere else."""
    counters = report["meta"]["counters"]
    assert sorted(counters) == ["krylov_iterations"] * krylov + ["lu_factorizations", "lu_fill_nnz"]
    for key in ("lu_", "krylov"):
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
    counters = _lu_counters(report, out, ["spectral.json", "eigenvector.bin"])
    assert 1 <= counters["lu_factorizations"] <= 6  # one LU: the eigen solve factors its coarsest level only
    assert counters["lu_fill_nnz"] >= 32 * 31


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
    counters = _lu_counters(report, out, ["boundary.csv", "field.bin"])
    assert counters["lu_factorizations"] == 1
    assert counters["lu_fill_nnz"] >= res["masked_solve"]["unknowns"]


def _clear_env_tolerances(monkeypatch):
    for key in list(os.environ):
        if key.startswith(ENV_TOL_PREFIX):
            monkeypatch.delenv(key)


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
    "epsilons": st.lists(_FLOATS.filter(lambda eps: eps > 0.0), min_size=1, max_size=4).map(tuple),
    "tolerances": st.fixed_dictionaries(
        {key: st.floats(min_value=0.0, exclude_min=True) for key in ("newton", "eigen", "classify")}
    ),
}
_CONFIGS = st.builds(
    ExperimentConfig, **{f.name: _BY_FIELD.get(f.name, _BY_TYPE.get(f.type)) for f in fields(ExperimentConfig)}
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_CONFIGS, table=st.none() | _TEXT.filter(lambda name: "/" not in name))
def test_canonical_text_round_trips_through_parse_config(tmp_path, monkeypatch, cfg, table):
    _clear_env_tolerances(monkeypatch)
    if table is not None:
        path = tmp_path / f"beta{table}.csv"
        path.write_text("")
        cfg = replace(cfg, reaction=f"table:{path}")
    path = tmp_path / "echo.cfg"
    path.write_text(cfg.canonical_text())
    back = parse_config(path)
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()


@pytest.mark.parametrize(
    "name, digest",
    [
        (None, "d33523a4dae2bb7608953830eec9f59a7f9295e9c59551c376bd7cb1d51bc65b"),
        ("onephase_strip_neck.cfg", "4e0e17be44418e14a6a9ad28e2e1fa61b4ef3847db622128323bdf8ad1bd57f3"),
        ("profile_steep.cfg", "7d4c6f7fce005ad5cc35a505770eb2ee12568b9bee366be48a991d1de3892802"),
        ("solve_neck_n3.cfg", "7a40dfe3407db0ce7a7723a04d450573d7ee2bde8eb1e4afc114afba6cb8676e"),
        ("stability_n3.cfg", "d95102ebabb96b63d7525c5fdc875a5d065501afa7b8ee1ecaabfc3d6c269835"),
    ],
)
def test_config_hashes_are_pinned(monkeypatch, name, digest):
    _clear_env_tolerances(monkeypatch)
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


def test_krylov_iterations_are_counted_in_meta(tmp_path):
    # 129^2 catenoid data: the 65^2 level is factored, the 129^2 one is solved by GMRES
    for experiment, artifacts in (("solve", ["field.bin"]), ("stability", ["spectral.json", "eigenvector.bin"])):
        out = tmp_path / experiment
        cfg = ExperimentConfig(experiment=experiment, ns=129, nt=129, boundary_model="catenoid", out_dir=str(out))
        report = json.loads(json.dumps(run(cfg).to_json_dict()))
        _check_field_artifact(out, artifacts[-1], experiments._grid(cfg))
        counters = _lu_counters(report, out, artifacts, krylov=True)
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
def test_arbitrary_config_text_parses_or_raises_a_config_error(tmp_path, monkeypatch, lines):
    _clear_env_tolerances(monkeypatch)
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
