"""Command-line runner for the experiment suite."""

from __future__ import annotations

import dataclasses
import json
import sys

import click

from .config import ExperimentConfig, parse_config
from .errors import LabError
from .experiments import run


def _load_config(config_path, experiment, out_dir, **overrides) -> ExperimentConfig:
    base = ExperimentConfig(experiment=experiment)
    if config_path is not None:
        cfg = parse_config(config_path, base=base)
        cfg = dataclasses.replace(cfg, experiment=experiment)
    else:
        cfg = base
    fields = {}
    if out_dir is not None:
        fields["out_dir"] = out_dir
    for key, value in overrides.items():
        if value is not None:
            fields[key] = value
    if fields:
        cfg = dataclasses.replace(cfg, **fields)
    cfg.validate()
    return cfg


def _execute(cfg: ExperimentConfig) -> None:
    try:
        report = run(cfg)
    except LabError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"{cfg.experiment}: wrote {cfg.out_dir}/report.json")
    click.echo(json.dumps(report.results, indent=2, default=str))


def common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None, help="Config file (key=value sections)")(fn)
    fn = click.option("--out", "out_dir", type=click.Path(), default=None, help="Output directory for the run")(fn)
    return fn


@click.group()
@click.version_option()
def main():
    """Numerical laboratory for semilinear layers and one-phase interfaces."""


@main.command()
@common_options
@click.option("--a", "a", type=float, default=None, help="Anchor slope of the ramp")
def profile(config_path, out_dir, a):
    """Shoot and classify a 1D transition profile."""
    _execute(_load_config(config_path, "profile", out_dir, a=a))


@main.command()
@common_options
@click.option("--n", "n", type=int, default=None, help="Ambient dimension")
@click.option("--boundary", "boundary_model", type=click.Choice(["profile", "affine", "catenoid"]), default=None)
@click.option("--domain-study/--no-domain-study", "domain_study", default=None, help="Re-solve on a smaller domain and report the difference")
def solve(config_path, out_dir, n, boundary_model, domain_study):
    """Solve the axisymmetric semilinear equation on a truncated grid."""
    _execute(
        _load_config(config_path, "solve", out_dir, n=n, boundary_model=boundary_model, domain_study=domain_study)
    )


@main.command()
@common_options
@click.option("--n", "n", type=int, default=None, help="Ambient dimension")
@click.option("--boundary", "boundary_model", type=click.Choice(["profile", "affine", "catenoid"]), default=None)
@click.option("--alpha", type=float, default=None, help="Decay exponent of the radial probe")
def stability(config_path, out_dir, n, boundary_model, alpha):
    """Smallest Rayleigh quotient and radial-probe inequality checks."""
    _execute(_load_config(config_path, "stability", out_dir, n=n, boundary_model=boundary_model, alpha=alpha))


@main.command()
@common_options
@click.option("--preset", "onephase_preset", type=click.Choice(["strip_neck", "sphere"]), default=None)
@click.option("--n", "n", type=int, default=None, help="Ambient dimension (sphere preset)")
@click.option("--resolution", "onephase_resolution", type=int, default=None, help="Grid nodes per unit length")
def onephase(config_path, out_dir, onephase_preset, n, onephase_resolution):
    """Masked harmonic solve plus interface curvature identities."""
    overrides = dict(onephase_preset=onephase_preset, n=n, onephase_resolution=onephase_resolution)
    _execute(_load_config(config_path, "onephase", out_dir, **overrides))


@main.command()
@common_options
@click.option("--epsilons", type=str, default=None, help="Comma-separated rescaling widths")
def blowdown(config_path, out_dir, epsilons):
    """Layer-energy versus sharp-energy gap along a shrinking width family."""
    eps = None if epsilons is None else tuple(float(x) for x in epsilons.split(",") if x.strip())
    _execute(_load_config(config_path, "blowdown", out_dir, epsilons=eps))


@main.command()
@common_options
@click.option("--dims", type=str, default=None, help="Comma-separated ambient dimensions")
def window(config_path, out_dir, dims):
    """Admissible decay-exponent windows per dimension."""
    d = None if dims is None else tuple(int(x) for x in dims.split(",") if x.strip())
    _execute(_load_config(config_path, "window", out_dir, dims=d))


@main.command()
@common_options
def figure1(config_path, out_dir):
    """Emit the three-panel profile gallery (ramp slope above, at, below 1)."""
    _execute(_load_config(config_path, "figure1", out_dir))


if __name__ == "__main__":
    sys.exit(main())
