"""Command-line runner for the experiment suite."""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import click

from .config import (
    BOUNDARY_MODELS,
    ONEPHASE_PRESETS,
    ExperimentConfig,
    _parse_floats,
    _parse_ints,
    parse_config,
)
from .errors import LabError
from .experiments import run


def _execute(config_path, experiment, out_dir, **flags) -> None:
    """Load the config, apply the flags that were given, run, and report; the
    config file and the flags are the run's only input.  Lab errors exit cleanly."""
    try:
        cfg = ExperimentConfig() if config_path is None else parse_config(config_path)
        flags.update(experiment=experiment, out_dir=out_dir)
        cfg = replace(cfg, **{key: value for key, value in flags.items() if value is not None})
        report = run(cfg)
    except LabError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"{experiment}: wrote {cfg.out_dir}/report.json")
    click.echo(json.dumps(report.results, indent=2, default=str))


def _list_of(parse):
    """Click callback that parses a comma-separated flag with the config file's parser."""

    def callback(ctx, param, value):
        try:
            return None if value is None else parse(value)
        except ValueError as exc:
            raise click.BadParameter(str(exc)) from exc

    return callback


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
    _execute(config_path, "profile", out_dir, a=a)


@main.command()
@common_options
@click.option("--n", "n", type=int, default=None, help="Ambient dimension")
@click.option("--boundary", "boundary_model", type=click.Choice(BOUNDARY_MODELS), default=None)
@click.option("--domain-study/--no-domain-study", "domain_study", default=None, help="Re-solve on a smaller domain and report the difference")
def solve(config_path, out_dir, n, boundary_model, domain_study):
    """Solve the axisymmetric semilinear equation on a truncated grid."""
    _execute(config_path, "solve", out_dir, n=n, boundary_model=boundary_model, domain_study=domain_study)


@main.command()
@common_options
@click.option("--n", "n", type=int, default=None, help="Ambient dimension")
@click.option("--boundary", "boundary_model", type=click.Choice(BOUNDARY_MODELS), default=None)
@click.option("--alpha", type=float, default=None, help="Decay exponent of the radial probe")
def stability(config_path, out_dir, n, boundary_model, alpha):
    """Smallest Rayleigh quotient and radial-probe inequality checks."""
    _execute(config_path, "stability", out_dir, n=n, boundary_model=boundary_model, alpha=alpha)


@main.command()
@common_options
@click.option("--preset", "onephase_preset", type=click.Choice(ONEPHASE_PRESETS), default=None)
@click.option("--n", "n", type=int, default=None, help="Ambient dimension (sphere preset)")
@click.option("--resolution", "onephase_resolution", type=int, default=None, help="Grid nodes per unit length")
def onephase(config_path, out_dir, onephase_preset, n, onephase_resolution):
    """Masked harmonic solve plus interface curvature identities."""
    _execute(
        config_path, "onephase", out_dir, onephase_preset=onephase_preset, n=n, onephase_resolution=onephase_resolution
    )


@main.command()
@common_options
@click.option("--epsilons", callback=_list_of(_parse_floats), help="Comma-separated rescaling widths")
def blowdown(config_path, out_dir, epsilons):
    """Layer-energy versus sharp-energy gap along a shrinking width family."""
    _execute(config_path, "blowdown", out_dir, epsilons=epsilons)


@main.command()
@common_options
@click.option("--dims", callback=_list_of(_parse_ints), help="Comma-separated ambient dimensions")
def window(config_path, out_dir, dims):
    """Admissible decay-exponent windows per dimension."""
    _execute(config_path, "window", out_dir, dims=dims)


@main.command()
@common_options
def figure1(config_path, out_dir):
    """Emit the three-panel profile gallery (ramp slope above, at, below 1)."""
    _execute(config_path, "figure1", out_dir)


if __name__ == "__main__":
    sys.exit(main())
