"""Experiment configuration: line-oriented key=value files with sections.

The configuration format is INI-style (diff-friendly, stdlib parser).  Every
tolerance can be overridden by an environment variable with the uniform
prefix ``ONEPHASE_LAB_TOL_`` (for example ``ONEPHASE_LAB_TOL_NEWTON=1e-8``).
"""

from __future__ import annotations

import configparser
import hashlib
import os
from dataclasses import dataclass, field, replace

from .errors import ConfigError

EXPERIMENTS = ("profile", "solve", "stability", "onephase", "blowdown", "window", "figure1")
ENV_TOL_PREFIX = "ONEPHASE_LAB_TOL_"

_DEFAULT_TOLERANCES = {
    "newton": 1e-10,
    "eigen": 1e-8,
    "classify": 1e-6,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved parameters of one experiment run."""

    experiment: str = "profile"
    out_dir: str = "runs/out"
    # reaction term
    reaction: str = "poly2"
    # 1D profile parameters
    a: float = 1.0
    halfwidth: float = 30.0
    step: float = 0.002
    # grid
    n: int = 3
    s_min: float = 0.0
    s_max: float = 3.0
    t_min: float = -3.0
    t_max: float = 3.0
    ns: int = 65
    nt: int = 65
    # boundary model
    boundary_model: str = "profile"
    boundary_slope: float = 1.0
    boundary_offset: float = 0.0
    # stability probe
    alpha: float = 0.7
    R: float = 2.0
    eps_inner: float = 0.05
    eps0: float = 0.1
    # blow-down family
    epsilons: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125, 0.0625)
    # window sweep
    dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7)
    # one-phase preset
    onephase_preset: str = "strip_neck"
    onephase_resolution: int = 64
    r0: float = 1.0
    # solve extras
    domain_study: bool = False
    # tolerances
    tolerances: dict = field(default_factory=lambda: dict(_DEFAULT_TOLERANCES))

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        if self.n < 2:
            raise ConfigError("grid dimension n must be >= 2")
        for name, value in self.tolerances.items():
            if not (value > 0.0):
                raise ConfigError(f"tolerance {name!r} must be positive, got {value!r}")
        if self.reaction.startswith("table:"):
            path = self.reaction[len("table:"):]
            if not os.path.exists(path):
                raise ConfigError(f"reaction table file {path!r} does not exist")
        if self.onephase_preset not in ("strip_neck", "sphere"):
            raise ConfigError(f"unknown one-phase preset {self.onephase_preset!r}")
        if self.boundary_model not in ("profile", "affine", "catenoid"):
            raise ConfigError(f"unknown boundary model {self.boundary_model!r}")

    def canonical_text(self) -> str:
        """Normalized key=value rendering used for hashing and the report echo."""
        lines = ["[experiment]"]
        lines.append(f"name = {self.experiment}")
        lines.append(f"out_dir = {self.out_dir}")
        lines.append("")
        lines.append("[reaction]")
        lines.append(f"kind = {self.reaction}")
        lines.append("")
        lines.append("[profile]")
        lines.append(f"a = {self.a!r}")
        lines.append(f"halfwidth = {self.halfwidth!r}")
        lines.append(f"step = {self.step!r}")
        lines.append("")
        lines.append("[grid]")
        for key in ("n", "ns", "nt"):
            lines.append(f"{key} = {getattr(self, key)}")
        for key in ("s_min", "s_max", "t_min", "t_max"):
            lines.append(f"{key} = {getattr(self, key)!r}")
        lines.append("")
        lines.append("[boundary]")
        lines.append(f"model = {self.boundary_model}")
        lines.append(f"slope = {self.boundary_slope!r}")
        lines.append(f"offset = {self.boundary_offset!r}")
        lines.append("")
        lines.append("[probe]")
        lines.append(f"alpha = {self.alpha!r}")
        lines.append(f"R = {self.R!r}")
        lines.append(f"eps_inner = {self.eps_inner!r}")
        lines.append(f"eps0 = {self.eps0!r}")
        lines.append("")
        lines.append("[blowdown]")
        lines.append("epsilons = " + ",".join(repr(e) for e in self.epsilons))
        lines.append("")
        lines.append("[window]")
        lines.append("dims = " + ",".join(str(d) for d in self.dims))
        lines.append("")
        lines.append("[onephase]")
        lines.append(f"preset = {self.onephase_preset}")
        lines.append(f"resolution = {self.onephase_resolution}")
        lines.append(f"r0 = {self.r0!r}")
        lines.append("")
        lines.append("[solve]")
        lines.append(f"domain_study = {str(self.domain_study).lower()}")
        lines.append("")
        lines.append("[tolerances]")
        for key in sorted(self.tolerances):
            lines.append(f"{key} = {self.tolerances[key]!r}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _get(parser, section, key, cast, current):
    if parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return current


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(",") if x.strip())


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.split(",") if x.strip())


def apply_env_overrides(tolerances: dict, environ=None) -> dict:
    env = os.environ if environ is None else environ
    out = dict(tolerances)
    for key, raw in env.items():
        if key.startswith(ENV_TOL_PREFIX):
            name = key[len(ENV_TOL_PREFIX):].lower()
            try:
                out[name] = float(raw)
            except ValueError as exc:
                raise ConfigError(f"environment override {key}={raw!r}: {exc}") from exc
    return out


def parse_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Read a config file into an :class:`ExperimentConfig`.

    Syntax errors carry the offending line numbers (from the stdlib parser);
    semantic errors name the section and key.
    """
    cfg = base if base is not None else ExperimentConfig()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    cfg = replace(
        cfg,
        experiment=_get(parser, "experiment", "name", str, cfg.experiment),
        out_dir=_get(parser, "experiment", "out_dir", str, cfg.out_dir),
        reaction=_get(parser, "reaction", "kind", str, cfg.reaction),
        a=_get(parser, "profile", "a", float, cfg.a),
        halfwidth=_get(parser, "profile", "halfwidth", float, cfg.halfwidth),
        step=_get(parser, "profile", "step", float, cfg.step),
        n=_get(parser, "grid", "n", int, cfg.n),
        s_min=_get(parser, "grid", "s_min", float, cfg.s_min),
        s_max=_get(parser, "grid", "s_max", float, cfg.s_max),
        t_min=_get(parser, "grid", "t_min", float, cfg.t_min),
        t_max=_get(parser, "grid", "t_max", float, cfg.t_max),
        ns=_get(parser, "grid", "ns", int, cfg.ns),
        nt=_get(parser, "grid", "nt", int, cfg.nt),
        boundary_model=_get(parser, "boundary", "model", str, cfg.boundary_model),
        boundary_slope=_get(parser, "boundary", "slope", float, cfg.boundary_slope),
        boundary_offset=_get(parser, "boundary", "offset", float, cfg.boundary_offset),
        alpha=_get(parser, "probe", "alpha", float, cfg.alpha),
        R=_get(parser, "probe", "R", float, cfg.R),
        eps_inner=_get(parser, "probe", "eps_inner", float, cfg.eps_inner),
        eps0=_get(parser, "probe", "eps0", float, cfg.eps0),
        epsilons=_get(parser, "blowdown", "epsilons", _parse_floats, cfg.epsilons),
        dims=_get(parser, "window", "dims", _parse_ints, cfg.dims),
        onephase_preset=_get(parser, "onephase", "preset", str, cfg.onephase_preset),
        onephase_resolution=_get(parser, "onephase", "resolution", int, cfg.onephase_resolution),
        r0=_get(parser, "onephase", "r0", float, cfg.r0),
        domain_study=_get(parser, "solve", "domain_study", _parse_bool, cfg.domain_study),
    )
    tolerances = dict(cfg.tolerances)
    if parser.has_section("tolerances"):
        for key in parser.options("tolerances"):
            tolerances[key] = _get(parser, "tolerances", key, float, None)
    cfg = replace(cfg, tolerances=apply_env_overrides(tolerances))
    cfg.validate()
    return cfg
