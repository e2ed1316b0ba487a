"""Experiment configuration: line-oriented key=value files with sections.

The configuration format is INI-style (diff-friendly, stdlib parser).  On
the command line every tolerance can be overridden by an environment
variable with the uniform prefix ``ONEPHASE_LAB_TOL_`` (for example
``ONEPHASE_LAB_TOL_NEWTON=1e-8``), with or without a config file; see
:func:`apply_env_overrides`.
"""

from __future__ import annotations

import configparser
import hashlib
import os
from dataclasses import dataclass, field, replace

from .errors import ConfigError

EXPERIMENTS = ("profile", "solve", "stability", "onephase", "blowdown", "window", "figure1")
BOUNDARY_MODELS = ("profile", "affine", "catenoid")
ONEPHASE_PRESETS = ("strip_neck", "sphere")
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
            if name not in _DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance {name!r}; choose from {tuple(_DEFAULT_TOLERANCES)}")
            if not (value > 0.0):
                raise ConfigError(f"tolerance {name!r} must be positive, got {value!r}")
        if self.reaction.startswith("table:"):
            path = self.reaction[len("table:"):]
            if not os.path.exists(path):
                raise ConfigError(f"reaction table file {path!r} does not exist")
        if self.onephase_preset not in ONEPHASE_PRESETS:
            raise ConfigError(f"unknown one-phase preset {self.onephase_preset!r}")
        if self.onephase_resolution < 1:
            raise ConfigError(f"one-phase resolution must be >= 1, got {self.onephase_resolution!r}")
        if not self.epsilons:
            raise ConfigError("blowdown needs a nonempty epsilon list")
        if not all(eps > 0.0 for eps in self.epsilons):
            raise ConfigError(f"blowdown epsilons must be positive, got {self.epsilons!r}")
        if self.boundary_model not in BOUNDARY_MODELS:
            raise ConfigError(f"unknown boundary model {self.boundary_model!r}")

    def canonical_text(self) -> str:
        """Normalized key=value rendering used for hashing and the report echo."""
        lines, section = [], None
        for sec, key, name, _parse in _KEYS:
            if sec != section:
                lines += ["", f"[{sec}]"]
                section = sec
            lines.append(f"{key} = {_render(getattr(self, name))}")
        lines += ["", "[tolerances]"]
        lines += [f"{key} = {_render(self.tolerances[key])}" for key in sorted(self.tolerances)]
        return "\n".join(lines[1:]) + "\n"

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


# (section, key, field, parser) of every config key, in canonical order
_KEYS = (
    ("experiment", "name", "experiment", str),
    ("experiment", "out_dir", "out_dir", str),
    ("reaction", "kind", "reaction", str),
    ("profile", "a", "a", float),
    ("profile", "halfwidth", "halfwidth", float),
    ("profile", "step", "step", float),
    ("grid", "n", "n", int),
    ("grid", "ns", "ns", int),
    ("grid", "nt", "nt", int),
    ("grid", "s_min", "s_min", float),
    ("grid", "s_max", "s_max", float),
    ("grid", "t_min", "t_min", float),
    ("grid", "t_max", "t_max", float),
    ("boundary", "model", "boundary_model", str),
    ("boundary", "slope", "boundary_slope", float),
    ("boundary", "offset", "boundary_offset", float),
    ("probe", "alpha", "alpha", float),
    ("probe", "R", "R", float),
    ("probe", "eps_inner", "eps_inner", float),
    ("probe", "eps0", "eps0", float),
    ("blowdown", "epsilons", "epsilons", _parse_floats),
    ("window", "dims", "dims", _parse_ints),
    ("onephase", "preset", "onephase_preset", str),
    ("onephase", "resolution", "onephase_resolution", int),
    ("onephase", "r0", "r0", float),
    ("solve", "domain_study", "domain_study", _parse_bool),
)

_SECTIONS = tuple(dict.fromkeys(sec for sec, *_ in _KEYS)) + ("tolerances",)


def _render(value) -> str:
    """One config value as canonical text: floats by repr, bools lower case, tuples comma-joined."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_render(v) for v in value)
    return str(value)


def apply_env_overrides(tolerances: dict, environ=None) -> dict:
    """``tolerances`` updated from the ``ONEPHASE_LAB_TOL_<NAME>`` variables of
    ``environ`` (default ``os.environ``); names are lower-cased and checked
    by :meth:`ExperimentConfig.validate`."""
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
    semantic errors name the section and key.  An unknown section is an
    error; an unknown key inside a known section is ignored.
    """
    cfg = base if base is not None else ExperimentConfig()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    for sec in parser.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown config section [{sec}] in {str(path)!r}; choose from {_SECTIONS}")

    cfg = replace(
        cfg, **{name: _get(parser, sec, key, parse, getattr(cfg, name)) for sec, key, name, parse in _KEYS}
    )
    tolerances = dict(cfg.tolerances)
    if parser.has_section("tolerances"):
        for key in parser.options("tolerances"):
            tolerances[key] = _get(parser, "tolerances", key, float, None)
    cfg = replace(cfg, tolerances=tolerances)
    cfg.validate()
    return cfg
