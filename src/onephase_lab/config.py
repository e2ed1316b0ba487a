"""Experiment configuration: line-oriented key=value files with sections.

The configuration format is INI-style (diff-friendly, stdlib parser); a
section or key the lab does not know is an error, not a silent default.  The
config file, with the command-line flags that set its keys, is the only
input of a run: tolerances come from its ``[tolerances]`` section alone.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass, field

from .axisym_field import GridSpec, require_representable_weights
from .errors import ConfigError, InvalidParameterError
from .stability import StabilityProbe, require_positive_node_weights

EXPERIMENTS = ("profile", "solve", "stability", "onephase", "blowdown", "window", "figure1")
BOUNDARY_MODELS = ("profile", "affine", "catenoid")
ONEPHASE_PRESETS = ("strip_neck", "sphere")

_DEFAULT_TOLERANCES = {
    "newton": 1e-10,
    "eigen": 1e-8,
    "classify": 1e-6,
}


# the smallest blow-down scale.  Each row samples its own source grid over
# [0, 1/eps] x [-2/eps, 2/eps], so rows stay finite and independent of one
# another far below it: the rescaled residual's quartic first overflows at
# u/eps (a warning) below about 1e-76, and the extent 2/eps is not finite
# below about 1.1e-308.  Below about 5e-4 the layer is narrower than one of
# the 8193 t cells, so a row's gap and residual measure the grid
MIN_EPSILON = 1e-12


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
        for sec, key, name, parse in _KEYS:
            value = getattr(self, name)
            finite = map(math.isfinite, value if parse is _parse_floats else [value])
            if parse in (float, _parse_floats) and not all(finite):
                raise ConfigError(f"[{sec}] {key} must be finite, got {_render(value)}")
        if self.n < 2:
            raise ConfigError("grid dimension n must be >= 2")
        for name, value in self.tolerances.items():
            if name not in _DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance {name!r}; choose from {tuple(_DEFAULT_TOLERANCES)}")
            if not (0.0 < value < math.inf):
                raise ConfigError(f"tolerance {name!r} must be positive and finite, got {value!r}")
        if self.reaction.startswith("table:"):
            path = self.reaction[len("table:"):]
            if not os.path.exists(path):
                raise ConfigError(f"reaction table file {path!r} does not exist")
        if self.onephase_preset not in ONEPHASE_PRESETS:
            raise ConfigError(f"unknown one-phase preset {self.onephase_preset!r}")
        if self.onephase_resolution < 1:
            raise ConfigError(f"one-phase resolution must be >= 1, got {self.onephase_resolution!r}")
        if not self.r0 > 0.0:
            raise ConfigError(f"[onephase] r0 must be positive, got {self.r0!r}")
        try:
            StabilityProbe(alpha=self.alpha, R=self.R, eps_inner=self.eps_inner, eps0=self.eps0)
        except InvalidParameterError as exc:
            key = next(key for sec, key, name, _parse in _KEYS if sec == "probe" and name == exc.name)
            raise ConfigError(f"[probe] {key} is out of range: {exc}") from None
        if not self.epsilons:
            raise ConfigError("[blowdown] epsilons must be a nonempty list")
        if not all(eps >= MIN_EPSILON for eps in self.epsilons):
            raise ConfigError(f"[blowdown] epsilons must be >= {MIN_EPSILON!r}, got {_render(self.epsilons)}")
        if not self.dims:
            raise ConfigError("[window] dims must be a nonempty list")
        if not all(n >= 2 for n in self.dims):
            raise ConfigError(f"[window] dims must be >= 2, got {_render(self.dims)}")
        if self.boundary_model not in BOUNDARY_MODELS:
            raise ConfigError(f"unknown boundary model {self.boundary_model!r}")
        if self.experiment in ("solve", "stability"):
            try:
                axes = _grid(self).axes()
                require_representable_weights(self.n, *axes)
                if self.experiment == "stability":
                    require_positive_node_weights(self.n, *axes)
            except InvalidParameterError as exc:
                raise ConfigError(f"{self.experiment}: {exc}") from None

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


def _grid(cfg: ExperimentConfig) -> GridSpec:
    return GridSpec(
        n=cfg.n,
        s_min=cfg.s_min,
        s_max=cfg.s_max,
        t_min=cfg.t_min,
        t_max=cfg.t_max,
        ns=cfg.ns,
        nt=cfg.nt,
    )


def _get(parser, section, key, cast):
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


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
# every (section, key) a config may set, lower-cased as the parser reads keys
_KNOWN = {(sec, key.lower()) for sec, key, *_ in _KEYS}


def _render(value) -> str:
    """One config value as canonical text: floats by repr, bools lower case, tuples comma-joined."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_render(v) for v in value)
    return str(value)


def parse_config(path) -> ExperimentConfig:
    """Read a config file into an :class:`ExperimentConfig`.

    Syntax errors carry the offending line numbers (from the stdlib parser);
    semantic errors name the section and key.  A ``[DEFAULT]`` section, an
    unknown section or an unknown key inside a known one is an error; a
    ``[tolerances]`` name is checked by :meth:`ExperimentConfig.validate`.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if parser.defaults():
        # configparser hands [DEFAULT] keys to every section, not to the run
        raise ConfigError(f"config section [DEFAULT] in {str(path)!r} is not read; set each key in its own section")
    for sec in parser.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown config section [{sec}] in {str(path)!r}; choose from {_SECTIONS}")
        for key in parser.options(sec):
            if sec != "tolerances" and (sec, key) not in _KNOWN:
                choices = tuple(k for s, k, *_ in _KEYS if s == sec)
                raise ConfigError(f"unknown config key [{sec}] {key} in {str(path)!r}; choose from {choices}")

    values = {name: _get(parser, sec, key, parse) for sec, key, name, parse in _KEYS if parser.has_option(sec, key)}
    tolerances = dict(_DEFAULT_TOLERANCES)
    if parser.has_section("tolerances"):
        tolerances.update((key, _get(parser, "tolerances", key, float)) for key in parser.options("tolerances"))
    cfg = ExperimentConfig(**values, tolerances=tolerances)
    cfg.validate()
    return cfg
