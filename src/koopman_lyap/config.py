"""Run configuration: flat sectioned key-value files.

The format is INI-style (parsed with configparser): sections in brackets,
one key = value per line, full-line comments starting with '#'. See the
bundled configs for complete examples. Only [system] and [domain] are
required; everything else falls back to the defaults below.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field as dc_field
from importlib import resources
from pathlib import Path

import numpy as np

from .box import Box
from .expr import ExprError, parse_expression

__all__ = ["ConfigError", "RunConfig", "load_config", "bundled_config_path"]


class ConfigError(ValueError):
    pass


_KNOWN_KEYS = {
    "system": None,  # f1..fd, validated separately
    "domain": {"lower", "upper"},
    "collocation": {"grid_n", "sigma", "eta"},
    "test_grid": {"lower", "upper", "resolution"},
    "cpa": {"lower", "upper", "cells", "safety", "b_override"},
    "oracle": {"enabled", "t_max", "dt", "sample_points"},
    "output": {"dir"},
}


@dataclass(frozen=True)
class RunConfig:
    system: tuple
    domain: Box
    grid_n: int = 60
    sigma: float = 3.0
    eta: float | None = None
    test_domain: Box = dc_field(
        default_factory=lambda: Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    )
    test_resolution: int = 41
    cpa_domain: Box = dc_field(
        default_factory=lambda: Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    )
    cpa_cells: int = 108
    cpa_safety: float = 1.1
    cpa_b_override: np.ndarray | None = None
    oracle_enabled: bool = False
    oracle_t_max: float = 20.0
    oracle_dt: float = 1e-3
    oracle_sample_points: int = 10
    output_dir: str = "out"

    @property
    def dim(self) -> int:
        return len(self.system)

    def to_dict(self) -> dict:
        """Plain-types echo of the configuration, for the run manifest."""
        return {
            "system": list(self.system),
            "domain": {
                "lower": self.domain.lower.tolist(),
                "upper": self.domain.upper.tolist(),
            },
            "collocation": {
                "grid_n": self.grid_n,
                "sigma": self.sigma,
                "eta": self.eta,
            },
            "test_grid": {
                "lower": self.test_domain.lower.tolist(),
                "upper": self.test_domain.upper.tolist(),
                "resolution": self.test_resolution,
            },
            "cpa": {
                "lower": self.cpa_domain.lower.tolist(),
                "upper": self.cpa_domain.upper.tolist(),
                "cells": self.cpa_cells,
                "safety": self.cpa_safety,
                "b_override": None
                if self.cpa_b_override is None
                else self.cpa_b_override.tolist(),
            },
            "oracle": {
                "enabled": self.oracle_enabled,
                "t_max": self.oracle_t_max,
                "dt": self.oracle_dt,
                "sample_points": self.oracle_sample_points,
            },
            "output": {"dir": self.output_dir},
        }


def _float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {raw!r}")
    return value


def _int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where} must be an integer, got {raw!r}") from None


def _bool(raw: str, where: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{where} must be a boolean, got {raw!r}")


def _floats(raw: str, count: int, where: str) -> np.ndarray:
    parts = raw.split()
    if len(parts) != count:
        raise ConfigError(f"{where} must hold {count} numbers, got {raw!r}")
    return np.array([_float(p, where) for p in parts])


def _box(section, name: str, dim: int) -> Box:
    for key in ("lower", "upper"):
        if key not in section:
            raise ConfigError(f"[{name}] is missing the {key!r} key")
    lower = _floats(section["lower"], dim, f"{name}.lower")
    upper = _floats(section["upper"], dim, f"{name}.upper")
    try:
        return Box(lower, upper)
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from None


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError:
        raise
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        allowed = _KNOWN_KEYS[section]
        if allowed is not None:
            for key in parser[section]:
                if key not in allowed:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")

    if "system" not in parser:
        raise ConfigError("missing required section [system]")
    if "domain" not in parser:
        raise ConfigError("missing required section [domain]")

    sys_section = parser["system"]
    d = len(sys_section)
    if d == 0:
        raise ConfigError("[system] must define f1..fd")
    expected = [f"f{i}" for i in range(1, d + 1)]
    if sorted(sys_section.keys()) != sorted(expected):
        raise ConfigError(
            f"[system] keys must be exactly {', '.join(expected)}"
        )
    if d != 2:
        raise ConfigError("the pipeline supports exactly 2 state variables")
    system = tuple(sys_section[k] for k in expected)
    for name, text in zip(expected, system):
        try:
            parse_expression(text, d)
        except ExprError as exc:
            raise ConfigError(f"system.{name}: {exc}") from None

    kwargs: dict = {"system": system, "domain": _box(parser["domain"], "domain", d)}

    if "collocation" in parser:
        sec = parser["collocation"]
        if "grid_n" in sec:
            kwargs["grid_n"] = _int(sec["grid_n"], "collocation.grid_n")
        if "sigma" in sec:
            kwargs["sigma"] = _float(sec["sigma"], "collocation.sigma")
        if "eta" in sec:
            kwargs["eta"] = _float(sec["eta"], "collocation.eta")

    if "test_grid" in parser:
        sec = parser["test_grid"]
        kwargs["test_domain"] = _box(sec, "test_grid", d)
        if "resolution" in sec:
            kwargs["test_resolution"] = _int(sec["resolution"], "test_grid.resolution")

    if "cpa" in parser:
        sec = parser["cpa"]
        kwargs["cpa_domain"] = _box(sec, "cpa", d)
        if "cells" in sec:
            kwargs["cpa_cells"] = _int(sec["cells"], "cpa.cells")
        if "safety" in sec:
            kwargs["cpa_safety"] = _float(sec["safety"], "cpa.safety")
        if "b_override" in sec:
            flat = _floats(sec["b_override"], d * d, "cpa.b_override")
            kwargs["cpa_b_override"] = flat.reshape(d, d)

    if "oracle" in parser:
        sec = parser["oracle"]
        if "enabled" in sec:
            kwargs["oracle_enabled"] = _bool(sec["enabled"], "oracle.enabled")
        if "t_max" in sec:
            kwargs["oracle_t_max"] = _float(sec["t_max"], "oracle.t_max")
        if "dt" in sec:
            kwargs["oracle_dt"] = _float(sec["dt"], "oracle.dt")
        if "sample_points" in sec:
            kwargs["oracle_sample_points"] = _int(
                sec["sample_points"], "oracle.sample_points"
            )

    if "output" in parser and "dir" in parser["output"]:
        kwargs["output_dir"] = parser["output"]["dir"]

    cfg = RunConfig(**kwargs)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.grid_n < 2:
        raise ConfigError("collocation.grid_n must be at least 2")
    if not cfg.sigma > 0:
        raise ConfigError("collocation.sigma must be positive")
    if cfg.eta is not None and cfg.eta < 0:
        raise ConfigError("collocation.eta must be nonnegative")
    if cfg.test_resolution < 2:
        raise ConfigError("test_grid.resolution must be at least 2")
    if cfg.cpa_cells < 2:
        raise ConfigError("cpa.cells must be at least 2")
    if cfg.cpa_safety < 1.0:
        raise ConfigError("cpa.safety must be at least 1")
    if cfg.cpa_b_override is not None and np.any(cfg.cpa_b_override < 0):
        raise ConfigError("cpa.b_override entries must be nonnegative")
    if cfg.oracle_t_max <= 0 or cfg.oracle_dt <= 0:
        raise ConfigError("oracle.t_max and oracle.dt must be positive")
    if not math.isfinite(cfg.oracle_t_max / cfg.oracle_dt):
        raise ConfigError("oracle.t_max / oracle.dt must be finite")
    if cfg.oracle_sample_points < 1:
        raise ConfigError("oracle.sample_points must be at least 1")
    if not cfg.output_dir:
        raise ConfigError("output.dir must be nonempty")


def bundled_config_path(name: str) -> Path:
    """Filesystem path of a configuration shipped with the package.

    Accepts either the bare name ("example1") or the full file name."""
    fname = name if "." in name else f"{name}.cfg"
    base = resources.files("koopman_lyap") / "configs" / fname
    path = Path(str(base))
    if not path.exists():
        raise ConfigError(f"no bundled config named {name!r}")
    return path
