"""Run configuration: flat sectioned key-value files.

The format is INI-style (parsed with configparser): sections in brackets,
one key = value per line, full-line comments starting with '#'. See the
bundled configs for complete examples. Only [system] and [domain] are
required; everything else falls back to the RunConfig defaults.

Besides [system] (f1..fd), the schema is two tables: _BOXES, the sections
holding a lower and an upper corner, and _KEYS, one row per optional key.
Key checks, parsing, range checks and RunConfig.to_dict loop over them.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .box import Box
from .expr import ExprError, parse_expression

__all__ = ["ConfigError", "RunConfig", "load_config", "bundled_config_path"]


class ConfigError(ValueError):
    pass


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
        out = {"system": list(self.system)}
        for section, attr in _BOXES.items():
            box = getattr(self, attr)
            out[section] = {"lower": box.lower.tolist(), "upper": box.upper.tolist()}
        for section, key, attr, *_ in _KEYS:
            value = getattr(self, attr)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            out.setdefault(section, {})[key] = value
        return out


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


def _matrix(raw: str, where: str) -> np.ndarray:
    """A row-major 2 x 2 matrix: the pipeline is planar."""
    return _floats(raw, 4, where).reshape(2, 2)


def _text(raw: str, where: str) -> str:
    return raw


# Each window section holds the lower and upper corner of the RunConfig box
# field it names.
_BOXES = {"domain": "domain", "test_grid": "test_domain", "cpa": "cpa_domain"}

# One row per optional key: section, key, RunConfig field, parser, the
# condition the parsed value must meet (None: any) and the message when it
# does not.
_KEYS = (
    ("collocation", "grid_n", "grid_n", _int, lambda v: v >= 2, "must be at least 2"),
    ("collocation", "sigma", "sigma", _float, lambda v: v > 0, "must be positive"),
    ("collocation", "eta", "eta", _float, lambda v: v >= 0, "must be nonnegative"),
    ("test_grid", "resolution", "test_resolution", _int, lambda v: v >= 2,
     "must be at least 2"),
    ("cpa", "cells", "cpa_cells", _int, lambda v: v >= 2, "must be at least 2"),
    ("cpa", "safety", "cpa_safety", _float, lambda v: v >= 1.0, "must be at least 1"),
    ("cpa", "b_override", "cpa_b_override", _matrix,
     lambda v: np.all(v >= 0) and np.array_equal(v, v.T),
     "must be symmetric with nonnegative entries"),
    ("oracle", "enabled", "oracle_enabled", _bool, None, None),
    ("oracle", "t_max", "oracle_t_max", _float, lambda v: v > 0, "must be positive"),
    ("oracle", "dt", "oracle_dt", _float, lambda v: v > 0, "must be positive"),
    ("oracle", "sample_points", "oracle_sample_points", _int, lambda v: v >= 1,
     "must be at least 1"),
    ("output", "dir", "output_dir", _text, bool, "must be nonempty"),
)


def _allowed_keys(section: str) -> set:
    corners = {"lower", "upper"} if section in _BOXES else set()
    return corners | {row[1] for row in _KEYS if row[0] == section}


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
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    for section in parser.sections():
        if section == "system":
            continue
        allowed = _allowed_keys(section)
        if not allowed:
            raise ConfigError(f"unknown section [{section}]")
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

    kwargs: dict = {"system": system}
    for section, attr in _BOXES.items():
        if section in parser:
            kwargs[attr] = _box(parser[section], section, d)
    for section, key, attr, parse, ok, message in _KEYS:
        if section in parser and key in parser[section]:
            where = f"{section}.{key}"
            value = parse(parser[section][key], where)
            if ok is not None and not ok(value):
                raise ConfigError(f"{where} {message}")
            kwargs[attr] = value

    cfg = RunConfig(**kwargs)
    if not math.isfinite(cfg.oracle_t_max / cfg.oracle_dt):
        raise ConfigError("oracle.t_max / oracle.dt must be finite")
    return cfg


def bundled_config_path(name: str) -> Path:
    """Filesystem path of a configuration shipped with the package.

    Accepts either the bare name ("example1") or the full file name."""
    fname = name if "." in name else f"{name}.cfg"
    path = Path(__file__).parent / "configs" / fname
    if not path.exists():
        raise ConfigError(f"no bundled config named {name!r}")
    return path
