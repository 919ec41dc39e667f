import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from koopman_lyap.box import Box
from koopman_lyap.config import (
    ConfigError,
    RunConfig,
    bundled_config_path,
    load_config,
)
from koopman_lyap.dynamics import linearize
from koopman_lyap.expr import parse_vector_field

_MINIMAL = """\
[system]
f1 = -2*x1
f2 = -3*(x2 - x1^2)

[domain]
lower = -5 -5
upper = 5 5
"""


def _write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, _MINIMAL))
    assert cfg.dim == 2
    assert cfg.grid_n == 60
    assert cfg.sigma == 3.0
    assert cfg.eta is None
    assert cfg.test_resolution == 41
    assert cfg.cpa_cells == 108
    assert cfg.cpa_safety == 1.1
    assert cfg.cpa_b_override is None
    assert cfg.oracle_enabled is False
    assert cfg.output_dir == "out"
    np.testing.assert_array_equal(cfg.domain.lower, [-5.0, -5.0])
    np.testing.assert_array_equal(cfg.test_domain.upper, [2.0, 2.0])


def test_bundled_example1():
    cfg = load_config(bundled_config_path("example1"))
    assert cfg.grid_n == 60
    assert cfg.sigma == 3.0
    assert cfg.eta == 1e-10
    assert cfg.oracle_enabled is True
    np.testing.assert_array_equal(cfg.cpa_b_override, [[6.0, 0.0], [0.0, 0.0]])
    assert cfg.output_dir == "out/example1"
    # system components are stored as text; they parse to the cubic benchmark
    from koopman_lyap.expr import parse_vector_field

    fld = parse_vector_field(cfg.system)
    np.testing.assert_array_equal(fld.evaluate((1.0, 0.0)), [-2.0, 3.0])


def test_bundled_duffing():
    cfg = load_config(bundled_config_path("duffing"))
    assert cfg.sigma == 2.0
    assert cfg.eta == 1e-10
    assert cfg.oracle_enabled is False
    assert cfg.cpa_b_override is None
    np.testing.assert_array_equal(cfg.domain.upper, [3.0, 3.0])
    from koopman_lyap.expr import parse_vector_field

    fld = parse_vector_field(cfg.system)
    np.testing.assert_array_equal(fld.evaluate((0.0, 1.5)), [1.5, -4.5])


def test_unknown_bundled_name():
    with pytest.raises(ConfigError, match="no bundled config"):
        bundled_config_path("lorenz")


def test_to_dict_echo(tmp_path):
    cfg = load_config(bundled_config_path("example1"))
    d = cfg.to_dict()
    assert d["collocation"]["grid_n"] == 60
    assert d["cpa"]["b_override"] == [[6.0, 0.0], [0.0, 0.0]]
    assert d["oracle"]["enabled"] is True
    assert d["system"] == list(cfg.system)
    assert d["output"]["dir"] == "out/example1"


# --- rejection paths ---------------------------------------------------------


def test_unknown_section(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
        load_config(_write(tmp_path, _MINIMAL + "\n[extras]\nfoo = 1\n"))


def test_unknown_key(tmp_path):
    text = _MINIMAL + "\n[collocation]\ngrid_m = 60\n"
    with pytest.raises(ConfigError, match="unknown key 'grid_m'"):
        load_config(_write(tmp_path, text))


def test_missing_system_section(tmp_path):
    with pytest.raises(ConfigError, match=r"\[system\]"):
        load_config(_write(tmp_path, "[domain]\nlower = -1 -1\nupper = 1 1\n"))


def test_missing_domain_section(tmp_path):
    with pytest.raises(ConfigError, match=r"\[domain\]"):
        load_config(_write(tmp_path, "[system]\nf1 = -2*x1\nf2 = -3*x2\n"))


def test_wrong_component_names(tmp_path):
    text = "[system]\nf1 = -2*x1\nf3 = -3*x2\n\n[domain]\nlower = -1 -1\nupper = 1 1\n"
    with pytest.raises(ConfigError, match="keys must be exactly f1, f2"):
        load_config(_write(tmp_path, text))


def test_empty_system_section(tmp_path):
    text = "[system]\n\n[domain]\nlower = -1 -1\nupper = 1 1\n"
    with pytest.raises(ConfigError, match="f1..fd"):
        load_config(_write(tmp_path, text))


def test_dimension_other_than_two(tmp_path):
    text = (
        "[system]\nf1 = -1*x1\nf2 = -2*x2\nf3 = -3*x3\n\n"
        "[domain]\nlower = -1 -1 -1\nupper = 1 1 1\n"
    )
    with pytest.raises(ConfigError, match="exactly 2"):
        load_config(_write(tmp_path, text))


def test_bad_expression_names_field(tmp_path):
    text = "[system]\nf1 = -2*x1 +\nf2 = -3*x2\n\n[domain]\nlower = -1 -1\nupper = 1 1\n"
    with pytest.raises(ConfigError, match="system.f1"):
        load_config(_write(tmp_path, text))


def test_malformed_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(_write(tmp_path, "f1 = -2*x1\nno section header\n"))


def test_bad_number(tmp_path):
    text = _MINIMAL + "\n[collocation]\nsigma = wide\n"
    with pytest.raises(ConfigError, match="must be a number"):
        load_config(_write(tmp_path, text))


def test_bad_integer(tmp_path):
    text = _MINIMAL + "\n[collocation]\ngrid_n = 7.5\n"
    with pytest.raises(ConfigError, match="must be an integer"):
        load_config(_write(tmp_path, text))


def test_bad_boolean(tmp_path):
    text = _MINIMAL + "\n[oracle]\nenabled = maybe\n"
    with pytest.raises(ConfigError, match="must be a boolean"):
        load_config(_write(tmp_path, text))


def test_boolean_spellings(tmp_path):
    for raw, expected in (("true", True), ("yes", True), ("0", False), ("off", False)):
        text = _MINIMAL + f"\n[oracle]\nenabled = {raw}\n"
        assert load_config(_write(tmp_path, text)).oracle_enabled is expected


def test_domain_needs_both_bounds(tmp_path):
    text = "[system]\nf1 = -2*x1\nf2 = -3*x2\n\n[domain]\nlower = -1 -1\n"
    with pytest.raises(ConfigError, match="'upper'"):
        load_config(_write(tmp_path, text))


def test_domain_needs_matching_count(tmp_path):
    text = "[system]\nf1 = -2*x1\nf2 = -3*x2\n\n[domain]\nlower = -1\nupper = 1 1\n"
    with pytest.raises(ConfigError, match="must hold 2 numbers"):
        load_config(_write(tmp_path, text))


def test_inverted_domain_bounds(tmp_path):
    text = "[system]\nf1 = -2*x1\nf2 = -3*x2\n\n[domain]\nlower = 1 1\nupper = -1 -1\n"
    with pytest.raises(ConfigError, match=r"\[domain\]"):
        load_config(_write(tmp_path, text))


_BOUNDS = "lower = -1 -1\nupper = 1 1\n"


def test_b_override_needs_four_numbers(tmp_path):
    text = _MINIMAL + "\n[cpa]\n" + _BOUNDS + "b_override = 6 0 0\n"
    with pytest.raises(ConfigError, match="4 numbers"):
        load_config(_write(tmp_path, text))


def test_windowed_sections_require_bounds(tmp_path):
    # a [cpa] or [test_grid] section must position its own window
    text = _MINIMAL + "\n[cpa]\ncells = 10\n"
    with pytest.raises(ConfigError, match="missing the 'lower' key"):
        load_config(_write(tmp_path, text))


@pytest.mark.parametrize(
    "section, line, match",
    [
        ("collocation", "grid_n = 1", "at least 2"),
        ("collocation", "sigma = 0", "positive"),
        ("collocation", "eta = -1e-10", "nonnegative"),
        ("test_grid", _BOUNDS + "resolution = 1", "at least 2"),
        ("cpa", _BOUNDS + "cells = 1", "at least 2"),
        ("cpa", _BOUNDS + "safety = 0.9", "at least 1"),
        ("cpa", _BOUNDS + "b_override = 6 0 0 -1", "nonnegative"),
        ("cpa", _BOUNDS + "b_override = 6 1 0 0", "symmetric"),
        # before any stage runs, not after eigenfunctions and lyapunov
        ("cpa", _BOUNDS + "cells = 71", r"cells = 71: origin lies in the domain but is not a grid"),
        ("oracle", "t_max = 0", "positive"),
        ("oracle", "dt = -0.1", "positive"),
        ("oracle", "dt = 1e-320", r"t_max / oracle\.dt must be finite"),
        ("oracle", "sample_points = 0", "at least 1"),
        ("output", "dir =", "nonempty"),
    ],
)
def test_value_range_validation(tmp_path, section, line, match):
    text = _MINIMAL + f"\n[{section}]\n{line}\n"
    with pytest.raises(ConfigError, match=match):
        load_config(_write(tmp_path, text))


@pytest.mark.parametrize(
    "section, line, where",
    [
        ("collocation", "sigma = inf", "collocation.sigma"),
        ("collocation", "eta = nan", "collocation.eta"),
        ("oracle", "t_max = inf", "oracle.t_max"),
        ("cpa", _BOUNDS + "b_override = 6 0 0 inf", "cpa.b_override"),
    ],
)
def test_non_finite_numbers_rejected(tmp_path, section, line, where):
    text = _MINIMAL + f"\n[{section}]\n{line}\n"
    with pytest.raises(ConfigError, match=f"{where} must be finite"):
        load_config(_write(tmp_path, text))


def test_runconfig_direct_construction():
    from koopman_lyap.box import Box

    domain = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    cfg = RunConfig(system=("-2*x1", "-3*x2"), domain=domain)
    assert cfg.dim == 2
    assert cfg.to_dict()["collocation"]["eta"] is None


# Every optional key set away from its default, and every window moved.
_EVERY_KEY = """\
[system]
f1 = -1*x1
f2 = -4*(x2 - x1^2)

[domain]
lower = -4 -3
upper = 3 4

[collocation]
grid_n = 7
sigma = 1.5
eta = 1e-8

[test_grid]
lower = -1 -1.5
upper = 1.5 1
resolution = 11

[cpa]
lower = -1.5 -1
upper = 1 1.5
cells = 10
safety = 1.25
b_override = 1 2 2 4

[oracle]
enabled = true
t_max = 7
dt = 0.02
sample_points = 4

[output]
dir = elsewhere
"""


def _plain(value):
    if isinstance(value, Box):
        return value.lower.tolist(), value.upper.tolist()
    return value.tolist() if isinstance(value, np.ndarray) else value


def _to_ini(echo: dict) -> str:
    lines = []
    for section, values in echo.items():
        lines.append(f"[{section}]")
        if section == "system":
            values = {f"f{i}": text for i, text in enumerate(values, 1)}
        for key, value in values.items():
            if isinstance(value, bool):
                value = str(value).lower()
            elif isinstance(value, list):
                value = " ".join(map(str, np.ravel(value)))
            if value is not None:
                lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def test_every_key_round_trips_through_to_dict(tmp_path):
    # a key parsed but not echoed comes back at its default; one echoed but
    # not parsed is rejected as unknown
    cfg = load_config(_write(tmp_path, _EVERY_KEY))
    default = RunConfig(system=cfg.system, domain=cfg.domain)
    names = [f.name for f in dataclasses.fields(RunConfig)]
    for name in names[2:]:
        assert _plain(getattr(cfg, name)) != _plain(getattr(default, name)), name

    again = load_config(_write(tmp_path, _to_ini(cfg.to_dict())))
    for name in names:
        assert _plain(getattr(again, name)) == _plain(getattr(cfg, name)), name
    assert again.to_dict() == cfg.to_dict()


def _benchmark_workloads(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", range(4))
def test_benchmark_configs_load_and_linearize(tmp_path, monkeypatch, seed):
    # the benchmark rewrites one line per work size, and at seeds above 0
    # the system's lines, of a bundled config: a config that loses or
    # repeats such a line, or a system that no longer linearizes, fails here
    # and not only in the benchmark
    workloads = _benchmark_workloads(monkeypatch)
    for workload in workloads.WORKLOADS.values():
        bundled = bundled_config_path(workload.config).read_text(encoding="utf-8")
        cfg = load_config(_write(tmp_path, workloads.make_config(workload, bundled, seed)))
        linearize(parse_vector_field(cfg.system))
