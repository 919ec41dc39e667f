import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from koopman_lyap import cli, collocation, cpa, expr, koopman, pipeline
from koopman_lyap.collocation import SingularSystemError
from koopman_lyap.config import ConfigError, bundled_config_path, load_config
from koopman_lyap.dynamics import BlowUpError, EquilibriumError, SpectrumError
from koopman_lyap.koopman import ConvergenceConditionError
from koopman_lyap.pipeline import MissingArtifactError, classify_error

# Small enough to run the whole pipeline in well under a second.
_TINY = """\
[system]
f1 = -2*x1
f2 = -3*(x2 - x1^2)

[domain]
lower = -2 -2
upper = 2 2

[collocation]
grid_n = 10
sigma = 1
eta = 0

[test_grid]
lower = -1 -1
upper = 1 1
resolution = 9

[cpa]
lower = -1 -1
upper = 1 1
cells = 8
safety = 1.1

[oracle]
enabled = true
t_max = 5
dt = 0.01
sample_points = 3

[output]
dir = {outdir}
"""


@pytest.fixture(scope="module")
def tiny_cfg_path(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny")
    cfg = base / "tiny.cfg"
    cfg.write_text(_TINY.format(outdir=(base / "out").as_posix()))
    return cfg


@pytest.fixture(scope="module")
def finished_run(tiny_cfg_path, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("runA")
    code = cli.main(["run", str(tiny_cfg_path), "--output-dir", str(outdir)])
    assert code == 0
    return outdir


# --- staged execution -------------------------------------------------------


def test_linearize_writes_artifact_and_prints(tiny_cfg_path, tmp_path, capsys):
    code = cli.main(["linearize", str(tiny_cfg_path), "--output-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "E =" in out
    assert "eigenvalues: -2  -3" in out
    saved = json.loads((tmp_path / "linearization.json").read_text())
    np.testing.assert_allclose(saved["E"], [[-2.0, 0.0], [0.0, -3.0]], atol=1e-14)
    np.testing.assert_allclose(saved["eigenvalues"], [-2.0, -3.0], atol=1e-14)


def test_stage_order_is_enforced(tiny_cfg_path, tmp_path, capsys):
    # lyapunov before eigenfunctions: missing artifact, exit 3
    code = cli.main(["lyapunov", str(tiny_cfg_path), "--output-dir", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "eigenfunctions.json" in err
    assert "run the earlier stage first" in err

    # certify builds its model from the eigenfunctions, not from model.json
    code = cli.main(["certify", str(tiny_cfg_path), "--output-dir", str(tmp_path)])
    assert code == 3
    assert "eigenfunctions.json" in capsys.readouterr().err


def test_certify_straight_after_eigenfunctions(tiny_cfg_path, tmp_path, capsys):
    # P is solved from the persisted spectrum, so certify needs no lyapunov
    # stage and certifies the same V as after one
    direct, chained = tmp_path / "direct", tmp_path / "chained"
    for outdir, stages in ((direct, ["eigenfunctions", "certify"]),
                           (chained, ["eigenfunctions", "lyapunov", "certify"])):
        for stage in stages:
            assert cli.main([stage, str(tiny_cfg_path), "--output-dir", str(outdir)]) == 0
    capsys.readouterr()
    assert not (direct / "model.json").exists()
    for name in ("certification.txt", "certification_failures.csv"):
        assert (direct / name).read_bytes() == (chained / name).read_bytes()


def test_stages_compose(tiny_cfg_path, tmp_path, capsys):
    for cmd in ("eigenfunctions", "lyapunov", "certify", "oracle-check"):
        code = cli.main([cmd, str(tiny_cfg_path), "--output-dir", str(tmp_path)])
        assert code == 0, f"{cmd} failed: {capsys.readouterr().err}"
    out = capsys.readouterr().out
    assert "fill distance:" in out
    assert "||P||_2" in out
    assert "cpa certification" in out
    assert "oracle check" in out
    expected = {
        "linearization.json", "centers.csv",
        "eigenfunction_1_alpha.csv", "eigenfunction_2_alpha.csv",
        "eigenfunctions.json", "model.json", "V.csv", "Vdot.csv",
        "diagnostics.txt", "certification.txt", "certification_failures.csv",
        "oracle_check.csv",
    }
    assert {p.name for p in tmp_path.iterdir() if p.is_file()} == expected


def test_run_produces_complete_manifest(finished_run):
    manifest = json.loads((finished_run / "manifest.json").read_text())
    assert set(manifest) == {"config", "files"}
    meta = json.loads((finished_run / "eigenfunctions.json").read_text())
    eigenvalues = [e["eigenvalue"] for e in meta["eigenfunctions"]]
    np.testing.assert_allclose(eigenvalues, [-2.0, -3.0], atol=1e-12)

    on_disk = {
        str(p.relative_to(finished_run))
        for p in finished_run.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    listed = {entry["path"] for entry in manifest["files"]}
    assert listed == on_disk
    for entry in manifest["files"]:
        blob = (finished_run / entry["path"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert len(blob) == entry["bytes"]


def test_eigenfunctions_json_reports_pde_residuals(tiny_cfg_path, finished_run):
    # recompute |grad phi . f - lambda phi| per eigenfunction from the
    # persisted coefficients on the 40 x 40 probe grid of the test window,
    # each point 0.37 of a cell past its cell's lower corner
    cfg = load_config(tiny_cfg_path)
    fld, _, eigset, meta = pipeline.load_eigenfunctions(cfg, finished_run)
    box, n = cfg.test_domain, 40
    axes = [lo + (np.arange(n) + 0.37) * (hi - lo) / n for lo, hi in zip(box.lower, box.upper)]
    X = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    assert box.contains(X).all()
    fX = fld.evaluate_at(X)
    for e, entry in zip(eigset, meta["eigenfunctions"]):
        r = np.abs(np.sum(e.gradient_many(X) * fX, axis=1) - e.lam * e.value_many(X))
        assert entry["pde_residual_max"] == pytest.approx(np.max(r), rel=1e-12, abs=1e-300)
        assert entry["pde_residual_rms"] == pytest.approx(
            np.sqrt(np.mean(r**2)), rel=1e-12, abs=1e-300
        )
        np.testing.assert_array_equal(entry["pde_residual_argmax"], X[np.argmax(r)])
    # phi_1 is the exact linear coordinate; phi_2 is collocated
    assert meta["eigenfunctions"][0]["pde_residual_max"] == 0.0
    assert meta["eigenfunctions"][1]["pde_residual_max"] > 0.0


def test_eigenfunctions_json_records_the_split(finished_run):
    # the tiny system is example1 on a symmetric box with 10 x 10 centers:
    # phi_2's right-hand side is even under S = diag(-1, 1), so its block
    # holds 50 center pairs, the value and d/dx2; phi_1's system is skipped
    meta = json.loads((finished_run / "eigenfunctions.json").read_text())
    split = [(e["symmetry"], e["parity"], e["unknowns"]) for e in meta["eigenfunctions"]]
    assert split == [([-1, 1], None, 0), ([-1, 1], "even", 52)]


def test_artifacts_without_the_split_keys_still_load(tiny_cfg_path, finished_run, tmp_path):
    # eigenfunctions.json written before the split was recorded
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "eigenfunctions.json"
    meta = json.loads(path.read_text())
    for entry in meta["eigenfunctions"]:
        for key in ("symmetry", "parity", "unknowns"):
            del entry[key]
    path.write_text(json.dumps(meta))
    assert cli.main(["lyapunov", str(tiny_cfg_path), "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "V.csv").read_bytes() == (finished_run / "V.csv").read_bytes()


@pytest.mark.parametrize(
    "name, signs, parity", [("duffing", [-1, -1], "odd"), ("example1", [-1, 1], "even")]
)
def test_bundled_configs_solve_one_mirror_block(name, signs, parity, tmp_path, capsys):
    # both bundled fields are mirror symmetric on a symmetric box; at an even
    # grid_n every solved system is one block of n / 2 center pairs and two
    # origin functionals, n = grid_n^2, so losing the exact mirror (a lattice
    # built by linspace alone) doubles the factored system and fails here
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(bundled_config_path(name).read_text().replace("grid_n = 60", "grid_n = 10"))
    assert cli.main(["eigenfunctions", str(cfg), "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    meta = json.loads((tmp_path / "eigenfunctions.json").read_text())
    solved = [e for e in meta["eigenfunctions"] if e["method"] == "cholesky"]
    assert solved
    for e in solved:
        assert (e["symmetry"], e["parity"], e["unknowns"]) == (signs, parity, 52)
    text = f"(cholesky): 52 of 103 unknowns, {parity} under S = diag({', '.join(map(str, signs))})"
    assert out.count(text) == len(solved)


def test_rerun_is_byte_identical(tiny_cfg_path, finished_run, tmp_path):
    code = cli.main(["run", str(tiny_cfg_path), "--output-dir", str(tmp_path)])
    assert code == 0
    names = sorted(p.name for p in finished_run.iterdir() if p.is_file())
    assert names == sorted(p.name for p in tmp_path.iterdir() if p.is_file())
    for name in names:
        assert (finished_run / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_run_prints_stage_summaries(tiny_cfg_path, tmp_path, capsys):
    code = cli.main(["run", str(tiny_cfg_path), "--output-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    for marker in ("fill distance:", "diagnostics", "cpa certification",
                   "oracle check", "artifacts written to"):
        assert marker in out
    # w1 . G = 0 on the tiny system, so its first system is skipped
    zero = "eigenvalue -2: eta = 0, max PDE residual = 0.00e+00 (rounding floor 0.0e+00) (zero)"
    assert zero in out
    assert "(cholesky)" in out


def test_oracle_check_skips_divergent_eigenvalue(tmp_path, capsys):
    # Duffing-type spectrum: the faster eigenvalue fails the convergence
    # condition and must be skipped per eigenvalue, not wholesale
    cfg = tmp_path / "duff.cfg"
    cfg.write_text(
        "[system]\nf1 = x2\nf2 = -3*x2 - x1 - x1^3\n\n"
        "[domain]\nlower = -2 -2\nupper = 2 2\n\n"
        "[collocation]\ngrid_n = 8\nsigma = 1\neta = 0\n\n"
        "[oracle]\nenabled = true\nt_max = 5\ndt = 0.01\nsample_points = 3\n\n"
        f"[output]\ndir = {(tmp_path / 'out').as_posix()}\n"
    )
    assert cli.main(["eigenfunctions", str(cfg)]) == 0
    assert cli.main(["oracle-check", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "skipped (convergence condition violated)" in out
    assert "max |phi - integral|" in out
    rows = np.genfromtxt(
        tmp_path / "out" / "oracle_check.csv", delimiter=",", names=True
    )
    assert np.all(np.isfinite(rows["absdiff_1"]))
    assert np.all(np.isnan(rows["absdiff_2"]))


def test_oracle_integrates_all_points_and_eigenvalues_in_one_pass(
    tiny_cfg_path, tmp_path, monkeypatch
):
    # one path-integral call for every sample point and eigenvalue, and one
    # RK4 step per time step up to t_max for the whole batch. The field is
    # evaluated 4 times a step, plus once at the origin to linearize and
    # once at the sample points to start
    cfg = load_config(tiny_cfg_path)
    pipeline.stage_eigenfunctions(cfg, tmp_path)
    calls, steps, evaluations = [], [], []
    integral, step = pipeline.path_integral_phi, koopman.rk4_step
    evaluate = expr.VectorField.evaluate

    def counting_integral(*args, **kwargs):
        calls.append(args[2])
        return integral(*args, **kwargs)

    def counting_step(*args, **kwargs):
        steps.append(1)
        return step(*args, **kwargs)

    def counting_evaluate(*args, **kwargs):
        evaluations.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(pipeline, "path_integral_phi", counting_integral)
    monkeypatch.setattr(koopman, "rk4_step", counting_step)
    monkeypatch.setattr(expr.VectorField, "evaluate", counting_evaluate)
    pipeline.stage_oracle_check(cfg, tmp_path)
    assert len(calls) == 1
    assert len(calls[0]) == cfg.dim
    assert len(steps) == round(cfg.oracle_t_max / cfg.oracle_dt)
    assert len(evaluations) == 4 * len(steps) + 2


# --- exit codes ---------------------------------------------------------------


def test_exit_code_validation_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_TINY.format(outdir=tmp_path / "out") + "\n[collocation]\nfoo = 1\n")
    assert cli.main(["run", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_code_numeric_error(tmp_path, capsys):
    cfg = tmp_path / "noneq.cfg"
    cfg.write_text(
        "[system]\nf1 = x2 + 1\nf2 = -3*x2 - x1\n\n"
        "[domain]\nlower = -2 -2\nupper = 2 2\n\n"
        f"[output]\ndir = {(tmp_path / 'out').as_posix()}\n"
    )
    assert cli.main(["run", str(cfg)]) == 2
    assert "equilibrium" in capsys.readouterr().err


def test_overflowing_field_fails_without_numpy_warnings(tmp_path, capsys):
    # x1^10000 overflows at every center with |x1| > 1: solve reports the
    # non-finite systems, and numpy's overflow and invalid-value warnings
    # on the way there are not shown
    text = _TINY.format(outdir=(tmp_path / "out").as_posix())
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(text.replace("f2 = -3*(x2 - x1^2)", "f2 = -3*x2 + 0.001*x1^10000"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(cfg)]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_exit_code_complex_spectrum(tmp_path, capsys):
    cfg = tmp_path / "spiral.cfg"
    cfg.write_text(
        "[system]\nf1 = x2\nf2 = -0.5*x2 - x1 - x1^3\n\n"
        "[domain]\nlower = -2 -2\nupper = 2 2\n\n"
        f"[output]\ndir = {(tmp_path / 'out').as_posix()}\n"
    )
    assert cli.main(["linearize", str(cfg)]) == 2
    assert "complex" in capsys.readouterr().err


def test_exit_code_io_error(tiny_cfg_path, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = cli.main(
        ["linearize", str(tiny_cfg_path), "--output-dir", str(blocker / "sub")]
    )
    assert code == 3
    capsys.readouterr()


def test_exit_code_missing_config(capsys):
    assert cli.main(["linearize", "/nonexistent/nowhere.cfg"]) == 3
    capsys.readouterr()


def test_bundled_config_by_name(tmp_path, capsys):
    assert cli.main(["linearize", "example1", "--output-dir", str(tmp_path)]) == 0
    assert "eigenvalues: -2  -3" in capsys.readouterr().out


@pytest.mark.parametrize("stage", ["lyapunov", "certify", "oracle-check"])
def test_eigenfunction_entry_without_method_exits_1(
    tiny_cfg_path, finished_run, tmp_path, capsys, stage
):
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)
    meta_path = tmp_path / "eigenfunctions.json"
    meta = json.loads(meta_path.read_text())
    del meta["eigenfunctions"][1]["method"]
    meta_path.write_text(json.dumps(meta))
    assert cli.main([stage, str(tiny_cfg_path), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert str(meta_path) in err and "'method'" in err


def _nan_alpha(outdir):
    path = outdir / "eigenfunction_1_alpha.csv"
    path.write_text("nan\n" + path.read_text().split("\n", 1)[1])
    return path


def _truncated_alpha(outdir):
    path = outdir / "eigenfunction_1_alpha.csv"
    path.write_text(path.read_text().rsplit("\n", 2)[0] + "\n")
    return path


def _alpha_files_string(outdir):
    path = outdir / "eigenfunctions.json"
    meta = json.loads(path.read_text())
    meta["alpha_files"] = meta["alpha_files"][0]
    path.write_text(json.dumps(meta))
    return path


@pytest.mark.parametrize("damage", [_nan_alpha, _truncated_alpha, _alpha_files_string])
def test_malformed_coefficients_exit_1(tiny_cfg_path, finished_run, tmp_path, capsys, damage):
    # a NaN coefficient would otherwise give an all-NaN V.csv and exit 0
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)
    path = damage(tmp_path)
    assert cli.main(["lyapunov", str(tiny_cfg_path), "--output-dir", str(tmp_path)]) == 1
    assert str(path) in capsys.readouterr().err


def _persisted(key, value, entry=None):
    """Damage that sets key of eigenfunctions.json, or of its eigenfunction
    entry, to value."""
    def damage(outdir):
        path = outdir / "eigenfunctions.json"
        meta = json.loads(path.read_text())
        (meta if entry is None else meta["eigenfunctions"][entry])[key] = value
        path.write_text(json.dumps(meta))
        return path
    return damage


_NOT_A_NUMBER = "eigenfunctions.json {} must be a number, got {!r}"


@pytest.mark.parametrize(
    "damage, stages, message",
    [
        (_persisted("sigma", math.inf), ["lyapunov", "certify"],
         "sigma must be positive and finite"),
        (_persisted("eta_config", math.nan), ["lyapunov", "certify"],
         "eta must be finite and nonnegative"),
        (_persisted("sigma", "3"), ["lyapunov", "certify"], _NOT_A_NUMBER.format("sigma", "3")),
        (_persisted("eta_config", "1e-8"), ["lyapunov", "certify"],
         _NOT_A_NUMBER.format("eta_config", "1e-8")),
        (_persisted("fill_distance", "0.5"), ["lyapunov", "certify"],
         _NOT_A_NUMBER.format("fill_distance", "0.5")),
        (_persisted("sigma", True), ["lyapunov"], _NOT_A_NUMBER.format("sigma", True)),
        (_persisted("sigma", None), ["lyapunov"], _NOT_A_NUMBER.format("sigma", None)),
        (_persisted("eta_used", "0", entry=1), ["lyapunov", "certify"],
         "eigenfunctions.json eigenfunctions[1] eta_used must be a number, got '0'"),
    ],
    ids=["sigma-inf", "eta-nan", "sigma-string", "eta-string", "fill_distance-string",
         "sigma-bool", "sigma-null", "eta_used-string"],
)
def test_non_finite_persisted_numbers_exit_1(
    tiny_cfg_path, finished_run, tmp_path, capsys, damage, stages, message
):
    # json reads Infinity and NaN; an infinite sigma would otherwise evaluate
    # a flat kernel and exit 0, and a NaN eta would load and exit 0. A string
    # would fail on a comparison that names neither the file nor the key, or
    # as a fill distance load and exit 0
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)
    damage(tmp_path)
    for stage in stages:
        assert cli.main([stage, str(tiny_cfg_path), "--output-dir", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err


def test_null_eta_config_loads(tiny_cfg_path, finished_run, tmp_path, capsys):
    # an unset collocation.eta persists as null, the automatic ridge
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)
    _persisted("eta_config", None)(tmp_path)
    assert cli.main(["lyapunov", str(tiny_cfg_path), "--output-dir", str(tmp_path)]) == 0


def _unfactorable(tmp_path, name, box="lower = -2 -2\nupper = 2 2"):
    """The tiny config with sigma = 3 and no ridge on its 10 x 10 centers,
    whose Gram system is not numerically positive definite."""
    cfg = tmp_path / name
    cfg.write_text(
        _TINY.format(outdir=(tmp_path / "out").as_posix())
        .replace("sigma = 1", "sigma = 3")
        .replace("lower = -2 -2\nupper = 2 2", box)
    )
    return cfg


def test_unfactorable_system_exits_2_naming_eta(tmp_path, capsys):
    assert cli.main(["eigenfunctions", str(_unfactorable(tmp_path, "flat.cfg"))]) == 2
    err = capsys.readouterr().err
    assert "not numerically positive definite" in err and "raise eta" in err


def test_failed_eigenfunctions_stage_keeps_the_previous_solution(tiny_cfg_path, tmp_path, capsys):
    # B's centers differ from A's; had the failed stage written them, a later
    # lyapunov would evaluate A's coefficients on B's centers
    a_out, b_out = tmp_path / "a", tmp_path / "b"
    for stage in ("eigenfunctions", "lyapunov"):
        assert cli.main([stage, str(tiny_cfg_path), "--output-dir", str(a_out)]) == 0
    shutil.copytree(a_out, b_out)
    solved = {p.name: p.read_bytes() for p in b_out.iterdir() if p.name != "linearization.json"}
    cfg_b = _unfactorable(tmp_path, "b.cfg", "lower = -3 -3\nupper = 3 3")
    assert cli.main(["eigenfunctions", str(cfg_b), "--output-dir", str(b_out)]) == 2
    assert {name: (b_out / name).read_bytes() for name in solved} == solved
    assert cli.main(["lyapunov", str(cfg_b), "--output-dir", str(b_out)]) == 0
    capsys.readouterr()
    assert (b_out / "V.csv").read_bytes() == (a_out / "V.csv").read_bytes()


def test_classify_error_mapping():
    assert classify_error(ConfigError("x")) == 1
    assert classify_error(TypeError("x")) == 1
    assert classify_error(ValueError("x")) == 1
    assert classify_error(EquilibriumError("x")) == 2
    assert classify_error(SpectrumError("x")) == 2
    assert classify_error(BlowUpError(1.0)) == 2
    assert classify_error(ConvergenceConditionError("x")) == 2
    assert classify_error(SingularSystemError("x")) == 2
    assert classify_error(np.linalg.LinAlgError("x")) == 2
    assert classify_error(FloatingPointError("x")) == 2
    assert classify_error(MissingArtifactError("p")) == 3
    assert classify_error(FileNotFoundError("p")) == 3
    with pytest.raises(RuntimeError):
        classify_error(RuntimeError("unclassified"))


# --- thread capping -------------------------------------------------------------


def test_threads_warns_when_numpy_already_loaded(tiny_cfg_path, tmp_path, capsys):
    # in-process numpy is long imported, so the cap cannot apply
    code = cli.main(
        ["linearize", str(tiny_cfg_path), "--output-dir", str(tmp_path),
         "--threads", "2"]
    )
    assert code == 0
    assert "numpy already imported" in capsys.readouterr().err


def test_threads_validation(tiny_cfg_path):
    with pytest.raises(SystemExit, match="at least 1"):
        cli.main(["linearize", str(tiny_cfg_path), "--threads", "0"])


def _fresh_python(*args):
    """Run python in a fresh interpreter that imports the package from this
    checkout's src, installed or not."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True, text=True, timeout=300, env=env,
    )


def _fresh_cli(*args):
    return _fresh_python("-m", "koopman_lyap.cli", *args)


_STAGE_MODULES = """\
import json, sys
from koopman_lyap import cli
code = cli.main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""


@pytest.fixture(scope="module")
def stage_modules(tiny_cfg_path, tmp_path_factory):
    """The modules each stage, and run, has loaded at exit, each in its own
    fresh interpreter as the CLI runs it."""
    outdir = tmp_path_factory.mktemp("stages")
    loaded = {}
    for stage in ("linearize", "eigenfunctions", "lyapunov", "certify", "oracle-check", "run"):
        proc = _fresh_python("-c", _STAGE_MODULES, stage, tiny_cfg_path, "--output-dir", outdir)
        assert proc.returncode == 0, proc.stderr
        loaded[stage] = json.loads(proc.stdout.splitlines()[-1])
    return loaded


def _loaded_under(stage_modules, package):
    return {
        stage: [m for m in modules if m == package or m.startswith(package + ".")]
        for stage, modules in stage_modules.items()
    }


def test_no_stage_loads_scipy(stage_modules):
    # scipy would add about 0.4 s of start-up to each process; every stage,
    # and run, runs in its own fresh interpreter
    assert _loaded_under(stage_modules, "scipy") == dict.fromkeys(stage_modules, [])


def test_no_stage_loads_numpy_random(stage_modules):
    # numpy.random maps its extension modules and, through secrets, OpenSSL;
    # the oracle's sample points come from a low-discrepancy sequence instead
    assert _loaded_under(stage_modules, "numpy.random") == dict.fromkeys(stage_modules, [])


def test_import_does_not_load_hashlib():
    # hashlib maps OpenSSL into every stage's process; only the manifest of
    # run hashes files, and test_run_produces_complete_manifest checks the hashes
    proc = _fresh_python(
        "-c",
        "import sys, koopman_lyap.cli, koopman_lyap.pipeline; "
        "print('_hashlib' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_non_finite_gram_system_exits_1_before_lapack(tmp_path):
    # exp(100 x1^2) overflows at the outer centers; the system is rejected
    # before any factorization, so LAPACK prints nothing
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        _TINY.format(outdir=(tmp_path / "out").as_posix())
        .replace("f1 = -2*x1", "f1 = -x1 + x1^2*exp(100*x1^2)")
        .replace("f2 = -3*(x2 - x1^2)", "f2 = -2*x2")
        .replace("lower = -2 -2\nupper = 2 2", "lower = -3 -3\nupper = 3 3")
    )
    proc = _fresh_cli("eigenfunctions", cfg)
    assert proc.returncode == 1, proc.stderr
    assert "non-finite entries" in proc.stderr
    assert "On entry to" not in proc.stderr and "Traceback" not in proc.stderr


_RANGE = "constant outside the floating-point range"
_DUFFING_F2 = "-3*x2 - x1 - x1^3"


@pytest.mark.parametrize(
    "f1, f2, code, error",
    [
        ("x2 + 10^400", _DUFFING_F2, 1, f"system.f1: {_RANGE}"),
        ("x2 + exp(1000)", _DUFFING_F2, 1, f"system.f1: {_RANGE}"),
        ("x2 + 1e400*x1", _DUFFING_F2, 1, f"system.f1: {_RANGE}"),
        ("x2 + " + "(" * 400 + "x1" + ")" * 400, _DUFFING_F2, 1,
         "system.f1: expression nested deeper than 100 levels (at position 105)"),
        ("x2" + " + 0.001*x1" * 1200, _DUFFING_F2, 1,
         "system.f1: expression nested deeper than 100 levels"),
        ("-x1 + exp(800 + x1) - exp(800 + x1)", "-2*x2", 2,
         "origin is not an equilibrium: |f(0)| = nan"),
        ("x2 + 1e200*(1e200*x1)", _DUFFING_F2, 2,
         "the Jacobian at the origin is not finite: [[inf, 1.0], [-1.0, -3.0]]"),
    ],
    ids=["folded-power", "folded-exp", "literal-inf", "nested-parentheses", "long-sum",
         "nan-at-origin", "infinite-jacobian"],
)
def test_bad_system_exits_with_one_error_line(tmp_path, f1, f2, code, error):
    # each used to end in a traceback (OverflowError, RecursionError) or in
    # numpy warnings and LAPACK's "Array must not contain infs or NaNs"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        f"[system]\nf1 = {f1}\nf2 = {f2}\n\n[domain]\nlower = -2 -2\nupper = 2 2\n\n"
        f"[output]\ndir = {(tmp_path / 'out').as_posix()}\n"
    )
    proc = _fresh_cli("linearize", cfg)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines() == [f"error: {error}"]


def test_lyapunov_loads_no_collocation_code():
    # the Linearization holds the spectrum that P and the eigenfunction set
    # read, so the quadratic form needs no kernel, collocation or box module
    proc = _fresh_python(
        "-c",
        "import sys, koopman_lyap.lyapunov; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('koopman_lyap.'))))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "koopman_lyap.dynamics", "koopman_lyap.expr", "koopman_lyap.koopman",
        "koopman_lyap.lyapunov",
    ]


def test_module_entry_point_fresh_interpreter(tiny_cfg_path, tmp_path):
    # a fresh interpreter takes the env-var path for --threads and exits 0
    proc = _fresh_cli("linearize", tiny_cfg_path, "--output-dir", tmp_path, "--threads", 1)
    assert proc.returncode == 0, proc.stderr
    assert "E =" in proc.stdout
    assert "numpy already imported" not in proc.stderr


def test_traced_cli_runs(tiny_cfg_path, tmp_path):
    # the benchmark's tracer imports every module it wraps, so a module
    # deleted from src/ fails here and not only in the benchmark
    traced = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
    spans = tmp_path / "spans.json"
    proc = _fresh_python(
        traced, spans, "run", tiny_cfg_path, "--output-dir", tmp_path / "out", "--threads", 1
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    # the targets the tracer already misses; one more means a per-layer
    # metric of the benchmark went blank
    assert sorted(trace["absent"]) == [
        "collocation.CollocationSolution.gradient_many",
        "kernel.GaussianKernel.cross_hessian_matrix",
        "kernel.GaussianKernel.grad_x_matrix",
        "kernel.GaussianKernel.grad_y_matrix",
        "kernel.GaussianKernel.value_matrix",
        "lyapunov.LyapunovModel.orbital_derivative_many",
        "lyapunov.SurfaceGrid.to_csv",
    ]
    recorded = {span[0] for span in trace["spans"]}
    # a layer the tracer no longer reaches drops out of the benchmark silently
    expected = {
        "cli.main",
        "pipeline.stage_eigenfunctions", "pipeline.stage_lyapunov",
        "pipeline.stage_certify", "pipeline.stage_oracle_check",
        "collocation.solve", "collocation.evaluate_many",
        "lyapunov.value_many", "lyapunov.diagnostics",
        "cpa.build_triangulation", "cpa.certify",
        "koopman.path_integral_phi",
    }
    assert expected <= recorded, sorted(expected - recorded)


# The README's cross-thread-count contract: V and Vdot agree to THREAD_RTOL
# of their largest magnitude, and the certification margins to MARGIN_RTOL
# of theirs. A margin differences V over one cell, so it amplifies the
# spread of V by about |f| / (cell width).
THREAD_RTOL = 1e-3
MARGIN_RTOL = 1e-2

_SMALL_DUFFING = """\
[system]
f1 = x2
f2 = -3*x2 - x1 - x1^3

[domain]
lower = -3 -3
upper = 3 3

[collocation]
grid_n = 24
sigma = 2
eta = 1e-10

[test_grid]
lower = -2 -2
upper = 2 2
resolution = 21

[cpa]
lower = -2 -2
upper = 2 2
cells = 20
safety = 1.1

[oracle]
enabled = false

[output]
dir = out
"""


def test_thread_count_changes_results_within_stated_tolerance(tmp_path):
    # --threads caps BLAS before numpy loads, so each count needs its own
    # interpreter; the Gram solve amplifies the changed summation order
    cfg_path = tmp_path / "duffing_small.cfg"
    cfg_path.write_text(_SMALL_DUFFING)
    runs = []
    for threads in (1, 2):
        outdir = tmp_path / f"t{threads}"
        proc = _fresh_cli("run", cfg_path, "--output-dir", outdir, "--threads", threads)
        assert proc.returncode == 0, proc.stderr
        runs.append(outdir)

    for name in ("V.csv", "Vdot.csv"):
        a, b = (np.loadtxt(r / name, delimiter=",", comments="#")[:, 2] for r in runs)
        assert np.max(np.abs(a - b)) <= THREAD_RTOL * np.max(np.abs(a)), name

    # only failed checks are on disk and in the report, so every pair's
    # margin is recomputed here, at one thread count, from each run's V at
    # the vertices by certify's margin function over the whole mesh
    cfg = load_config(cfg_path)
    fld = expr.parse_vector_field(cfg.system)
    b = cpa.estimate_b_bound(fld, cfg.cpa_domain, cfg.cpa_safety, cfg.cpa_b_override)
    margins = []
    for r in runs:
        report = pipeline.stage_certify(cfg, r)[0]
        tri = report.tri
        lhs, S = cpa._margins(
            tri, report.vertex_values, fld.evaluate_at(tri.vertices), b, np.arange(tri.n_simplices)
        )
        assert np.count_nonzero(S != tri.origin_vertex) == report.n_pairs_checked
        margins.append(np.where(S != tri.origin_vertex, lhs, 0.0))
    m1, m2 = margins
    assert np.max(np.abs(m1 - m2)) <= MARGIN_RTOL * np.max(np.abs(m1))


def test_readme_library_use_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    value, vdot = map(float, capsys.readouterr().out.split())
    assert value == pytest.approx(1.75, abs=1e-3)
    assert vdot == pytest.approx(-10.0, abs=1e-2)


def test_readme_config_loads_as_written(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration format", 1)[1]
    path = tmp_path / "readme.cfg"
    path.write_text(section.split("```ini\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    assert load_config(path).to_dict() == load_config(bundled_config_path("example1")).to_dict()


# --- stage contract ---------------------------------------------------------------


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_command_names_a_pipeline_function(command):
    assert callable(getattr(pipeline, cli._COMMANDS[command], None))


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_stdout_is_the_text_the_stage_returns(
    tiny_cfg_path, finished_run, tmp_path, capsys, command
):
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)
    assert cli.main([command, str(tiny_cfg_path), "--output-dir", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    stage = getattr(pipeline, cli._COMMANDS[command])
    _, text = stage(load_config(tiny_cfg_path), tmp_path)
    assert printed == text


# --- pipeline internals ----------------------------------------------------------


def test_load_eigenfunctions_rejects_system_swap(tiny_cfg_path, tmp_path):
    cfg = load_config(tiny_cfg_path)
    pipeline.stage_eigenfunctions(cfg, tmp_path)
    other = tmp_path / "other.cfg"
    other.write_text(
        "[system]\nf1 = -1*x1\nf2 = -4*x2\n\n"
        "[domain]\nlower = -2 -2\nupper = 2 2\n\n[output]\ndir = out\n"
    )
    with pytest.raises(ConfigError, match="do not match"):
        pipeline.load_eigenfunctions(load_config(other), tmp_path)


def test_system_with_the_same_linearization_does_not_load(tiny_cfg_path, tmp_path, capsys):
    # f2 = -3 (x2 - 4 x1^2) has the tiny system's Jacobian at 0, so its
    # eigenpairs, but other eigenfunctions: the persisted coefficients do
    # not solve its PDE
    assert cli.main(["eigenfunctions", str(tiny_cfg_path), "--output-dir", str(tmp_path)]) == 0
    tiny = tiny_cfg_path.read_text()
    swapped = tmp_path / "swapped.cfg"
    swapped.write_text(tiny.replace("f2 = -3*(x2 - x1^2)", "f2 = -3*(x2 - 4*x1^2)"))
    assert cli.main(["lyapunov", str(swapped), "--output-dir", str(tmp_path)]) == 1
    assert "do not match" in capsys.readouterr().err

    # the comparison is of parsed expressions, so spacing does not matter
    respaced = tmp_path / "respaced.cfg"
    respaced.write_text(tiny.replace("f2 = -3*(x2 - x1^2)", "f2 = -3 * ( x2 - x1 ^ 2 )"))
    assert cli.main(["lyapunov", str(respaced), "--output-dir", str(tmp_path)]) == 0


def test_certify_exponentials_scale_with_axis_lengths(tiny_cfg_path, tmp_path, monkeypatch):
    # certification evaluates phi at c vertices from the 1-D kernel factors
    # of each center axis plus k(x, 0): c (n_1 + n_2 + 1) exponentials, not
    # one per point and center
    cfg = load_config(tiny_cfg_path)
    pipeline.stage_eigenfunctions(cfg, tmp_path)
    pipeline.stage_lyapunov(cfg, tmp_path)
    centers = np.loadtxt(tmp_path / "centers.csv", delimiter=",")
    axis_lengths = [len(np.unique(col)) for col in centers.T]
    assert sum(axis_lengths) + 1 < len(centers)

    exp_elements, points = [], []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, *args, **kwargs):
            exp_elements.append(np.size(x))
            return np.exp(x, *args, **kwargs)

    evaluate_many = collocation.CollocationSolution.evaluate_many

    def counting_evaluate_many(self, X):
        points.append(len(X))
        return evaluate_many(self, X)

    monkeypatch.setattr(collocation, "np", CountingNumpy())
    monkeypatch.setattr(collocation.CollocationSolution, "evaluate_many", counting_evaluate_many)
    pipeline.stage_certify(cfg, tmp_path)
    assert points == [(cfg.cpa_cells + 1) ** 2]
    assert 0 < sum(exp_elements) <= points[0] * (sum(axis_lengths) + 1)


def test_certify_exponentials_scale_with_grid_axes(tiny_cfg_path, tmp_path, monkeypatch):
    # the CPA vertices are a tensor grid, so phi there comes from the 1-D
    # kernel factors of each vertex axis against each center axis: (cells +
    # 1) (n_1 + n_2) exponentials, and at most (cells + 1)^2 more for the
    # origin terms, not one per vertex and center axis
    cfg = load_config(tiny_cfg_path)
    pipeline.stage_eigenfunctions(cfg, tmp_path)
    centers = np.loadtxt(tmp_path / "centers.csv", delimiter=",")
    axis_lengths = [len(np.unique(col)) for col in centers.T]
    exp_elements = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, *args, **kwargs):
            exp_elements.append(np.size(x))
            return np.exp(x, *args, **kwargs)

    monkeypatch.setattr(collocation, "np", CountingNumpy())
    pipeline.stage_certify(cfg, tmp_path)
    vertices = cfg.cpa_cells + 1
    assert 0 < sum(exp_elements) <= vertices * sum(axis_lengths) + vertices**2


def test_certify_stage_working_set_grows_with_vertices_only(tiny_cfg_path, finished_run, tmp_path):
    # the triangulation, B, V at the vertices, certify and the failures CSV
    # together: per vertex its coordinates, V, f (2 floats each) and the
    # positivity flag, 41 bytes; no per-simplex table, margin or mask, and
    # B's probe grid no larger at any mesh. V certifies at both meshes here.
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)
    cfg = load_config(tiny_cfg_path)
    pipeline.stage_certify(cfg, tmp_path)  # first-call caches out of the peaks
    peaks, vertices = [], []
    for cells in (32, 128):
        sized = dataclasses.replace(cfg, cpa_cells=cells)
        tracemalloc.start()
        try:
            report, _ = pipeline.stage_certify(sized, tmp_path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.certified
        vertices.append(report.tri.n_vertices)
    assert peaks[1] - peaks[0] <= 48 * (vertices[1] - vertices[0]), peaks


def test_surface_csv_headers_follow_test_grid(finished_run):
    head = (finished_run / "V.csv").read_text().split("\n", 1)[0]
    assert head == "# domain -1 1 -1 1; resolution 9 9; quantity V"
    head = (finished_run / "Vdot.csv").read_text().split("\n", 1)[0]
    assert head.endswith("quantity Vdot")


def test_csv_writer_layout(tmp_path):
    # the one CSV writer: a header line only when one is given, "," between
    # columns, each float as Python's .17g (NaN, infinities, -0 and subnormals
    # included), and per-column formats such as %d for index columns
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.0 / 3.0, 1e300, 2.5])
    path = tmp_path / "a.csv"
    pipeline._write_csv(path, values)
    assert path.read_text() == "".join(f"{v:.17g}\n" for v in values)
    rows = np.column_stack([np.arange(9) - 1, values, values[::-1]])
    pipeline._write_csv(path, rows, "# i,a,b", ["%d", "%.17g", "%.17g"])
    expected = ["# i,a,b"] + [f"{i - 1},{a:.17g},{b:.17g}" for i, (a, b) in enumerate(zip(values, values[::-1]))]
    assert path.read_text() == "\n".join(expected) + "\n"
    pipeline._write_csv(path, np.empty((0, 3)), "x1,x2,v")
    assert path.read_text() == "x1,x2,v\n"


_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.0 / 3.0, 1e300, 2.5])


@pytest.mark.parametrize(
    "rows, header, fmt",
    [
        (_SPECIAL, "", "%.17g"),
        (
            np.column_stack([np.arange(9) - 1, _SPECIAL, _SPECIAL[::-1]]),
            "# i,a,b",
            ["%d", "%.17g", "%.17g"],
        ),
        (np.empty((0, 3)), "x1,x2,v", "%.17g"),
        (np.empty(0), "", "%.17g"),
        (np.resize(_SPECIAL, (2 * pipeline._CSV_BLOCK + 3, 2)), "x,y", "%.17g"),
    ],
    ids=["one-column", "per-column-formats", "no-rows", "no-rows-1d", "over-two-blocks"],
)
def test_csv_writer_matches_savetxt(tmp_path, rows, header, fmt):
    pipeline._write_csv(tmp_path / "a.csv", rows, header, fmt)
    np.savetxt(tmp_path / "b.csv", rows, fmt=fmt, delimiter=",", header=header, comments="")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_certification_artifacts(finished_run):
    text = (finished_run / "certification.txt").read_text()
    assert "cpa certification" in text
    assert "B bound rows:" in text
    lines = (finished_run / "certification_failures.csv").read_text().strip().split("\n")
    assert lines[0] == "simplex_index,vertex_index,x1,x2,lhs_margin"
