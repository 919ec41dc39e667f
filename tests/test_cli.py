import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from koopman_lyap import cli, collocation, koopman, pipeline
from koopman_lyap.collocation import SingularSystemError
from koopman_lyap.config import ConfigError, load_config
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

    code = cli.main(["certify", str(tiny_cfg_path), "--output-dir", str(tmp_path)])
    assert code == 3
    assert "model.json" in capsys.readouterr().err


def test_stages_compose(tiny_cfg_path, tmp_path, capsys):
    for cmd in ("eigenfunctions", "lyapunov", "certify", "oracle-check"):
        code = cli.main([cmd, str(tiny_cfg_path), "--output-dir", str(tmp_path)])
        assert code == 0, f"{cmd} failed: {capsys.readouterr().err}"
    out = capsys.readouterr().out
    assert "fill distance:" in out
    assert "||P||_F" in out
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
    for key in ("config", "eigenvalues", "condition_estimates",
                "fill_distance", "files"):
        assert key in manifest
    np.testing.assert_allclose(manifest["eigenvalues"], [-2.0, -3.0], atol=1e-12)

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
    # RK4 step per time step for the whole batch
    cfg = load_config(tiny_cfg_path)
    pipeline.stage_eigenfunctions(cfg, tmp_path)
    calls, steps = [], []
    integral, step = pipeline.path_integral_phi, koopman.rk4_step

    def counting_integral(*args, **kwargs):
        calls.append(args[2])
        return integral(*args, **kwargs)

    def counting_step(*args, **kwargs):
        steps.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(pipeline, "path_integral_phi", counting_integral)
    monkeypatch.setattr(koopman, "rk4_step", counting_step)
    pipeline.stage_oracle_check(cfg, tmp_path)
    assert len(calls) == 1
    assert len(calls[0]) == cfg.dim
    assert 0 < len(steps) <= math.ceil(cfg.oracle_t_max / cfg.oracle_dt)


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


def test_module_entry_point_fresh_interpreter(tiny_cfg_path, tmp_path):
    # a fresh interpreter takes the env-var path for --threads and exits 0;
    # it imports the package from this checkout's src, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "koopman_lyap.cli", "linearize",
         str(tiny_cfg_path), "--output-dir", str(tmp_path), "--threads", "1"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "E =" in proc.stdout
    assert "numpy already imported" not in proc.stderr


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


def test_one_basis_block_per_eigenfunction_per_chunk(tiny_cfg_path, tmp_path, monkeypatch):
    # the lyapunov stage evaluates phi and grad phi once per eigenfunction
    # per chunk of the test grid; certification needs values only
    cfg = load_config(tiny_cfg_path)
    pipeline.stage_eigenfunctions(cfg, tmp_path)
    with_gradients = []
    block = collocation._basis_block

    def counting(*args, **kwargs):
        values, grads = block(*args, **kwargs)
        with_gradients.append(grads is not None)
        return values, grads

    monkeypatch.setattr(collocation, "_basis_block", counting)
    pipeline.stage_lyapunov(cfg, tmp_path)
    n_points = cfg.test_resolution**cfg.dim
    chunks = math.ceil(n_points / collocation._CHUNK)
    assert with_gradients == [True] * (cfg.dim * chunks)

    with_gradients.clear()
    pipeline.stage_certify(cfg, tmp_path)
    assert with_gradients and not any(with_gradients)


def test_surface_csv_headers_follow_test_grid(finished_run):
    head = (finished_run / "V.csv").read_text().split("\n", 1)[0]
    assert head == "# domain -1 1 -1 1; resolution 9 9; quantity V"
    head = (finished_run / "Vdot.csv").read_text().split("\n", 1)[0]
    assert head.endswith("quantity Vdot")


def test_certification_artifacts(finished_run):
    text = (finished_run / "certification.txt").read_text()
    assert "cpa certification" in text
    assert "B bound rows:" in text
    lines = (finished_run / "certification_failures.csv").read_text().strip().split("\n")
    assert lines[0] == "simplex_index,vertex_index,x1,x2,lhs_margin"
