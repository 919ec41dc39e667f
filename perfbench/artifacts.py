"""Correctness checks and quality metrics read from a run's output directory.

Everything here runs after timing, on files the CLI persisted. Checks
return a list of failure messages (empty = pass).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

# Acceptance criterion 07: collocation vs path integral.
ORACLE_TOLERANCE = 1e-2
# Test-grid annulus of acceptance criteria 06 and 10.
R_MIN, R_MAX = 0.1, 2.0


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def file_hashes(outdir: Path) -> dict:
    return {
        str(p.relative_to(outdir)): sha256(p)
        for p in sorted(outdir.rglob("*"))
        if p.is_file()
    }


def manifest_errors(outdir: Path) -> list:
    path = outdir / "manifest.json"
    if not path.is_file():
        return ["manifest.json missing"]
    manifest = json.loads(path.read_text(encoding="utf-8"))
    errors = []
    for entry in manifest["files"]:
        f = outdir / entry["path"]
        if not f.is_file() or sha256(f) != entry["sha256"]:
            errors.append(f"manifest entry {entry['path']} does not re-hash")
    return errors


def _surface(outdir: Path, name: str):
    data = np.loadtxt(outdir / name, delimiter=",", comments="#", ndmin=2)
    return np.hypot(data[:, 0], data[:, 1]), data[:, 2]


def surface_errors(outdir: Path) -> list:
    """V > 0 for r >= 0.1 and Vdot < 0 on 0.1 <= r <= 2 on the test grid."""
    errors = []
    r, v = _surface(outdir, "V.csv")
    bad = int(np.sum((r >= R_MIN) & ~(v > 0.0)))
    if bad:
        errors.append(f"V <= 0 at {bad} test-grid points with r >= {R_MIN}")
    r, vdot = _surface(outdir, "Vdot.csv")
    bad = int(np.sum((r >= R_MIN) & (r <= R_MAX) & ~(vdot < 0.0)))
    if bad:
        errors.append(f"Vdot >= 0 at {bad} test-grid points with {R_MIN} <= r <= {R_MAX}")
    return errors


def certification(outdir: Path) -> dict:
    """Counts from certification.txt."""
    text = (outdir / "certification.txt").read_text(encoding="utf-8")

    def field(label):
        m = re.search(rf"^\s*{label}:\s*(\S+)", text, re.M)
        if m is None:
            raise ValueError(f"certification.txt has no {label!r} line")
        return m.group(1)

    return {
        "positivity_failures": int(field("positivity failures")),
        "pairs_checked": int(field("pairs checked")),
        "decrease_failures": int(field("decrease failures")),
        "certified": field("certified") == "True",
    }


def oracle_max_absdiff(outdir: Path) -> float:
    """Largest |phi - integral| over the eigenvalues the oracle checked."""
    lines = (outdir / "oracle_check.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cols = [i for i, h in enumerate(header) if h.startswith("absdiff_")]
    vals = np.array([[float(row.split(",")[i]) for i in cols] for row in lines[1:]])
    if not np.any(np.isfinite(vals)):
        raise ValueError("oracle checked no eigenvalue")
    return float(np.nanmax(vals))


def pde_residual_max(cfg_path: Path, outdir: Path, n: int = 40) -> float:
    """max_i |grad phi_i . f - lambda_i phi_i| on an n x n probe grid inside
    the test window, shifted off the test grid and the centers' symmetry."""
    from koopman_lyap.config import load_config
    from koopman_lyap.pipeline import load_eigenfunctions

    cfg = load_config(cfg_path)
    fld, _, eigset, _ = load_eigenfunctions(cfg, outdir)
    box = cfg.test_domain
    axes = [lo + (np.arange(n) + 0.37) * (hi - lo) / n for lo, hi in zip(box.lower, box.upper)]
    X = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    fX = fld.evaluate_at(X)
    return max(
        float(np.max(np.abs(np.sum(e.gradient_many(X) * fX, axis=1) - e.lam * e.value_many(X))))
        for e in eigset
    )
