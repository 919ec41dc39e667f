"""Staged pipeline behind the command-line interface.

Stages communicate through files in the output directory, so each one can be
run on its own against a prior run's artifacts:

    linearize        linearization.json
    eigenfunctions   + centers.csv, eigenfunction_<i>_alpha.csv,
                       eigenfunctions.json
    lyapunov         + model.json, V.csv, Vdot.csv, diagnostics.txt
                       (requires eigenfunctions.json)
    certify          + certification.txt, certification_failures.csv
                       (requires model.json)
    oracle-check     + oracle_check.csv (requires eigenfunctions.json)
    run              everything above + manifest.json

Outputs are deterministic: no timestamps, fixed float formatting, sorted JSON
keys. The manifest lists every other file in the directory with a sha256
checksum.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .box import Box
from .collocation import (
    CollocationProblem,
    CollocationSolution,
    SingularSystemError,
    fill_distance,
    uniform_centers,
)
from .config import ConfigError, RunConfig
from .cpa import certify, build_triangulation, estimate_b_bound
from .dynamics import (
    BlowUpError,
    EquilibriumError,
    SpectrumError,
    linearize,
)
from .expr import parse_vector_field
from .kernel import make_kernel
from .koopman import (
    ConvergenceConditionError,
    Eigenfunction,
    EigenfunctionSet,
    build_eigenfunctions,
    path_integral_phi,
)
from .lyapunov import LyapunovModel, diagnostics, grid_eval, solve_p

__all__ = [
    "MissingArtifactError",
    "ensure_output_dir",
    "stage_linearize",
    "stage_eigenfunctions",
    "eigenfunctions_summary",
    "stage_lyapunov",
    "stage_certify",
    "stage_oracle_check",
    "run_pipeline",
    "classify_error",
]

_LINEARIZATION = "linearization.json"
_CENTERS = "centers.csv"
_EIGENFUNCTIONS = "eigenfunctions.json"
_MODEL = "model.json"
_MANIFEST = "manifest.json"


class MissingArtifactError(OSError):
    def __init__(self, path):
        super().__init__(f"missing artifact {path}; run the earlier stage first")
        self.path = str(path)


def ensure_output_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    probe.write_text("")
    probe.unlink()
    return out


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _field_and_lin(cfg: RunConfig):
    fld = parse_vector_field(cfg.system)
    return fld, linearize(fld)


def stage_linearize(cfg: RunConfig, outdir: Path):
    """Write linearization.json; returns the linearization."""
    fld, lin = _field_and_lin(cfg)
    _write_json(
        outdir / _LINEARIZATION,
        {
            "E": lin.E.tolist(),
            "eigenvalues": lin.eigenvalues.tolist(),
            "left_eigenvectors": lin.left_eigenvectors.tolist(),
        },
    )
    return lin


def stage_eigenfunctions(cfg: RunConfig, outdir: Path):
    """Solve one collocation problem per eigenvalue and persist coefficients."""
    fld, lin = _field_and_lin(cfg)
    stage_linearize(cfg, outdir)

    kern = make_kernel("gaussian", cfg.sigma, cfg.dim)
    centers = uniform_centers(cfg.domain, cfg.grid_n)
    rho = fill_distance(centers, cfg.domain)

    np.savetxt(outdir / _CENTERS, centers, fmt="%.17g", delimiter=",")

    eigset = build_eigenfunctions(fld, lin, kern, centers, cfg.domain, cfg.eta)
    alpha_files = [f"eigenfunction_{i}_alpha.csv" for i in range(1, len(eigset) + 1)]
    for name, e in zip(alpha_files, eigset):
        np.savetxt(outdir / name, e.h.alpha, fmt="%.17g", delimiter=",")
    meta_eigs = [
        {
            "eigenvalue": e.lam,
            "left_eigenvector": e.w.tolist(),
            "eta_used": e.h.eta_used,
            "condition_estimate": e.h.condition_estimate,
            "method": e.h.method,
        }
        for e in eigset
    ]

    _write_json(
        outdir / _EIGENFUNCTIONS,
        {
            "sigma": cfg.sigma,
            "eta_config": cfg.eta,
            "fill_distance": rho,
            "centers_file": _CENTERS,
            "alpha_files": alpha_files,
            "eigenfunctions": meta_eigs,
        },
    )
    return eigset, rho


def eigenfunctions_summary(eigset: EigenfunctionSet, rho: float) -> str:
    """Text report of the eigenfunctions stage: fill distance, then one line
    per eigenvalue with its ridge, condition estimate and solver."""
    lines = [f"fill distance: {rho:.12g}"]
    for e in eigset:
        lines.append(
            f"eigenvalue {e.lam:.6g}: eta = {e.h.eta_used:.6g}, "
            f"condition estimate = {e.h.condition_estimate:.6e} ({e.h.method})"
        )
    return "\n".join(lines) + "\n"


def load_eigenfunctions(cfg: RunConfig, outdir: Path):
    """Rebuild the eigenfunction set from persisted coefficients."""
    meta_path = outdir / _EIGENFUNCTIONS
    if not meta_path.exists():
        raise MissingArtifactError(meta_path)
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)

    fld, lin = _field_and_lin(cfg)
    stored = np.array([e["eigenvalue"] for e in meta["eigenfunctions"]])
    if stored.shape != lin.eigenvalues.shape or np.max(
        np.abs(stored - lin.eigenvalues)
    ) > 1e-9 * max(1.0, float(np.max(np.abs(lin.eigenvalues)))):
        raise ConfigError(
            "persisted eigenfunctions do not match this configuration's system"
        )

    centers_path = outdir / meta["centers_file"]
    if not centers_path.exists():
        raise MissingArtifactError(centers_path)
    centers = np.loadtxt(centers_path, delimiter=",", ndmin=2)
    kern = make_kernel("gaussian", meta["sigma"], cfg.dim)

    eigs = []
    for entry, alpha_file in zip(meta["eigenfunctions"], meta["alpha_files"]):
        alpha_path = outdir / alpha_file
        if not alpha_path.exists():
            raise MissingArtifactError(alpha_path)
        alpha = np.loadtxt(alpha_path, delimiter=",")
        w = np.array(entry["left_eigenvector"])
        problem = CollocationProblem(
            kernel=kern,
            fld=fld,
            lin=lin,
            lam=entry["eigenvalue"],
            w=w,
            centers=centers,
            domain=cfg.domain,
            eta=meta["eta_config"],
        )
        sol = CollocationSolution(
            problem=problem,
            alpha=np.atleast_1d(alpha),
            eta_used=entry["eta_used"],
            condition_estimate=entry["condition_estimate"],
            method=entry["method"],
        )
        eigs.append(Eigenfunction(lam=entry["eigenvalue"], w=w, h=sol))
    return fld, lin, EigenfunctionSet(tuple(eigs)), meta


def stage_lyapunov(cfg: RunConfig, outdir: Path):
    """Build the Lyapunov model from persisted eigenfunctions; write the
    surfaces, the diagnostics report, and model.json."""
    fld, lin, eigset, meta = load_eigenfunctions(cfg, outdir)
    P = solve_p(eigset.eigenvalues)
    model = LyapunovModel(eigenfunctions=eigset, P=P)

    grid = grid_eval(model, fld, cfg.test_domain, cfg.test_resolution)
    grid.V.to_csv(outdir / "V.csv")
    grid.Vdot.to_csv(outdir / "Vdot.csv")
    report = diagnostics(model, meta["fill_distance"], grid)
    (outdir / "diagnostics.txt").write_text(report.format_text(), encoding="utf-8")
    _write_json(
        outdir / _MODEL,
        {"P": P.tolist(), "eigenfunctions_file": _EIGENFUNCTIONS},
    )
    return model, report


def _load_model(cfg: RunConfig, outdir: Path):
    model_path = outdir / _MODEL
    if not model_path.exists():
        raise MissingArtifactError(model_path)
    with open(model_path, "r", encoding="utf-8") as fh:
        saved = json.load(fh)
    fld, lin, eigset, meta = load_eigenfunctions(cfg, outdir)
    model = LyapunovModel(eigenfunctions=eigset, P=np.array(saved["P"]))
    return fld, model


def stage_certify(cfg: RunConfig, outdir: Path):
    """Certify the persisted model on the configured triangulation."""
    fld, model = _load_model(cfg, outdir)
    tri = build_triangulation(cfg.cpa_domain, cfg.cpa_cells)
    b = estimate_b_bound(
        fld,
        cfg.cpa_domain,
        safety=cfg.cpa_safety,
        override=cfg.cpa_b_override,
    )
    values = model.value_many(tri.vertices)
    report = certify(tri, values, fld, b)

    text = report.summary_text() + f"  B bound rows:        {b.matrix.tolist()}\n"
    (outdir / "certification.txt").write_text(text, encoding="utf-8")
    report.write_failures_csv(outdir / "certification_failures.csv")
    return report


def _oracle_points(cfg: RunConfig) -> np.ndarray:
    """Deterministic sample: the unit point on axis 1, then seeded uniforms
    over [-1, 1]^d intersected with the domain."""
    d = cfg.dim
    lo = np.maximum(cfg.domain.lower, -1.0)
    hi = np.minimum(cfg.domain.upper, 1.0)
    first = np.zeros(d)
    first[0] = hi[0]
    rng = np.random.default_rng(0)
    rest = rng.uniform(lo, hi, size=(cfg.oracle_sample_points - 1, d))
    return np.vstack([first[None, :], rest])


def stage_oracle_check(cfg: RunConfig, outdir: Path):
    """Compare collocated eigenfunctions against the path-integral route.

    Returns (table_text, per-eigenvalue max abs differences; NaN = skipped
    because the convergence condition fails for that eigenvalue).
    """
    fld, lin, eigset, _ = load_eigenfunctions(cfg, outdir)
    pts = _oracle_points(cfg)
    lam_max = float(np.max(lin.eigenvalues))
    # lam_max itself satisfies the condition, so at least one is checked
    checked = [i for i, e in enumerate(eigset) if -e.lam + 2.0 * lam_max < 0.0]
    phi = np.full((len(pts), len(eigset)), np.nan)
    integral = np.full_like(phi, np.nan)
    integral[:, checked] = path_integral_phi(
        fld, lin, [eigset[i].lam for i in checked], [eigset[i].w for i in checked],
        pts, t_max=cfg.oracle_t_max, dt=cfg.oracle_dt,
    )
    for i in checked:
        phi[:, i] = eigset[i].value_many(pts)
    absdiff = np.abs(phi - integral)

    header = ["x1", "x2"][: cfg.dim]
    for i in range(len(eigset)):
        header += [f"phi_{i + 1}", f"integral_{i + 1}", f"absdiff_{i + 1}"]
    lines = [",".join(header)]
    for p, x in enumerate(pts):
        row = [f"{c:.17g}" for c in x]
        for i in range(len(eigset)):
            row += [f"{v[p, i]:.17g}" for v in (phi, integral, absdiff)]
        lines.append(",".join(row))
    (outdir / "oracle_check.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    max_diffs = np.max(absdiff, axis=0)  # NaN where skipped
    text_lines = ["oracle check (collocation vs path integral)"]
    for i, e in enumerate(eigset):
        if i not in checked:
            text_lines.append(
                f"  eigenvalue {e.lam:.6g}: skipped "
                "(convergence condition violated)"
            )
        else:
            text_lines.append(
                f"  eigenvalue {e.lam:.6g}: max |phi - integral| = "
                f"{max_diffs[i]:.6e} over {len(pts)} points"
            )
    return "\n".join(text_lines) + "\n", max_diffs


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(cfg: RunConfig, outdir: Path) -> dict:
    """List every file of the run (except the manifest itself) with checksums."""
    meta_path = outdir / _EIGENFUNCTIONS
    extra = {}
    if meta_path.exists():
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        extra = {
            "eigenvalues": [e["eigenvalue"] for e in meta["eigenfunctions"]],
            "condition_estimates": [
                e["condition_estimate"] for e in meta["eigenfunctions"]
            ],
            "fill_distance": meta["fill_distance"],
        }
    files = sorted(
        p for p in outdir.rglob("*") if p.is_file() and p.name != _MANIFEST
    )
    manifest = {
        "config": cfg.to_dict(),
        **extra,
        "files": [
            {
                "path": str(p.relative_to(outdir)),
                "sha256": _sha256(p),
                "bytes": p.stat().st_size,
            }
            for p in files
        ],
    }
    _write_json(outdir / _MANIFEST, manifest)
    return manifest


def run_pipeline(cfg: RunConfig, output_dir=None) -> dict:
    """All stages in order; returns a summary dict of texts and the manifest."""
    outdir = ensure_output_dir(output_dir or cfg.output_dir)
    summaries = {}

    summaries["eigenfunctions"] = eigenfunctions_summary(
        *stage_eigenfunctions(cfg, outdir)
    )

    model, diag = stage_lyapunov(cfg, outdir)
    summaries["lyapunov"] = diag.format_text()

    report = stage_certify(cfg, outdir)
    summaries["certify"] = report.summary_text()

    if cfg.oracle_enabled:
        text, _ = stage_oracle_check(cfg, outdir)
        summaries["oracle"] = text

    manifest = write_manifest(cfg, outdir)
    return {"summaries": summaries, "manifest": manifest, "output_dir": str(outdir)}


def classify_error(exc: BaseException) -> int:
    """Map an exception to the CLI exit code: 1 validation, 2 numeric, 3 I/O."""
    if isinstance(
        exc,
        (
            SpectrumError,
            BlowUpError,
            ConvergenceConditionError,
            SingularSystemError,
            EquilibriumError,
            np.linalg.LinAlgError,
            FloatingPointError,
        ),
    ):
        return 2
    if isinstance(exc, (OSError,)):
        return 3
    if isinstance(exc, (ValueError, TypeError)):
        return 1
    raise exc
