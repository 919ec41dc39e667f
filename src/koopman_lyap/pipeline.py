"""Staged pipeline behind the command-line interface.

Stages communicate through files in the output directory, so each one can be
run on its own against a prior run's artifacts:

    linearize        linearization.json
    eigenfunctions   + centers.csv, eigenfunction_<i>_alpha.csv,
                       eigenfunctions.json
    lyapunov         + model.json, V.csv, Vdot.csv, diagnostics.txt
                       (requires eigenfunctions.json)
    certify          + certification.txt, certification_failures.csv
                       (requires eigenfunctions.json)
    oracle-check     + oracle_check.csv (requires eigenfunctions.json)
    run              everything above + manifest.json

Each stage, and run_pipeline, is called as stage(cfg, outdir) and returns
(result, text): what it computed, and exactly the text the CLI prints for it.

Outputs are deterministic: no timestamps, fixed float formatting, sorted JSON
keys. Every CSV artifact is written by _write_csv, in np.savetxt's layout:
comma-separated columns, floats as %.17g (index columns as %d), and at
most one header line. The manifest lists every other file in the directory
with a sha256 checksum.
"""

from __future__ import annotations

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
from .collocation import solve as solve_collocation
from .config import ConfigError, RunConfig
from .cpa import certify, build_triangulation, estimate_b_bound
from .dynamics import (
    BlowUpError,
    EquilibriumError,
    SpectrumError,
    linearize,
)
from .expr import parse_vector_field
from .kernel import GaussianKernel
from .koopman import (
    ConvergenceConditionError,
    EigenfunctionSet,
    convergence_margins,
    path_integral_phi,
)
from .lyapunov import LyapunovModel, diagnostics

__all__ = [
    "MissingArtifactError",
    "ensure_output_dir",
    "stage_linearize",
    "stage_eigenfunctions",
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

# Keys the later stages read from eigenfunctions.json and from each of its
# eigenfunction entries, with the types each value may have (None: any).
_EIGENFUNCTIONS_KEYS = dict.fromkeys(("alpha_files", "centers_file", "eigenfunctions", "system")) | {
    "eta_config": (int, float, type(None)), "fill_distance": (int, float), "sigma": (int, float),
}
_ENTRY_KEYS = {"eta_used": (int, float), "method": None}


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


def _require(obj, keys, where: str) -> None:
    """A ValueError naming where (the file, and the entry in it) for the
    first of keys that obj, read from a persisted artifact, lacks or types
    otherwise than keys allows (exactly: a bool is no int)."""
    for key, types in keys.items():
        if key not in obj:
            raise ValueError(f"{where} has no key {key!r}")
        if types and type(obj[key]) not in types:
            raise ValueError(f"{where} {key} must be a number, got {obj[key]!r}")


_CSV_BLOCK = 4096  # rows per % formatting, which bounds the string it builds


def _write_csv(path: Path, rows, header: str = "", fmt="%.17g") -> None:
    """rows (2-D, or 1-D for one column) in fmt, one format or one per
    column, after header as the first line unless it is empty. The bytes
    are np.savetxt's with delimiter ",", but a block of rows is formatted
    by one % operation rather than one per row."""
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[:, None]
    fmts = [fmt] * rows.shape[1] if isinstance(fmt, str) else fmt
    line = ",".join(fmts) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        for s in range(0, len(rows), _CSV_BLOCK):
            block = rows[s : s + _CSV_BLOCK]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def stage_linearize(cfg: RunConfig, outdir: Path):
    """Write linearization.json; the field and its linearization, and E with
    the eigenpairs as text."""
    fld = parse_vector_field(cfg.system)
    lin = linearize(fld)
    _write_json(
        outdir / _LINEARIZATION,
        {
            "E": lin.E.tolist(),
            "eigenvalues": lin.eigenvalues.tolist(),
            "left_eigenvectors": lin.left_eigenvectors.tolist(),
        },
    )
    lines = ["E ="]
    lines += ["   " + "  ".join(f"{v: .12g}" for v in row) for row in lin.E]
    lines.append("eigenvalues: " + "  ".join(f"{v:.12g}" for v in lin.eigenvalues))
    lines += [
        f"left eigenvector for {lam:.12g}: " + "  ".join(f"{v: .12g}" for v in w)
        for lam, w in zip(lin.eigenvalues, lin.left_eigenvectors)
    ]
    return (fld, lin), "\n".join(lines) + "\n"


def _residual_probes(box: Box) -> np.ndarray:
    """The 40 x 40 grid over the box where PDE residuals are reported, each
    point 0.37 of a cell past its cell's lower corner: off the test grid and
    off the centers' symmetry lines."""
    n = 40
    axes = [lo + (np.arange(n) + 0.37) * (hi - lo) / n for lo, hi in zip(box.lower, box.upper)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def stage_eigenfunctions(cfg: RunConfig, outdir: Path):
    """Solve the collocation problem of the whole spectrum, persist the
    coefficients, and report each eigenfunction's PDE residual
    |grad phi . f - lambda phi| on the residual probe grid of the test
    window. The eigenfunction set, and as text the fill distance and each
    eigenvalue's ridge, largest residual to 3 digits beside its rounding
    floor eps ||alpha_i||_1, and solver (cholesky, zero), and for a solved
    one its unknowns and the mirror split they come from.
    Nothing but linearization.json is written until the solve and the
    residuals succeed, so a failed stage leaves the previous solution's
    centers, coefficients and eigenfunctions.json together."""
    (fld, lin), _ = stage_linearize(cfg, outdir)

    centers = uniform_centers(cfg.domain, cfg.grid_n)
    rho = fill_distance(centers, cfg.domain)
    kern = GaussianKernel(sigma=cfg.sigma)
    sol = solve_collocation(CollocationProblem(kern, fld, lin, centers, cfg.domain, cfg.eta))
    eigset = EigenfunctionSet(lin, sol)
    parity = {1: "even", -1: "odd", None: None}
    X = _residual_probes(cfg.test_domain)
    phi, dphi = eigset.evaluate_with_derivative(fld, X)
    resid = np.abs(dphi - phi * eigset.eigenvalues)

    _write_csv(outdir / _CENTERS, centers)
    alpha_files = [f"eigenfunction_{i}_alpha.csv" for i in range(1, len(eigset) + 1)]
    for name, alpha in zip(alpha_files, sol.alpha):
        _write_csv(outdir / name, alpha)
    meta = {
        "system": list(cfg.system),
        "sigma": cfg.sigma,
        "eta_config": cfg.eta,
        "fill_distance": rho,
        "centers_file": _CENTERS,
        "alpha_files": alpha_files,
        "eigenfunctions": [
            {
                "eigenvalue": e.lam,
                "left_eigenvector": e.w.tolist(),
                "eta_used": float(sol.eta_used[e.i]),
                "method": sol.method[e.i],
                "symmetry": None if sol.symmetry is None else list(sol.symmetry),
                "parity": parity[sol.parity[e.i]],
                "unknowns": sol.unknowns[e.i],
                "pde_residual_max": float(np.max(r)),
                "pde_residual_rms": float(np.sqrt(np.mean(r * r))),
                "pde_residual_argmax": X[np.argmax(r)].tolist(),
            }
            for e, r in zip(eigset, resid.T)
        ],
    }
    _write_json(outdir / _EIGENFUNCTIONS, meta)
    # the residual is a difference of terms rounded to about eps ||alpha_i||_1
    floors = np.finfo(float).eps * np.abs(sol.alpha).sum(axis=1)
    lines = [f"fill distance: {rho:.12g}"]
    lines += [
        f"eigenvalue {e['eigenvalue']:.6g}: eta = {e['eta_used']:.6g}, max PDE residual = "
        f"{e['pde_residual_max']:.2e} (rounding floor {floor:.1e}) ({e['method']})"
        f"{_split_text(e, sol.problem.size)}"
        for e, floor in zip(meta["eigenfunctions"], floors)
    ]
    return eigset, "\n".join(lines) + "\n"


def _split_text(entry: dict, m: int) -> str:
    """How a solved eigenfunction's system was split: its unknowns of m, and
    the parity and mirror S of its block; empty for a skipped system."""
    if entry["method"] != "cholesky":
        return ""
    if entry["parity"] is None:
        return f": {entry['unknowns']} of {m} unknowns, no mirror symmetry"
    S = ", ".join(str(v) for v in entry["symmetry"])
    return f": {entry['unknowns']} of {m} unknowns, {entry['parity']} under S = diag({S})"


def load_eigenfunctions(cfg: RunConfig, outdir: Path):
    """Rebuild the eigenfunction set from persisted coefficients, solved for
    the configuration's system, and the configuration's linearization."""
    meta_path = outdir / _EIGENFUNCTIONS
    if not meta_path.exists():
        raise MissingArtifactError(meta_path)
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    _require(meta, _EIGENFUNCTIONS_KEYS, str(meta_path))
    for key in ("alpha_files", "eigenfunctions"):
        if not isinstance(meta[key], list) or len(meta[key]) != cfg.dim:
            raise ValueError(f"{meta_path} {key} must list one entry per eigenvalue ({cfg.dim})")
    for i, entry in enumerate(meta["eigenfunctions"]):
        _require(entry, _ENTRY_KEYS, f"{meta_path} eigenfunctions[{i}]")

    fld = parse_vector_field(cfg.system)
    if parse_vector_field(meta["system"]) != fld:
        raise ConfigError(
            "persisted eigenfunctions do not match this configuration's system"
        )
    lin = linearize(fld)

    centers_path = outdir / meta["centers_file"]
    if not centers_path.exists():
        raise MissingArtifactError(centers_path)
    centers = np.loadtxt(centers_path, delimiter=",", ndmin=2)
    if not np.all(np.isfinite(centers)):
        raise ValueError(f"{centers_path} has non-finite centers")
    problem = CollocationProblem(
        GaussianKernel(sigma=meta["sigma"]), fld, lin, centers, cfg.domain, meta["eta_config"]
    )

    alphas = []
    for alpha_file in meta["alpha_files"]:
        alpha_path = outdir / alpha_file
        if not alpha_path.exists():
            raise MissingArtifactError(alpha_path)
        alpha = np.atleast_1d(np.loadtxt(alpha_path, delimiter=","))
        if alpha.shape != (problem.size,) or not np.all(np.isfinite(alpha)):
            raise ValueError(f"{alpha_path} must hold {problem.size} finite coefficients")
        alphas.append(alpha)
    entries = meta["eigenfunctions"]
    sol = CollocationSolution(
        problem=problem,
        alpha=np.array(alphas),
        eta_used=np.array([e["eta_used"] for e in entries]),
        method=tuple(e["method"] for e in entries),
    )
    eigset = EigenfunctionSet(lin, sol)
    return fld, lin, eigset, meta


def stage_lyapunov(cfg: RunConfig, outdir: Path):
    """Build the Lyapunov model from persisted eigenfunctions; write V and
    Vdot on the test grid (rows x1, x2, value, the first axis slowest), the
    diagnostics report (also the text), and model.json, a record of P that
    no stage reads."""
    fld, lin, eigset, meta = load_eigenfunctions(cfg, outdir)
    model = LyapunovModel(eigset)

    box, n = cfg.test_domain, cfg.test_resolution
    X = box.grid(n)
    phi, V, Vdot = model.evaluate_with_derivative(fld, X)
    (lo1, lo2), (hi1, hi2) = box.lower, box.upper
    for name, values in (("V", V), ("Vdot", Vdot)):
        _write_csv(
            outdir / f"{name}.csv",
            np.column_stack([X, values]),
            f"# domain {lo1:.17g} {hi1:.17g} {lo2:.17g} {hi2:.17g}; "
            f"resolution {n} {n}; quantity {name}",
        )
    text = diagnostics(model, meta["fill_distance"], phi)
    (outdir / "diagnostics.txt").write_text(text, encoding="utf-8")
    _write_json(
        outdir / _MODEL,
        {"P": model.P.tolist(), "eigenfunctions_file": _EIGENFUNCTIONS},
    )
    return model, text


def _write_failures(path: Path, report) -> None:
    """One row per failed check: simplex_index, vertex_index, x1, x2,
    lhs_margin. Positivity failures come first, with simplex index -1, the
    global vertex index and the offending V as the margin."""
    bad_v = np.nonzero(~report.vertex_ok)[0]
    bad_s, bad_i = report.failed_pairs.T
    rows = np.column_stack([
        np.concatenate([np.full(bad_v.size, -1), bad_s]),
        np.concatenate([bad_v, bad_i]),
        report.tri.vertices[np.concatenate([bad_v, report.failed_vertices])],
        np.concatenate([report.vertex_values[bad_v], report.failed_margins]),
    ])
    header = "simplex_index,vertex_index,x1,x2,lhs_margin"
    _write_csv(path, rows, header, ["%d", "%d", "%.17g", "%.17g", "%.17g"])


def stage_certify(cfg: RunConfig, outdir: Path):
    """Certify the Lyapunov model of the persisted eigenfunctions on the
    configured triangulation; the report, and its summary as text."""
    fld, _, eigset, _ = load_eigenfunctions(cfg, outdir)
    model = LyapunovModel(eigset)
    tri = build_triangulation(cfg.cpa_domain, cfg.cpa_cells)
    b = estimate_b_bound(
        fld,
        cfg.cpa_domain,
        safety=cfg.cpa_safety,
        override=cfg.cpa_b_override,
    )
    values = model.value_many(tri.vertices)
    report = certify(tri, values, fld, b)

    text = report.summary_text()
    (outdir / "certification.txt").write_text(
        text + f"  B bound rows:        {b.matrix.tolist()}\n", encoding="utf-8"
    )
    _write_failures(outdir / "certification_failures.csv", report)
    return report, text


def _oracle_points(cfg: RunConfig) -> np.ndarray:
    """Deterministic sample: the unit point on axis 1, then points i = 1, 2, ..
    of the R2 low-discrepancy sequence frac(1/2 + i a), a_l = g^-l with
    g^(d+1) = g + 1 (Roberts 2018), over [-1, 1]^d intersected with the
    domain. No random generator is drawn on, so numpy.random stays unloaded."""
    d = cfg.dim
    lo = np.maximum(cfg.domain.lower, -1.0)
    hi = np.minimum(cfg.domain.upper, 1.0)
    first = np.zeros(d)
    first[0] = hi[0]
    g = 2.0
    for _ in range(64):  # a fixed point iteration: each step halves the error at least
        g = (1.0 + g) ** (1.0 / (d + 1))
    i = np.arange(1, cfg.oracle_sample_points)[:, None]
    rest = lo + (hi - lo) * ((0.5 + i * g ** -np.arange(1.0, d + 1)) % 1.0)
    return np.vstack([first[None, :], rest])


def stage_oracle_check(cfg: RunConfig, outdir: Path):
    """Compare collocated eigenfunctions against the path-integral route.

    The per-eigenvalue max abs differences (NaN = skipped because the
    convergence condition fails for that eigenvalue), and them as text.
    """
    fld, lin, eigset, _ = load_eigenfunctions(cfg, outdir)
    pts = _oracle_points(cfg)
    # the largest eigenvalue satisfies the condition, so at least one is checked
    checked = np.flatnonzero(convergence_margins(lin) < 0.0)
    phi = np.full((len(pts), len(eigset)), np.nan)
    integral = np.full_like(phi, np.nan)
    integral[:, checked] = path_integral_phi(
        fld, lin, checked, pts, t_max=cfg.oracle_t_max, dt=cfg.oracle_dt
    )
    phi[:, checked] = eigset.value_many(pts)[:, checked]
    absdiff = np.abs(phi - integral)

    # columns x1, x2, then phi_i, integral_i, absdiff_i per eigenvalue
    header = ["x1", "x2"]
    for i in range(1, len(eigset) + 1):
        header += [f"phi_{i}", f"integral_{i}", f"absdiff_{i}"]
    per_eig = np.stack([phi, integral, absdiff], axis=2).reshape(len(pts), -1)
    _write_csv(outdir / "oracle_check.csv", np.hstack([pts, per_eig]), ",".join(header))

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
    return max_diffs, "\n".join(text_lines) + "\n"


def _sha256(path: Path) -> str:
    # imported here: hashlib loads OpenSSL, which only the manifest needs
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(cfg: RunConfig, outdir: Path) -> dict:
    """List every file of the run (except the manifest itself) with checksums."""
    files = sorted(
        p for p in outdir.rglob("*") if p.is_file() and p.name != _MANIFEST
    )
    manifest = {
        "config": cfg.to_dict(),
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


def run_pipeline(cfg: RunConfig, outdir: Path):
    """All stages in order, then the manifest; the manifest, and the stages'
    texts and where the artifacts went as text."""
    stages = [stage_eigenfunctions, stage_lyapunov, stage_certify]
    if cfg.oracle_enabled:
        stages.append(stage_oracle_check)
    texts = [stage(cfg, outdir)[1] for stage in stages]
    manifest = write_manifest(cfg, outdir)
    return manifest, "".join(texts) + f"artifacts written to {outdir}\n"


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
