"""Lyapunov candidates assembled from Koopman eigenfunctions.

With Lambda = diag(lambda_1..lambda_d) Hurwitz, P solves the Lyapunov
equation Lambda^T P + P Lambda = -I, which for a real diagonal spectrum is
simply P = diag(1 / (2 |lambda_i|)). The candidate and its orbital
derivative are the quadratic forms

    V(x)    = sum_ij P_ij phi_i(x) phi_j(x)
    Vdot(x) = sum_ij P_ij ((grad phi_i . f) phi_j + phi_i (grad phi_j . f))

evaluated with the collocated eigenfunctions. For exact eigenfunctions
grad phi_i . f = lambda_i phi_i, so Vdot collapses to
sum_ij P_ij (lambda_i + lambda_j) phi_i phi_j; with the approximate ones we
keep the chain-rule form above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .box import Box
from .expr import VectorField
from .koopman import EigenfunctionSet

__all__ = [
    "LyapunovError",
    "solve_p",
    "LyapunovModel",
    "DiagnosticsReport",
    "diagnostics",
    "SurfaceGrid",
    "GridEvaluation",
    "grid_eval",
]


class LyapunovError(ValueError):
    pass


def solve_p(eigenvalues) -> np.ndarray:
    """P = diag(1 / (2 |lambda_i|)) for a real, negative, distinct spectrum.

    Solves Lambda^T P + P Lambda = -I; the residual is checked to 1e-12 * d.
    """
    lams = np.asarray(eigenvalues, dtype=float).reshape(-1)
    d = lams.size
    if d == 0:
        raise LyapunovError("empty spectrum")
    if np.max(lams) >= 0.0:
        raise LyapunovError(f"spectrum must be strictly negative: {lams}")
    if d > 1 and np.min(np.abs(np.subtract.outer(lams, lams)[~np.eye(d, dtype=bool)])) == 0.0:
        raise LyapunovError("eigenvalues must be pairwise distinct")
    P = np.diag(1.0 / (2.0 * np.abs(lams)))
    L = np.diag(lams)
    resid = np.max(np.abs(L.T @ P + P @ L + np.eye(d)))
    if resid > 1e-12 * d:
        raise LyapunovError(f"Lyapunov equation residual {resid:.3e} too large")
    return P


@dataclass(frozen=True)
class LyapunovModel:
    """Quadratic Lyapunov candidate over an eigenfunction set."""

    eigenfunctions: EigenfunctionSet
    P: np.ndarray

    def __post_init__(self):
        d = len(self.eigenfunctions)
        P = np.asarray(self.P, dtype=float)
        if P.shape != (d, d):
            raise LyapunovError(f"P must be {d}x{d}")
        if np.max(np.abs(P - P.T)) > 1e-12 * max(1.0, np.max(np.abs(P))):
            raise LyapunovError("P must be symmetric")
        P.setflags(write=False)
        object.__setattr__(self, "P", P)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigenfunctions.eigenvalues

    def value_many(self, X: np.ndarray) -> np.ndarray:
        """V at a batch of points (m, d) -> (m,), from eigenfunction values only."""
        Phi = self.eigenfunctions.value_many(X)
        return np.einsum("mi,ij,mj->m", Phi, self.P, Phi)

    def evaluate_with_derivative(self, fld: VectorField, X: np.ndarray):
        """Phi (m, d), V (m,) and Vdot along the field (m,) at a batch of
        points, from one phi/grad phi evaluation of the eigenfunction set."""
        Phi, dPhi = self.eigenfunctions.evaluate_with_derivative(fld, X)
        V = np.einsum("mi,ij,mj->m", Phi, self.P, Phi)
        Vdot = np.einsum("mi,ij,mj->m", dPhi, self.P, Phi) + np.einsum(
            "mi,ij,mj->m", Phi, self.P, dPhi
        )
        return Phi, V, Vdot

    def orbital_derivative_many(self, fld: VectorField, X: np.ndarray) -> np.ndarray:
        """Vdot along the field at a batch of points (m, d) -> (m,)."""
        return self.evaluate_with_derivative(fld, X)[2]


@dataclass(frozen=True)
class DiagnosticsReport:
    """Scale factors that enter the a-priori error bound, reported as-is.
    ||P||_2 equals 1 / (2 alpha) for the diagonal P = diag(1 / (2 |lambda_i|))."""

    fill_dist: float
    lambda_bar: float
    alpha: float
    p_norm2: float
    sup_phi: np.ndarray

    def format_text(self) -> str:
        lines = [
            "diagnostics",
            f"  fill distance (probe estimate): {self.fill_dist:.12g}",
            f"  lambda_bar (max eigenvalue):    {self.lambda_bar:.12g}",
            f"  alpha (min |eigenvalue|):       {self.alpha:.12g}",
            f"  ||P||_2 (= 1 / (2 alpha)):      {self.p_norm2:.12g}",
        ]
        for i, s in enumerate(self.sup_phi, start=1):
            lines.append(f"  sup |phi_{i}| on probe grid:     {s:.12g}")
        return "\n".join(lines) + "\n"


def diagnostics(
    model: LyapunovModel, fill_dist: float, grid: GridEvaluation
) -> DiagnosticsReport:
    """Report bound ingredients, with sup |phi_i| over an evaluated grid;
    values are for inspection, nothing here raises."""
    lams = model.eigenvalues
    return DiagnosticsReport(
        fill_dist=float(fill_dist),
        lambda_bar=float(np.max(lams)),
        alpha=float(np.min(np.abs(lams))),
        p_norm2=float(np.linalg.norm(model.P, 2)),
        sup_phi=np.max(np.abs(grid.phi), axis=0),
    )


@dataclass(frozen=True)
class SurfaceGrid:
    """Scalar samples over a uniform 2-D grid, row-major in the first axis."""

    domain: Box
    resolution: tuple
    quantity: str
    values: np.ndarray  # shape (nx, ny)

    def to_csv(self, path) -> None:
        """CSV with one comment header line and rows x1,x2,value."""
        nx, ny = self.resolution
        xs, ys = self.domain.axes((nx, ny))
        lo1, lo2 = self.domain.lower
        hi1, hi2 = self.domain.upper
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f"# domain {lo1:.17g} {hi1:.17g} {lo2:.17g} {hi2:.17g}; "
                f"resolution {nx} {ny}; quantity {self.quantity}\n"
            )
            for i in range(nx):
                for j in range(ny):
                    fh.write(
                        f"{xs[i]:.17g},{ys[j]:.17g},{self.values[i, j]:.17g}\n"
                    )


@dataclass(frozen=True)
class GridEvaluation:
    """Phi, V and Vdot over one uniform 2-D grid, from one evaluation pass."""

    phi: np.ndarray  # (nx * ny, d), grid points row-major in the first axis
    V: SurfaceGrid
    Vdot: SurfaceGrid


def grid_eval(
    model: LyapunovModel, fld: VectorField, domain: Box, resolution
) -> GridEvaluation:
    """Sample Phi, V and Vdot over a uniform grid of the (2-D) domain."""
    if domain.dim != 2:
        raise LyapunovError("surface grids are 2-D only")
    res = domain._resolution_tuple(resolution)
    Phi, V, Vdot = model.evaluate_with_derivative(fld, domain.grid(res))
    return GridEvaluation(
        phi=Phi,
        V=SurfaceGrid(domain=domain, resolution=res, quantity="V", values=V.reshape(res)),
        Vdot=SurfaceGrid(
            domain=domain, resolution=res, quantity="Vdot", values=Vdot.reshape(res)
        ),
    )
