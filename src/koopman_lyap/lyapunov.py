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

from .expr import VectorField
from .koopman import EigenfunctionSet

__all__ = [
    "LyapunovError",
    "solve_p",
    "LyapunovModel",
    "diagnostics",
]


class LyapunovError(ValueError):
    pass


def solve_p(eigenvalues) -> np.ndarray:
    """P = diag(1 / (2 |lambda_i|)) for a real, negative spectrum, repeated
    eigenvalues included.

    Solves Lambda^T P + P Lambda = -I; the residual is checked to 1e-12 * d.
    P must be finite: 1 / (2 |lambda|) overflows for a subnormal lambda, and
    the residual of a P with two or more entries is then NaN, which passes.
    """
    lams = np.asarray(eigenvalues, dtype=float).reshape(-1)
    d = lams.size
    if d == 0:
        raise LyapunovError("empty spectrum")
    if np.max(lams) >= 0.0:
        raise LyapunovError(f"spectrum must be strictly negative: {lams}")
    with np.errstate(over="ignore"):
        P = np.diag(1.0 / (2.0 * np.abs(lams)))
    if not np.all(np.isfinite(P)):
        raise LyapunovError(f"P = diag(1 / (2 |lambda|)) overflows for the spectrum {lams}")
    L = np.diag(lams)
    resid = np.max(np.abs(L.T @ P + P @ L + np.eye(d)))
    if resid > 1e-12 * d:
        raise LyapunovError(f"Lyapunov equation residual {resid:.3e} too large")
    return P


@dataclass(frozen=True)
class LyapunovModel:
    """Quadratic Lyapunov candidate over an eigenfunction set, with P from
    the set's spectrum."""

    eigenfunctions: EigenfunctionSet

    @property
    def P(self) -> np.ndarray:
        return solve_p(self.eigenfunctions.eigenvalues)

    def value_many(self, X: np.ndarray) -> np.ndarray:
        """V at a batch of points (m, d) -> (m,), from eigenfunction values only."""
        Phi = self.eigenfunctions.value_many(X)
        return np.einsum("mi,ij,mj->m", Phi, self.P, Phi)

    def evaluate_with_derivative(self, fld: VectorField, X: np.ndarray):
        """Phi (m, d), V (m,) and Vdot along the field (m,) at a batch of
        points, from one phi/grad phi evaluation of the eigenfunction set."""
        Phi, dPhi = self.eigenfunctions.evaluate_with_derivative(fld, X)
        P = self.P
        V = np.einsum("mi,ij,mj->m", Phi, P, Phi)
        Vdot = np.einsum("mi,ij,mj->m", dPhi, P, Phi) + np.einsum("mi,ij,mj->m", Phi, P, dPhi)
        return Phi, V, Vdot


def diagnostics(model: LyapunovModel, fill_dist: float, phi: np.ndarray) -> str:
    """Report text of the scale factors that enter the a-priori error bound,
    as-is, with sup |phi_i| over phi (m, d), the eigenfunctions at m probe
    points; ||P||_2 equals 1 / (2 alpha) for the diagonal
    P = diag(1 / (2 |lambda_i|)). Values are for inspection, nothing here raises."""
    lams = model.eigenfunctions.eigenvalues
    lines = [
        "diagnostics",
        f"  fill distance (probe estimate): {float(fill_dist):.12g}",
        f"  lambda_bar (max eigenvalue):    {np.max(lams):.12g}",
        f"  alpha (min |eigenvalue|):       {np.min(np.abs(lams)):.12g}",
        f"  ||P||_2 (= 1 / (2 alpha)):      {np.linalg.norm(model.P, 2):.12g}",
    ]
    for i, s in enumerate(np.max(np.abs(phi), axis=0), start=1):
        lines.append(f"  sup |phi_{i}| on probe grid:     {s:.12g}")
    return "\n".join(lines) + "\n"
