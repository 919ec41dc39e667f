"""Linearization at the origin and the fixed-step RK4 step of the flow.

The systems handled here have an exponentially stable equilibrium at the
origin with a real, simple spectrum. linearize() checks all of that up front
and fails loudly otherwise; downstream construction is meaningless without it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import VectorField

__all__ = [
    "DynamicsError",
    "EquilibriumError",
    "SpectrumError",
    "BlowUpError",
    "Linearization",
    "linearize",
    "rk4_step",
]


class DynamicsError(ValueError):
    pass


class EquilibriumError(DynamicsError):
    """The origin is not an equilibrium of the field."""


class SpectrumError(DynamicsError):
    """The Jacobian is not finite, or its spectrum is complex, repeated, or
    not Hurwitz."""


class BlowUpError(RuntimeError):
    """State left the representable range during integration."""

    def __init__(self, t: float):
        super().__init__(f"trajectory blew up near t = {t:.6g}")
        self.t = t


@dataclass(frozen=True)
class Linearization:
    """Jacobian at the origin together with its eigenstructure.

    eigenvalues are real, strictly negative, pairwise distinct, sorted in
    descending order (closest to zero first). left_eigenvectors[i] is the
    unit-norm row vector w_i with w_i^T E = lambda_i w_i^T, its largest
    component made positive for a deterministic sign.
    """

    E: np.ndarray
    eigenvalues: np.ndarray
    left_eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.E.shape[0]


def jacobian_exprs(field: VectorField):
    """d x d nested list of exact partial derivative ASTs of the components."""
    d = field.dim
    return [
        [field.components[i].derivative(j + 1) for j in range(d)]
        for i in range(d)
    ]


def linearize(field: VectorField) -> Linearization:
    """Exact Jacobian at 0 plus validated eigenvalues and left eigenvectors."""
    d = field.dim
    origin = np.zeros(d)
    jac = jacobian_exprs(field)
    # overflow and inf - inf are reported below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        f0 = field.evaluate(origin)
        E = np.array(
            [[float(jac[i][j].evaluate(origin)) for j in range(d)] for i in range(d)]
        )
    if not np.max(np.abs(f0)) <= 1e-12:  # a NaN fails too
        raise EquilibriumError(
            f"origin is not an equilibrium: |f(0)| = {np.max(np.abs(f0)):.3e}"
        )
    if not np.all(np.isfinite(E)):
        raise SpectrumError(f"the Jacobian at the origin is not finite: {E.tolist()}")

    # Left eigenvectors of E are right eigenvectors of E^T.
    ev, W = np.linalg.eig(E.T)
    scale = max(1.0, float(np.linalg.norm(E)))
    if np.max(np.abs(ev.imag)) > 1e-9 * scale:
        raise SpectrumError(
            f"complex eigenvalues unsupported: {np.sort_complex(ev)}"
        )
    ev = ev.real
    order = np.argsort(-ev)
    ev = ev[order]
    W = W[:, order].real

    gaps = np.diff(ev)
    if d > 1 and np.max(gaps) > -1e-9 * scale:
        raise SpectrumError(f"repeated (non-simple) eigenvalues: {ev}")
    if np.max(ev) >= 0.0:
        raise SpectrumError(f"spectrum is not Hurwitz: {ev}")

    vecs = np.empty((d, d))
    for i in range(d):
        w = W[:, i] / np.linalg.norm(W[:, i])
        lead = int(np.argmax(np.abs(w)))
        if w[lead] < 0:
            w = -w
        resid = np.max(np.abs(w @ E - ev[i] * w))
        if resid > 1e-10 * scale:
            raise SpectrumError(
                f"eigenpair residual {resid:.3e} for eigenvalue {ev[i]:.6g}"
            )
        vecs[i] = w

    E.setflags(write=False)
    ev.setflags(write=False)
    vecs.setflags(write=False)
    return Linearization(E=E, eigenvalues=ev, left_eigenvectors=vecs)


def rk4_step(field: VectorField, x: np.ndarray, dt: float, k1=None) -> np.ndarray:
    """One classical Runge-Kutta step; local error O(dt^5). A caller that
    already holds f(x) passes it as k1."""
    if k1 is None:
        k1 = field.evaluate(x)
    k2 = field.evaluate(x + 0.5 * dt * k1)
    k3 = field.evaluate(x + 0.5 * dt * k2)
    k4 = field.evaluate(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
