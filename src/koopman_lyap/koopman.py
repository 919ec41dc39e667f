"""Principal Koopman eigenfunctions: linear part plus collocated nonlinear part.

An eigenfunction for eigenvalue lambda_i is phi_i(x) = w_i . x + h_i(x) with
w_i the matching left eigenvector and h_i the collocation solution. An
independent numerical route to the same object is the path integral

    phi_i(x) = w_i . x + integral_0^inf exp(-lambda_i t) w_i . G(s_t(x)) dt

along the flow s_t, valid when -lambda_i + 2 max_j lambda_j < 0.
path_integral_phi computes it for a batch of points and eigenvalues from one
set of trajectories. The two routes share no code beyond the flow integrator,
which makes the integral a useful cross-check of the collocated surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .box import Box
from .collocation import CollocationProblem, CollocationSolution
from .collocation import solve as solve_collocation
from .dynamics import BlowUpError, DynamicsError, Linearization
from .dynamics import nonlinear_part, rk4_step
from .expr import VectorField
from .kernel import GaussianKernel

__all__ = [
    "ConvergenceConditionError",
    "Eigenfunction",
    "EigenfunctionSet",
    "build_eigenfunctions",
    "path_integral_phi",
]

# Truncation rule for the path integral: stop once the integrand has stayed
# below this floor for this many consecutive steps.
_TAIL_FLOOR = 1e-12
_TAIL_STEPS = 100


class ConvergenceConditionError(DynamicsError):
    """The path integral does not converge for this eigenvalue."""


@dataclass(frozen=True)
class Eigenfunction:
    """phi(x) = w . x + h(x), evaluated in batches of points X of shape (c, d).

    h needs two methods: ``evaluate_many(X)`` returning h, shape (c,), and
    ``evaluate_with_gradient(X)`` returning (h, grad h), shapes (c,) and
    (c, d). A CollocationSolution provides both; closed-form substitutes
    slot in for testing.
    """

    lam: float
    w: np.ndarray
    h: CollocationSolution

    def value_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return X @ self.w + self.h.evaluate_many(X)

    def evaluate_with_gradient(self, X: np.ndarray):
        """phi and grad phi at a batch of points, from one evaluation of h."""
        X = np.asarray(X, dtype=float)
        h, grad_h = self.h.evaluate_with_gradient(X)
        return X @ self.w + h, self.w[None, :] + grad_h

    def gradient_many(self, X: np.ndarray) -> np.ndarray:
        return self.evaluate_with_gradient(X)[1]


@dataclass(frozen=True)
class EigenfunctionSet:
    """One eigenfunction per eigenvalue of the linearization, same order."""

    eigenfunctions: tuple

    def __post_init__(self):
        eigs = tuple(self.eigenfunctions)
        if not eigs:
            raise ValueError("need at least one eigenfunction")
        d = eigs[0].w.shape[0]
        if len(eigs) != d:
            raise ValueError(f"expected {d} eigenfunctions, got {len(eigs)}")
        lams = np.array([e.lam for e in eigs])
        if np.min(np.abs(np.subtract.outer(lams, lams) + np.eye(d))) == 0.0:
            raise ValueError("eigenvalues must be pairwise distinct")
        object.__setattr__(self, "eigenfunctions", eigs)

    def __iter__(self):
        return iter(self.eigenfunctions)

    def __len__(self):
        return len(self.eigenfunctions)

    def __getitem__(self, i):
        return self.eigenfunctions[i]

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([e.lam for e in self.eigenfunctions])


def build_eigenfunctions(
    fld: VectorField,
    lin: Linearization,
    kern: GaussianKernel,
    centers: np.ndarray,
    domain: Box,
    eta: float | None = None,
) -> EigenfunctionSet:
    """Solve one collocation problem per eigenvalue of the linearization."""
    eigs = []
    for lam, w in zip(lin.eigenvalues, lin.left_eigenvectors):
        problem = CollocationProblem(
            kernel=kern,
            fld=fld,
            lin=lin,
            lam=float(lam),
            w=w,
            centers=centers,
            domain=domain,
            eta=eta,
        )
        eigs.append(Eigenfunction(lam=float(lam), w=w, h=solve_collocation(problem)))
    return EigenfunctionSet(tuple(eigs))


def path_integral_phi(
    fld: VectorField,
    lin: Linearization,
    lams,
    W,
    X,
    t_max: float = 20.0,
    dt: float = 1e-3,
) -> np.ndarray:
    """Eigenfunction values by quadrature along the trajectories through X.

    lams has shape (k,), W the matching w_i as rows (k, d), X the c points
    as rows (c, d); returns phi_i(x_p) at [p, i], shape (c, k). The c
    trajectories advance as one (d, c) RK4 state, and G at each step feeds
    all k integrands. Trapezoidal rule on a fixed time grid up to t_max; a
    (eigenvalue, point) pair stops adding once its integrand has stayed
    below 1e-12 for 100 consecutive steps, and a point leaves the batch once
    all its pairs have stopped. Requires -lambda + 2 max_j lambda_j < 0 for
    every requested lambda.
    """
    lams = np.asarray(lams, dtype=float)
    W = np.asarray(W, dtype=float)
    X = np.asarray(X, dtype=float)
    for margin, lam in zip(-lams + 2.0 * float(np.max(lin.eigenvalues)), lams):
        if margin >= 0.0:
            raise ConvergenceConditionError(
                f"path integral diverges for lambda = {lam:.6g}: "
                f"-lambda + 2 max(Re spectrum) = {margin:.6g} >= 0"
            )
    if t_max <= 0 or dt <= 0:
        raise DynamicsError("t_max and dt must be positive")

    n_steps = max(1, int(round(t_max / dt)))
    h = t_max / n_steps

    def integrand(t, state):
        return np.exp(-lams * t)[:, None] * (W @ nonlinear_part(fld, lin, state))

    total = np.zeros((len(lams), len(X)))
    cols = np.arange(len(X))  # columns of total whose points are in the batch
    state = X.T.copy()
    g_prev = integrand(0.0, state)
    quiet = np.zeros(total.shape, dtype=int)
    for k in range(n_steps):
        t_next = (k + 1) * h
        state = rk4_step(fld, state, h)
        if not np.all(np.isfinite(state)):
            raise BlowUpError(t_next)
        g_next = integrand(t_next, state)
        active = quiet < _TAIL_STEPS
        total[:, cols] += np.where(active, 0.5 * h * (g_prev + g_next), 0.0)
        g_prev = g_next
        quiet = np.where(active & (np.abs(g_next) >= _TAIL_FLOOR), 0, quiet + 1)
        live = (quiet < _TAIL_STEPS).any(axis=0)
        if not live.all():
            if not live.any():
                break
            cols, state, quiet = cols[live], state[:, live], quiet[:, live]
            g_prev = g_prev[:, live]
    return X @ W.T + total.T
