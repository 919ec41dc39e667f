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

import math
from dataclasses import dataclass

import numpy as np

from .box import Box
from .collocation import CollocationProblem, CollocationSolution
from .collocation import solve as solve_collocation
from .dynamics import BlowUpError, DynamicsError, Linearization, rk4_step
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

# RK4 steps whose states are kept before their integrand is evaluated at once.
_BLOCK = 256


class ConvergenceConditionError(DynamicsError):
    """The path integral does not converge for this eigenvalue."""


@dataclass(frozen=True)
class EigenfunctionSet:
    """phi_i(x) = w_i . x + h_i(x), one per eigenvalue of the linearization,
    same order, evaluated together over batches of points X of shape (c, d).

    W holds the w_i as rows. h needs two methods: ``evaluate_many(X)``
    returning h_i(x_p) at [p, i], shape (c, k), and
    ``evaluate_with_gradient(X)`` returning that and grad h_i(x_p) at
    [p, i], shape (c, k, d). A CollocationSolution provides both;
    closed-form substitutes slot in for testing.
    """

    eigenvalues: np.ndarray
    W: np.ndarray
    h: CollocationSolution

    def __post_init__(self):
        lams = np.array(self.eigenvalues, dtype=float).reshape(-1)
        W = np.array(self.W, dtype=float, ndmin=2)
        if not lams.size:
            raise ValueError("need at least one eigenfunction")
        d = W.shape[1]
        if lams.size != d or W.shape[0] != d:
            raise ValueError(f"expected {d} eigenfunctions, got {lams.size}")
        if np.min(np.abs(np.subtract.outer(lams, lams) + np.eye(d))) == 0.0:
            raise ValueError("eigenvalues must be pairwise distinct")
        lams.setflags(write=False)
        W.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lams)
        object.__setattr__(self, "W", W)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __len__(self):
        return self.eigenvalues.size

    def __getitem__(self, i):
        i = range(len(self))[i]
        return Eigenfunction(float(self.eigenvalues[i]), self.W[i], self, i)

    def value_many(self, X: np.ndarray) -> np.ndarray:
        """phi_i(x_p) at [p, i], shape (c, k), from one evaluation of h."""
        X = np.asarray(X, dtype=float)
        phi = self.h.evaluate_many(X)
        for i, w in enumerate(self.W):
            phi[:, i] += X @ w
        return phi

    def evaluate_with_gradient(self, X: np.ndarray):
        """phi (c, k) and grad phi (c, k, d) at a batch of points, from one
        evaluation of h and grad h."""
        X = np.asarray(X, dtype=float)
        phi, grad = self.h.evaluate_with_gradient(X)
        for i, w in enumerate(self.W):
            phi[:, i] += X @ w
            grad[:, i] += w
        return phi, grad

    def evaluate_with_derivative(self, fld: VectorField, X: np.ndarray):
        """phi (c, k) and its derivative along the field, grad phi . f
        (c, k), at a batch of points. For an exact eigenfunction the
        derivative is lambda_i phi_i, so the difference is the PDE residual."""
        phi, grad = self.evaluate_with_gradient(X)
        return phi, np.sum(grad * fld.evaluate_at(X)[:, None, :], axis=2)


@dataclass(frozen=True)
class Eigenfunction:
    """phi_i of a set: its eigenvalue, its linear part w_i, and column i of
    the set's batch evaluations."""

    lam: float
    w: np.ndarray
    eigset: EigenfunctionSet
    i: int

    def value_many(self, X: np.ndarray) -> np.ndarray:
        return self.eigset.value_many(X)[:, self.i]

    def gradient_many(self, X: np.ndarray) -> np.ndarray:
        return self.eigset.evaluate_with_gradient(X)[1][:, self.i]


def build_eigenfunctions(
    fld: VectorField,
    lin: Linearization,
    kern: GaussianKernel,
    centers: np.ndarray,
    domain: Box,
    eta: float | None = None,
) -> EigenfunctionSet:
    """Solve the collocation problem of the whole spectrum of the
    linearization."""
    problem = CollocationProblem(
        kernel=kern, fld=fld, lin=lin, centers=centers, domain=domain, eta=eta
    )
    return EigenfunctionSet(
        lin.eigenvalues, lin.left_eigenvectors, solve_collocation(problem)
    )


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

    The step loop only advances the state, reusing f at each new state as
    the next step's k1. States and f are kept for _BLOCK steps; then the
    block's integrands, trapezoid terms (added in step order) and quiet
    counts are formed at once, and stopped points leave the batch. The
    result is bitwise that of forming each step's term as it is taken, and a
    trajectory that blows up while its point is in the batch raises
    BlowUpError at the time of its first non-finite state; one whose point
    has left the batch is ignored, numpy's warnings included. Memory is
    O(_BLOCK d c).
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
    steps = float(t_max) / float(dt)
    if not math.isfinite(steps):
        raise DynamicsError(f"t_max / dt = {t_max:g} / {dt:g} is not finite")

    n_steps = max(1, int(round(steps)))
    h = t_max / n_steps

    def integrand(decay, S, F):
        # (b, k) factors exp(-lambda t), (b, d, c) states and f -> (b, k, c);
        # matmul takes one (d, c) slice at a time, as for a single step
        return decay[:, :, None] * (W @ (F - lin.E @ S))

    total = np.zeros((len(lams), len(X)))
    cols = np.arange(len(X))  # columns of total whose points are in the batch
    state = X.T.copy()
    f = fld.evaluate(state)
    g_prev = integrand(np.ones((1, len(lams))), state[None], f[None])[0]
    quiet = np.zeros(total.shape, dtype=int)
    for start in range(0, n_steps, _BLOCK):
        step = np.arange(1, min(_BLOCK, n_steps - start) + 1)
        decay = np.exp(np.multiply.outer((start + step) * h, -lams))
        # a point that leaves the batch inside the block is still advanced to its
        # end and may escape there, unused: numpy's overflow and invalid-value
        # warnings are off until the terms are masked (an escape in the batch raises)
        with np.errstate(over="ignore", invalid="ignore"):
            states, fs = [], []
            for _ in step:
                state = rk4_step(fld, state, h, k1=f)
                f = fld.evaluate(state)
                states.append(state)
                fs.append(f)
            S = np.array(states)
            G = integrand(decay, S, np.array(fs))
            # q: the quiet counts as if no pair had stopped. A pair stops for good at
            # its first count of _TAIL_STEPS, so it adds a step's term while the
            # running maximum of its counts, seeded with quiet, is below that.
            step = step[:, None, None]
            q = step - np.maximum.accumulate(np.where(np.abs(G) >= _TAIL_FLOOR, step, -quiet))
            q_max = np.maximum.accumulate(np.concatenate([quiet[None], q]))
            active = q_max[:-1] < _TAIL_STEPS
            blown = active.any(axis=1) & ~np.isfinite(S).all(axis=1)
            if blown.any():
                raise BlowUpError((start + int(np.argmax(blown.any(axis=1))) + 1) * h)
            terms = np.where(active, 0.5 * h * (np.concatenate([g_prev[None], G[:-1]]) + G), 0.0)
        total[:, cols] = np.add.accumulate(np.concatenate([total[None, :, cols], terms]))[-1]
        running = q_max[-1] < _TAIL_STEPS
        g_prev, quiet = G[-1], np.where(running, q[-1], _TAIL_STEPS)
        live = running.any(axis=0)
        if not live.all():
            if not live.any():
                break
            cols, state, quiet = cols[live], state[:, live], quiet[:, live]
            f, g_prev = f[:, live], g_prev[:, live]
    return X @ W.T + total.T
