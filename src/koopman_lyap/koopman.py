"""Principal Koopman eigenfunctions: linear part plus collocated nonlinear part.

An eigenfunction for eigenvalue lambda_i is phi_i(x) = w_i . x + h_i(x) with
w_i the matching left eigenvector and h_i the collocation solution. An
independent numerical route to the same object is the path integral

    phi_i(x) = w_i . x + integral_0^inf exp(-lambda_i t) w_i . G(s_t(x)) dt

along the flow s_t, valid when -lambda_i + 2 max_j lambda_j < 0.
path_integral_phi computes it for a batch of points and eigenvalues from one
set of trajectories. The two routes share no code beyond the flow integrator,
which makes the integral a useful cross-check of the collocated surrogate.
The set, the convergence margins and the integral read lambda_i and w_i from
one Linearization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import BlowUpError, DynamicsError, Linearization, rk4_step
from .expr import VectorField

__all__ = [
    "ConvergenceConditionError",
    "Eigenfunction",
    "EigenfunctionSet",
    "convergence_margins",
    "path_integral_phi",
]

# RK4 steps whose states are kept before their integrand is evaluated at once.
_BLOCK = 256
# A pair stops adding once its integrand stayed below this through a block.
_TAIL_FLOOR = 1e-12


class ConvergenceConditionError(DynamicsError):
    """The path integral does not converge for this eigenvalue."""


def convergence_margins(lin: Linearization) -> np.ndarray:
    """-lambda_i + 2 max_j lambda_j per eigenvalue; the path integral of
    lambda_i converges where its margin is negative, as it is for
    max_j lambda_j itself."""
    return -lin.eigenvalues + 2.0 * float(np.max(lin.eigenvalues))


@dataclass(frozen=True)
class EigenfunctionSet:
    """phi_i(x) = w_i . x + h_i(x), one per eigenvalue of lin, same order,
    evaluated together over batches of points X of shape (c, d).

    h needs two methods: ``evaluate_many(X)`` returning h_i(x_p) at [p, i],
    shape (c, k), and ``evaluate_with_gradient(X)`` returning that and
    grad h_i(x_p) at [p, i], shape (c, k, d). A CollocationSolution provides
    both; closed-form substitutes slot in for testing.
    """

    lin: Linearization
    h: object

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.lin.eigenvalues

    @property
    def W(self) -> np.ndarray:
        """The w_i as rows."""
        return self.lin.left_eigenvectors

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


def path_integral_phi(
    fld: VectorField,
    lin: Linearization,
    which,
    X,
    t_max: float = 20.0,
    dt: float = 1e-3,
) -> np.ndarray:
    """Eigenfunction values by quadrature along the trajectories through X.

    which indexes the k eigenvalues of lin to integrate, X holds the c
    points as rows (c, d); returns phi_i(x_p) at [p, i], shape (c, k). The c
    trajectories advance as one (d, c) RK4 state, and G at each step feeds
    all k integrands. Trapezoidal rule on a fixed time grid up to t_max; an
    (eigenvalue, point) pair stops adding once its integrand has stayed
    below 1e-12 through a whole block of _BLOCK steps, and the integral ends
    once every pair has stopped. A stopped pair adds nothing more, since
    later on exp(-lambda t) may overflow while w_i . G underflows to 0.
    Requires a negative convergence margin for every requested eigenvalue.

    The step loop only advances the state, reusing f at each new state as
    the next step's k1. States and f are kept for _BLOCK steps; then the
    block's states are checked and its integrands and trapezoid terms
    (added in step order) are formed at once. The result is bitwise that of
    forming each step's term as it is taken. A trajectory that escapes
    while one of its pairs is adding raises BlowUpError at the time of its
    first non-finite state, without numpy's overflow and invalid-value
    warnings on the way; a point whose pairs have all stopped no longer
    counts. An integrand that is not finite at finite states raises
    DynamicsError. Memory is O(_BLOCK d c).
    """
    lams, W = lin.eigenvalues[which], lin.left_eigenvectors[which]
    X = np.asarray(X, dtype=float)
    for margin, lam in zip(convergence_margins(lin)[which], lams):
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
    done = np.zeros(total.shape, dtype=bool)  # pairs that stopped adding
    state = X.T.copy()
    f = fld.evaluate(state)
    g_prev = integrand(np.ones((1, len(lams))), state[None], f[None])[0]
    for start in range(0, n_steps, _BLOCK):
        step = np.arange(1, min(_BLOCK, n_steps - start) + 1)
        # an escape or an overflow is reported below, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            decay = np.exp(np.multiply.outer((start + step) * h, -lams))
            states, fs = [], []
            for _ in step:
                state = rk4_step(fld, state, h, k1=f)
                f = fld.evaluate(state)
                states.append(state)
                fs.append(f)
            S = np.array(states)
            blown = (~np.isfinite(S).all(axis=1) & ~done.all(axis=0)).any(axis=1)
            if blown.any():
                raise BlowUpError((start + int(np.argmax(blown)) + 1) * h)
            G = integrand(decay, S, np.array(fs))
            terms = np.where(done, 0.0, 0.5 * h * (np.concatenate([g_prev[None], G[:-1]]) + G))
            total = np.add.accumulate(np.concatenate([total[None], terms]))[-1]
            done |= (np.abs(G) < _TAIL_FLOOR).all(axis=0)
        if not np.isfinite(total).all():
            raise DynamicsError(
                f"path integral overflows before t = {(start + len(step)) * h:.6g}: "
                "exp(-lambda t) w . G is not finite; lower t_max"
            )
        if done.all():
            break
        g_prev = G[-1]
    return X @ W.T + total.T
