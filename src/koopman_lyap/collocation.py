"""Symmetric kernel collocation for the nonlinear part of an eigenfunction.

For an eigenvalue lambda with left eigenvector w of the Jacobian E at the
origin, the nonlinear part h of the eigenfunction w.x + h(x) solves the
linear first-order PDE

    grad h(x) . f(x) - lambda h(x) = -w . G(x),      G(x) = f(x) - E x,

subject to h(0) = 0 and grad h(0) = 0. We impose the PDE at n collocation
centers z_1..z_n and the origin conditions exactly, and take the minimum-norm
interpolant in the RKHS of a chosen kernel. With the functionals

    L_j   u = grad u(z_j) . f(z_j) - lambda u(z_j)      j = 1..n
    L_n+1 u = u(0)
    L_n+1+l u = d u / dx_l (0)                          l = 1..d

the solution is h(x) = sum_a alpha_a (L_a^y k)(x, .), where alpha solves the
symmetric Gram system A alpha = b with A[a, b] = L_a^x L_b^y k and
b = (-w.G(z_1), .., -w.G(z_n), 0, .., 0). The coefficient layout is therefore

    alpha[0:n]       PDE functionals at the centers
    alpha[n]         value at the origin
    alpha[n+1:n+1+d] partial derivatives at the origin

Every entry of A and every value or gradient of h is a contraction of one
basis block: for a chunk of points x, the values and x-gradients of the
m = n + 1 + d basis functions (L_b^y k)(x, .). With the Gaussian kernel,
u = x - z_b, K = k(x, z_b), K0 = k(x, 0) and S = u . f(z_b) / sigma^2 - lambda:

    column            value               x-gradient
    b < n             K S                 K (f(z_b) - S u) / sigma^2
    n                 K0                  -x K0 / sigma^2
    n + 1 + l         x_l K0 / sigma^2    (e_l - x_l x / sigma^2) K0 / sigma^2

u is formed per entry before any sum, and exp is taken once per entry. A PDE
row of A is grads . f(z_a) - lambda values at x = z_a, the origin rows are
the block at x = 0, h is values @ alpha and grad h is grads . alpha.

For distinct functionals the Gram matrix is positive definite (Giesl &
Wendland, SIAM J. Numer. Anal. 45, 2007) and a ridge eta is added to its
diagonal, so it is solved by Cholesky. Assembly and evaluation are chunked
so memory stays flat in the number of points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial import cKDTree

from .box import Box
from .dynamics import Linearization, nonlinear_part
from .expr import VectorField
from .kernel import GaussianKernel

__all__ = [
    "CollocationError",
    "SingularSystemError",
    "IllConditionedWarning",
    "CollocationProblem",
    "CollocationSolution",
    "uniform_centers",
    "fill_distance",
    "assemble_system",
    "solve",
]

_CHUNK = 512


class CollocationError(ValueError):
    pass


class SingularSystemError(np.linalg.LinAlgError):
    """Gram system unsolvable even by least squares."""


class IllConditionedWarning(UserWarning):
    """Condition estimate of the Gram system exceeds 1e12."""


@dataclass(frozen=True)
class CollocationProblem:
    """Immutable description of one collocation solve.

    eta is the ridge added to the Gram diagonal: None requests the automatic
    relative default 1e-10 * trace(A) / m, 0 disables regularization, and a
    positive value is used verbatim.
    """

    kernel: GaussianKernel
    fld: VectorField
    lin: Linearization
    lam: float
    w: np.ndarray
    centers: np.ndarray
    domain: Box
    eta: float | None = None

    def __post_init__(self):
        d = self.fld.dim
        if self.kernel.dim != d or self.lin.dim != d:
            raise CollocationError("kernel, field, and linearization disagree on dimension")

        centers = np.asarray(self.centers, dtype=float).reshape(-1, d)
        n = centers.shape[0]
        if n and not np.all(self.domain.contains(centers, atol=1e-9)):
            raise CollocationError("collocation centers must lie inside the domain")
        if n and np.min(np.linalg.norm(centers, axis=1)) <= 1e-12:
            raise CollocationError("the origin may not be a collocation center")
        if n > 1:
            dist, _ = cKDTree(centers).query(centers, k=2)
            if np.min(dist[:, 1]) <= 1e-12:
                raise CollocationError("collocation centers must be pairwise distinct")

        lam = float(self.lam)
        if np.min(np.abs(self.lin.eigenvalues - lam)) > 1e-9 * max(1.0, abs(lam)):
            raise CollocationError(
                f"lambda = {lam:.6g} is not an eigenvalue of the linearization"
            )
        w = np.asarray(self.w, dtype=float).reshape(d)
        scale = max(1.0, float(np.linalg.norm(self.lin.E)))
        if np.max(np.abs(w @ self.lin.E - lam * w)) > 1e-8 * scale:
            raise CollocationError("w is not a left eigenvector for lambda")
        if self.eta is not None and self.eta < 0:
            raise CollocationError("eta must be nonnegative")

        centers.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "w", w)

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    @property
    def size(self) -> int:
        """Number of functionals, n + 1 + d."""
        return self.n_centers + 1 + self.fld.dim


def uniform_centers(domain: Box, n_per_axis: int) -> np.ndarray:
    """Uniform grid of n_per_axis points per axis, endpoints included.

    A grid point landing on the origin is moved by half a cell diagonal so
    the origin itself is never a center.
    """
    if n_per_axis < 2:
        raise CollocationError("n_per_axis must be at least 2")
    pts = domain.grid(n_per_axis)
    half_cell = domain.widths / (n_per_axis - 1) / 2.0
    hits = np.linalg.norm(pts, axis=1) <= 1e-12
    pts[hits] = half_cell
    return pts


def fill_distance(centers: np.ndarray, domain: Box, probe_resolution: int = 201) -> float:
    """Largest distance from a probe-grid point of the domain to the centers.

    A lower bound on the true fill distance of the continuum, converging as
    the probe grid refines.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] == 0:
        raise CollocationError("need at least one center")
    probes = domain.grid(probe_resolution)
    dist, _ = cKDTree(centers).query(probes)
    return float(np.max(dist))


def _field_at_centers(problem: CollocationProblem) -> np.ndarray:
    Z = problem.centers
    return problem.fld.evaluate_at(Z) if Z.shape[0] else np.zeros((0, problem.fld.dim))


def _basis_block(
    problem: CollocationProblem, X: np.ndarray, F: np.ndarray, gradients: bool = True
):
    """Values (c, m) and x-gradients (c, m, d) of the m = n + 1 + d basis
    functions at the c points X; F holds the field at the centers. Without
    gradients the (c, m, d) tensor is never formed and None is returned
    in its place."""
    Z, lam = problem.centers, problem.lam
    s2 = problem.kernel.sigma**2
    n, d = Z.shape
    c = X.shape[0]
    values = np.empty((c, n + 1 + d))
    grads = np.empty((c, n + 1 + d, d)) if gradients else None

    U = X[:, None, :] - Z[None, :, :]
    K = np.exp(np.einsum("cnd,cnd->cn", U, U) / (-2.0 * s2))
    S = np.einsum("cnd,nd->cn", U, F) / s2 - lam
    values[:, :n] = K * S
    K0 = np.exp(np.einsum("cd,cd->c", X, X) / (-2.0 * s2))
    values[:, n] = K0
    values[:, n + 1 :] = X * (K0 / s2)[:, None]
    if not gradients:
        return values, None

    grads[:, :n] = (K / s2)[:, :, None] * (F[None, :, :] - S[:, :, None] * U)
    grads[:, n] = -X * (K0 / s2)[:, None]
    grads[:, n + 1 :] = (np.eye(d) - X[:, :, None] * X[:, None, :] / s2) * (
        K0 / s2
    )[:, None, None]
    return values, grads


def _assemble_raw(problem: CollocationProblem):
    Z = problem.centers
    n, d = Z.shape
    m = n + 1 + d
    F = _field_at_centers(problem)

    A = np.empty((m, m))
    for s in range(0, n, _CHUNK):
        rows = slice(s, min(s + _CHUNK, n))
        values, grads = _basis_block(problem, Z[rows], F)
        A[rows] = np.einsum("cmd,cd->cm", grads, F[rows]) - problem.lam * values

    values, grads = _basis_block(problem, np.zeros((1, d)), F)
    A[n] = values[0]
    A[n + 1 :] = grads[0].T
    A = 0.5 * (A + A.T)

    b = np.zeros(m)
    if n:
        G = nonlinear_part(problem.fld, problem.lin, Z.T).T
        b[:n] = -(G @ problem.w)
    return A, b


def _resolve_eta(problem: CollocationProblem, A: np.ndarray) -> float:
    if problem.eta is None:
        return 1e-10 * float(np.trace(A)) / A.shape[0]
    return float(problem.eta)


def assemble_system(problem: CollocationProblem):
    """Gram matrix (ridge included) and right-hand side of the collocation
    system. A is symmetric of order n + 1 + d."""
    A, b = _assemble_raw(problem)
    eta = _resolve_eta(problem, A)
    if eta:
        A[np.diag_indices_from(A)] += eta
    return A, b


def _invnorm1_estimate(solve_fn, m: int, iters: int = 5) -> float:
    """Hager's deterministic 1-norm estimate of the inverse (symmetric A)."""
    x = np.full(m, 1.0 / m)
    best = 0.0
    for _ in range(iters):
        y = solve_fn(x)
        est = float(np.abs(y).sum())
        best = max(best, est)
        xi = np.sign(y)
        xi[xi == 0.0] = 1.0
        z = solve_fn(xi)
        j = int(np.argmax(np.abs(z)))
        if np.max(np.abs(z)) <= float(z @ x):
            break
        x = np.zeros(m)
        x[j] = 1.0
    return best


@dataclass
class CollocationSolution:
    """Solved coefficients plus everything needed to evaluate h and grad h."""

    problem: CollocationProblem
    alpha: np.ndarray
    eta_used: float
    condition_estimate: float
    method: str
    center_field_values: np.ndarray = dc_field(repr=False, default=None)

    def __post_init__(self):
        if self.center_field_values is None:
            self.center_field_values = _field_at_centers(self.problem)

    # -- evaluation ----------------------------------------------------------

    def _evaluate(self, X: np.ndarray, gradients: bool):
        X = np.asarray(X, dtype=float).reshape(-1, self.problem.fld.dim)
        h = np.empty(X.shape[0])
        grad = np.empty_like(X) if gradients else None
        for s in range(0, X.shape[0], _CHUNK):
            rows = slice(s, min(s + _CHUNK, X.shape[0]))
            values, grads = _basis_block(
                self.problem, X[rows], self.center_field_values, gradients
            )
            h[rows] = values @ self.alpha
            if gradients:
                grad[rows] = np.einsum("cmd,m->cd", grads, self.alpha)
        return h, grad

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """h at a batch of points, shape (c, d) -> (c,); no gradients formed."""
        return self._evaluate(X, gradients=False)[0]

    def evaluate_with_gradient(self, X: np.ndarray):
        """h and grad h at a batch of points, shape (c, d) -> ((c,), (c, d)),
        both contracted from one basis block per chunk."""
        return self._evaluate(X, gradients=True)


def solve(problem: CollocationProblem) -> CollocationSolution:
    """Assemble and solve the Gram system.

    Cholesky factorization of A + eta I first, with the 1-norm condition
    estimate from Hager's method over the Cholesky solve (deterministic, so
    reruns stay byte-identical); least squares when the matrix is not
    numerically positive definite or the residual is bad. Warns (never
    raises) when the condition estimate exceeds 1e12.
    """
    A_raw, b = _assemble_raw(problem)
    eta = _resolve_eta(problem, A_raw)
    A = A_raw
    if eta:
        A = A_raw.copy()
        A[np.diag_indices_from(A)] += eta
    m = A.shape[0]

    alpha = None
    cond = np.inf
    method = "cholesky"
    try:
        factor = cho_factor(A)
        alpha = cho_solve(factor, b)
        cond = float(
            np.abs(A).sum(axis=0).max()
            * _invnorm1_estimate(lambda v: cho_solve(factor, v), m)
        )
        scale = float(
            np.abs(A).sum(axis=1).max() * np.max(np.abs(alpha), initial=0.0)
            + np.max(np.abs(b), initial=0.0)
        )
        resid = float(np.max(np.abs(A @ alpha - b)))
        if not np.all(np.isfinite(alpha)) or resid > 1e-8 * max(scale, 1e-300):
            alpha = None
    except np.linalg.LinAlgError:
        alpha = None

    if alpha is None:
        method = "lstsq"
        try:
            alpha, _, _, sing = np.linalg.lstsq(A, b, rcond=None)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc
        if not np.all(np.isfinite(alpha)):
            raise SingularSystemError("least-squares solution is not finite")
        cond = float(sing[0] / sing[-1]) if sing[-1] > 0 else np.inf

    if cond > 1e12:
        warnings.warn(
            f"Gram system condition estimate {cond:.3e} exceeds 1e12; "
            "results may lose accuracy",
            IllConditionedWarning,
            stacklevel=2,
        )

    return CollocationSolution(
        problem=problem,
        alpha=alpha,
        eta_used=eta,
        condition_estimate=cond,
        method=method,
    )
