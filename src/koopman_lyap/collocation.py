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

With the Gaussian kernel, u = x - z_b, K = k(x, z_b), K0 = k(x, 0) and
S = u . f(z_b) / sigma^2 - lambda, the m = n + 1 + d basis functions
(L_b^y k)(x, .) are

    column            value               x-gradient
    b < n             K S                 K (f(z_b) - S u) / sigma^2
    n                 K0                  -x K0 / sigma^2
    n + 1 + l         x_l K0 / sigma^2    (e_l - x_l x / sigma^2) K0 / sigma^2

Separable evaluation. The Gaussian factorizes, K = prod_l k(x_l, z_bl) with
k(s, t) = exp(-(s - t)^2 / (2 sigma^2)); with g(s, t) = (s - t) k(s, t),

    h(x) = sum_b [beta^0_b prod_l k(x_l, z_bl) + sum_l beta^l_b g(x_l, z_bl)
                  prod_{j != l} k(x_j, z_bj)] + origin terms,
    beta^0_b = -lambda alpha_b,    beta^l_b = alpha_b f_l(z_b) / sigma^2.

The centers lie on the lattice of each axis' sorted unique coordinates a_l
(n_l of them); C_q is beta^q scattered onto it, zero elsewhere. With d = 2,
K_l[p, i] = k(x_pl, a_li), G_l[p, i] = g(x_pl, a_li) and U_l = x_pl - a_li,

    h = rowsum(K_2 o (K_1 C_0 + G_1 C_1 + U_2 o (K_1 C_2))) + origin terms:

a matrix product per lattice, an elementwise contraction per further axis,
and the sum formed before the last factor. Gradients substitute
dk/ds = -g / sigma^2 and dg/ds = k - U g / sigma^2 on their axis. u stays
formed per entry, so a PDE column is exactly -lambda at its own center.
Tensor grids, the odd grid's moved center and scattered centers (a sparse
n^d lattice) take this one path: c (n_1 + .. + n_d + 1) exponentials for c
points, and no (c, m, d) tensor.

Assembly. With u = z_a - z_b, T = u . f(z_b) / sigma^2, R = u . f(z_a) / sigma^2,

    A[a, b] = K(z_a, z_b) (f(z_a) . f(z_b) / sigma^2 - (T - lambda)(R + lambda)),

K gathered from the 1-D Gram factors k(a_li, a_lj): sum_l n_l^2
exponentials, not n^2. u_ba = -u_ab exactly, so the entries below the
diagonal equal those above bit for bit: each chunk of PDE rows forms its
columns from its own first row onward and writes their transpose below, and
every off-diagonal block is computed once. The origin columns are the
table's rows n .. n + d at x = z_a, the origin rows their transpose. Only
lambda and w differ between eigenvalues, so one problem covers the whole
spectrum, solved one eigenvalue at a time: each Gram matrix is assembled,
factored and freed before the next is assembled.

For distinct functionals the Gram matrix is positive definite (Giesl &
Wendland, SIAM J. Numer. Anal. 45, 2007) and a ridge eta is added to its
diagonal, so it is solved by Cholesky, factored in place: L overwrites the
lower triangle of A, diagonal included, one _PANEL-column panel at a time
(one product with the columns already factored, numpy's factor of the
diagonal block, a dense solve of the rows below it), while the strict upper
triangle and a saved copy of the diagonal keep A. Forward and back
substitution run in _CHUNK-row blocks of L, each diagonal block solved
densely (numpy has no triangular solve, and a dense solve with all of L
would cost O(m^3) again). A zero right-hand side (w . G vanishing at every
center, as for a linear eigenfunction) has the exact solution alpha = 0,
so its system is never formed; its ridge comes from the diagonal in closed
form. f at the centers and every right-hand side are checked for
non-finite entries before any system is assembled, and each Gram matrix
before it is factored; one that is not numerically positive definite, or
whose solution fails the residual check, falls back to least squares. The
non-finite check, the residual check and the rebuild of A for least
squares each pass over A in _CHUNK-row blocks, so solving a system holds
no second m x m array. Assembly and evaluation are chunked so memory stays
flat in the number of points.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .box import Box
from .dynamics import Linearization, nonlinear_part
from .expr import VectorField
from .kernel import GaussianKernel

__all__ = [
    "CollocationError",
    "SingularSystemError",
    "CollocationProblem",
    "CollocationSolution",
    "uniform_centers",
    "fill_distance",
    "assemble_system",
    "solve",
]

_CHUNK = 128
_PANEL = 64
_NON_FINITE = "non-finite entries; is the field finite at every collocation center?"


class CollocationError(ValueError):
    pass


class SingularSystemError(np.linalg.LinAlgError):
    """Gram system unsolvable even by least squares."""


@dataclass(frozen=True)
class CollocationProblem:
    """Immutable description of the collocation solves for the whole
    spectrum: one per eigenpair (lin.eigenvalues[i], lin.left_eigenvectors[i]),
    all on the same centers with the same kernel.

    eta is the ridge added to each Gram diagonal: None requests the
    automatic relative default 1e-10 * trace(A) / m per eigenvalue, 0
    disables regularization, and a positive value is used verbatim.
    """

    kernel: GaussianKernel
    fld: VectorField
    lin: Linearization
    centers: np.ndarray
    domain: Box
    eta: float | None = None

    def __post_init__(self):
        d = self.fld.dim
        if self.lin.dim != d:
            raise CollocationError("field and linearization disagree on dimension")

        centers = np.asarray(self.centers, dtype=float).reshape(-1, d)
        n = centers.shape[0]
        if n and not np.all(self.domain.contains(centers, atol=1e-9)):
            raise CollocationError("collocation centers must lie inside the domain")
        if n and np.min(np.linalg.norm(centers, axis=1)) <= 1e-12:
            raise CollocationError("the origin may not be a collocation center")
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        if n > 1 and _has_close_pair(self.lattice, centers, 1e-12):
            raise CollocationError("collocation centers must be pairwise distinct")
        if self.eta is not None and self.eta < 0:
            raise CollocationError("eta must be nonnegative")

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    @property
    def size(self) -> int:
        """Number of functionals, n + 1 + d."""
        return self.n_centers + 1 + self.fld.dim

    @cached_property
    def lattice(self):
        """Per axis the sorted unique center coordinates a_l, and the (n, d)
        indices placing z_b at (a_1[i_1], .., a_d[i_d])."""
        pairs = [np.unique(col, return_inverse=True) for col in self.centers.T]
        return [a for a, _ in pairs], np.stack([i for _, i in pairs], axis=1)


def _has_close_pair(lattice, Z: np.ndarray, tol: float) -> bool:
    """Whether two rows of Z lie within tol, exactly. Per axis, unique coordinates within
    tol of the next chain into one bucket, so such rows share a bucket tuple; only rows
    with a repeated tuple are compared, by their true distance."""
    axes, index = lattice
    keys = np.stack([np.cumsum(np.r_[0, np.diff(a) > tol])[i] for a, i in zip(axes, index.T)], 1)
    _, group, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    for g in np.flatnonzero(counts > 1):
        P = Z[group.ravel() == g]
        dist = np.linalg.norm(P[:, None] - P[None], axis=2)
        if np.min(dist[np.triu_indices(len(P), 1)]) <= tol:
            return True
    return False


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
    the probe grid refines. Exact: the centers are grouped into lines along
    the last axis, the nearest last coordinate on each line is bisected for
    every probe's last coordinate, and the squared distance is minimized
    over the lines.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] == 0:
        raise CollocationError("need at least one center")
    probes = domain.grid(probe_resolution)
    keys, line = np.unique(centers[:, :-1], axis=0, return_inverse=True)
    t, at = np.unique(probes[:, -1], return_inverse=True)
    dz2 = np.empty((len(keys), len(t)))
    for l in range(len(keys)):
        a = np.sort(centers[line.ravel() == l, -1])
        i = np.searchsorted(a, t)
        below, above = a[np.maximum(i - 1, 0)], a[np.minimum(i, len(a) - 1)]
        dz2[l] = np.minimum((t - below) ** 2, (t - above) ** 2)
    # chunks of about 2^16 (line, probe) pairs keep the temporaries small
    worst, rows = 0.0, max(_CHUNK, 2**16 // len(keys))
    for s in range(0, len(probes), rows):
        p = probes[s : s + rows]
        d2 = sum((p[:, j] - keys[:, j, None]) ** 2 for j in range(keys.shape[1]))
        worst = max(worst, float(np.max(np.min(d2 + dz2[:, at[s : s + rows]], axis=0))))
    return float(np.sqrt(worst))


def _partial(C: np.ndarray, factors, k: int) -> np.ndarray:
    """C (n_1, k n_2 .. n_d) contracted with the 1-D factors (c, n_l) of all
    lattice axes but the last, shape (c, k, n_d)."""
    if not factors:
        return C.T[None]
    c = factors[0].shape[0]
    R = factors[0] @ C
    for l, K in enumerate(factors[1:], start=2):
        R = np.einsum("crjs,cj->crs", R.reshape(c, k, K.shape[1], -1), K)
    return R.reshape(c, k, -1)


def _origin_columns(X: np.ndarray, s2: float):
    """Values (c, d + 1) and x-gradients (c, d + 1, d) of the origin columns
    n .. n + d of the basis at the points X."""
    K0 = np.exp(np.einsum("cd,cd->c", X, X) / (-2.0 * s2))[:, None]
    values, Ks = np.hstack([K0, X * (K0 / s2)]), (K0 / s2)[:, None]
    XX = X[:, :, None] * X[:, None, :] / s2
    grads = np.hstack([-X[:, None] * Ks, (np.eye(X.shape[1]) - XX) * Ks])
    return values, grads


def _rhs(problem: CollocationProblem) -> np.ndarray:
    """b of every eigenvalue's system, shape (k, m): -w . G at the centers,
    0 on the origin rows."""
    Z = problem.centers
    n = len(Z)
    b = np.zeros((len(problem.lin.eigenvalues), problem.size))
    if n:
        G = nonlinear_part(problem.fld, problem.lin, Z.T).T
        for bi, w in zip(b, problem.lin.left_eigenvectors):
            bi[:n] = -(G @ w)
    return b


def _ridges(problem: CollocationProblem, F: np.ndarray) -> np.ndarray:
    """The ridge of every eigenvalue's system, shape (k,); F is f at the
    centers. eta None means 1e-10 trace(A) / m, with the diagonal of A in
    closed form (u = 0 on it): |f(z_a)|^2 / sigma^2 + lambda^2 on the PDE
    rows, 1 on the value row and 1 / sigma^2 on the derivative rows, each
    rounded as assembly rounds it."""
    lams = problem.lin.eigenvalues
    if problem.eta is not None:
        return np.full(len(lams), float(problem.eta))
    d = problem.fld.dim
    s2 = problem.kernel.sigma**2
    ff = sum(F[:, l] * F[:, l] for l in range(d)) / s2
    origin = np.r_[1.0, np.full(d, 1.0 / s2)]
    return np.array(
        [1e-10 * float(np.sum(np.r_[ff + lam * lam, origin])) / problem.size for lam in lams]
    )


def _gram(problem: CollocationProblem, F: np.ndarray, lam: float, eta: float) -> np.ndarray:
    """Gram matrix of the eigenvalue lam, shape (m, m), symmetric with the
    ridge eta on its diagonal, one chunk of PDE rows at a time, each block
    off the diagonal formed once and mirrored; F is f at the centers."""
    Z = problem.centers
    n, d = Z.shape
    m = n + 1 + d
    s2 = problem.kernel.sigma**2
    axes, index = problem.lattice
    gram_1d = [np.exp(np.subtract.outer(a, a) ** 2 / (-2.0 * s2)) for a in axes]

    A = np.empty((m, m))
    for s in range(0, n, _CHUNK):
        rows = slice(s, min(s + _CHUNK, n))
        Za, Fa, Zb, Fb = Z[rows], F[rows], Z[s:], F[s:]
        # out = f(z_a) . f(z_b) / sigma^2 - (T - lambda)(R + lambda) with
        # u = z_a - z_b per axis, T = u . f(z_b) / sigma^2, R = u . f(z_a) / sigma^2.
        # u_ba = -u_ab exactly, so the mirrored entries are those computed from row b.
        out = A[rows, s:n]
        np.multiply.outer(Fa[:, 0], Fb[:, 0], out=out)
        for l in range(1, d):
            out += np.multiply.outer(Fa[:, l], Fb[:, l])
        out /= s2
        u = Za[:, 0, None] - Zb[:, 0]
        T = u * Fb[:, 0]
        R = u * Fa[:, 0, None]
        for l in range(1, d):
            np.subtract(Za[:, l, None], Zb[:, l], out=u)
            T += u * Fb[:, l]
            R += u * Fa[:, l, None]
        T /= s2
        R /= s2
        T -= lam
        R += lam
        R *= T
        out -= R
        # T is spent; its buffer takes K, gathered from the 1-D Gram factors.
        # Freeing u, T and R here instead lets the allocator trim the heap
        # and fault it back in every chunk (60 000 more page faults at m = 3603).
        T.fill(1.0)
        for G1, i in zip(gram_1d, index.T):
            T *= G1[np.ix_(i[rows], i[s:])]
        out *= T
        A[s:n, rows] = out.T
        values, grads = _origin_columns(Za, s2)
        A[rows, n:] = np.einsum("cqd,cd->cq", grads, Fa) - lam * values

    # the origin rows are the origin columns transposed, then the origin
    # functionals at x = 0
    values, grads = _origin_columns(np.zeros((1, d)), s2)
    A[n:, :n] = A[:n, n:].T
    A[n, n:] = values[0]
    A[n + 1 :, n:] = grads[0].T
    if eta:
        A[np.diag_indices(m)] += eta
    return A


def assemble_system(problem: CollocationProblem):
    """Gram matrices, right-hand sides and ridges of every eigenvalue's
    system: A (k, m, m), the stacked _gram of each eigenvalue, each A[i] with
    its ridge eta[i] on the diagonal; b (k, m); eta (k,). solve never holds it."""
    F = problem.fld.evaluate_at(problem.centers)
    eta = _ridges(problem, F)
    A = np.stack([_gram(problem, F, lam, e) for lam, e in zip(problem.lin.eigenvalues, eta)])
    return A, _rhs(problem), eta


@dataclass
class CollocationSolution:
    """Solved coefficients plus everything needed to evaluate h and grad h.
    Row or entry i of each field belongs to problem.lin.eigenvalues[i]."""

    problem: CollocationProblem
    alpha: np.ndarray  # (k, m)
    eta_used: np.ndarray  # (k,)
    method: tuple  # (k,) of "cholesky" | "lstsq" | "zero"
    center_field_values: np.ndarray = dc_field(repr=False, default=None)

    def __post_init__(self):
        if self.center_field_values is None:
            self.center_field_values = self.problem.fld.evaluate_at(self.problem.centers)

    # -- evaluation ----------------------------------------------------------

    @cached_property
    def _lattice_coefficients(self) -> np.ndarray:
        """C_0 .. C_d, shape (d + 1, n_1, k n_2 .. n_d): lattice row i_1,
        then (eigenvalue, i_2, .., i_d) flattened."""
        prob = self.problem
        n, d = prob.centers.shape
        a = self.alpha[:, :n]
        beta = [-prob.lin.eigenvalues[:, None] * a]
        beta += [a * f / prob.kernel.sigma**2 for f in self.center_field_values.T]
        C = np.zeros((d + 1, len(a), *map(len, prob.lattice[0])))
        C[(slice(None), slice(None), *prob.lattice[1].T)] = beta
        return np.moveaxis(C, 2, 1).reshape(d + 1, C.shape[2], -1 if n else 0)

    def _evaluate(self, X: np.ndarray, gradients: bool):
        prob = self.problem
        X = np.asarray(X, dtype=float).reshape(-1, prob.fld.dim)
        c, d = X.shape
        k = self.alpha.shape[0]
        s2 = prob.kernel.sigma**2
        C = self._lattice_coefficients
        a0 = self.alpha[:, prob.n_centers :]
        h = np.empty((c, k))
        grad = np.empty((c, k, d)) if gradients else None
        for s in range(0, c, _CHUNK):
            rows = slice(s, min(s + _CHUNK, c))
            x = X[rows]
            U = [x[:, l, None] - a for l, a in enumerate(prob.lattice[0])]
            K = [np.exp(u * u / (-2.0 * s2)) for u in U]
            G = [u * kl for u, kl in zip(U, K)]
            # factors of C_q on the axes but the last: G_l on axis l = q - 1
            fs = [[G[l] if l == q - 1 else K[l] for l in range(d - 1)] for q in range(d + 1)]
            u = U[-1][:, None, :]
            R = [_partial(Cq, f, k) for Cq, f in zip(C, fs)]
            values, grads = _origin_columns(x, s2)
            h[rows] = np.einsum("ckj,cj->ck", sum(R[:-1]) + u * R[-1], K[-1]) + values @ a0.T
            if not gradients:
                continue
            for j in range(d - 1):
                dK, dG = G[j] / -s2, K[j] - U[j] * G[j] / s2
                dR = [
                    _partial(Cq, f[:j] + [dG if q == j + 1 else dK] + f[j + 1 :], k)
                    for q, (Cq, f) in enumerate(zip(C, fs))
                ]
                grad[rows, :, j] = np.einsum("ckj,cj->ck", sum(dR[:-1]) + u * dR[-1], K[-1])
            dR = sum(R[:-1]) * (u / -s2) + R[-1] * (1.0 - u * u / s2)
            grad[rows, :, -1] = np.einsum("ckj,cj->ck", dR, K[-1])
            grad[rows] += np.einsum("cqj,kq->ckj", grads, a0)
        return h, grad

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """h_i(x_p) at [p, i] for a batch of points, shape (c, d) -> (c, k);
        no gradients formed."""
        return self._evaluate(X, gradients=False)[0]

    def evaluate_with_gradient(self, X: np.ndarray):
        """h and grad h at a batch of points, shape (c, d) -> ((c, k),
        (c, k, d)), from one set of 1-D kernel factors per chunk."""
        return self._evaluate(X, gradients=True)


def _cholesky_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b for a symmetric A, factored in place: its Cholesky
    factor L overwrites the lower triangle, diagonal included, and the strict
    upper triangle keeps A. Left-looking, one _PANEL-column panel at a time:
    one product with the columns already factored updates the panel, its
    diagonal block is factored densely and the rows below are solved against
    that block. A panel that is not numerically positive definite raises
    LinAlgError. Forward, then back substitution run in _CHUNK-row blocks,
    each diagonal block solved densely."""
    m = len(b)
    for s in range(0, m, _PANEL):
        e = min(s + _PANEL, m)
        P = A[s:, :s] @ A[s:e, :s].T
        np.subtract(A[s:, s:e], P, out=P)
        L = np.linalg.cholesky(P[: e - s])
        np.copyto(A[s:e, s:e], L, where=np.tri(e - s, dtype=bool))
        A[e:, s:e] = np.linalg.solve(L, P[e - s :].T).T
    y = np.empty(m)
    for s in range(0, m, _CHUNK):
        e = min(s + _CHUNK, m)
        y[s:e] = np.linalg.solve(np.tril(A[s:e, s:e]), b[s:e] - A[s:e, :s] @ y[:s])
    x = np.empty(m)
    for s in reversed(range(0, m, _CHUNK)):
        e = min(s + _CHUNK, m)
        x[s:e] = np.linalg.solve(np.tril(A[s:e, s:e]).T, y[s:e] - A[e:, s:e].T @ x[e:])
    return x


def _rows(A: np.ndarray, diag: np.ndarray):
    """(s, e, rows s:e) of the symmetric matrix whose strict upper triangle A
    holds and whose diagonal is diag, one _CHUNK-row block at a time."""
    m = len(diag)
    for s in range(0, m, _CHUNK):
        e = min(s + _CHUNK, m)
        R = np.hstack([A[:s, s:e].T, A[s:e, s:]])
        i, j = np.tril_indices(e - s, -1)
        R[i, s + j] = R[j, s + i]
        r = np.arange(e - s)
        R[r, s + r] = diag[s:e]
        yield s, e, R


def _solve_system(A: np.ndarray, b: np.ndarray, lam: float):
    """alpha with A alpha = b and the method that found it. A is overwritten:
    the Cholesky factor takes its lower triangle, and the residual check reads
    A's rows back from the strict upper triangle and the saved diagonal, as
    does least squares, which gets A rebuilt in place. solve passes each Gram
    matrix straight in, so it is freed on return."""
    m = len(b)
    if not all(np.isfinite(A[s : s + _CHUNK]).all() for s in range(0, m, _CHUNK)):
        raise CollocationError(f"the Gram system of lambda = {lam:.6g} has {_NON_FINITE}")
    diag = A.diagonal().copy()
    try:
        alpha = _cholesky_solve(A, b)
        norm, resid = np.max(
            [
                (np.abs(R).sum(axis=1).max(), np.max(np.abs(R @ alpha - b[s:e])))
                for s, e, R in _rows(A, diag)
            ],
            axis=0,
        )
        scale = float(
            norm * np.max(np.abs(alpha), initial=0.0) + np.max(np.abs(b), initial=0.0)
        )
        if np.all(np.isfinite(alpha)) and not resid > 1e-8 * max(scale, 1e-300):
            return alpha, "cholesky"
    except np.linalg.LinAlgError:
        pass
    for s, e, R in _rows(A, diag):
        A[s:e] = R
    try:
        alpha = np.linalg.lstsq(A, b, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    if not np.all(np.isfinite(alpha)):
        raise SingularSystemError("least-squares solution is not finite")
    return alpha, "lstsq"


def solve(problem: CollocationProblem) -> CollocationSolution:
    """Assemble and solve the Gram system of every eigenvalue, one at a time.

    A non-finite f at the centers or right-hand side raises CollocationError
    before any system is assembled. A zero right-hand side has the exact
    solution alpha = 0, so its system is neither assembled nor factored and
    method records "zero". Each other Gram matrix is assembled, checked for
    non-finite entries, solved and freed before the next is assembled. It is
    factored by Cholesky; least squares takes over when it is not numerically
    positive definite, or when the Cholesky solution is not finite or leaves
    a residual above 1e-8 of the system's scale. method records the solver.
    """
    F = problem.fld.evaluate_at(problem.centers)
    b, eta = _rhs(problem), _ridges(problem, F)
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(b))):
        raise CollocationError(f"the collocation systems have {_NON_FINITE}")
    lams = problem.lin.eigenvalues
    alphas, methods = np.zeros(b.shape), ["zero"] * len(b)
    for i in np.flatnonzero(np.any(b, axis=1)):
        alphas[i], methods[i] = _solve_system(_gram(problem, F, lams[i], eta[i]), b[i], lams[i])
    return CollocationSolution(
        problem=problem,
        alpha=alphas,
        eta_used=eta,
        method=tuple(methods),
        center_field_values=F,
    )
