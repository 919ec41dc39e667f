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

Evaluation. The Gaussian factorizes, K = prod_l k(x_l, z_bl) with
k(s, t) = exp(-(s - t)^2 / (2 sigma^2)); with g(s, t) = (s - t) k(s, t),

    h(x) = sum_b [beta^0_b prod_l k(x_l, z_bl) + sum_l beta^l_b g(x_l, z_bl)
                  prod_{j != l} k(x_j, z_bj)] + origin terms,
    beta^0_b = -lambda alpha_b,    beta^l_b = alpha_b f_l(z_b) / sigma^2.

The centers lie on the lattice of each axis' sorted unique coordinates a_l
(n_l of them), and the origin terms take the same form: a center at 0
holds alpha_n in C_0 and alpha_{n+1+l} / sigma^2 in C_l
(x_l K0 = g(x_l, 0) prod_{j != l} k(x_j, 0)), so each axis gains the
coordinate 0. C_q is beta^q scattered onto that lattice, zero elsewhere.
With K_l[p, i] = k(x_pl, a_li) and G_l[p, i] = g(x_pl, a_li), and C_q
viewed as (n_1, k, n_2), for d = 2

    h = (K_1 C_0 + G_1 C_1) . K_2 + (K_1 C_2) . G_2,

where . contracts the last lattice axis, the sum formed before it;
gradients substitute dk/ds = -g / sigma^2 and dg/ds = k - (s - t) g / sigma^2
on their axis. One engine, box.grid_contract, forms it in two modes.
Points that are a tensor grid, the product of coordinate vectors x_l of
p_l points each (box.grid_axes reads them off the points; Box.grid and
the residual probes build such grids), share their factors: K_l and G_l
are (p_l, n_l) matrices and . is a matrix product with K_2^T or G_2^T,
from sum_l p_l (n_l + 1) exponentials. Any other batch, single points
included, is contracted row-wise: each point brings its own row of every
factor, the first axis is one matrix product, and each further axis and
. a product along the point axis. The value and the last gradient
component share the contraction of the other axes. Both modes run in
strips (of first-axis rows, or of points) whose temporaries hold at most
_STRIP entries each, and they sum the same terms in other orders, so they
agree to about eps ||alpha_i||_1. u = x - a_li stays formed per entry, so
a PDE column is exactly -lambda at its own center.

Assembly. With u = z_a - z_b, T = u . f(z_b) / sigma^2, R = u . f(z_a) / sigma^2,

    A[a, b] = K(z_a, z_b) (f(z_a) . f(z_b) / sigma^2 - (T - lambda)(R + lambda)),

K gathered from the 1-D Gram factors k(a_li, a_lj): sum_l n_l^2
exponentials, not n^2. The upper triangle, diagonal included, is A's only
copy: each strip of PDE rows forms its columns from its own first row
onward, the origin columns are the table's rows n .. n + d at x = z_a and
the origin block the origin functionals at x = 0. Nothing is written below
the diagonal, or read there before the factor writes L (assemble_system
mirrors it for callers that want full matrices). Only lambda and w differ
between eigenvalues, so one problem covers the whole spectrum, solved one
eigenvalue at a time, each Gram matrix assembled and factored in a
C-contiguous prefix of one buffer sized for the largest.

Mirror symmetry. Let S be a diagonal sign matrix with f(S x) = S f(x) and
S z_a = z_Sa another center for every center. The Gaussian is invariant
under S, L_a composed with u -> u(S .) is L_Sa, the value functional is even
and the derivative functional l has the sign S_ll, so A[Sa, Sb] = A[a, b].
In the orthonormal basis (e_a + p e_Sa) / sqrt 2, p = +-1, together with
the origin functionals of sign p, A is therefore block diagonal with one
block per parity (Fassler & Stiefel, Group Theoretical Methods and Their
Applications, 1992). A right-hand side with b_Sa = p b_a lies in block p,
so only that block is assembled, straight from one representative a of
each pair: A[a, b] + p A[a, Sb] between PDE rows and sqrt 2 A[a, o] against
an origin functional o. It has about n / 2 + 2 unknowns, needs half the
kernel entries of the full upper triangle in a quarter of the memory, and
keeps the ridge eta on its diagonal; its solution y expands back to all m
functionals as alpha_a = y_a / sqrt 2, alpha_Sa = p alpha_a. S is found,
not configured: the first of the 2^d - 1 non-identity sign matrices whose
flipped axes are mirrored lattices (a_l == -a_l[::-1], index i pairs with
n_l - 1 - i) that fix no center, with F(S Z) = S F(Z) to 4 ulps of max|F|
and every nonzero b even or odd to 1e-13 of max|b|. Without one, the one
block of every system is the full system. uniform_centers builds each axis
of a box symmetric about 0 mirrored bit for bit; an odd grid puts centers
on a mirror line and moves the one at the origin off it, so it is solved
whole.

For distinct functionals the Gram matrix is positive definite (Giesl &
Wendland, SIAM J. Numer. Anal. 45, 2007) and a ridge eta is added to its
diagonal, so it is solved by Cholesky, factored in place: L overwrites the
lower triangle of A, diagonal included, one _PANEL-column panel at a time
(the panel's columns read as transposed rows of the upper triangle, one
product with the columns already factored, numpy's factor of the diagonal
block, a dense solve of the rows below it), while the strict upper triangle
and a saved copy of the diagonal keep A. Forward and back
substitution run in _CHUNK-row blocks of L, each diagonal block solved
densely (numpy has no triangular solve, and a dense solve with all of L
would cost O(m^3) again). A zero right-hand side (w . G vanishing at every
center, as for a linear eigenfunction) has the exact solution alpha = 0,
so its system is never formed; its ridge comes from the diagonal in closed
form. f is evaluated at the centers once per problem; it and every
right-hand side are checked for non-finite entries before any system is
assembled, and each Gram matrix before it is factored. A system that is not
numerically positive definite, or whose solution fails the residual check,
raises SingularSystemError: its ridge is too small. Assembly and both
checks touch the upper triangle only, and form their temporaries one strip
of rows of at most _STRIP entries at a time, so beside the buffer a solve
holds only such strips and the factor's m x _PANEL panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .box import Box, grid_axes, grid_contract
from .dynamics import Linearization
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

_CHUNK = 128  # substitution rows of L per block
_PANEL = 64
_STRIP = 2**15  # entries of one row strip of a temporary beside a Gram matrix (256 KB)
_NON_FINITE = "non-finite entries; is the field finite at every collocation center?"


class CollocationError(ValueError):
    pass


class SingularSystemError(np.linalg.LinAlgError):
    """A Gram system that is not numerically positive definite at its ridge:
    Cholesky fails, or its solution fails the residual check."""


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
        if self.eta is not None and not 0 <= self.eta < math.inf:
            raise CollocationError(f"eta must be finite and nonnegative, got {self.eta}")

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

    @cached_property
    def center_field(self) -> np.ndarray:
        """f at the centers, shape (n, d)."""
        return self.fld.evaluate_at(self.centers)


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

    An axis whose box is symmetric about 0 is built as (a - a[::-1]) / 2, so
    its coordinates are mirror images bit for bit. A grid point landing on
    the origin is moved by half a cell diagonal so the origin itself is
    never a center.
    """
    if n_per_axis < 2:
        raise CollocationError("n_per_axis must be at least 2")
    axes = [
        (a - a[::-1]) / 2.0 if lo == -hi else a
        for a, lo, hi in zip(domain.axes(n_per_axis), domain.lower, domain.upper)
    ]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
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
    # chunks of at most _STRIP (line, probe) pairs keep the temporaries small
    worst, rows = 0.0, max(1, _STRIP // len(keys))
    for s in range(0, len(probes), rows):
        p = probes[s : s + rows]
        d2 = sum((p[:, j] - keys[:, j, None]) ** 2 for j in range(keys.shape[1]))
        worst = max(worst, float(np.max(np.min(d2 + dz2[:, at[s : s + rows]], axis=0))))
    return float(np.sqrt(worst))


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
        G = (problem.center_field.T - problem.lin.E @ Z.T).T
        for bi, w in zip(b, problem.lin.left_eigenvectors):
            bi[:n] = -(G @ w)
    return b


def _ridges(problem: CollocationProblem) -> np.ndarray:
    """The ridge of every eigenvalue's system, shape (k,). eta None means
    1e-10 trace(A) / m, with the diagonal of A in closed form (u = 0 on it):
    |f(z_a)|^2 / sigma^2 + lambda^2 on the PDE rows, 1 on the value row and
    1 / sigma^2 on the derivative rows, each rounded as assembly rounds it."""
    lams = problem.lin.eigenvalues
    if problem.eta is not None:
        return np.full(len(lams), float(problem.eta))
    d = problem.fld.dim
    s2 = problem.kernel.sigma**2
    F = problem.center_field
    ff = sum(F[:, l] * F[:, l] for l in range(d)) / s2
    origin = np.r_[1.0, np.full(d, 1.0 / s2)]
    return np.array(
        [1e-10 * float(np.sum(np.r_[ff + lam * lam, origin])) / problem.size for lam in lams]
    )


@dataclass(frozen=True)
class _Block:
    """The functionals one Gram block is solved over. Row a < r of the block
    is the PDE functional centers[a], or with mirrors the combination
    (L_centers[a] + parity L_mirrors[a]) / sqrt 2; row r + j is origin
    functional origin[j] (0 the value, 1 + l the derivative l). The full
    system is the block of every center, no mirrors and every origin
    functional."""

    centers: np.ndarray
    mirrors: np.ndarray | None
    parity: int
    origin: np.ndarray

    @classmethod
    def full(cls, n: int, d: int) -> _Block:
        return cls(np.arange(n), None, 1, np.arange(d + 1))

    @property
    def scale(self) -> float:
        """sqrt 2 when the rows pair mirrors, else 1: a PDE row's inner
        product with a vector of this parity, over its entry at centers[a]."""
        return 1.0 if self.mirrors is None else math.sqrt(2.0)

    @property
    def size(self) -> int:
        return len(self.centers) + len(self.origin)

    def rhs(self, b: np.ndarray) -> np.ndarray:
        """The block's right-hand side of b (m,); 0 on the origin rows."""
        c = np.zeros(self.size)
        c[: len(self.centers)] = b[self.centers] * self.scale
        return c

    def expand(self, y: np.ndarray, n: int, m: int) -> np.ndarray:
        """alpha (m,) over all m functionals of the block's solution y."""
        r = len(self.centers)
        alpha = np.zeros(m)
        alpha[self.centers] = y[:r] / self.scale
        if self.mirrors is not None:
            alpha[self.mirrors] = self.parity * alpha[self.centers]
        alpha[n + self.origin] = y[r:]
        return alpha


def _mirror_split(problem: CollocationProblem, b: np.ndarray):
    """(signs, blocks): the diagonal of the first non-identity sign matrix S
    under which the problem is symmetric, and per eigenvalue the block its
    right-hand side lies in (None for a zero one). Symmetric means: the
    mirror S z of every center is another center, F(S Z) = S F(Z) to 4 ulps
    of max|F|, and each nonzero b is even or odd to 1e-13 of max|b|. With
    no such S, signs is None and every block is the full system."""
    Z, F = problem.centers, problem.center_field
    n, d = Z.shape
    zero = ~np.any(b, axis=1)
    trivial = None, [None if z else _Block.full(n, d) for z in zero]
    if not n:
        return trivial
    axes, index = problem.lattice
    mirrored = np.array([np.array_equal(a, -a[::-1]) for a in axes])
    if not mirrored.any():
        return trivial
    dims = np.array([len(a) for a in axes])
    keys = np.ravel_multi_index(index.T, dims)
    order = np.argsort(keys)
    tol_f = 4 * np.finfo(float).eps * np.max(np.abs(F))
    bn, tol_b = b[:, :n], 1e-13 * np.max(np.abs(b), axis=1)
    for code in range(1, 2**d):
        flip = (code >> np.arange(d)) & 1 == 1
        if not np.all(mirrored[flip]):
            continue
        signs = np.where(flip, -1, 1)
        mirror_keys = np.ravel_multi_index(np.where(flip, dims - 1 - index, index).T, dims)
        at = np.minimum(np.searchsorted(keys, mirror_keys, sorter=order), n - 1)
        pair = order[at]
        if np.any(keys[pair] != mirror_keys) or np.any(pair == np.arange(n)):
            continue
        if np.max(np.abs(F[pair] - F * signs)) > tol_f:
            continue
        even = np.max(np.abs(bn[:, pair] - bn), axis=1) <= tol_b
        odd = np.max(np.abs(bn[:, pair] + bn), axis=1) <= tol_b
        if not np.all(zero | even | odd):
            continue
        rep = np.flatnonzero(np.arange(n) < pair)
        origin_signs = np.r_[1, signs]
        blocks = [
            None if z else _Block(rep, pair[rep], p, np.flatnonzero(origin_signs == p))
            for z, p in zip(zero, [1 if e else -1 for e in even])
        ]
        return tuple(int(v) for v in signs), blocks
    return trivial


def _pde_entries(
    out: np.ndarray, problem: CollocationProblem, gram_1d, lam: float, a: np.ndarray, b: np.ndarray
) -> None:
    """out[i, j] = A[a_i, b_j], the Gram entries of the PDE functionals at
    centers a (rows) and b (columns), for the eigenvalue lam. With a split
    block's mirror term added, A[a, b] and A[b, a] may differ in rounding."""
    Z, F = problem.centers, problem.center_field
    _, index = problem.lattice
    d = Z.shape[1]
    s2 = problem.kernel.sigma**2
    Za, Fa, Zb, Fb = Z[a], F[a], Z[b], F[b]
    # out = f(z_a) . f(z_b) / sigma^2 - (T - lambda)(R + lambda) with
    # u = z_a - z_b per axis, T = u . f(z_b) / sigma^2, R = u . f(z_a) / sigma^2.
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
    # T is spent; its buffer takes K, the product of the 1-D Gram factors
    # gathered per axis.
    T.fill(1.0)
    for G1, i in zip(gram_1d, index.T):
        T *= G1[np.ix_(i[a], i[b])]
    out *= T


def _strips(m: int, width: int):
    """(s, e) of the strips of rows 0..m holding at most _STRIP entries of
    width per row, one row at least."""
    rows = max(1, _STRIP // max(width, 1))
    return [(s, min(s + rows, m)) for s in range(0, m, rows)]


def _gram(
    problem: CollocationProblem, lam: float, eta: float, block: _Block,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Gram matrix of the eigenvalue lam over the block's functionals, shape
    (size, size), with the ridge eta on its diagonal, written into out when
    given. Only the upper triangle, diagonal included, is written, one strip
    of PDE rows at a time, each entry computed once from its own row; nothing
    below the diagonal is written. The full block gives the m x m system."""
    n, d = problem.centers.shape
    s2 = problem.kernel.sigma**2
    gram_1d = [np.exp(np.subtract.outer(a, a) ** 2 / (-2.0 * s2)) for a in problem.lattice[0]]
    rep, mirrors = block.centers, block.mirrors
    r, k = len(rep), block.size

    A = np.empty((k, k)) if out is None else out
    for s, e in _strips(r, r):
        rows = slice(s, e)
        strip = np.empty((e - s, r - s))
        _pde_entries(strip, problem, gram_1d, lam, rep[rows], rep[s:])
        if mirrors is not None:
            partner = np.empty_like(strip)
            _pde_entries(partner, problem, gram_1d, lam, rep[rows], mirrors[s:])
            partner *= block.parity
            strip += partner
        np.copyto(A[rows, s:r], strip, where=~np.tri(e - s, r - s, -1, dtype=bool))
        values, grads = _origin_columns(problem.centers[rep[rows]], s2)
        cols = np.einsum("cqd,cd->cq", grads, problem.center_field[rep[rows]]) - lam * values
        A[rows, r:] = cols[:, block.origin] * block.scale

    # the origin functionals at x = 0: row 0 the values, row 1 + l the
    # x_l-gradients of the origin columns
    values, grads = _origin_columns(np.zeros((1, d)), s2)
    O = np.vstack([values, grads[0].T])[np.ix_(block.origin, block.origin)]
    np.copyto(A[r:, r:], O, where=~np.tri(len(O), k=-1, dtype=bool))
    if eta:
        A[np.diag_indices(k)] += eta
    return A


def assemble_system(problem: CollocationProblem):
    """Gram matrices, right-hand sides and ridges of every eigenvalue's
    system: A (k, m, m), the stacked _gram of each eigenvalue with its upper
    triangle mirrored below the diagonal, each A[i] with its ridge eta[i] on
    the diagonal; b (k, m); eta (k,). solve never holds it."""
    eta, full = _ridges(problem), _Block.full(*problem.centers.shape)
    A = np.stack([_gram(problem, lam, e, full) for lam, e in zip(problem.lin.eigenvalues, eta)])
    A = np.where(np.tri(problem.size, k=-1, dtype=bool), A.swapaxes(1, 2), A)
    return A, _rhs(problem), eta


@dataclass
class CollocationSolution:
    """Solved coefficients plus everything needed to evaluate h and grad h.
    Row or entry i of each field belongs to problem.lin.eigenvalues[i]."""

    problem: CollocationProblem
    alpha: np.ndarray  # (k, m)
    eta_used: np.ndarray  # (k,)
    method: tuple  # (k,) of "cholesky" | "zero"
    # the diagonal of the mirror S the systems were split by, None unsplit
    symmetry: tuple | None = None
    parity: tuple | None = None  # (k,) of 1 | -1 | None (zero or unsplit)
    unknowns: tuple | None = None  # (k,) the size of each solved system, 0 for "zero"

    # -- evaluation ----------------------------------------------------------

    @cached_property
    def _coefficients(self) -> np.ndarray:
        """C_0 .. C_d, shape (d + 1, n_1 + 1, k (n_2 + 1) .. (n_d + 1)):
        lattice row i_1, then (eigenvalue, i_2, .., i_d) flattened. Every
        axis ends with the coordinate 0, which holds the origin columns: with
        g(x_l, 0) = x_l k(x_l, 0), alpha_n in C_0 and alpha_{n+1+l} / sigma^2
        in C_l."""
        prob = self.problem
        n, d = prob.centers.shape
        s2 = prob.kernel.sigma**2
        a = self.alpha[:, :n]
        beta = [-prob.lin.eigenvalues[:, None] * a]
        beta += [a * f / s2 for f in prob.center_field.T]
        C = np.zeros((d + 1, len(a), *(len(ax) + 1 for ax in prob.lattice[0])))
        C[(slice(None), slice(None), *prob.lattice[1].T)] = beta
        C[(..., *[-1] * d)] = np.vstack([self.alpha[:, n], self.alpha[:, n + 1 :].T / s2])
        return np.moveaxis(C, 2, 1).reshape(d + 1, C.shape[2], len(a) * math.prod(C.shape[3:]))

    def _factors(self, coords, gradients: bool, first: int = 0):
        """Per axis l >= first the factors K_l[p, i] = k(x_p, a_li) and G_l =
        (x_p - a_li) K_l of x = coords[l - first] against the lattice
        coordinates a_l and 0, shape (len(x), n_l + 1), and with gradients
        their x-derivatives dK_l and dG_l: (K_l, G_l[, dK_l, dG_l]) per axis."""
        s2 = self.problem.kernel.sigma**2
        factors = []
        for x, a in zip(coords, self.problem.lattice[0][first:]):
            u = x[:, None] - np.append(a, 0.0)
            K = np.exp(u * u / (-2.0 * s2))
            G = u * K
            factors.append((K, G, G / -s2, K - u * G / s2) if gradients else (K, G))
        return factors

    def _evaluate(self, X: np.ndarray, gradients: bool):
        """h, and grad h with gradients (else None), at the points X: on a
        grid or row-wise (module docstring, Evaluation), one strip at a time."""
        prob = self.problem
        d = prob.fld.dim
        X = np.asarray(X, dtype=float)
        if X.ndim == 0 or X.shape[-1] != d:
            raise CollocationError(
                f"evaluation points need d = {d} coordinates; got shape {X.shape}"
            )
        X = X.reshape(-1, d)
        c, k = len(X), self.alpha.shape[0]
        h = np.empty((c, k))
        grad = np.empty((c, k, d)) if gradients else None
        axes = grid_axes(X) if c > 1 else None
        rowwise = axes is None
        # the first axis' factors are formed per strip, a grid's others once
        grid = [] if rowwise else self._factors(axes[1:], gradients, first=1)
        # per strip row, a grid's first-axis row or a point: its points, and the entries
        # of its widest factor or of its largest partial contraction, doubled on the last axis
        p = [c] + [1] * (d - 1) if rowwise else [len(x) for x in axes]
        n = [len(a) + 1 for a in prob.lattice[0]]
        inner = math.prod(p[1:])
        sizes = [math.prod(p[1:l]) * math.prod(n[l:]) for l in range(1, d + 1)]
        for s, e in _strips(p[0], max(2 * k * max(sizes), *n)):
            pts = slice(s * inner, e * inner)
            factors = self._factors(X[pts].T if rowwise else [axes[0][s:e]], gradients) + grid
            kg = [f[:2] for f in factors]
            more = [(factors[-1][2:], grad[pts, :, -1])] if gradients else []
            grid_contract(self._coefficients, kg, h[pts], more, rowwise)
            for j in range(d - 1) if gradients else ():
                pairs = kg[:j] + [factors[j][2:]] + kg[j + 1 :]
                grid_contract(self._coefficients, pairs, grad[pts, :, j], rowwise=rowwise)
        return h, grad

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """h_i(x_p) at [p, i] for a batch of points, shape (c, d) -> (c, k),
        or one point of shape (d,); no gradients formed. Points whose last
        axis is not d raise CollocationError."""
        return self._evaluate(X, gradients=False)[0]

    def evaluate_with_gradient(self, X: np.ndarray):
        """h and grad h at a batch of points, shape (c, d) -> ((c, k),
        (c, k, d)), from one set of 1-D kernel factors per strip."""
        return self._evaluate(X, gradients=True)


def _cholesky_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b for the symmetric A held in the upper triangle of A,
    factored in place: its Cholesky factor L overwrites the lower triangle,
    diagonal included, and the strict upper triangle keeps A. Left-looking,
    one _PANEL-column panel at a time: the panel is read as transposed rows
    of the upper triangle, one product with the columns already factored
    updates it, its diagonal block is factored densely and the rows below
    are solved against that block. A panel that is not numerically positive
    definite raises LinAlgError. Forward, then back substitution run in
    _CHUNK-row blocks, each diagonal block solved densely."""
    m = len(b)
    for s in range(0, m, _PANEL):
        e = min(s + _PANEL, m)
        P = A[s:, :s] @ A[s:e, :s].T
        np.subtract(np.triu(A[s:e, s:e]).T, P[: e - s], out=P[: e - s])
        np.subtract(A[s:e, e:].T, P[e - s :], out=P[e - s :])
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


def _solve_system(A: np.ndarray, b: np.ndarray, lam: float, eta: float) -> np.ndarray:
    """alpha with A alpha = b, by Cholesky, for the symmetric A held in the
    upper triangle of A. The factor takes the lower triangle, and the
    residual check reads the strict upper one back beside the saved diagonal.
    A system that does not factor, or whose solution is not finite or leaves
    a residual above 1e-8 of the system's scale ||A|| |alpha| + |b| (max
    norms), raises SingularSystemError naming lam and eta. That bounds the
    normwise backward error and guards the hand-written factor; it cannot
    see a forward error in alpha on these ill-conditioned systems (alpha * 2
    passes on the bundled ones). The PDE residual is the accuracy measure."""
    m = len(b)
    if not all(np.isfinite(np.triu(A[s:e, s:])).all() for s, e in _strips(m, m)):
        raise CollocationError(f"the Gram system of lambda = {lam:.6g} has {_NON_FINITE}")
    diag = A.diagonal().copy()
    where = f"the Gram system of lambda = {lam:.6g} with eta = {eta:.6g}"
    advice = "raise eta or omit it for the automatic ridge"
    try:
        alpha = _cholesky_solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{where} is not numerically positive definite; {advice}") from exc
    # A alpha and the row sums of |A|; each strip's entries act as rows and
    # as columns. A non-finite alpha is reported below, not as numpy warnings
    Ax, norm = diag * alpha, np.abs(diag)
    with np.errstate(over="ignore", invalid="ignore"):
        for s, e in _strips(m, m):
            U = np.triu(A[s:e, s:], 1)
            Ax[s:e] += U @ alpha[s:]
            Ax[s:] += U.T @ alpha[s:e]
            np.abs(U, out=U)
            norm[s:e] += U.sum(axis=1)
            norm[s:] += U.sum(axis=0)
        resid = np.max(np.abs(Ax - b))
    scale = float(norm.max() * np.max(np.abs(alpha)) + np.max(np.abs(b)))
    if not np.all(np.isfinite(alpha)) or resid > 1e-8 * max(scale, 1e-300):
        raise SingularSystemError(f"{where} leaves a Cholesky residual of {resid:.3g}; {advice}")
    return alpha


def solve(problem: CollocationProblem) -> CollocationSolution:
    """Assemble and solve the Gram system of every eigenvalue, one at a time.

    A non-finite f at the centers or right-hand side raises CollocationError
    before any system is assembled. A zero right-hand side has the exact
    solution alpha = 0, so its system is neither assembled nor factored and
    method records "zero". Each other system is reduced to the block of its
    right-hand side's parity under the problem's mirror symmetry (the full
    system without one), and that block is assembled into one buffer sized
    for the largest, checked for non-finite entries and solved by Cholesky
    there before the next is assembled; method records "cholesky". One that
    is not numerically positive definite, or whose solution is not finite or
    leaves a residual above 1e-8 of the system's scale, raises
    SingularSystemError.
    """
    # overflow and inf - inf are reported below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        F, b, eta = problem.center_field, _rhs(problem), _ridges(problem)
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(b))):
        raise CollocationError(f"the collocation systems have {_NON_FINITE}")
    signs, blocks = _mirror_split(problem, b)
    lams, n, m = problem.lin.eigenvalues, problem.n_centers, problem.size
    alphas = np.zeros(b.shape)
    buf = np.empty(max((B.size**2 for B in blocks if B is not None), default=0))
    for i, block in enumerate(blocks):
        if block is not None:
            k = block.size
            A = _gram(problem, lams[i], eta[i], block, buf[: k * k].reshape(k, k))
            y = _solve_system(A, block.rhs(b[i]), lams[i], eta[i])
            alphas[i] = block.expand(y, n, m)
            del A  # no view of buf outlives its system
    return CollocationSolution(
        problem=problem,
        alpha=alphas,
        eta_used=eta,
        method=tuple("zero" if B is None else "cholesky" for B in blocks),
        symmetry=signs,
        parity=tuple(None if B is None or signs is None else B.parity for B in blocks),
        unknowns=tuple(0 if B is None else B.size for B in blocks),
    )
