"""Axis-aligned boxes used as computational domains, and tensor grids of
points over them.

A grid is the tensor product of coordinate vectors x_1 .. x_d (p_l points
on axis l) listed first axis slowest, the layout of Box.grid; grid_axes
reads the vectors back from the points. A sum of functions that factorize
over the axes, such as Gaussian kernel columns on a lattice of centers, is
a contraction of one factor per axis with the lattice of coefficients:
grid_contract forms it, as matrix products on a grid and row by row at
points that are none, and collocation evaluates h and grad h this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Closed box [lower_1, upper_1] x ... x [lower_d, upper_d].

    Immutable; safe to share between threads.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("box bounds must be 1-D arrays of equal length")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ValueError("box bounds must be finite")
        if not np.all(hi > lo):
            raise ValueError("box must satisfy upper > lower on every axis")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, points, atol: float = 1e-12):
        """True where points lie inside the box (within atol).

        Accepts a single point of shape (d,) or a batch of shape (m, d).
        """
        p = np.asarray(points, dtype=float)
        inside = np.all(
            (p >= self.lower - atol) & (p <= self.upper + atol), axis=-1
        )
        return bool(inside) if p.ndim == 1 else inside

    def axes(self, n: int) -> list[np.ndarray]:
        """n uniform nodes per axis (n >= 2), both endpoints included."""
        if n < 2:
            raise ValueError("grid resolution must be at least 2 per axis")
        return [np.linspace(lo, hi, n) for lo, hi in zip(self.lower, self.upper)]

    def grid(self, n: int) -> np.ndarray:
        """Uniform grid of n nodes per axis as an (n^d, d) array, first axis
        varying slowest."""
        mesh = np.meshgrid(*self.axes(n), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def origin_node(self, n: int) -> int | None:
        """Row of grid(n) at the origin (within 1e-9 of the widest width), None
        if the origin lies outside the box; a ValueError if no node is there."""
        if not self.contains(np.zeros(self.dim)):
            return None
        hits = [np.flatnonzero(np.abs(a) <= 1e-9 * np.max(self.widths)) for a in self.axes(n)]
        if not all(h.size for h in hits):
            raise ValueError("origin lies in the domain but is not a grid vertex; "
                             "use an even cell count on a symmetric box")
        return int(np.ravel_multi_index([h[0] for h in hits], (n,) * self.dim))


def grid_axes(X: np.ndarray):
    """The coordinate vectors x_1 .. x_d of which the points X (c, d) are the
    tensor product, first axis slowest, read from X itself; None if X is no
    such grid. Exact, in O(c d): the last axis' length p is the least divisor
    of the leading run of rows sharing X[0]'s other coordinates for which the
    last column repeats every p rows and the other columns are constant on
    each block of p rows (a repeated coordinate can make the run several
    blocks long); the other axes are those of the blocks' first rows."""
    axes = []
    for l in reversed(range(1, X.shape[1])):
        prefix, last, m = X[:, :l], X[:, l], len(X)
        moved = np.flatnonzero(np.any(prefix != prefix[0], axis=1))
        run = int(moved[0]) if moved.size else m
        small = [p for p in range(1, math.isqrt(run) + 1) if run % p == 0]
        for p in small + [run // p for p in reversed(small) if p * p != run]:
            if m % p or (m > p and not np.array_equal(last[p : 2 * p], last[:p])):
                continue  # rejected by the second block alone
            if np.all(last.reshape(-1, p) == last[:p]) and np.all(
                prefix.reshape(-1, p, l) == prefix[::p, None]
            ):
                break
        else:
            return None
        axes.append(last[:p])
        X = X[::p, :l]
    return [X[:, 0], *reversed(axes)]


def grid_contract(C: np.ndarray, pairs, out: np.ndarray, more=(), rowwise: bool = False) -> None:
    """Write into out (points, k) the sum over q of the lattice coefficients
    C_q (n_1, k n_2 .. n_d), q = 0 .. d, each contracted on axis l with an
    (r_l, n_l) factor of pairs[l] = (F_l, G_l): G_l for q = l + 1, else F_l;
    the last axis as [sum_{q<d} T_q, T_d] with [F_d, G_d]. Each (pair, o) of
    more is another last-axis pair, written to o from the same contraction
    of the other axes. On a grid r_l = p_l and out is in grid order, each
    axis a matrix product; rowwise, r_l is the number of points, each with
    its own row of every factor: a matrix product on the first axis, a
    product along the point axis on the others."""
    *inner, last = pairs
    n, k = [F.shape[1] for F, _ in pairs], out.shape[1]
    T = []
    for q, R in enumerate(C):
        factors = [G if q == l + 1 else F for l, (F, G) in enumerate(inner)]
        if not factors:  # d = 1
            T.append(R.T[None, :, None])
            continue
        R = factors[0] @ R
        for l, F in enumerate(factors[1:], start=1):
            if rowwise:
                R = np.einsum("crjs,cj->crs", R.reshape(len(F), k, n[l], -1), F)
            else:
                R = F @ R.reshape(-1, n[l], math.prod(n[l + 1 :]))
        T.append(R.reshape(len(factors[0]), k, -1, n[-1]))  # (r_1, k, p_2 .. p_{d-1}, n_d)
    Y = np.concatenate([sum(T[:-1]), T[-1]], axis=-1)
    del T  # each pass below holds Y and its own product only
    for (F, G), o in [(last, out), *more]:
        if rowwise:
            o[...] = np.einsum("ckj,cj->ck", Y.reshape(len(Y), k, -1), np.hstack([F, G]))
            continue
        Z = (Y.reshape(-1, Y.shape[-1]) @ np.hstack([F, G]).T).reshape(*Y.shape[:-1], -1)
        # splitting o's first axis leaves a view, also of a strided o
        o.reshape(-1, *Z.shape[2:], k)[...] = Z.transpose(0, 2, 3, 1)
        del Z  # before the next pass forms its own
