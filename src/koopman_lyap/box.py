"""Axis-aligned boxes used as computational domains."""

from __future__ import annotations

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
