"""Gaussian kernel and its closed-form derivative stack.

k(x, y) = exp(-||x - y||^2 / (2 sigma^2))

With u = x - y:

    grad_y k         =  (u / sigma^2) k
    grad_x k         = -(u / sigma^2) k
    d2k / dx dy^T    =  (I / sigma^2 - u u^T / sigma^4) k

The cross Hessian is what second-order functional evaluations of the kernel
need; for the Gaussian it is symmetric in its two slots. These scalar methods
are the reference for the formulas; the block of all collocation basis
functions over a chunk of points is built in one place, by
collocation._basis_block. All methods are pure, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GaussianKernel", "make_kernel"]


@dataclass(frozen=True)
class GaussianKernel:
    sigma: float
    dim: int

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")

    # -- scalar interface ---------------------------------------------------

    def value(self, x, y) -> float:
        x, y = self._pair(x, y)
        u = x - y
        return float(np.exp(-(u @ u) / (2.0 * self.sigma**2)))

    def grad_y(self, x, y) -> np.ndarray:
        x, y = self._pair(x, y)
        u = x - y
        return (u / self.sigma**2) * self.value(x, y)

    def grad_x(self, x, y) -> np.ndarray:
        return -self.grad_y(x, y)

    def cross_hessian(self, x, y) -> np.ndarray:
        """Matrix of d^2 k / dx_i dy_j, shape (d, d)."""
        x, y = self._pair(x, y)
        u = x - y
        s2 = self.sigma**2
        return (np.eye(self.dim) / s2 - np.outer(u, u) / s2**2) * self.value(x, y)

    # -- validation helpers ---------------------------------------------------

    def _pair(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError(f"points must have shape ({self.dim},)")
        return x, y


def make_kernel(family: str, sigma: float, dim: int) -> GaussianKernel:
    """Kernel factory; the only supported family is 'gaussian'."""
    if family.lower() != "gaussian":
        raise ValueError(f"unknown kernel family {family!r}")
    return GaussianKernel(sigma=float(sigma), dim=int(dim))
