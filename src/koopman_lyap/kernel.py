"""Gaussian kernel k(x, y) = exp(-||x - y||^2 / (2 sigma^2)).

The collocation module evaluates and assembles from the kernel's 1-D
factors, k(x, y) = prod_l exp(-(x_l - y_l)^2 / (2 sigma^2)); the dimension
comes from the vector field. The kernel itself only carries the bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["GaussianKernel"]


@dataclass(frozen=True)
class GaussianKernel:
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")
