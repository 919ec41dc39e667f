"""Closed-form stand-ins for the nonlinear part h of an eigenfunction.

Both implement the two-method protocol Eigenfunction expects of h:
evaluate_many(X) returns h at a batch of points, shape (c,), and
evaluate_with_gradient(X) returns (h, grad h), shapes (c,) and (c, d).
"""

import numpy as np


class ZeroH:
    """h = 0 in any dimension."""

    def evaluate_many(self, X):
        return np.zeros(np.asarray(X).shape[0])

    def evaluate_with_gradient(self, X):
        X = np.asarray(X, dtype=float)
        return np.zeros(X.shape[0]), np.zeros_like(X)


class Quadratic:
    """h(x) = 3 x1^2, the exact correction for the fast mode of the
    benchmark cubic system."""

    def evaluate_many(self, X):
        return 3.0 * np.asarray(X, dtype=float)[:, 0] ** 2

    def evaluate_with_gradient(self, X):
        X = np.asarray(X, dtype=float)
        grad = np.zeros_like(X)
        grad[:, 0] = 6.0 * X[:, 0]
        return self.evaluate_many(X), grad
