"""Closed-form stand-ins for the set-level nonlinear part h of an
eigenfunction set, and the set of a closed-form system built on one.

Both implement the two-method protocol EigenfunctionSet expects of h:
evaluate_many(X) returns h_i(x_p) at [p, i], shape (c, k), and
evaluate_with_gradient(X) returns that and grad h_i(x_p) at [p, i],
shape (c, k, d). Here k = d, as for every set.
"""

import numpy as np

from koopman_lyap.dynamics import linearize
from koopman_lyap.expr import parse_vector_field
from koopman_lyap.koopman import EigenfunctionSet

# The benchmark cubic system, eigenvalues -2 and -3 with w_i the axes.
CUBIC = ("-2*x1", "-3*(x2 - x1^2)")


def eigenfunction_set(components, h):
    """The set of h over the linearization of the system components."""
    return EigenfunctionSet(linearize(parse_vector_field(components)), h)


class ZeroH:
    """h_i = 0 for every eigenvalue, in any dimension."""

    def evaluate_many(self, X):
        return np.zeros_like(np.asarray(X, dtype=float))

    def evaluate_with_gradient(self, X):
        X = np.asarray(X, dtype=float)
        return np.zeros_like(X), np.zeros(X.shape + X.shape[1:])


class CubicExact:
    """h_1 = 0 and h_2 = 3 x1^2, the exact corrections for the eigenvalues
    -2 and -3 of the benchmark cubic system."""

    def evaluate_many(self, X):
        X = np.asarray(X, dtype=float)
        h = np.zeros_like(X)
        h[:, 1] = 3.0 * X[:, 0] ** 2
        return h

    def evaluate_with_gradient(self, X):
        X = np.asarray(X, dtype=float)
        grad = np.zeros((X.shape[0], 2, 2))
        grad[:, 1, 0] = 6.0 * X[:, 0]
        return self.evaluate_many(X), grad
