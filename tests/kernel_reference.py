"""Scalar references for the collocation engine: the Gaussian kernel
k(x, y) = exp(-||x - y||^2 / (2 sigma^2)) and its derivatives as plain
functions of sigma, the basis and Gram entries built from them one by one,
and a probe that reads one basis function off the engine.

With u = x - y:

    grad_y k         =  (u / sigma^2) k
    grad_x k         = -(u / sigma^2) k
    d2k / dx dy^T    =  (I / sigma^2 - u u^T / sigma^4) k

Basis column j of a problem is (L_j^y k)(x, .): the PDE functional at
center j for j < n, then the value and the partial derivatives at the
origin (the layout in the collocation module docstring).
"""

import numpy as np

from koopman_lyap.collocation import CollocationSolution


def value(sigma, x, y):
    u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return float(np.exp(-(u @ u) / (2.0 * sigma**2)))


def grad_y(sigma, x, y):
    u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return (u / sigma**2) * value(sigma, x, y)


def grad_x(sigma, x, y):
    return -grad_y(sigma, x, y)


def cross_hessian(sigma, x, y):
    """Matrix of d^2 k / dx_i dy_j, shape (d, d)."""
    u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    s2 = sigma**2
    return (np.eye(u.size) / s2 - np.outer(u, u) / s2**2) * value(sigma, x, y)


def basis_solution(prob, j):
    """A solution whose h_i is basis column j of eigenvalue i, for every i."""
    k = len(prob.lin.eigenvalues)
    alpha = np.zeros((k, prob.size))
    alpha[:, j] = 1.0
    return CollocationSolution(
        problem=prob, alpha=alpha, eta_used=np.zeros(k), method=("cholesky",) * k,
    )


def scalar_basis(prob, lam, x):
    """Values (m,) and x-gradients (m, d) of every basis column at x."""
    s = prob.kernel.sigma
    Z, F = prob.centers, prob.fld.evaluate_at(prob.centers)
    n, d = Z.shape
    o = np.zeros(d)
    values = np.empty(prob.size)
    grads = np.empty((prob.size, d))
    for j, (z, f) in enumerate(zip(Z, F)):
        values[j] = grad_y(s, x, z) @ f - lam * value(s, x, z)
        grads[j] = cross_hessian(s, x, z) @ f - lam * grad_x(s, x, z)
    values[n] = value(s, x, o)
    grads[n] = grad_x(s, x, o)
    values[n + 1 :] = grad_y(s, x, o)
    grads[n + 1 :] = cross_hessian(s, x, o).T
    return values, grads


def scalar_gram(prob, lam):
    """A[a, b] = L_a^x L_b^y k entry by entry from the scalar kernel functions."""
    s = prob.kernel.sigma
    Z, F = prob.centers, prob.fld.evaluate_at(prob.centers)
    n, d = Z.shape
    o = np.zeros(d)
    ref = np.empty((prob.size, prob.size))
    for a in range(n):
        za, fa = Z[a], F[a]
        for b in range(n):
            zb, fb = Z[b], F[b]
            ref[a, b] = (
                fa @ cross_hessian(s, za, zb) @ fb
                - lam * grad_x(s, za, zb) @ fa
                - lam * grad_y(s, za, zb) @ fb
                + lam**2 * value(s, za, zb)
            )
        ref[a, n] = grad_x(s, za, o) @ fa - lam * value(s, za, o)
        ref[a, n + 1 :] = fa @ cross_hessian(s, za, o) - lam * grad_y(s, za, o)
        ref[n, a] = grad_y(s, o, za) @ fa - lam * value(s, o, za)
        ref[n + 1 :, a] = cross_hessian(s, o, za) @ fa - lam * grad_x(s, o, za)
    ref[n, n] = value(s, o, o)
    ref[n, n + 1 :] = ref[n + 1 :, n] = grad_y(s, o, o)
    ref[n + 1 :, n + 1 :] = cross_hessian(s, o, o)
    return ref
