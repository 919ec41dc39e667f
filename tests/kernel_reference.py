"""Scalar references for the collocation engine, entry by entry from the
GaussianKernel methods, and a probe that reads one basis function off the
engine.

Basis column j of a problem is (L_j^y k)(x, .): the PDE functional at
center j for j < n, then the value and the partial derivatives at the
origin (the layout in the collocation module docstring).
"""

import numpy as np

from koopman_lyap.collocation import CollocationSolution


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
    k = prob.kernel
    Z, F = prob.centers, prob.fld.evaluate_at(prob.centers)
    n, d = Z.shape
    o = np.zeros(d)
    values = np.empty(prob.size)
    grads = np.empty((prob.size, d))
    for j, (z, f) in enumerate(zip(Z, F)):
        values[j] = k.grad_y(x, z) @ f - lam * k.value(x, z)
        grads[j] = k.cross_hessian(x, z) @ f - lam * k.grad_x(x, z)
    values[n] = k.value(x, o)
    grads[n] = k.grad_x(x, o)
    values[n + 1 :] = k.grad_y(x, o)
    grads[n + 1 :] = k.cross_hessian(x, o).T
    return values, grads


def scalar_gram(prob, lam):
    """A[a, b] = L_a^x L_b^y k entry by entry from the scalar kernel methods."""
    k = prob.kernel
    Z, F = prob.centers, prob.fld.evaluate_at(prob.centers)
    n = prob.n_centers
    o = np.zeros(2)
    ref = np.empty((prob.size, prob.size))
    for a in range(n):
        za, fa = Z[a], F[a]
        for b in range(n):
            zb, fb = Z[b], F[b]
            ref[a, b] = (
                fa @ k.cross_hessian(za, zb) @ fb
                - lam * k.grad_x(za, zb) @ fa
                - lam * k.grad_y(za, zb) @ fb
                + lam**2 * k.value(za, zb)
            )
        ref[a, n] = k.grad_x(za, o) @ fa - lam * k.value(za, o)
        ref[a, n + 1 :] = fa @ k.cross_hessian(za, o) - lam * k.grad_y(za, o)
        ref[n, a] = k.grad_y(o, za) @ fa - lam * k.value(o, za)
        ref[n + 1 :, a] = k.cross_hessian(o, za) @ fa - lam * k.grad_x(o, za)
    ref[n, n] = k.value(o, o)
    ref[n, n + 1 :] = ref[n + 1 :, n] = k.grad_y(o, o)
    ref[n + 1 :, n + 1 :] = k.cross_hessian(o, o)
    return ref
