import numpy as np
import pytest

from koopman_lyap.box import Box
from koopman_lyap.collocation import CollocationProblem, assemble_system, uniform_centers
from koopman_lyap.dynamics import linearize
from koopman_lyap.expr import parse_vector_field
from koopman_lyap.kernel import GaussianKernel

import kernel_reference as kr
from fdtools import fd_gradient, fd_jacobian, rel_err
from kernel_reference import basis_solution, scalar_basis, scalar_gram

EPS = np.finfo(float).eps


# --- the scalar reference formulas ------------------------------------------------


def test_value_at_coincident_points():
    x = np.array([0.7, -1.2])
    assert kr.value(3.0, x, x) == 1.0


def test_value_at_known_distances():
    # distance 3 with sigma 3 gives exp(-1/2)
    assert kr.value(3.0, np.array([3.0, 0.0]), np.zeros(2)) == pytest.approx(
        0.6065306597126334, abs=1e-16
    )
    assert kr.value(3.0, np.array([5.0, 5.0]), np.array([-5.0, -5.0])) == pytest.approx(
        1.4945338524781451e-05, rel=1e-14
    )


def test_value_is_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.uniform(-5, 5, size=(2, 2))
        assert kr.value(3.0, x, y) == kr.value(3.0, y, x)


def test_monotone_decay_along_ray():
    y = np.zeros(2)
    vals = [kr.value(3.0, np.array([r, 0.0]), y) for r in np.linspace(0, 10, 50)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] == 1.0


def test_grad_y_closed_form():
    g = kr.grad_y(1.0, np.array([1.0, 0.0]), np.zeros(2))
    np.testing.assert_allclose(g, [np.exp(-0.5), 0.0], rtol=1e-15)


def test_grad_vanishes_at_coincidence():
    x = np.array([2.0, -1.0])
    np.testing.assert_array_equal(kr.grad_y(3.0, x, x), [0.0, 0.0])
    np.testing.assert_array_equal(kr.grad_x(3.0, x, x), [0.0, 0.0])


def test_grad_antisymmetry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.uniform(-4, 4, size=(2, 2))
        np.testing.assert_allclose(kr.grad_y(3.0, x, y), -kr.grad_x(3.0, x, y), rtol=0, atol=0)


def test_cross_hessian_at_coincidence():
    x = np.array([1.0, 1.0])
    np.testing.assert_allclose(kr.cross_hessian(3.0, x, x), np.eye(2) / 9.0, rtol=1e-15)


def test_cross_hessian_transpose_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y = rng.uniform(-4, 4, size=(2, 2))
        np.testing.assert_allclose(
            kr.cross_hessian(3.0, x, y), kr.cross_hessian(3.0, y, x).T, rtol=0, atol=1e-18
        )


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x, y = rng.uniform(-4, 4, size=(2, 2))
        assert rel_err(fd_gradient(lambda v: kr.value(3.0, x, v), y), kr.grad_y(3.0, x, y)) <= 1e-6
        assert rel_err(fd_gradient(lambda v: kr.value(3.0, v, y), x), kr.grad_x(3.0, x, y)) <= 1e-6
        fd_h = fd_jacobian(lambda v: kr.grad_y(3.0, v, y), x)
        assert rel_err(fd_h, kr.cross_hessian(3.0, x, y)) <= 1e-6


# --- the collocation engine ------------------------------------------------------


_FIELDS = {
    1: ["-2*x1 + x1^2"],
    2: ["-2*x1", "-3*(x2 - x1^2)"],
    3: ["-2*x1 + x2*x3", "-3*x2 + x1^2", "-5*x3 + x1*x2"],
}


@pytest.mark.parametrize(
    "d, seed",
    [pytest.param(2, seed, id=str(seed)) for seed in range(6)]
    + [pytest.param(1, 0, id="d1"), pytest.param(3, 0, id="d3")],
)
def test_block_forms_match_scalar(d, seed):
    # the separable engine against the scalar reference formulas: every
    # basis column's value and gradient, and every Gram entry, on a tensor
    # grid, an odd grid (one center moved off the origin), scattered centers
    # and no centers at all, for a field in 1, 2 and 3 dimensions
    fld = parse_vector_field(_FIELDS[d])
    lin = linearize(fld)
    box = Box(np.full(d, -4.0), np.full(d, 4.0))
    rng = np.random.default_rng(seed)
    center_sets = {
        "tensor": uniform_centers(box, 4),
        "odd": uniform_centers(box, 5),
        "scattered": rng.uniform(-4, 4, size=(20, d)),
        "empty": np.zeros((0, d)),
    }
    X = rng.uniform(-4, 4, size=(6, d))
    for name, Z in center_sets.items():
        prob = CollocationProblem(kernel=GaussianKernel(sigma=3.0), fld=fld, lin=lin, centers=Z, domain=box, eta=0.0)
        n, m = prob.n_centers, prob.size
        F = fld.evaluate_at(prob.centers)
        values = np.empty((len(lin.eigenvalues), 6, m))
        grads = np.empty((len(lin.eigenvalues), 6, m, d))
        sols = [basis_solution(prob, j) for j in range(m)]
        for j, sol in enumerate(sols):
            h, g = sol.evaluate_with_gradient(X)
            values[:, :, j] = h.T
            grads[:, :, j] = g.transpose(1, 0, 2)
        for ev, lam in enumerate(lin.eigenvalues):
            for i, x in enumerate(X):
                ref, ref_grads = scalar_basis(prob, lam, x)
                # a PDE column K S, S = u . f(z) / sigma^2 - lambda, can be far
                # smaller than its terms, so the rounding bound scales with them
                for j, (z, f) in enumerate(zip(prob.centers, F)):
                    terms = kr.value(3.0, x, z) * (abs((x - z) @ f) / 3.0**2 + abs(lam))
                    assert abs(values[ev, i, j] - ref[j]) <= 16 * EPS * terms, name
                assert values[ev, i, n] == pytest.approx(ref[n], rel=1e-15), name
                np.testing.assert_allclose(values[ev, i, n + 1 :], ref[n + 1 :], rtol=1e-14, atol=1e-16)
                assert rel_err(grads[ev, i], ref_grads) <= 1e-6, name
            A = assemble_system(prob)[0][ev]
            ref = scalar_gram(prob, lam)
            assert np.max(np.abs(A - ref)) <= 1e-12 * np.max(np.abs(ref)), name

        def basis_values(v):
            # every eigenvalue's basis columns at v, eigenvalue-major
            return np.array([sol.evaluate_many(v[None, :])[0] for sol in sols]).T.ravel()

        for i, x in enumerate(X):
            fd = fd_jacobian(basis_values, x).reshape(grads[:, i].shape)
            assert rel_err(fd, grads[:, i]) <= 1e-6, name


def test_constructor_validation():
    with pytest.raises(ValueError, match="sigma"):
        GaussianKernel(sigma=0.0)
