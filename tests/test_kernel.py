import numpy as np
import pytest

from koopman_lyap.box import Box
from koopman_lyap.collocation import CollocationProblem, _basis_block
from koopman_lyap.dynamics import linearize
from koopman_lyap.expr import parse_vector_field
from koopman_lyap.kernel import GaussianKernel, make_kernel

from fdtools import fd_gradient, fd_jacobian, rel_err


@pytest.fixture
def k3():
    return GaussianKernel(sigma=3.0, dim=2)


@pytest.fixture
def k1():
    return GaussianKernel(sigma=1.0, dim=2)


def test_value_at_coincident_points(k3):
    x = np.array([0.7, -1.2])
    assert k3.value(x, x) == 1.0


def test_value_at_known_distances(k3):
    # distance 3 with sigma 3 gives exp(-1/2)
    assert k3.value(np.array([3.0, 0.0]), np.zeros(2)) == pytest.approx(
        0.6065306597126334, abs=1e-16
    )
    assert k3.value(np.array([5.0, 5.0]), np.array([-5.0, -5.0])) == pytest.approx(
        1.4945338524781451e-05, rel=1e-14
    )


def test_value_is_symmetric(k3):
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.uniform(-5, 5, size=(2, 2))
        assert k3.value(x, y) == k3.value(y, x)


def test_monotone_decay_along_ray(k3):
    y = np.zeros(2)
    vals = [k3.value(np.array([r, 0.0]), y) for r in np.linspace(0, 10, 50)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] == 1.0


def test_grad_y_closed_form(k1):
    g = k1.grad_y(np.array([1.0, 0.0]), np.zeros(2))
    np.testing.assert_allclose(g, [np.exp(-0.5), 0.0], rtol=1e-15)


def test_grad_vanishes_at_coincidence(k3):
    x = np.array([2.0, -1.0])
    np.testing.assert_array_equal(k3.grad_y(x, x), [0.0, 0.0])
    np.testing.assert_array_equal(k3.grad_x(x, x), [0.0, 0.0])


def test_grad_antisymmetry(k3):
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.uniform(-4, 4, size=(2, 2))
        np.testing.assert_allclose(k3.grad_y(x, y), -k3.grad_x(x, y), rtol=0, atol=0)


def test_cross_hessian_at_coincidence(k3):
    x = np.array([1.0, 1.0])
    np.testing.assert_allclose(k3.cross_hessian(x, x), np.eye(2) / 9.0, rtol=1e-15)


def test_cross_hessian_transpose_symmetry(k3):
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y = rng.uniform(-4, 4, size=(2, 2))
        np.testing.assert_allclose(
            k3.cross_hessian(x, y), k3.cross_hessian(y, x).T, rtol=0, atol=1e-18
        )


def test_derivatives_match_finite_differences(k3):
    rng = np.random.default_rng(3)
    for _ in range(100):
        x, y = rng.uniform(-4, 4, size=(2, 2))
        assert rel_err(fd_gradient(lambda v: k3.value(x, v), y), k3.grad_y(x, y)) <= 1e-6
        assert rel_err(fd_gradient(lambda v: k3.value(v, y), x), k3.grad_x(x, y)) <= 1e-6
        fd_h = fd_jacobian(lambda v: k3.grad_y(v, y), x)
        assert rel_err(fd_h, k3.cross_hessian(x, y)) <= 1e-6


# --- collocation basis block ---------------------------------------------------


def test_block_forms_match_scalar(k3):
    # the one block engine against the scalar reference formulas
    fld = parse_vector_field(["-2*x1", "-3*(x2 - x1^2)"])
    lin = linearize(fld)
    rng = np.random.default_rng(5)
    Z = rng.uniform(-4, 4, size=(4, 2))
    prob = CollocationProblem(
        kernel=k3, fld=fld, lin=lin, lam=float(lin.eigenvalues[1]),
        w=lin.left_eigenvectors[1], centers=Z,
        domain=Box(np.array([-4.0, -4.0]), np.array([4.0, 4.0])),
    )
    F = fld.evaluate_at(Z)
    X = rng.uniform(-4, 4, size=(6, 2))
    values, grads = _basis_block(prob, X, F)
    assert values.shape == (6, 7)
    assert grads.shape == (6, 7, 2)
    o = np.zeros(2)
    for i, x in enumerate(X):
        for j, z in enumerate(Z):
            ref = k3.grad_y(x, z) @ F[j] - prob.lam * k3.value(x, z)
            assert values[i, j] == pytest.approx(ref, rel=1e-14, abs=1e-16)
        assert values[i, 4] == pytest.approx(k3.value(x, o), rel=1e-15)
        np.testing.assert_allclose(values[i, 5:], k3.grad_y(x, o), rtol=1e-14, atol=1e-16)

        def block_values(v):
            return _basis_block(prob, v[None, :], F)[0][0]

        assert rel_err(fd_jacobian(block_values, x), grads[i]) <= 1e-6


def test_shape_validation(k3):
    with pytest.raises(ValueError, match="shape"):
        k3.value(np.zeros(3), np.zeros(3))


def test_constructor_validation():
    with pytest.raises(ValueError, match="sigma"):
        GaussianKernel(sigma=0.0, dim=2)
    with pytest.raises(ValueError, match="dim"):
        GaussianKernel(sigma=1.0, dim=0)


def test_make_kernel():
    k = make_kernel("gaussian", 2.5, 2)
    assert isinstance(k, GaussianKernel)
    assert k.sigma == 2.5
    with pytest.raises(ValueError, match="unknown kernel family"):
        make_kernel("matern", 1.0, 2)
