"""End-to-end acceptance gate.

Eleven criteria over the two benchmark systems. One PASS/FAIL line per
criterion is printed by the conftest summary hook.
"""

import numpy as np
import pytest

from koopman_lyap.box import Box
from koopman_lyap.collocation import (
    CollocationProblem,
    fill_distance,
    solve,
    uniform_centers,
)
from koopman_lyap.cpa import build_triangulation, certify, estimate_b_bound
from koopman_lyap.dynamics import linearize
from koopman_lyap.expr import parse_vector_field
from koopman_lyap.kernel import GaussianKernel
from koopman_lyap.koopman import EigenfunctionSet, path_integral_phi
from koopman_lyap.lyapunov import LyapunovModel, solve_p

from fakes import CUBIC, CubicExact, eigenfunction_set
from fdtools import fd_gradient, fd_jacobian, rel_err
from kernel_reference import basis_solution

_EX1_DOMAIN = Box(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
_TEST_WINDOW = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))


def _solved_set(fld, lin, sigma, domain):
    """The collocated set on 60 x 60 centers over domain, eta = 1e-10."""
    problem = CollocationProblem(
        GaussianKernel(sigma=sigma), fld, lin, uniform_centers(domain, 60), domain, 1e-10
    )
    return EigenfunctionSet(lin, solve(problem))


@pytest.fixture(scope="module")
def ex1():
    fld = parse_vector_field(CUBIC)
    return fld, linearize(fld)


@pytest.fixture(scope="module")
def ex1_eigs(ex1):
    # the calibrated production configuration for the cubic benchmark
    fld, lin = ex1
    return _solved_set(fld, lin, 3.0, _EX1_DOMAIN)


@pytest.fixture(scope="module")
def ex1_model(ex1_eigs):
    return LyapunovModel(ex1_eigs)


@pytest.fixture(scope="module")
def duffing():
    fld = parse_vector_field(["x2", "-3*x2 - 1*x1 - 1*x1^3"])
    return fld, linearize(fld)


@pytest.fixture(scope="module")
def duffing_model(duffing):
    # calibrated configuration for the overdamped Duffing benchmark
    fld, lin = duffing
    domain = Box(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    return fld, LyapunovModel(_solved_set(fld, lin, 2.0, domain))


def test_criterion_01_homogeneous_correction_vanishes(ex1_eigs):
    # w1 . G vanishes identically, so the slow correction solve has zero
    # data and must return the zero function
    probes = _TEST_WINDOW.grid(41)
    assert np.max(np.abs(ex1_eigs.h.evaluate_many(probes)[:, 0])) <= 1e-8


def test_criterion_02_closed_form_eigenfunction_recovered(ex1_eigs):
    phi2 = ex1_eigs[1]
    probes = _TEST_WINDOW.grid(41)
    exact = probes[:, 1] + 3.0 * probes[:, 0] ** 2
    err = np.max(np.abs(phi2.value_many(probes) - exact))
    assert err <= 1e-2


def test_criterion_03_error_decreases_with_fill_distance(ex1, ex1_eigs):
    fld, lin = ex1
    probes = _TEST_WINDOW.grid(41)
    exact = probes[:, 1] + 3.0 * probes[:, 0] ** 2
    kern = GaussianKernel(sigma=3.0)

    errors = []
    fills = []
    for n_axis in (10, 20, 40):
        centers = uniform_centers(_EX1_DOMAIN, n_axis)
        problem = CollocationProblem(
            kernel=kern, fld=fld, lin=lin,
            centers=centers, domain=_EX1_DOMAIN, eta=1e-10,
        )
        sol = solve(problem)
        phi = probes @ lin.left_eigenvectors[1] + sol.evaluate_many(probes)[:, 1]
        errors.append(float(np.max(np.abs(phi - exact))))
        fills.append(fill_distance(centers, _EX1_DOMAIN))

    errors.append(float(np.max(np.abs(ex1_eigs[1].value_many(probes) - exact))))
    fills.append(fill_distance(uniform_centers(_EX1_DOMAIN, 60), _EX1_DOMAIN))

    assert all(b < a for a, b in zip(fills, fills[1:])), fills
    # error trend: non-increasing, with at most one inversion of <= 10%
    inversions = [
        (b - a) / a for a, b in zip(errors, errors[1:]) if b > a
    ]
    assert len(inversions) <= 1 and all(r <= 0.10 for r in inversions), errors


def test_criterion_04_quadratic_form_solves_lyapunov_equation(ex1, duffing):
    for lams in (ex1[1].eigenvalues, duffing[1].eigenvalues):
        P = solve_p(lams)
        L = np.diag(lams)
        resid = np.max(np.abs(L.T @ P + P @ L + np.eye(2)))
        assert resid <= 1e-12


def test_criterion_05_exact_eigenfunction_values():
    model = LyapunovModel(eigenfunction_set(CUBIC, CubicExact()))
    fld = parse_vector_field(CUBIC)
    x = np.array([[1.0, 0.0]])
    assert model.value_many(x)[0] == pytest.approx(1.75, abs=1e-10)
    assert model.evaluate_with_derivative(fld, x)[2][0] == pytest.approx(-10.0, abs=1e-10)


def test_criterion_06_v_positive_vdot_negative_on_annulus(ex1, ex1_model):
    fld, _ = ex1
    probes = _TEST_WINDOW.grid(81)
    off_origin = np.linalg.norm(probes, axis=1) > 0.1
    V = ex1_model.value_many(probes[off_origin])
    Vdot = ex1_model.evaluate_with_derivative(fld, probes[off_origin])[2]
    assert np.min(V) > 0.0
    assert np.max(Vdot) < 0.0


def test_criterion_07_path_integral_agreement(ex1, ex1_eigs):
    fld, lin = ex1
    phi2 = ex1_eigs[1]
    # ten points in [-1,1]^2, anchored by the analytic value phi2(1,0) = 3
    rng = np.random.default_rng(0)
    pts = np.vstack([[1.0, 0.0], rng.uniform(-1.0, 1.0, size=(9, 2))])
    integral = path_integral_phi(fld, lin, [1], pts, t_max=20.0, dt=1e-3)[:, 0]
    assert integral[0] == pytest.approx(3.0, abs=1e-2)
    assert np.max(np.abs(phi2.value_many(pts) - integral)) <= 1e-2


def test_criterion_08_triangulation_counts():
    tri = build_triangulation(_TEST_WINDOW, 108)
    assert tri.n_vertices == 11881
    assert tri.n_simplices == 23328


def test_criterion_09_cpa_certificate_clean(ex1, ex1_model):
    fld, _ = ex1
    tri = build_triangulation(_TEST_WINDOW, 108)
    b = estimate_b_bound(
        fld, _TEST_WINDOW, override=np.array([[6.0, 0.0], [0.0, 0.0]])
    )
    values = ex1_model.value_many(tri.vertices)
    report = certify(tri, values, fld, b)
    # failures, if any, must sit inside the 0.15 ball; at least 99% of the
    # decrease checks must pass outright
    assert report.failure_radius <= 0.15, report.summary_text()
    assert report.pair_pass_fraction >= 0.99
    assert report.n_lc1_failures == 0


def test_criterion_10_duffing_vdot_negative(duffing_model):
    fld, model = duffing_model
    probes = _TEST_WINDOW.grid(41)
    r = np.linalg.norm(probes, axis=1)
    ring = (r >= 0.1) & (r <= 2.0)
    vdot = model.evaluate_with_derivative(fld, probes[ring])[2]
    assert np.max(vdot) < 0.0
    # the energy function is only weakly decreasing on the x2 = 0 axis; the
    # constructed V must be strictly decreasing there
    axis = np.column_stack([np.linspace(-2.0, 2.0, 81), np.zeros(81)])
    axis = axis[np.abs(axis[:, 0]) >= 0.1]
    vdot_axis = model.evaluate_with_derivative(fld, axis)[2]
    assert np.max(vdot_axis) < 0.0


def test_criterion_11_finite_difference_stack(ex1):
    fld, lin = ex1
    rng = np.random.default_rng(7)

    # expression derivatives
    from koopman_lyap.expr import parse_expression

    ast = parse_expression("x1^3*x2 - 2*x2^2 + 0.5*x1", 2)
    d1, d2 = ast.derivative(1), ast.derivative(2)
    for _ in range(100):
        p = rng.uniform(-2, 2, size=2)
        fd = fd_gradient(lambda v: ast.evaluate(v), p)
        assert rel_err(fd, [d1.evaluate(p), d2.evaluate(p)]) <= 1e-6

    # kernel-block derivatives at production bandwidth: every basis column of
    # the engine, the PDE columns, the value column and the derivative columns
    kernel_problem = CollocationProblem(
        kernel=GaussianKernel(sigma=3.0), fld=fld, lin=lin,
        centers=rng.uniform(-5, 5, size=(3, 2)), domain=_EX1_DOMAIN, eta=0.0,
    )
    X = rng.uniform(-5, 5, size=(100, 2))
    for j in range(kernel_problem.size):
        column = basis_solution(kernel_problem, j)
        _, grads = column.evaluate_with_gradient(X)
        for x, grad in zip(X, grads):
            fd = fd_jacobian(lambda v: column.evaluate_many(v[None, :])[0], x)
            assert rel_err(fd, grad) <= 1e-6

    # collocation solution gradient on a well-conditioned solve
    window = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    problem = CollocationProblem(
        kernel=GaussianKernel(sigma=1.0), fld=fld, lin=lin,
        centers=uniform_centers(window, 7), domain=window, eta=0.0,
    )
    sol = solve(problem)
    X = np.array([rng.uniform(-2, 2, size=2) for _ in range(100)])
    _, grads = sol.evaluate_with_gradient(X)
    for x, grad in zip(X, grads[:, 1]):
        fd = fd_gradient(lambda v: sol.evaluate_many(v[None, :])[0, 1], x)
        assert rel_err(fd, grad) <= 1e-6
