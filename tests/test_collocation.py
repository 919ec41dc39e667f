import numpy as np
import pytest

from koopman_lyap.box import Box
from koopman_lyap.collocation import (
    CollocationError,
    CollocationProblem,
    IllConditionedWarning,
    _basis_block,
    assemble_system,
    fill_distance,
    solve,
    uniform_centers,
)
from koopman_lyap.dynamics import linearize
from koopman_lyap.expr import parse_vector_field
from koopman_lyap.kernel import GaussianKernel

from fdtools import fd_gradient, rel_err

# modest sigma keeps these small Gram systems well conditioned, so the
# eta = 0 identities below are meaningful rather than drowned in roundoff
SIGMA = 1.0


@pytest.fixture(scope="module")
def setup():
    fld = parse_vector_field(["-2*x1", "-3*(x2 - x1^2)"])
    lin = linearize(fld)
    domain = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    kern = GaussianKernel(sigma=SIGMA, dim=2)
    centers = uniform_centers(domain, 7)
    return fld, lin, domain, kern, centers


def _problem(setup, lam_index, eta=0.0, centers=None):
    fld, lin, domain, kern, default_centers = setup
    return CollocationProblem(
        kernel=kern,
        fld=fld,
        lin=lin,
        lam=float(lin.eigenvalues[lam_index]),
        w=lin.left_eigenvectors[lam_index],
        centers=default_centers if centers is None else centers,
        domain=domain,
        eta=eta,
    )


# --- centers and fill distance ------------------------------------------------


def test_uniform_centers_layout(setup):
    _, _, domain, _, centers = setup
    assert centers.shape == (49, 2)
    assert np.all(domain.contains(centers))
    # odd count puts a grid point on the origin; it must be moved off by
    # half a cell diagonal
    assert np.min(np.linalg.norm(centers, axis=1)) > 1e-12
    moved = centers[np.argmin(np.linalg.norm(centers, axis=1))]
    np.testing.assert_allclose(moved, [1.0 / 3.0, 1.0 / 3.0], rtol=1e-12)


def test_uniform_centers_even_count_untouched(setup):
    _, _, domain, _, _ = setup
    pts = uniform_centers(domain, 6)
    assert pts.shape == (36, 2)
    assert np.min(np.linalg.norm(pts, axis=1)) > 0.1
    # endpoints included
    assert pts[:, 0].min() == -2.0 and pts[:, 0].max() == 2.0


def test_uniform_centers_needs_two_per_axis(setup):
    _, _, domain, _, _ = setup
    with pytest.raises(CollocationError, match="at least 2"):
        uniform_centers(domain, 1)


def test_fill_distance_single_center():
    domain = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert fill_distance(np.zeros((1, 2)), domain) == pytest.approx(
        np.sqrt(2.0), abs=1e-15
    )


def test_fill_distance_corner_centers():
    domain = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    corners = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    # worst probe point is the center of the box
    assert fill_distance(corners, domain) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_fill_distance_probe_refinement_monotone(setup):
    _, _, domain, _, centers = setup
    coarse = fill_distance(centers, domain, probe_resolution=101)
    fine = fill_distance(centers, domain, probe_resolution=201)
    assert fine >= coarse


def test_fill_distance_needs_centers():
    domain = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    with pytest.raises(CollocationError, match="at least one center"):
        fill_distance(np.zeros((0, 2)), domain)


# --- problem validation --------------------------------------------------------


def test_origin_center_rejected(setup):
    bad = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(CollocationError, match="origin"):
        _problem(setup, 0, centers=bad)


def test_duplicate_centers_rejected(setup):
    bad = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(CollocationError, match="distinct"):
        _problem(setup, 0, centers=bad)


def test_center_outside_domain_rejected(setup):
    bad = np.array([[3.0, 0.0]])
    with pytest.raises(CollocationError, match="inside the domain"):
        _problem(setup, 0, centers=bad)


def test_lambda_must_be_an_eigenvalue(setup):
    fld, lin, domain, kern, centers = setup
    with pytest.raises(CollocationError, match="not an eigenvalue"):
        CollocationProblem(
            kernel=kern, fld=fld, lin=lin, lam=-1.7,
            w=lin.left_eigenvectors[0], centers=centers, domain=domain,
        )


def test_w_must_match_lambda(setup):
    fld, lin, domain, kern, centers = setup
    with pytest.raises(CollocationError, match="left eigenvector"):
        CollocationProblem(
            kernel=kern, fld=fld, lin=lin, lam=float(lin.eigenvalues[0]),
            w=np.array([1.0, 1.0]), centers=centers, domain=domain,
        )


def test_negative_eta_rejected(setup):
    with pytest.raises(CollocationError, match="eta"):
        _problem(setup, 0, eta=-1e-3)


def test_dimension_mismatch_rejected(setup):
    fld, lin, domain, _, centers = setup
    with pytest.raises(CollocationError, match="dimension"):
        CollocationProblem(
            kernel=GaussianKernel(sigma=1.0, dim=3), fld=fld, lin=lin,
            lam=float(lin.eigenvalues[0]), w=lin.left_eigenvectors[0],
            centers=centers, domain=domain,
        )


# --- assembly -------------------------------------------------------------------


def test_pde_functional_at_its_own_center(setup):
    prob = _problem(setup, 1)
    F = prob.fld.evaluate_at(prob.centers)
    for j in range(0, prob.n_centers, 7):
        values, _ = _basis_block(prob, prob.centers[j : j + 1], F)
        assert values[0, j] == pytest.approx(-prob.lam, abs=1e-15)


def test_pde_functional_matches_finite_difference(setup):
    rng = np.random.default_rng(0)
    prob = _problem(setup, 1, centers=rng.uniform(-2, 2, size=(20, 2)))
    k = prob.kernel
    F = prob.fld.evaluate_at(prob.centers)
    X = rng.uniform(-2, 2, size=(20, 2))
    values, _ = _basis_block(prob, X, F)
    for i, (x, z) in enumerate(zip(X, prob.centers)):
        fd = fd_gradient(lambda v: k.value(x, v), z) @ F[i] - prob.lam * k.value(x, z)
        assert rel_err(fd, values[i, i]) <= 1e-6


def test_empty_problem_gives_corner_block(setup):
    prob = _problem(setup, 0, centers=np.zeros((0, 2)))
    assert prob.n_centers == 0
    assert prob.size == 3
    A, b = assemble_system(prob)
    np.testing.assert_array_equal(A, np.diag([1.0, 1.0 / SIGMA**2, 1.0 / SIGMA**2]))
    np.testing.assert_array_equal(b, np.zeros(3))
    sol = solve(prob)
    np.testing.assert_array_equal(sol.alpha, np.zeros(3))
    assert sol.evaluate_many(np.array([[0.5, 0.5]]))[0] == 0.0


def test_assembly_matches_scalar_reference(setup):
    # A[a, b] = L_a^x L_b^y k entry by entry from the scalar kernel methods
    prob = _problem(setup, 1)
    k, lam = prob.kernel, prob.lam
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

    A, _ = assemble_system(prob)
    assert np.max(np.abs(A - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_gram_matrix_symmetric_and_near_psd(setup):
    prob = _problem(setup, 1)
    A, b = assemble_system(prob)
    m = prob.size
    assert A.shape == (m, m)
    np.testing.assert_array_equal(A, A.T)
    assert np.linalg.eigvalsh(A).min() >= -1e-10 * m


def test_rhs_rows(setup):
    prob2 = _problem(setup, 1)
    _, b2 = assemble_system(prob2)
    n = prob2.n_centers
    # w2 = (0, 1) picks out the nonlinear term -3 x1^2 with a sign flip
    np.testing.assert_allclose(b2[:n], -3.0 * prob2.centers[:, 0] ** 2, atol=1e-13)
    np.testing.assert_array_equal(b2[n:], np.zeros(3))

    prob1 = _problem(setup, 0)
    _, b1 = assemble_system(prob1)
    np.testing.assert_array_equal(b1, np.zeros(prob1.size))


def test_eta_semantics(setup):
    # explicit eta is used verbatim as an absolute ridge
    sol = solve(_problem(setup, 1, eta=0.7))
    assert sol.eta_used == 0.7
    # eta=None falls back to the relative default computed from the raw trace
    A_raw, _ = assemble_system(_problem(setup, 1, eta=0.0))
    sol_auto = solve(_problem(setup, 1, eta=None))
    expected = 1e-10 * np.trace(A_raw) / A_raw.shape[0]
    assert sol_auto.eta_used == pytest.approx(expected, rel=1e-12)
    assert sol_auto.eta_used > 0


def test_explicit_ridge_lands_on_diagonal(setup):
    A0, _ = assemble_system(_problem(setup, 1, eta=0.0))
    A1, _ = assemble_system(_problem(setup, 1, eta=1e-3))
    np.testing.assert_allclose(A1 - A0, 1e-3 * np.eye(A0.shape[0]), atol=1e-15)


# --- solve invariants ------------------------------------------------------------


@pytest.fixture(scope="module")
def solved(setup):
    return solve(_problem(setup, 1))


def test_solver_used_factorization(solved):
    assert solved.method == "cholesky"
    assert np.isfinite(solved.condition_estimate)
    assert solved.condition_estimate > 0


def test_pde_residual_at_centers(setup, solved):
    prob = solved.problem
    Z = prob.centers
    _, b = assemble_system(prob)
    vals, grads = solved.evaluate_with_gradient(Z)
    F = prob.fld.evaluate_at(Z)
    resid = np.einsum("ij,ij->i", grads, F) - prob.lam * vals - b[: prob.n_centers]
    bound = 1e-8 * np.max(np.abs(b)) + 1e-10
    assert np.max(np.abs(resid)) <= bound


def test_origin_conditions_for_unregularized_solve(solved):
    h, grad = solved.evaluate_with_gradient(np.zeros((1, 2)))
    assert abs(h[0]) <= 1e-10
    assert np.max(np.abs(grad[0])) <= 1e-9


def test_homogeneous_rhs_gives_zero_solution(setup):
    sol = solve(_problem(setup, 0))
    assert np.max(np.abs(sol.alpha)) <= 1e-12
    X = np.random.default_rng(1).uniform(-2, 2, size=(50, 2))
    np.testing.assert_array_equal(sol.evaluate_many(X), np.zeros(50))


def test_gradient_matches_finite_difference(solved):
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        fd = fd_gradient(lambda v: solved.evaluate_many(v[None, :])[0], x)
        _, grad = solved.evaluate_with_gradient(x[None, :])
        assert rel_err(fd, grad[0]) <= 1e-6


def test_batch_eval_matches_pointwise(solved):
    # the values-only and the joint path contract the same basis values, so
    # they agree bitwise; batch BLAS products accumulate in a different order
    # than single rows, so a 1-row batch agrees near machine precision
    X = np.random.default_rng(3).uniform(-2, 2, size=(17, 2))
    vals, grads = solved.evaluate_with_gradient(X)
    np.testing.assert_array_equal(solved.evaluate_many(X), vals)
    tol = 1e-12 * np.max(np.abs(solved.alpha))
    for i in range(X.shape[0]):
        row = X[i : i + 1]
        val, grad = solved.evaluate_with_gradient(row)
        assert vals[i] == pytest.approx(val[0], abs=tol)
        assert vals[i] == pytest.approx(solved.evaluate_many(row)[0], abs=tol)
        np.testing.assert_allclose(grads[i], grad[0], atol=tol)


def test_ill_conditioned_solve_warns(setup):
    fld, lin, domain, _, _ = setup
    prob = CollocationProblem(
        kernel=GaussianKernel(sigma=1.5, dim=2),
        fld=fld, lin=lin,
        lam=float(lin.eigenvalues[1]), w=lin.left_eigenvectors[1],
        centers=uniform_centers(domain, 9), domain=domain, eta=0.0,
    )
    with pytest.warns(IllConditionedWarning, match="condition estimate"):
        sol = solve(prob)
    assert np.all(np.isfinite(sol.alpha))


def test_cholesky_failure_falls_back_to_lstsq(setup):
    # a wide kernel on a dense grid without ridge is not numerically
    # positive definite, so the factorization fails
    fld, lin, domain, _, _ = setup
    prob = CollocationProblem(
        kernel=GaussianKernel(sigma=3.0, dim=2),
        fld=fld, lin=lin,
        lam=float(lin.eigenvalues[1]), w=lin.left_eigenvectors[1],
        centers=uniform_centers(domain, 10), domain=domain, eta=0.0,
    )
    with pytest.warns(IllConditionedWarning, match="condition estimate"):
        sol = solve(prob)
    assert sol.method == "lstsq"
    assert np.all(np.isfinite(sol.alpha))
