import itertools
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial import cKDTree

from koopman_lyap import collocation
from koopman_lyap.box import Box, grid_contract
from koopman_lyap.collocation import (
    CollocationError,
    _Block,
    _mirror_split,
    CollocationProblem,
    SingularSystemError,
    _cholesky_solve,
    assemble_system,
    fill_distance,
    solve,
    uniform_centers,
)
from koopman_lyap.config import bundled_config_path, load_config
from koopman_lyap.dynamics import linearize
from koopman_lyap.expr import parse_vector_field
from koopman_lyap.kernel import GaussianKernel
from koopman_lyap.koopman import EigenfunctionSet

import kernel_reference as kr
from fdtools import fd_gradient, rel_err
from kernel_reference import basis_solution, scalar_gram

# modest sigma keeps these small Gram systems well conditioned, so the
# eta = 0 identities below are meaningful rather than drowned in roundoff
SIGMA = 1.0


@pytest.fixture(scope="module")
def setup():
    fld = parse_vector_field(["-2*x1", "-3*(x2 - x1^2)"])
    lin = linearize(fld)
    domain = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    kern = GaussianKernel(sigma=SIGMA)
    centers = uniform_centers(domain, 7)
    return fld, lin, domain, kern, centers


def _problem(setup, eta=0.0, centers=None):
    fld, lin, domain, kern, default_centers = setup
    return CollocationProblem(
        kernel=kern,
        fld=fld,
        lin=lin,
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


def test_uniform_centers_mirror_symmetric_axes_exactly():
    # the axis symmetric about 0 pairs every coordinate with its negative bit
    # for bit, which linspace alone does only to ~1e-15; the other is linspace
    domain = Box(np.array([-2.0, -1.0]), np.array([2.0, 3.0]))
    pts = uniform_centers(domain, 10)
    a1, a2 = np.unique(pts[:, 0]), np.unique(pts[:, 1])
    np.testing.assert_array_equal(a1, -a1[::-1])
    assert a1[0] == -2.0 and a1[-1] == 2.0
    np.testing.assert_array_equal(a2, np.linspace(-1.0, 3.0, 10))


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


def _kd_fill_distance(centers, domain, probe_resolution=201):
    return float(np.max(cKDTree(centers).query(domain.grid(probe_resolution))[0]))


@pytest.mark.parametrize(
    "d, n, resolution", [(1, 9, 201), (2, 6, 201), (2, 7, 201), (2, 40, 201), (2, 41, 201), (3, 5, 31)]
)
def test_fill_distance_matches_kd_tree_on_tensor_grids(d, n, resolution):
    # odd n moves the grid point at the origin off its line
    domain = Box(np.array([-3.0, -2.0, -1.0][:d]), np.array([3.0, 2.0, 1.0][:d]))
    centers = uniform_centers(domain, n)
    expected = _kd_fill_distance(centers, domain, resolution)
    assert fill_distance(centers, domain, resolution) == expected


@pytest.mark.parametrize("d, resolution", [(1, 201), (2, 201), (3, 31)])
@pytest.mark.parametrize("n", [1, 5, 60])
def test_fill_distance_matches_kd_tree_on_scattered_centers(d, resolution, n):
    rng = np.random.default_rng(10 * d + n)
    domain = Box(np.full(d, -1.0), np.full(d, 2.0))
    centers = rng.uniform(-1.0, 2.0, size=(n, d))
    expected = _kd_fill_distance(centers, domain, resolution)
    assert fill_distance(centers, domain, resolution) == expected


def test_fill_distance_needs_centers():
    domain = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    with pytest.raises(CollocationError, match="at least one center"):
        fill_distance(np.zeros((0, 2)), domain)


# --- problem validation --------------------------------------------------------


def test_origin_center_rejected(setup):
    bad = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(CollocationError, match="origin"):
        _problem(setup, centers=bad)


def test_duplicate_centers_rejected(setup):
    bad = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(CollocationError, match="distinct"):
        _problem(setup, centers=bad)


def test_near_duplicate_chain_rejected(setup):
    # rows 0 and 2 are 2.2e-13 apart, with row 1 between them in
    # lexicographic order
    bad = np.array([[1.0, 1.0], [1.0 + 1e-13, 2.0], [1.0 + 2e-13, 1.0 + 1e-13]])
    with pytest.raises(CollocationError, match="distinct"):
        _problem(setup, centers=bad)


def test_close_but_distinct_centers_accepted(setup):
    _problem(setup, centers=np.array([[1.0, 1.0], [1.0 + 3e-12, 1.0]]))
    # the odd grid, with its center moved off the origin
    _, _, domain, _, _ = setup
    _problem(setup, centers=uniform_centers(domain, 9))


def test_distinct_check_matches_brute_force(setup):
    rng = np.random.default_rng(7)
    for trial in range(40):
        Z = rng.uniform(-2, 2, size=(30, 2))
        # plant near-duplicates on either side of the 1e-12 threshold, some
        # sharing an axis coordinate
        for _ in range(trial % 4):
            i, j = rng.choice(len(Z), size=2, replace=False)
            offset = rng.uniform(0.2e-12, 2e-12) * rng.choice([-1.0, 1.0], size=2)
            offset[rng.integers(2)] *= rng.integers(2)
            Z[j] = Z[i] + offset
        dist = np.linalg.norm(Z[:, None] - Z[None], axis=2)
        distinct = np.min(dist[np.triu_indices(len(Z), 1)]) > 1e-12
        if distinct:
            _problem(setup, centers=Z)
        else:
            with pytest.raises(CollocationError, match="distinct"):
                _problem(setup, centers=Z)


def test_center_outside_domain_rejected(setup):
    bad = np.array([[3.0, 0.0]])
    with pytest.raises(CollocationError, match="inside the domain"):
        _problem(setup, centers=bad)


def test_negative_eta_rejected(setup):
    for eta in (-1e-3, math.nan, math.inf):
        with pytest.raises(CollocationError, match="eta"):
            _problem(setup, eta=eta)


def test_dimension_mismatch_rejected(setup):
    fld, _, domain, kern, centers = setup
    lin = linearize(parse_vector_field(["-2*x1"]))
    with pytest.raises(CollocationError, match="dimension"):
        CollocationProblem(kernel=kern, fld=fld, lin=lin, centers=centers, domain=domain)


# --- assembly -------------------------------------------------------------------


def test_pde_functional_at_its_own_center(setup):
    prob = _problem(setup)
    for j in range(0, prob.n_centers, 7):
        values = basis_solution(prob, j).evaluate_many(prob.centers[j : j + 1])
        for lam, value in zip(prob.lin.eigenvalues, values[0], strict=True):
            assert value == pytest.approx(-lam, abs=1e-15)


def test_pde_functional_matches_finite_difference(setup):
    rng = np.random.default_rng(0)
    prob = _problem(setup, centers=rng.uniform(-2, 2, size=(20, 2)))
    s = prob.kernel.sigma
    F = prob.fld.evaluate_at(prob.centers)
    X = rng.uniform(-2, 2, size=(20, 2))
    for i, (x, z) in enumerate(zip(X, prob.centers)):
        values = basis_solution(prob, i).evaluate_many(x[None, :])[0]
        for lam, value in zip(prob.lin.eigenvalues, values, strict=True):
            fd = fd_gradient(lambda v: kr.value(s, x, v), z) @ F[i] - lam * kr.value(s, x, z)
            assert rel_err(fd, value) <= 1e-6


def test_empty_problem_gives_corner_block(setup):
    prob = _problem(setup, centers=np.zeros((0, 2)))
    assert prob.n_centers == 0
    assert prob.size == 3
    A, b, eta = assemble_system(prob)
    corner = np.diag([1.0, 1.0 / SIGMA**2, 1.0 / SIGMA**2])
    np.testing.assert_array_equal(A, np.stack([corner, corner]))
    np.testing.assert_array_equal(b, np.zeros((2, 3)))
    np.testing.assert_array_equal(eta, np.zeros(2))
    sol = solve(prob)
    np.testing.assert_array_equal(sol.alpha, np.zeros((2, 3)))
    np.testing.assert_array_equal(sol.evaluate_many(np.array([[0.5, 0.5]])), [[0.0, 0.0]])


def test_assembly_matches_scalar_reference(setup):
    prob = _problem(setup)
    A, _, _ = assemble_system(prob)
    assert A.shape == (2, prob.size, prob.size)
    for Ai, lam in zip(A, prob.lin.eigenvalues, strict=True):
        ref = scalar_gram(prob, lam)
        assert np.max(np.abs(Ai - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.fixture(scope="module")
def odd_grid_and_scattered(setup):
    # the 9 x 9 grid moves its center off the origin; the scattered centers
    # fill a sparse lattice. Each with its scalar reference per eigenvalue.
    _, lin, domain, _, _ = setup
    cases = {}
    for name, Z in [
        ("odd-grid", uniform_centers(domain, 9)),
        ("scattered", np.random.default_rng(11).uniform(-2, 2, size=(20, 2))),
    ]:
        prob = _problem(setup, centers=Z)
        cases[name] = prob, [scalar_gram(prob, lam) for lam in lin.eigenvalues]
    return cases


@pytest.mark.parametrize("rows", [128, 16, 7])
@pytest.mark.parametrize("case", ["odd-grid", "scattered"])
def test_mirrored_assembly_is_symmetric_and_matches_scalar_reference(
    odd_grid_and_scattered, case, rows, monkeypatch
):
    # one strip of PDE rows, and several with a ragged last one, so blocks
    # below the diagonal are written only as mirrors of blocks above it
    prob, refs = odd_grid_and_scattered[case]
    monkeypatch.setattr(collocation, "_STRIP", rows * prob.n_centers)
    A, _, _ = assemble_system(prob)
    assert A.shape == (2, prob.size, prob.size)
    for Ai, ref in zip(A, refs, strict=True):
        np.testing.assert_array_equal(Ai, Ai.T)
        assert np.max(np.abs(Ai - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_gram_matrix_symmetric_and_near_psd(setup):
    prob = _problem(setup)
    A, b, _ = assemble_system(prob)
    m = prob.size
    assert A.shape == (2, m, m) and b.shape == (2, m)
    for Ai in A:
        np.testing.assert_array_equal(Ai, Ai.T)
        assert np.linalg.eigvalsh(Ai).min() >= -1e-10 * m


def test_rhs_rows(setup):
    prob = _problem(setup)
    _, b, _ = assemble_system(prob)
    n = prob.n_centers
    # w2 = (0, 1) picks out the nonlinear term -3 x1^2 with a sign flip
    np.testing.assert_allclose(b[1, :n], -3.0 * prob.centers[:, 0] ** 2, atol=1e-13)
    np.testing.assert_array_equal(b[1, n:], np.zeros(3))
    # w1 = (1, 0) sees no nonlinear term
    np.testing.assert_array_equal(b[0], np.zeros(prob.size))


def test_eta_semantics(setup):
    # explicit eta is used verbatim as an absolute ridge
    sol = solve(_problem(setup, eta=0.7))
    np.testing.assert_array_equal(sol.eta_used, [0.7, 0.7])
    # eta=None falls back to the relative default computed from each raw trace
    A_raw, _, _ = assemble_system(_problem(setup, eta=0.0))
    sol_auto = solve(_problem(setup, eta=None))
    expected = 1e-10 * np.trace(A_raw, axis1=1, axis2=2) / A_raw.shape[1]
    np.testing.assert_allclose(sol_auto.eta_used, expected, rtol=1e-12)
    assert np.all(sol_auto.eta_used > 0)
    assert sol_auto.eta_used[0] != sol_auto.eta_used[1]
    # the skipped system's ridge comes from the closed-form diagonal
    assert sol_auto.method[0] == "zero"
    assert abs(sol_auto.eta_used[0] - expected[0]) <= 1e-15 * expected[0]


def test_explicit_ridge_lands_on_diagonal(setup):
    A0, _, _ = assemble_system(_problem(setup, eta=0.0))
    A1, _, eta = assemble_system(_problem(setup, eta=1e-3))
    np.testing.assert_array_equal(eta, [1e-3, 1e-3])
    for D in A1 - A0:
        np.testing.assert_allclose(D, 1e-3 * np.eye(A0.shape[1]), atol=1e-15)


# --- solve invariants ------------------------------------------------------------


@pytest.fixture(scope="module")
def solved(setup):
    return solve(_problem(setup))


def test_solver_used_factorization(solved):
    # the first eigenvalue's right-hand side is zero, so its system is skipped
    assert solved.method == ("zero", "cholesky")


def _count_factorizations(monkeypatch, calls):
    # one _cholesky_solve call factors one system, however many panels it has
    factor = collocation._cholesky_solve
    monkeypatch.setattr(
        collocation, "_cholesky_solve", lambda A, b: calls.append("chol") or factor(A, b)
    )


def test_zero_rhs_system_is_not_factored(setup, monkeypatch):
    # w1 . G vanishes identically, so alpha_1 = 0 is the exact minimum-norm
    # collocant and only the second system reaches the factorization; with
    # 12 x 12 centers m = 147 spans several panels
    calls = []
    _count_factorizations(monkeypatch, calls)
    for n_per_axis in (7, 12):
        calls.clear()
        sol = solve(_problem(setup, centers=uniform_centers(setup[2], n_per_axis)))
        assert sol.problem.size == n_per_axis**2 + 3
        assert calls == ["chol"]
        assert sol.method == ("zero", "cholesky")
        np.testing.assert_array_equal(sol.alpha[0], np.zeros(sol.problem.size))
        assert np.any(sol.alpha[1])


def _two_system_problem(setup, eta=0.0, n_per_axis=7, sigma=SIGMA):
    # w1 . G = x2^2 and w2 . G = 3 x1^2: both right-hand sides are nonzero
    domain = setup[2]
    fld = parse_vector_field(["-2*x1 + x2^2", "-3*(x2 - x1^2)"])
    return CollocationProblem(
        kernel=GaussianKernel(sigma=sigma), fld=fld, lin=linearize(fld),
        centers=uniform_centers(domain, n_per_axis), domain=domain, eta=eta,
    )


def test_one_gram_matrix_alive_at_a_time(setup, monkeypatch):
    # each system is assembled into the one buffer and factored before the
    # next one is assembled over it, and no view of an earlier system
    # outlives it; with 12 x 12 centers m = 147 spans several panels
    grams, factored = [], []
    gram, factor = collocation._gram, collocation._cholesky_solve

    def alive():
        return [r for r in grams if r() is not None]

    def tracked_gram(*args):
        assert not alive()
        A = gram(*args)
        grams.append(weakref.ref(A))
        return A

    def tracked_factor(A, b):
        factored.append(len(grams))
        assert len(grams) == len(factored)
        assert [r() for r in grams[:-1]] == [None] * (len(grams) - 1)
        return factor(A, b)

    monkeypatch.setattr(collocation, "_gram", tracked_gram)
    monkeypatch.setattr(collocation, "_cholesky_solve", tracked_factor)
    for n_per_axis in (7, 12):
        grams.clear()
        factored.clear()
        sol = solve(_two_system_problem(setup, n_per_axis=n_per_axis))
        assert sol.method == ("cholesky", "cholesky")
        assert factored == [1, 2]
        assert not alive()


def test_solve_matches_cholesky_solve_of_assembled_systems(setup):
    prob = _two_system_problem(setup, eta=None)
    sol = solve(prob)
    A, b, eta = assemble_system(prob)
    assert sol.method == ("cholesky", "cholesky")
    np.testing.assert_array_equal(sol.eta_used, eta)
    for Ai, bi, alpha in zip(A, b, sol.alpha, strict=True):
        np.testing.assert_array_equal(alpha, _cholesky_solve(Ai, bi))


def test_pde_residual_at_centers(setup, solved):
    prob = solved.problem
    Z = prob.centers
    _, b, _ = assemble_system(prob)
    vals, grads = solved.evaluate_with_gradient(Z)
    F = prob.fld.evaluate_at(Z)
    for i, lam in enumerate(prob.lin.eigenvalues):
        resid = (
            np.einsum("ij,ij->i", grads[:, i], F) - lam * vals[:, i] - b[i, : prob.n_centers]
        )
        bound = 1e-8 * np.max(np.abs(b[i])) + 1e-10
        assert np.max(np.abs(resid)) <= bound


def test_origin_conditions_for_unregularized_solve(solved):
    h, grad = solved.evaluate_with_gradient(np.zeros((1, 2)))
    assert np.max(np.abs(h[0])) <= 1e-10
    assert np.max(np.abs(grad[0])) <= 1e-9


def test_homogeneous_rhs_gives_zero_solution(solved):
    # the first eigenvalue's right-hand side is zero
    assert np.max(np.abs(solved.alpha[0])) <= 1e-12
    X = np.random.default_rng(1).uniform(-2, 2, size=(50, 2))
    np.testing.assert_array_equal(solved.evaluate_many(X)[:, 0], np.zeros(50))


def test_gradient_matches_finite_difference(solved):
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        fd = fd_gradient(lambda v: solved.evaluate_many(v[None, :])[0, 1], x)
        _, grad = solved.evaluate_with_gradient(x[None, :])
        assert rel_err(fd, grad[0, 1]) <= 1e-6


_GRID_FIELDS = {
    1: ["-2*x1 + x1^2"],
    2: ["-2*x1 + x2^2", "-3*(x2 - x1^2)"],
    3: ["-2*x1 + x2*x3", "-3*x2 + x1^2", "-5*x3 + x1*x2"],
}


def _solve_grid_field(d, stretch=0.0):
    # stretch widens axis l by stretch * l on each side
    fld = parse_vector_field(_GRID_FIELDS[d])
    box = Box(np.full(d, -2.0) - stretch * np.arange(d), np.full(d, 2.0) + stretch * np.arange(d))
    centers = uniform_centers(box, {1: 12, 2: 7, 3: 4}[d])
    return solve(CollocationProblem(GaussianKernel(sigma=1.0), fld, linearize(fld), centers, box))


def test_batch_eval_matches_pointwise(solved):
    # the values-only and the joint call contract the same factors, so they
    # agree bitwise; a row alone sums its terms in another order than inside
    # a batch (at d = 1 the batch is a grid, the row is not), so the two agree
    # to about eps ||alpha_i||_1 per eigenvalue (measured up to 0.52)
    for sol in (_solve_grid_field(1), solved, _solve_grid_field(3)):
        d = sol.problem.fld.dim
        X = np.random.default_rng(3).uniform(-2, 2, size=(17, d))
        vals, grads = sol.evaluate_with_gradient(X)
        assert vals.shape == (17, sol.alpha.shape[0]) and grads.shape == (*vals.shape, d)
        np.testing.assert_array_equal(sol.evaluate_many(X), vals)
        tol = 2 * np.finfo(float).eps * np.abs(sol.alpha).sum(axis=1)
        for i in range(X.shape[0]):
            row = X[i : i + 1]
            val, grad = sol.evaluate_with_gradient(row)
            assert np.all(np.abs(vals[i] - val[0]) <= tol)
            assert np.all(np.abs(vals[i] - sol.evaluate_many(row)[0]) <= tol)
            assert np.all(np.abs(grads[i] - grad[0]) <= tol[:, None])


def test_points_of_another_dimension_are_rejected(setup, solved):
    # a (c, 4) batch at d = 2 is no set of points: it raises naming d rather
    # than being reshaped into 2c made-up ones; one point of shape (d,) is a
    # batch of one
    for evaluate in (solved.evaluate_many, solved.evaluate_with_gradient):
        for X in (np.zeros((3, 4)), np.zeros(3), np.float64(0.5)):
            with pytest.raises(CollocationError, match="d = 2"):
                evaluate(X)
    eigs = EigenfunctionSet(setup[1], solved)
    with pytest.raises(CollocationError, match="d = 2"):
        eigs.value_many(np.zeros((3, 4)))
    x = np.array([0.3, -1.2])
    np.testing.assert_array_equal(solved.evaluate_many(x), solved.evaluate_many(x[None, :]))


# per d the coordinate vectors of a grid: descending axes, a repeated
# coordinate (leading, so a run of equal leading coordinates spans several
# blocks) and, at d = 3, an axis of length 1
_GRID_AXES = {
    1: [[1.5, 0.7, 0.7, -0.2, -1.9]],
    2: [[1.7, 0.9, -0.4, -1.3, -1.8], [-1.1, -1.1, 0.3, 1.6]],
    3: [[0.4, 0.4, -1.0], [1.2, 0.1, -0.6, -1.5], [0.25]],
}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_evaluation_matches_the_point_path(d, monkeypatch):
    # a tensor grid is read off its points and evaluated from per-axis
    # factors; the same points shuffled, or with one point moved, are no grid
    # (every 1-D batch is one, so there the row-wise mode is forced) and are
    # contracted row-wise, each point with its own factors. The two modes sum
    # the same terms in other orders: they agree to a few eps ||alpha_i||_1
    # per eigenvalue, and on the grid the values-only and the joint call
    # agree bitwise. A box with another width on each axis gives each axis
    # other lattice coordinates, so a grid axis paired with another axis'
    # lattice shows
    axes = [np.array(a) for a in _GRID_AXES[d]]
    X = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    perm = np.random.default_rng(d).permutation(len(X))
    assert [a.tolist() for a in collocation.grid_axes(X)] == [a.tolist() for a in axes]
    moved = X.copy()
    moved[-1, 0] += 0.5  # the last point leaves the grid; its block's last column still repeats
    assert d == 1 or collocation.grid_axes(X[perm]) is None and collocation.grid_axes(moved) is None

    grid_axes = collocation.grid_axes
    for sol in (_solve_grid_field(d), _solve_grid_field(d, stretch=0.5)):
        h, grad = sol.evaluate_with_gradient(X)
        np.testing.assert_array_equal(_bits(sol.evaluate_many(X)), _bits(h))
        monkeypatch.setattr(collocation, "grid_axes", lambda X: None)
        h_points, grad_points = (a[np.argsort(perm)] for a in sol.evaluate_with_gradient(X[perm]))
        monkeypatch.setattr(collocation, "grid_axes", grid_axes)
        tol = 4 * np.finfo(float).eps * np.abs(sol.alpha).sum(axis=1)
        assert np.all(tol <= 1e-6 * np.max(np.abs(h), axis=0))
        assert np.all(np.max(np.abs(h - h_points), axis=0) <= tol)
        assert np.all(np.max(np.abs(grad - grad_points), axis=(0, 2)) <= tol)


def test_grid_evaluation_working_set_is_a_few_strips(setup):
    # h on the 145 x 145 vertices of a 144-cell mesh from 40 x 40 centers:
    # beside its (c, k) output, evaluate_many holds the (145, 41) factors of
    # each axis and strip-sized temporaries, not a row per point of origin
    # columns or kernel factors
    fld, lin = setup[0], setup[1]
    box = Box(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    prob = CollocationProblem(GaussianKernel(sigma=2.0), fld, lin, uniform_centers(box, 40), box)
    alpha = np.random.default_rng(4).standard_normal((2, prob.size))
    sol = collocation.CollocationSolution(prob, alpha, np.zeros(2), ("cholesky",) * 2)
    X = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0])).grid(145)
    sol.evaluate_many(X[:2])  # the lattice and the coefficients are cached
    tracemalloc.start()
    try:
        h = sol.evaluate_many(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - h.nbytes <= 3 * 8 * collocation._STRIP


def test_scattered_evaluation_working_set_is_a_few_strips(setup):
    # h, and h with grad h, at 2000 scattered points from 60 x 60 centers
    # (m = 3603): beside the outputs each strip of points holds its own
    # (rows, 61) factors per axis and strip-sized partial contractions, not
    # the factors of every point at once (about 5 MB, 20 _STRIPs, per axis).
    # Measured 4.0 and 6.0 _STRIPs
    fld, lin = setup[0], setup[1]
    box = Box(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    prob = CollocationProblem(GaussianKernel(sigma=2.0), fld, lin, uniform_centers(box, 60), box)
    alpha = np.random.default_rng(4).standard_normal((2, prob.size))
    sol = collocation.CollocationSolution(prob, alpha, np.zeros(2), ("cholesky",) * 2)
    X = np.random.default_rng(5).uniform(-2, 2, size=(2000, 2))
    assert collocation.grid_axes(X) is None
    sol.evaluate_many(X[:3])  # the lattice and the coefficients are cached
    for evaluate, strips in ((sol.evaluate_many, 5), (sol.evaluate_with_gradient, 7)):
        tracemalloc.start()
        try:
            out = evaluate(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))
        assert peak - held <= strips * 8 * collocation._STRIP


def test_one_dimensional_evaluation_working_set_is_a_few_strips():
    # every 1-D batch is a grid; h, and h with grad h, at 20 000 points from
    # 60 centers: beside the outputs each strip holds its own (rows, 61)
    # first-axis factors, not those of every point at once (136 and 223
    # _STRIPs). Measured 5.0 and 10.0 _STRIPs
    fld = parse_vector_field(["-2*x1 + x1^3"])
    box = Box(np.array([-3.0]), np.array([3.0]))
    prob = CollocationProblem(GaussianKernel(sigma=2.0), fld, linearize(fld), uniform_centers(box, 60), box)
    alpha = np.random.default_rng(4).standard_normal((1, prob.size))
    sol = collocation.CollocationSolution(prob, alpha, np.zeros(1), ("cholesky",))
    X = np.random.default_rng(5).uniform(-2, 2, size=(20000, 1))
    sol.evaluate_many(X[:3])  # the lattice and the coefficients are cached
    for evaluate, strips in ((sol.evaluate_many, 6), (sol.evaluate_with_gradient, 12)):
        tracemalloc.start()
        try:
            out = evaluate(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))
        assert peak - held <= strips * 8 * collocation._STRIP


def _lattice_sum(C, pairs, k):
    """The sum grid_contract forms, term by term over the lattice: row c of
    C_q's entry at (i_1, .., i_d) times, per axis l, row c of G_l for
    q = l + 1, else of F_l."""
    n = [F.shape[1] for F, _ in pairs]
    L = C.reshape(len(C), n[0], k, *n[1:])
    out = np.zeros((len(pairs[0][0]), k))
    for q in range(len(C)):
        for idx in itertools.product(*map(range, n)):
            w = np.prod([pairs[l][1 if q == l + 1 else 0][:, i] for l, i in enumerate(idx)], axis=0)
            out += w[:, None] * L[(q, idx[0], slice(None), *idx[1:])]
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_contract_matches_a_lattice_sum(d):
    # row-wise, each point with its own row of every factor, and on a grid
    # of p_l coordinates per axis, an axis of one lattice coordinate (and at
    # d = 3 of one grid coordinate) included. A last-axis pair passed with
    # another gives bitwise what it gives alone: the value and the last
    # gradient component share one inner contraction, and grid artifacts
    # stay byte for byte those of separate calls
    rng = np.random.default_rng(d)
    k, n, p = 2, {1: [3], 2: [3, 1], 3: [2, 3, 1]}[d], {1: [4], 2: [3, 2], 3: [2, 3, 1]}[d]
    C = rng.standard_normal((d + 1, n[0], k * math.prod(n[1:])))
    grid = [tuple(rng.standard_normal((2, pl, nl))) for pl, nl in zip(p, n)]
    rows = [(F[j], G[j]) for (F, G), j in zip(grid, np.indices(p).reshape(d, -1))]
    expected = _lattice_sum(C, rows, k)
    for pairs, rowwise in ((rows, True), (grid, False)):
        out = np.empty((math.prod(p), k))
        grid_contract(C, pairs, out, rowwise=rowwise)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    last = tuple(rng.standard_normal((2, p[-1], n[-1])))
    out, shared, alone = (np.empty((math.prod(p), k)) for _ in range(3))
    grid_contract(C, grid, out, [(last, shared)])
    grid_contract(C, [*grid[:-1], last], alone)
    np.testing.assert_array_equal(_bits(shared), _bits(alone))
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


def test_ill_conditioned_solve_is_silent(setup):
    # a wide kernel without ridge makes a badly conditioned Gram matrix;
    # the solve reports its method, never a warning
    fld, lin, domain, _, _ = setup
    prob = CollocationProblem(
        kernel=GaussianKernel(sigma=1.5),
        fld=fld, lin=lin,
        centers=uniform_centers(domain, 9), domain=domain, eta=0.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(prob)
    assert np.all(np.isfinite(sol.alpha))


def _spd(m, rng):
    M = rng.standard_normal((m, m))
    A = M @ M.T + m * np.eye(m)
    return (A + A.T) / 2  # symmetric bit for bit, as assembly makes A


def _bits(A):
    return np.ascontiguousarray(A).view(np.uint64)


def _upper(A):
    return _bits(A[np.triu_indices(len(A), 1)])


@pytest.mark.parametrize("m", [1, 63, 64, 65, 127, 128, 129, 300])
def test_blocked_cholesky_solve_matches_reference(m):
    # edges of the 64-column panels and of the 128-row substitution blocks:
    # one block, one short of a block, exactly one, one past, and several
    # with a ragged last one. The factor lands in the lower triangle and
    # leaves the upper one as it was.
    rng = np.random.default_rng(m)
    A0 = _spd(m, rng)
    A = A0.copy()
    b = rng.standard_normal(m)
    expected = cho_solve(cho_factor(A0), b)
    err = np.max(np.abs(_cholesky_solve(A, b) - expected))
    assert err <= 1e-12 * np.max(np.abs(expected))
    L = np.linalg.cholesky(A0)
    assert np.max(np.abs(np.tril(A) - L)) <= 1e-12 * np.max(np.abs(L))
    np.testing.assert_array_equal(_upper(A), _upper(A0))


def test_factor_failing_in_a_later_panel_keeps_upper_triangle():
    # the leading 250 x 250 block is positive definite, the leading 251 x 251
    # is not, so the fourth panel fails after three were written in place
    A0 = _spd(300, np.random.default_rng(0))
    A0[250, 250] = -1.0
    A = A0.copy()
    with pytest.raises(np.linalg.LinAlgError):
        _cholesky_solve(A, np.ones(300))
    assert not np.array_equal(A[64:, :64], A0[64:, :64])
    np.testing.assert_array_equal(_upper(A), _upper(A0))


def test_solve_matches_reference_cholesky(setup):
    # m = 147 spans two substitution blocks; the ridge keeps the condition
    # number near 2e4, so the two factorizations agree to rounding
    sol = solve(_problem(setup, eta=0.1, centers=uniform_centers(setup[2], 12)))
    A, b, _ = assemble_system(sol.problem)
    assert sol.method == ("zero", "cholesky")
    for Ai, bi, alpha in zip(A, b, sol.alpha):
        expected = cho_solve(cho_factor(Ai), bi)
        assert np.max(np.abs(alpha - expected)) <= 1e-12 * max(np.max(np.abs(expected)), 1e-300)


def _overflowing_problem(f1):
    fld = parse_vector_field([f1, "-2*x2"])
    domain = Box(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    return CollocationProblem(
        kernel=GaussianKernel(sigma=1.0), fld=fld, lin=linearize(fld),
        centers=uniform_centers(domain, 10), domain=domain, eta=0.0,
    )


def test_non_finite_system_rejected_before_factoring(setup):
    # exp(100 x1^2) overflows on the outer centers, so A and b hold inf and nan
    prob = _overflowing_problem("-x1 + x1^2*exp(100*x1^2)")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(CollocationError, match="non-finite"):
            solve(prob)


def test_non_finite_field_is_rejected_before_any_assembly(setup, monkeypatch):
    # both right-hand sides are nonzero and f overflows at the outer centers:
    # no system is assembled, so none is factored, also at m = 147 > _CHUNK
    calls = []
    gram = collocation._gram
    monkeypatch.setattr(collocation, "_gram", lambda *a: calls.append("gram") or gram(*a))
    _count_factorizations(monkeypatch, calls)
    fld = parse_vector_field(["-x1 + x2^2 + x1^2*exp(100*x1^2)", "-2*x2 + x1^2"])
    domain = Box(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    for n_per_axis in (10, 12):
        prob = CollocationProblem(
            kernel=GaussianKernel(sigma=1.0), fld=fld, lin=linearize(fld),
            centers=uniform_centers(domain, n_per_axis), domain=domain, eta=0.0,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.all(np.any(assemble_system(prob)[1], axis=1))
            calls.clear()
            with pytest.raises(CollocationError, match="non-finite"):
                solve(prob)
        assert calls == []


def test_nan_right_hand_side_is_not_skipped_as_zero():
    # inf - inf: b holds only zeros and nan, and nan must not pass as zero
    prob = _overflowing_problem("-x1 + x1^2*(exp(100*x1^2) - exp(100*x1^2))")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(CollocationError, match="non-finite"):
            solve(prob)


def test_residual_check_reads_back_the_assembled_rows(setup, monkeypatch):
    # m = 403, so a strip of 2^15 entries holds 81 rows: after the factor has
    # overwritten the lower triangle, the check forms A x - b from the strict
    # upper triangle and the saved diagonal, five strips of rows and columns.
    # A random x fails it, and the residual it reports is the assembled one
    prob = _two_system_problem(setup, eta=None, n_per_axis=20)
    assert len(collocation._strips(prob.size, prob.size)) == 5
    A, b, _ = assemble_system(prob)
    x = np.random.default_rng(4).standard_normal(prob.size)
    factored = []
    factor = collocation._cholesky_solve
    monkeypatch.setattr(
        collocation, "_cholesky_solve", lambda A, b: (factored.append(factor(A, b)), x)[1]
    )
    with pytest.raises(SingularSystemError, match="leaves a Cholesky residual") as err:
        solve(prob)
    assert len(factored) == 1
    assert f"residual of {np.max(np.abs(A[0] @ x - b[0])):.3g};" in str(err.value)


def test_solve_system_reads_only_the_upper_triangle(monkeypatch):
    # a strict lower triangle of NaN, as the buffer may hold before the
    # factor writes L there: the non-finite check, the factor and the residual
    # check read the upper triangle, over ragged strips of 7 rows, and solve
    # the symmetric system it holds
    m = 300
    monkeypatch.setattr(collocation, "_STRIP", 7 * m)
    rng = np.random.default_rng(5)
    A0, b = _spd(m, rng), rng.standard_normal(m)
    A = A0.copy()
    A[np.tril_indices(m, -1)] = np.nan
    alpha = collocation._solve_system(A, b, -1.0, 0.0)
    expected = cho_solve(cho_factor(A0), b)
    assert np.max(np.abs(alpha - expected)) <= 1e-12 * np.max(np.abs(expected))
    np.testing.assert_array_equal(_upper(A), _upper(A0))


def test_solve_does_not_read_what_its_buffer_held(setup, monkeypatch):
    # a buffer filled with NaN before each assembly gives the same alpha bit
    # for bit, for split blocks and for full systems
    probs = [
        _problem(setup, eta=None, centers=uniform_centers(setup[2], 12)),
        _two_system_problem(setup, eta=None, n_per_axis=12),
    ]
    expected = [solve(p) for p in probs]
    assert [sol.symmetry for sol in expected] == [(-1, 1), None]
    gram = collocation._gram
    monkeypatch.setattr(
        collocation, "_gram",
        lambda prob, lam, eta, block, out: gram(prob, lam, eta, block, out.fill(np.nan) or out),
    )
    for prob, sol in zip(probs, expected):
        np.testing.assert_array_equal(_bits(solve(prob).alpha), _bits(sol.alpha))


def test_solve_working_set_is_a_few_row_blocks(setup):
    # m = 579, so one Gram matrix is 2.6 MB. Beside it, solve holds a few
    # strips of at most _STRIP entries at a time, and the solve of an
    # assembled system holds no second m x m array
    prob = _two_system_problem(setup, eta=None, n_per_axis=24)
    m = prob.size
    assert m == 579
    gram, strip = 8 * m * m, 8 * collocation._STRIP
    A, b, eta = assemble_system(prob)
    tracemalloc.start()
    try:
        sol = solve(prob)
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        alpha = collocation._solve_system(A[1], b[1], prob.lin.eigenvalues[1], eta[1])
        system_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sol.method == ("cholesky", "cholesky")
    np.testing.assert_array_equal(alpha, sol.alpha[1])
    assert solve_peak - gram <= 6 * strip
    assert system_peak <= 3 * strip


def test_every_system_is_assembled_into_one_buffer(setup, monkeypatch):
    # m = 903: both Gram matrices are views of one allocation. One Gram
    # matrix is larger than 6 strips, so a second allocation of one fails
    # the bound on the peak
    grams, gram = [], collocation._gram
    monkeypatch.setattr(collocation, "_gram", lambda *a: grams.append(gram(*a)) or grams[-1])
    prob = _two_system_problem(setup, eta=None, n_per_axis=30)
    m = prob.size
    size, strip = 8 * m * m, 8 * collocation._STRIP
    assert 6 * strip < size
    prob.center_field, prob.lattice
    tracemalloc.start()
    try:
        sol = solve(prob)
        solve_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.method == ("cholesky", "cholesky")
    assert [A.shape for A in grams] == [(m, m)] * 2
    assert np.shares_memory(grams[0], grams[1])
    assert solve_peak - size <= 6 * strip


def test_unfactorable_system_raises_naming_lambda_and_eta(setup):
    # a wide kernel on a dense grid without ridge is not numerically
    # positive definite, so the factorization fails and nothing else is tried
    fld, lin, domain, _, _ = setup
    prob = CollocationProblem(
        kernel=GaussianKernel(sigma=3.0),
        fld=fld, lin=lin,
        centers=uniform_centers(domain, 10), domain=domain, eta=0.0,
    )
    with pytest.raises(SingularSystemError, match="not numerically positive definite") as err:
        solve(prob)
    assert f"lambda = {lin.eigenvalues[1]:.6g} with eta = 0 " in str(err.value)
    assert "raise eta or omit it for the automatic ridge" in str(err.value)


def test_cholesky_solution_failing_the_residual_check_raises(setup, monkeypatch):
    # 10% off the true alpha leaves a residual of 0.1 |b|, about ten times
    # 1e-8 of these systems' scale ||A|| |alpha| + |b|
    factor = collocation._cholesky_solve
    monkeypatch.setattr(collocation, "_cholesky_solve", lambda A, b: factor(A, b) * 1.1)
    with pytest.raises(SingularSystemError, match="leaves a Cholesky residual") as err:
        solve(_two_system_problem(setup, eta=None))
    assert "with eta = " in str(err.value) and "raise eta" in str(err.value)



# --- mirror split -----------------------------------------------------------------


@pytest.mark.parametrize("name, signs, parity", [("duffing", (-1, -1), (-1, -1)),
                                                 ("example1", (-1, 1), (None, 1))])
def test_eigenfunctions_have_the_parity_of_their_block(name, signs, parity):
    # phi = w . x + h with alpha_Sa = p alpha_a on mirrored centers, so
    # phi(S x) = p phi(x) up to the rounding of a sum over alpha
    cfg = load_config(bundled_config_path(name))
    fld = parse_vector_field(cfg.system)
    prob = CollocationProblem(
        kernel=GaussianKernel(sigma=cfg.sigma), fld=fld, lin=linearize(fld),
        centers=uniform_centers(cfg.domain, 12), domain=cfg.domain, eta=cfg.eta,
    )
    sol = solve(prob)
    assert sol.symmetry == signs and sol.parity == parity
    assert sol.unknowns == tuple(0 if p is None else prob.n_centers // 2 + 2 for p in parity)
    S = np.array(signs)
    X = np.random.default_rng(0).uniform(prob.domain.lower, prob.domain.upper, size=(200, 2))
    phi = X @ prob.lin.left_eigenvectors.T + sol.evaluate_many(X)
    phi_S = (X * S) @ prob.lin.left_eigenvectors.T + sol.evaluate_many(X * S)
    for i, p in enumerate(parity):
        if p is None:  # a linear eigenfunction: w . S x = -w . x here
            np.testing.assert_array_equal(sol.alpha[i], np.zeros(prob.size))
            continue
        bound = 16 * np.finfo(float).eps * np.abs(sol.alpha[i]).sum()
        assert np.max(np.abs(phi_S[:, i] - p * phi[:, i])) <= bound


def _block_basis(block, n, m):
    """Q (m, size): the block's functionals as orthonormal columns."""
    Q = np.zeros((m, block.size))
    r = len(block.centers)
    Q[block.centers, np.arange(r)] = 1.0 / block.scale
    Q[block.mirrors, np.arange(r)] = block.parity / block.scale
    Q[n + block.origin, r + np.arange(len(block.origin))] = 1.0
    return Q


@pytest.mark.parametrize("rows", [128, 7])
@pytest.mark.parametrize("parity", [1, -1])
def test_block_is_the_full_gram_matrix_in_the_mirror_basis(setup, parity, rows, monkeypatch):
    # the block assembled from the representatives' rows equals Q^T A Q of
    # the full matrix, ridge eta on its diagonal, read from the upper triangle
    # that _gram writes, leaving what lies below it untouched; the even block
    # holds the value and d/dx2 rows, the odd one d/dx1
    prob = _problem(setup, eta=1e-3, centers=uniform_centers(setup[2], 12))
    monkeypatch.setattr(collocation, "_STRIP", rows * prob.n_centers // 2)
    n, m = prob.n_centers, prob.size
    signs, blocks = _mirror_split(prob, collocation._rhs(prob))
    assert signs == (-1, 1) and blocks[1].parity == 1
    even = blocks[1]
    np.testing.assert_array_equal(even.origin, [0, 2])
    block = even if parity == 1 else _Block(even.centers, even.mirrors, -1, np.array([1]))
    A, _, eta = assemble_system(prob)
    lam = prob.lin.eigenvalues[1]
    size = n // 2 + len(block.origin)
    assert block.size == size
    K = collocation._gram(prob, lam, eta[1], block, np.full((size, size), np.nan))
    below = np.tri(size, k=-1, dtype=bool)
    assert np.all(np.isnan(K[below])) and np.all(np.isfinite(K[~below]))
    K = np.where(below, K.T, K)
    Q = _block_basis(block, n, m)
    np.testing.assert_allclose(Q.T @ Q, np.eye(block.size), atol=1e-15)
    assert np.max(np.abs(K - Q.T @ A[1] @ Q)) <= 1e-14 * np.max(np.abs(A[1]))


def test_block_solution_matches_cholesky_solve_of_the_full_system(setup):
    # eta = 0.1 keeps the condition number near 2e4, so the half-size block
    # and the full system agree to rounding in the size of alpha
    prob = _problem(setup, eta=0.1, centers=uniform_centers(setup[2], 12))
    sol = solve(prob)
    assert sol.symmetry == (-1, 1) and sol.unknowns == (0, 74)
    A, b, _ = assemble_system(prob)
    expected = _cholesky_solve(A[1], b[1])
    bound = 256 * np.finfo(float).eps * np.abs(expected).sum()
    assert np.max(np.abs(sol.alpha[1] - expected)) <= bound


_BOX = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))


@pytest.mark.parametrize(
    "system, domain, n_per_axis",
    [
        # example1 with a term that no diagonal sign matrix keeps
        (["-2*x1", "-3*(x2 - x1^2) + x1*x2"], _BOX, 10),
        # example1 with its odd component perturbed by 1e-9 x2: every right-hand
        # side keeps its parity, and only f at the mirrored centers tells
        (["-2*x1 + 1e-9*x2", "-3*(x2 - x1^2)"], _BOX, 10),
        # example1 on an odd grid: centers on x1 = 0 and the moved origin center
        (["-2*x1", "-3*(x2 - x1^2)"], _BOX, 9),
        # an odd grid on a box off the origin: every mirror is a center, but the
        # centers on x1 = 0 are their own
        (["-2*x1", "-3*(x2 - x1^2)"], Box(np.array([-2.0, 1.0]), np.array([2.0, 3.0])), 9),
        # example1 on a box not symmetric in x1
        (["-2*x1", "-3*(x2 - x1^2)"], Box(np.array([-2.0, -2.0]), np.array([2.5, 2.0])), 10),
    ],
    ids=["no-symmetry", "perturbed-odd-term", "odd-grid", "centers-on-the-mirror", "asymmetric-box"],
)
def test_solve_falls_back_to_the_full_system(system, domain, n_per_axis):
    fld = parse_vector_field(system)
    prob = CollocationProblem(
        kernel=GaussianKernel(sigma=SIGMA), fld=fld, lin=linearize(fld),
        centers=uniform_centers(domain, n_per_axis), domain=domain, eta=None,
    )
    sol = solve(prob)
    assert sol.symmetry is None and sol.parity == (None, None)
    assert sol.method[1] == "cholesky"
    A, b, _ = assemble_system(prob)
    for Ai, bi, alpha, method, unknowns in zip(A, b, sol.alpha, sol.method, sol.unknowns):
        assert unknowns == (prob.size if method == "cholesky" else 0)
        if method == "cholesky":
            np.testing.assert_array_equal(alpha, _cholesky_solve(Ai, bi))


def test_split_solve_working_set_is_the_block_and_a_few_row_blocks(setup):
    # m = 1603 and the even block has k = 802 unknowns: solve holds one k x k
    # Gram block, a quarter of 8 m^2, and a few strips of at most _STRIP entries
    prob = _problem(setup, eta=None, centers=uniform_centers(setup[2], 40))
    m, k = prob.size, prob.n_centers // 2 + 2
    gram, strip = 8 * k * k, 8 * collocation._STRIP
    assert gram + 7 * strip < 8 * m * m / 2
    prob.center_field, prob.lattice
    tracemalloc.start()
    try:
        sol = solve(prob)
        solve_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.unknowns == (0, k)
    assert solve_peak - gram <= 7 * strip
