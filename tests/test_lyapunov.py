import numpy as np
import pytest

from koopman_lyap.box import Box
from koopman_lyap.expr import parse_vector_field
from koopman_lyap.koopman import EigenfunctionSet
from koopman_lyap.lyapunov import (
    LyapunovError,
    LyapunovModel,
    SurfaceGrid,
    diagnostics,
    grid_eval,
    solve_p,
)

from fakes import CubicExact, ZeroH


@pytest.fixture(scope="module")
def exact_model():
    eigs = EigenfunctionSet([-2.0, -3.0], np.eye(2), CubicExact())
    return LyapunovModel(eigenfunctions=eigs, P=solve_p([-2.0, -3.0]))


@pytest.fixture(scope="module")
def cubic_field():
    return parse_vector_field(["-2*x1", "-3*(x2 - x1^2)"])


# --- solve_p -------------------------------------------------------------------


def test_solve_p_benchmark_spectrum():
    P = solve_p([-2.0, -3.0])
    np.testing.assert_array_equal(P, np.diag([0.25, 1.0 / 6.0]))


def test_solve_p_single_eigenvalue():
    np.testing.assert_array_equal(solve_p([-0.5]), [[1.0]])


def test_solve_p_residual_random_spectra():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.integers(1, 7)
        lams = -np.exp(rng.uniform(-2, 2, size=d))
        if np.unique(lams).size < d:
            continue
        P = solve_p(lams)
        L = np.diag(lams)
        resid = np.max(np.abs(L.T @ P + P @ L + np.eye(d)))
        assert resid <= 1e-12 * d


def test_solve_p_rejects_bad_spectra():
    with pytest.raises(LyapunovError, match="empty"):
        solve_p([])
    with pytest.raises(LyapunovError, match="negative"):
        solve_p([-1.0, 0.5])
    with pytest.raises(LyapunovError, match="distinct"):
        solve_p([-1.0, -1.0])


# --- the quadratic form ----------------------------------------------------------


def test_value_at_benchmark_point(exact_model):
    assert exact_model.value_many(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.75, abs=1e-10)


def test_orbital_derivative_at_benchmark_point(exact_model, cubic_field):
    vdot = exact_model.orbital_derivative_many(cubic_field, np.array([[1.0, 0.0]]))[0]
    assert vdot == pytest.approx(-10.0, abs=1e-10)


def test_value_and_derivative_vanish_at_origin(exact_model, cubic_field):
    assert exact_model.value_many(np.zeros((1, 2)))[0] == 0.0
    assert exact_model.orbital_derivative_many(cubic_field, np.zeros((1, 2)))[0] == 0.0


def test_value_positive_away_from_origin(exact_model):
    X = np.random.default_rng(1).uniform(-3, 3, size=(1000, 2))
    X = X[np.linalg.norm(X, axis=1) > 1e-6]
    assert np.min(exact_model.value_many(X)) > 0.0


def test_orbital_derivative_spectral_identity(exact_model, cubic_field):
    # for exact eigenfunctions, Vdot = sum_ij P_ij (lam_i + lam_j) phi_i phi_j
    X = np.random.default_rng(2).uniform(-2, 2, size=(20, 2))
    lams = exact_model.eigenvalues
    P = exact_model.P
    phis = exact_model.eigenfunctions.value_many(X)
    expected = np.einsum(
        "ij,si,sj->s", P * (lams[:, None] + lams[None, :]), phis, phis
    )
    got = exact_model.orbital_derivative_many(cubic_field, X)
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_one_dimensional_model():
    fld = parse_vector_field(["-2*x1"])
    model = LyapunovModel(
        eigenfunctions=EigenfunctionSet([-2.0], [[1.0]], ZeroH()), P=solve_p([-2.0])
    )
    for t in (-1.5, 0.3, 2.0):
        x = np.array([[t]])
        assert model.value_many(x)[0] == pytest.approx(0.25 * t * t, abs=1e-14)
        assert model.orbital_derivative_many(fld, x)[0] == pytest.approx(-t * t, abs=1e-13)


def test_batch_forms_match_pointwise(exact_model, cubic_field):
    X = np.random.default_rng(3).uniform(-2, 2, size=(15, 2))
    vals = exact_model.value_many(X)
    vdots = exact_model.orbital_derivative_many(cubic_field, X)
    for i in range(len(X)):
        row = X[i : i + 1]
        assert vals[i] == pytest.approx(exact_model.value_many(row)[0], rel=1e-12)
        assert vdots[i] == pytest.approx(
            exact_model.orbital_derivative_many(cubic_field, row)[0], rel=1e-12
        )


def test_model_validates_p(exact_model):
    eigs = exact_model.eigenfunctions
    with pytest.raises(LyapunovError, match="symmetric"):
        LyapunovModel(eigenfunctions=eigs, P=np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(LyapunovError, match="2x2"):
        LyapunovModel(eigenfunctions=eigs, P=np.eye(3))


# --- diagnostics -----------------------------------------------------------------


def test_diagnostics_report_values(exact_model, cubic_field):
    domain = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    grid = grid_eval(exact_model, cubic_field, domain, 41)
    rep = diagnostics(exact_model, fill_dist=0.123, grid=grid)
    assert rep.fill_dist == 0.123
    assert rep.lambda_bar == -2.0
    assert rep.alpha == 2.0
    # P = diag(1/4, 1/6): its spectral norm is 1/(2 alpha)
    assert rep.p_norm2 == 0.25
    np.testing.assert_allclose(rep.sup_phi, [2.0, 14.0], atol=1e-12)
    text = rep.format_text()
    assert "fill distance" in text
    assert "||P||_2 (= 1 / (2 alpha)):      0.25\n" in text
    assert "<=" not in text
    assert "sup |phi_2|" in text


# --- surface grids ---------------------------------------------------------------


def test_surface_grid_csv_format(tmp_path, exact_model, cubic_field):
    domain = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    grid = grid_eval(exact_model, cubic_field, domain, 3).V
    path = tmp_path / "V.csv"
    grid.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "# domain -1 1 -1 1; resolution 3 3; quantity V"
    assert len(lines) == 1 + 9
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    # row-major with the first coordinate slowest
    np.testing.assert_array_equal(rows[:3, 0], [-1.0, -1.0, -1.0])
    np.testing.assert_array_equal(rows[:3, 1], [-1.0, 0.0, 1.0])
    # origin row carries V(0) = 0 exactly
    origin_row = rows[(rows[:, 0] == 0.0) & (rows[:, 1] == 0.0)]
    assert origin_row.shape == (1, 3)
    assert origin_row[0, 2] == 0.0
    # values round-trip against direct evaluation
    np.testing.assert_array_equal(rows[:, 2], exact_model.value_many(rows[:, :2]))


def test_grid_eval_corners(exact_model, cubic_field):
    domain = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    grid = grid_eval(exact_model, cubic_field, domain, 2)
    assert grid.V.values.shape == (2, 2)
    assert np.all(grid.V.values > 0.0)
    assert np.all(grid.Vdot.values < 0.0)


def test_grid_eval_smoke_on_large_grid(exact_model, cubic_field):
    domain = Box(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    grid = grid_eval(exact_model, cubic_field, domain, 60).Vdot
    assert grid.values.shape == (60, 60)
    assert np.all(np.isfinite(grid.values))
    assert np.all(grid.values <= 0.0)


def test_grid_eval_rejects_bad_input():
    fld1 = parse_vector_field(["-1*x1"])
    model1 = LyapunovModel(
        eigenfunctions=EigenfunctionSet([-1.0], [[1.0]], ZeroH()), P=solve_p([-1.0])
    )
    dom1 = Box(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(LyapunovError, match="2-D"):
        grid_eval(model1, fld1, dom1, 3)


def test_surface_grid_rectangular_resolution(exact_model, cubic_field):
    domain = Box(np.array([-1.0, -2.0]), np.array([1.0, 2.0]))
    grid = grid_eval(exact_model, cubic_field, domain, (3, 5)).V
    assert grid.values.shape == (3, 5)
    assert grid.resolution == (3, 5)
