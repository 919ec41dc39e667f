import numpy as np
import pytest

from koopman_lyap import pipeline
from koopman_lyap.box import Box
from koopman_lyap.config import RunConfig
from koopman_lyap.expr import parse_vector_field
from koopman_lyap.lyapunov import LyapunovError, LyapunovModel, diagnostics, solve_p

from fakes import CUBIC, CubicExact, ZeroH, eigenfunction_set


def _box(lo, hi):
    return Box(np.array([lo, lo]), np.array([hi, hi]))


@pytest.fixture(scope="module")
def exact_model():
    return LyapunovModel(eigenfunction_set(CUBIC, CubicExact()))


@pytest.fixture(scope="module")
def cubic_field():
    return parse_vector_field(CUBIC)


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
        P = solve_p(lams)
        L = np.diag(lams)
        resid = np.max(np.abs(L.T @ P + P @ L + np.eye(d)))
        assert resid <= 1e-12 * d


def test_solve_p_rejects_bad_spectra():
    with pytest.raises(LyapunovError, match="empty"):
        solve_p([])
    with pytest.raises(LyapunovError, match="negative"):
        solve_p([-1.0, 0.5])


def test_solve_p_accepts_a_repeated_spectrum():
    # diag(1 / (2 |lambda|)) solves the Lyapunov equation whether or not
    # eigenvalues repeat
    np.testing.assert_array_equal(solve_p([-1.0, -1.0]), np.diag([0.5, 0.5]))


def test_solve_p_rejects_a_non_finite_p():
    # 1 / (2 |lambda|) overflows for a subnormal lambda; the residual check
    # alone would pass it, since 0 * inf makes the off-diagonal residual NaN
    with pytest.raises(LyapunovError, match="overflows"):
        solve_p([-1e-320, -1.0])


def test_model_p_solves_the_lyapunov_equation_of_its_spectrum(exact_model):
    lams = exact_model.eigenfunctions.eigenvalues
    np.testing.assert_array_equal(lams, [-2.0, -3.0])
    np.testing.assert_array_equal(exact_model.P, solve_p(lams))


# --- the quadratic form ----------------------------------------------------------


def test_value_at_benchmark_point(exact_model):
    assert exact_model.value_many(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.75, abs=1e-10)


def test_orbital_derivative_at_benchmark_point(exact_model, cubic_field):
    vdot = exact_model.evaluate_with_derivative(cubic_field, np.array([[1.0, 0.0]]))[2][0]
    assert vdot == pytest.approx(-10.0, abs=1e-10)


def test_value_and_derivative_vanish_at_origin(exact_model, cubic_field):
    assert exact_model.value_many(np.zeros((1, 2)))[0] == 0.0
    assert exact_model.evaluate_with_derivative(cubic_field, np.zeros((1, 2)))[2][0] == 0.0


def test_value_positive_away_from_origin(exact_model):
    X = np.random.default_rng(1).uniform(-3, 3, size=(1000, 2))
    X = X[np.linalg.norm(X, axis=1) > 1e-6]
    assert np.min(exact_model.value_many(X)) > 0.0


def test_orbital_derivative_spectral_identity(exact_model, cubic_field):
    # for exact eigenfunctions, Vdot = sum_ij P_ij (lam_i + lam_j) phi_i phi_j
    X = np.random.default_rng(2).uniform(-2, 2, size=(20, 2))
    lams = exact_model.eigenfunctions.eigenvalues
    P = exact_model.P
    phis = exact_model.eigenfunctions.value_many(X)
    expected = np.einsum(
        "ij,si,sj->s", P * (lams[:, None] + lams[None, :]), phis, phis
    )
    got = exact_model.evaluate_with_derivative(cubic_field, X)[2]
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_one_dimensional_model():
    fld = parse_vector_field(["-2*x1"])
    model = LyapunovModel(eigenfunction_set(["-2*x1"], ZeroH()))
    for t in (-1.5, 0.3, 2.0):
        x = np.array([[t]])
        assert model.value_many(x)[0] == pytest.approx(0.25 * t * t, abs=1e-14)
        assert model.evaluate_with_derivative(fld, x)[2][0] == pytest.approx(-t * t, abs=1e-13)


def test_batch_forms_match_pointwise(exact_model, cubic_field):
    X = np.random.default_rng(3).uniform(-2, 2, size=(15, 2))
    vals = exact_model.value_many(X)
    vdots = exact_model.evaluate_with_derivative(cubic_field, X)[2]
    for i in range(len(X)):
        row = X[i : i + 1]
        assert vals[i] == pytest.approx(exact_model.value_many(row)[0], rel=1e-12)
        assert vdots[i] == pytest.approx(
            exact_model.evaluate_with_derivative(cubic_field, row)[2][0], rel=1e-12
        )


# --- diagnostics -----------------------------------------------------------------


def test_diagnostics_report_values(exact_model):
    phi = exact_model.eigenfunctions.value_many(_box(-2.0, 2.0).grid(41))
    text = diagnostics(exact_model, fill_dist=0.123, phi=phi)
    assert text.split("\n") == [
        "diagnostics",
        "  fill distance (probe estimate): 0.123",
        "  lambda_bar (max eigenvalue):    -2",
        "  alpha (min |eigenvalue|):       2",
        # P = diag(1/4, 1/6): its spectral norm is 1/(2 alpha)
        "  ||P||_2 (= 1 / (2 alpha)):      0.25",
        "  sup |phi_1| on probe grid:     2",
        "  sup |phi_2| on probe grid:     14",
        "",
    ]


# --- surfaces written by the lyapunov stage ------------------------------------------


def _stage_surfaces(tmp_path, monkeypatch, exact_model, lo, hi, n):
    """Run the lyapunov stage on the exact eigenfunctions over the test grid
    [lo, hi]^2 with n nodes per axis; the V and Vdot files' lines."""
    eigset = exact_model.eigenfunctions
    system = ("-2*x1", "-3*(x2 - x1^2)")
    cfg = RunConfig(system=system, domain=_box(-5.0, 5.0), test_domain=_box(lo, hi), test_resolution=n)
    loaded = (parse_vector_field(system), None, eigset, {"fill_distance": 0.5})
    monkeypatch.setattr(pipeline, "load_eigenfunctions", lambda cfg, outdir: loaded)
    model, _ = pipeline.stage_lyapunov(cfg, tmp_path)
    np.testing.assert_array_equal(model.P, exact_model.P)
    return [(tmp_path / f"{q}.csv").read_text().split("\n") for q in ("V", "Vdot")]


def _rows(lines):
    assert lines[-1] == ""
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:-1]])


def test_surface_grid_csv_format(tmp_path, monkeypatch, exact_model):
    v_lines, vdot_lines = _stage_surfaces(tmp_path, monkeypatch, exact_model, -1.0, 1.0, 3)
    assert v_lines[0] == "# domain -1 1 -1 1; resolution 3 3; quantity V"
    assert vdot_lines[0] == "# domain -1 1 -1 1; resolution 3 3; quantity Vdot"
    rows = _rows(v_lines)
    assert rows.shape == (9, 3)
    # row-major with the first coordinate slowest
    np.testing.assert_array_equal(rows[:3, 0], [-1.0, -1.0, -1.0])
    np.testing.assert_array_equal(rows[:3, 1], [-1.0, 0.0, 1.0])
    np.testing.assert_array_equal(_rows(vdot_lines)[:, :2], rows[:, :2])
    # origin row carries V(0) = 0 exactly
    origin_row = rows[(rows[:, 0] == 0.0) & (rows[:, 1] == 0.0)]
    assert origin_row.shape == (1, 3)
    assert origin_row[0, 2] == 0.0
    # values round-trip against direct evaluation
    np.testing.assert_array_equal(rows[:, 2], exact_model.value_many(rows[:, :2]))


def test_grid_eval_corners(tmp_path, monkeypatch, exact_model):
    v_lines, vdot_lines = _stage_surfaces(tmp_path, monkeypatch, exact_model, -1.0, 1.0, 2)
    V, Vdot = _rows(v_lines)[:, 2], _rows(vdot_lines)[:, 2]
    assert V.shape == (4,)
    assert np.all(V > 0.0)
    assert np.all(Vdot < 0.0)


def test_grid_eval_smoke_on_large_grid(tmp_path, monkeypatch, exact_model):
    _, vdot_lines = _stage_surfaces(tmp_path, monkeypatch, exact_model, -5.0, 5.0, 60)
    Vdot = _rows(vdot_lines)[:, 2]
    assert Vdot.shape == (3600,)
    assert np.all(np.isfinite(Vdot))
    assert np.all(Vdot <= 0.0)
