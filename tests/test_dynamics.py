import numpy as np
import pytest
from scipy.linalg import expm

from koopman_lyap.dynamics import (
    BlowUpError,
    EquilibriumError,
    SpectrumError,
    jacobian_exprs,
    linearize,
    rk4_step,
)
from koopman_lyap.expr import parse_vector_field


@pytest.fixture
def cubic_field():
    # decoupled system with a quadratic coupling term in the second row
    return parse_vector_field(["-2*x1", "-3*(x2 - x1^2)"])


@pytest.fixture
def duffing_field():
    return parse_vector_field(["x2", "-3*x2 - 1*x1 - 1*x1^3"])


def test_linearize_cubic_field(cubic_field):
    lin = linearize(cubic_field)
    np.testing.assert_allclose(lin.E, [[-2.0, 0.0], [0.0, -3.0]], atol=1e-14)
    np.testing.assert_allclose(lin.eigenvalues, [-2.0, -3.0], atol=1e-14)
    np.testing.assert_allclose(
        lin.left_eigenvectors, [[1.0, 0.0], [0.0, 1.0]], atol=1e-14
    )
    assert lin.dim == 2


def test_linearize_duffing(duffing_field):
    lin = linearize(duffing_field)
    np.testing.assert_allclose(lin.E, [[0.0, 1.0], [-1.0, -3.0]], atol=1e-14)
    expected = np.array([(-3 + np.sqrt(5)) / 2, (-3 - np.sqrt(5)) / 2])
    np.testing.assert_allclose(lin.eigenvalues, expected, atol=1e-12)
    # descending order, slow mode first
    assert lin.eigenvalues[0] > lin.eigenvalues[1]


def test_left_eigenvector_identity(duffing_field):
    lin = linearize(duffing_field)
    for lam, w in zip(lin.eigenvalues, lin.left_eigenvectors):
        np.testing.assert_allclose(w @ lin.E, lam * w, atol=1e-12)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert w[np.argmax(np.abs(w))] > 0


def test_linearize_rejects_non_equilibrium():
    fld = parse_vector_field(["x2 + 1", "-3*x2 - x1"])
    with pytest.raises(EquilibriumError, match="not an equilibrium"):
        linearize(fld)


def test_linearize_rejects_nan_at_the_origin():
    # inf - inf is NaN, and NaN > tol is False: the check must fail it
    fld = parse_vector_field(["-x1 + exp(800 + x1) - exp(800 + x1)", "-2*x2"])
    with pytest.raises(EquilibriumError, match=r"\|f\(0\)\| = nan"):
        linearize(fld)


def test_linearize_rejects_non_finite_jacobian():
    # f(0) = 0, but d f1 / d x1 folds 1e200 * 1e200 to inf
    fld = parse_vector_field(["x2 + 1e200*(1e200*x1)", "-3*x2 - x1"])
    with pytest.raises(SpectrumError, match="Jacobian at the origin is not finite"):
        linearize(fld)


def test_linearize_rejects_complex_spectrum():
    # light damping makes the origin a spiral
    fld = parse_vector_field(["x2", "-0.5*x2 - 1*x1 - 1*x1^3"])
    with pytest.raises(SpectrumError, match="complex"):
        linearize(fld)


def test_linearize_rejects_repeated_eigenvalues():
    fld = parse_vector_field(["-1*x1", "-1*x2"])
    with pytest.raises(SpectrumError, match="repeated"):
        linearize(fld)


def test_linearize_rejects_non_hurwitz():
    fld = parse_vector_field(["x1", "-1*x2"])
    with pytest.raises(SpectrumError, match="Hurwitz"):
        linearize(fld)


def test_linearize_ignores_higher_order_terms(cubic_field):
    perturbed = parse_vector_field(
        ["-2*x1 + 5*x1^2*x2", "-3*(x2 - x1^2) - 7*x2^3"]
    )
    lin0 = linearize(cubic_field)
    lin1 = linearize(perturbed)
    np.testing.assert_allclose(lin1.E, lin0.E, atol=1e-12)


def test_jacobian_exprs_entries(cubic_field):
    rows = jacobian_exprs(cubic_field)
    vals = np.array([[e.evaluate((1.0, 2.0)) for e in row] for row in rows])
    np.testing.assert_allclose(vals, [[-2.0, 0.0], [6.0, -3.0]], atol=1e-14)


# --- integration -------------------------------------------------------------


def _rk4_flow(fld, x0, t_end, dt):
    """States at t = 0, dt, .., t_end of a loop of rk4_step calls, as the
    path-integral oracle runs them; BlowUpError at the first non-finite state."""
    states = [np.asarray(x0, dtype=float)]
    for k in range(int(round(t_end / dt))):
        x = rk4_step(fld, states[-1], dt)
        if not np.all(np.isfinite(x)):
            raise BlowUpError((k + 1) * dt)
        states.append(x)
    return np.array(states)


def test_zero_field_is_stationary():
    fld = parse_vector_field(["0*x1", "0*x2"])
    x0 = np.array([0.3, -0.7])
    states = _rk4_flow(fld, x0, t_end=1.0, dt=0.1)
    assert len(states) == 11
    np.testing.assert_array_equal(states[-1], x0)


def test_scalar_decay_reaches_exp_minus_two():
    fld = parse_vector_field(["-2*x1", "-3*x2"])
    states = _rk4_flow(fld, np.array([1.0, 0.0]), t_end=1.0, dt=1e-3)
    assert states[-1, 0] == pytest.approx(np.exp(-2.0), abs=1e-6)


def test_flow_matches_matrix_exponential(duffing_field):
    # on the linear part alone, RK4 must track expm to 1e-6 over [0, 5]
    lin = linearize(duffing_field)
    fld = parse_vector_field(["x2", "-3*x2 - 1*x1"])
    x0 = np.array([1.0, -0.5])
    states = _rk4_flow(fld, x0, t_end=5.0, dt=1e-3)
    assert len(states) == 5001
    for k in range(0, len(states), 500):
        np.testing.assert_allclose(states[k], expm(lin.E * k * 1e-3) @ x0, atol=1e-6)


def test_trajectory_decays_to_origin(cubic_field):
    states = _rk4_flow(cubic_field, np.array([1.5, -2.0]), t_end=10.0, dt=1e-3)
    assert np.linalg.norm(states[-1]) <= 1e-6


def test_blow_up_raises():
    fld = parse_vector_field(["x1^2 - 0*x2", "0*x1 + x2"])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError, match="blew up") as exc:
            _rk4_flow(fld, np.array([2.0, 0.0]), t_end=5.0, dt=1e-3)
    assert 0.0 < exc.value.t <= 5.0


def test_rk4_step_order():
    # single RK4 step on x' = -x has local error O(dt^5)
    fld = parse_vector_field(["-1*x1"])
    x = np.array([1.0])
    for dt in (0.1, 0.05):
        err = abs(rk4_step(fld, x, dt)[0] - np.exp(-dt))
        assert err <= dt**5
