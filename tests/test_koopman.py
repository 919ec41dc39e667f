import warnings

import numpy as np
import pytest

from koopman_lyap import koopman
from koopman_lyap.box import Box
from koopman_lyap.collocation import uniform_centers
from koopman_lyap.dynamics import (
    BlowUpError,
    DynamicsError,
    linearize,
    nonlinear_part,
    rk4_step,
)
from koopman_lyap.expr import parse_vector_field
from koopman_lyap.kernel import GaussianKernel
from koopman_lyap.koopman import (
    ConvergenceConditionError,
    EigenfunctionSet,
    build_eigenfunctions,
    path_integral_phi,
)

from fakes import ZeroH


@pytest.fixture(scope="module")
def cubic():
    fld = parse_vector_field(["-2*x1", "-3*(x2 - x1^2)"])
    return fld, linearize(fld)


@pytest.fixture(scope="module")
def eigs(cubic):
    fld, lin = cubic
    domain = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    centers = uniform_centers(domain, 7)
    kern = GaussianKernel(sigma=1.0, dim=2)
    return build_eigenfunctions(fld, lin, kern, centers, domain, eta=0.0)


def test_build_returns_one_per_eigenvalue(cubic, eigs):
    _, lin = cubic
    assert len(eigs) == 2
    np.testing.assert_allclose(eigs.eigenvalues, lin.eigenvalues, atol=0)
    for e, lam in zip(eigs, lin.eigenvalues):
        assert e.lam == lam


def test_eigenfunction_vanishes_at_origin(eigs):
    for e in eigs:
        assert abs(e.value_many(np.zeros((1, 2)))[0]) <= 1e-10


def test_eigenfunction_gradient_at_origin_is_w(eigs):
    for e in eigs:
        np.testing.assert_allclose(e.gradient_many(np.zeros((1, 2)))[0], e.w, atol=1e-9)


def test_slow_eigenfunction_is_linear_coordinate(eigs):
    # the first eigenvalue has a homogeneous correction problem, so phi1 is
    # exactly the first coordinate
    phi1 = eigs[0]
    assert phi1.value_many(np.array([[1.5, -2.0]]))[0] == 1.5
    X = np.random.default_rng(0).uniform(-2, 2, size=(40, 2))
    np.testing.assert_array_equal(phi1.value_many(X), X[:, 0])


def test_fast_eigenfunction_tracks_closed_form(cubic):
    # phi2 = x2 + 3 x1^2 exactly; a denser ridge-regularized grid recovers it
    # to a few parts in 1e4
    fld, lin = cubic
    domain = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    dense = build_eigenfunctions(
        fld, lin, GaussianKernel(sigma=1.0, dim=2),
        uniform_centers(domain, 15), domain, eta=1e-10,
    )
    X = np.random.default_rng(1).uniform(-1.5, 1.5, size=(60, 2))
    exact = X[:, 1] + 3.0 * X[:, 0] ** 2
    assert np.max(np.abs(dense[1].value_many(X) - exact)) <= 1e-3


def test_pde_residual_of_slow_eigenfunction_is_zero(cubic, eigs):
    fld, _ = cubic
    phi1 = eigs[0]
    X = np.random.default_rng(2).uniform(-2, 2, size=(100, 2))
    F = fld.evaluate_at(X)
    resid = np.einsum("ij,ij->i", phi1.gradient_many(X), F) \
        - phi1.lam * phi1.value_many(X)
    np.testing.assert_array_equal(resid, np.zeros(100))


def test_linear_part_split(eigs):
    # phi - h must be exactly w . x
    X = np.array([[0.7, -0.3]])
    phi, grad = eigs.evaluate_with_gradient(X)
    h, grad_h = eigs.h.evaluate_with_gradient(X)
    for i, e in enumerate(eigs):
        assert phi[0, i] - h[0, i] == pytest.approx(e.w @ X[0], abs=1e-14)
        np.testing.assert_allclose(grad[0, i] - grad_h[0, i], e.w, atol=1e-14)


def test_batch_forms_match_pointwise(eigs):
    # the values-only and the joint path contract the same basis values, so
    # they agree bitwise, and each eigenfunction is a column of the set's
    # evaluation; a 1-row batch sums in another BLAS order
    X = np.random.default_rng(3).uniform(-2, 2, size=(10, 2))
    vals, grads = eigs.evaluate_with_gradient(X)
    assert vals.shape == (10, 2) and grads.shape == (10, 2, 2)
    np.testing.assert_array_equal(eigs.value_many(X), vals)
    for i, e in enumerate(eigs):
        np.testing.assert_array_equal(e.value_many(X), vals[:, i])
        np.testing.assert_array_equal(e.gradient_many(X), grads[:, i])
    for p in range(X.shape[0]):
        row = X[p : p + 1]
        val, grad = eigs.evaluate_with_gradient(row)
        np.testing.assert_allclose(vals[p], val[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(vals[p], eigs.value_many(row)[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads[p], grad[0], atol=1e-12)


# --- the eigenfunction container ----------------------------------------------


def test_set_requires_full_count():
    with pytest.raises(ValueError, match="expected 2"):
        EigenfunctionSet([-2.0], [[1.0, 0.0]], ZeroH())


def test_set_requires_distinct_eigenvalues():
    with pytest.raises(ValueError, match="distinct"):
        EigenfunctionSet([-2.0, -2.0], np.eye(2), ZeroH())


def test_set_iteration_and_indexing(eigs):
    assert [e.lam for e in eigs] == [eigs[0].lam, eigs[1].lam]
    assert eigs[-1].lam == eigs[1].lam


# --- path integrals -------------------------------------------------------------


def _path_integral(fld, lin, which, X, **kw):
    """path_integral_phi for the eigenvalues at indices `which`."""
    return path_integral_phi(
        fld, lin, lin.eigenvalues[which], lin.left_eigenvectors[which], X, **kw
    )


def test_path_integral_fast_eigenvalue(cubic):
    # for lambda2 = -3 the integral reproduces x2 + 3 x1^2
    fld, lin = cubic
    val = _path_integral(fld, lin, [1], [[1.0, 0.0]])
    assert val.shape == (1, 1)
    assert val[0, 0] == pytest.approx(3.0, abs=1e-6)


def test_path_integral_at_origin(cubic):
    fld, lin = cubic
    val = _path_integral(fld, lin, [1], np.zeros((1, 2)))
    assert val[0, 0] == 0.0


def test_path_integral_slow_eigenvalue_is_coordinate(cubic):
    # w1 . G vanishes identically, so the quadrature adds exactly nothing
    fld, lin = cubic
    X = np.array([[0.4, -1.2], [1.9, 0.3]])
    val = _path_integral(fld, lin, [0], X)
    np.testing.assert_array_equal(val[:, 0], X[:, 0])


def _scalar_path_integral(fld, lin, lam, w, x, t_max, dt):
    """Reference: one point and one eigenvalue per trajectory, same rule,
    with the tail constants koopman holds when it is called."""
    n_steps = max(1, int(round(t_max / dt)))
    h = t_max / n_steps

    def g(t, state):
        return float(np.exp(-lam * t) * (w @ nonlinear_part(fld, lin, state)))

    total, state, g_prev, quiet = 0.0, x, g(0.0, x), 0
    for k in range(n_steps):
        state = rk4_step(fld, state, h)
        g_next = g((k + 1) * h, state)
        total += 0.5 * h * (g_prev + g_next)
        g_prev = g_next
        quiet = quiet + 1 if abs(g_next) < koopman._TAIL_FLOOR else 0
        if quiet >= koopman._TAIL_STEPS:
            break
    return float(w @ x + total)


@pytest.mark.parametrize(
    "components",
    [
        # the slow pairs and the origin go quiet at once and stop after 100
        # steps; the origin leaves the batch then
        ["-2*x1", "-3*(x2 - x1^2)"],
        # the slow pairs stop near t = 8 while the fast ones run on
        ["-2*x1 + x2^2", "-3*(x2 - x1^2)"],
    ],
)
def test_path_integral_batch_matches_each_point_alone(components):
    # E is diagonal and the w_i are the coordinate axes in both systems, so
    # no BLAS summation order enters and every comparison is exact
    fld = parse_vector_field(components)
    lin = linearize(fld)
    X = np.array([[0.0, 0.0], [1.0, 0.0], [1.9, -1.7]])
    batch = _path_integral(fld, lin, [0, 1], X, t_max=10.0, dt=1e-2)
    assert batch.shape == (3, 2)
    for p, x in enumerate(X):
        alone = _path_integral(fld, lin, [0, 1], x[None, :], t_max=10.0, dt=1e-2)
        np.testing.assert_array_equal(batch[p], alone[0])
        for i, (lam, w) in enumerate(zip(lin.eigenvalues, lin.left_eigenvectors)):
            ref = _scalar_path_integral(fld, lin, lam, w, x, t_max=10.0, dt=1e-2)
            assert batch[p, i] == ref


def test_path_integral_tail_needs_consecutive_quiet_steps(monkeypatch):
    # w2 . G = x1^2 (x1 - 0.5)^2 (x1 - 0.25)^2 touches zero twice along the
    # trajectory from (1, 0): with dt = 1e-2 its integrand stays below 1e-4
    # for 11 steps, rises, stays below for 24 more, rises again and only goes
    # quiet for good after about 500 steps. Neither dip reaches 30 steps, so
    # the pair must integrate on through both; 11 + 24 >= 30, so a counter
    # that does not restart on a loud step would stop it in the second dip.
    monkeypatch.setattr(koopman, "_TAIL_FLOOR", 1e-4)
    monkeypatch.setattr(koopman, "_TAIL_STEPS", 30)
    fld = parse_vector_field(["-2*x1", "-3*x2 + x1^2*(x1 - 0.5)^2*(x1 - 0.25)^2"])
    lin = linearize(fld)
    x = np.array([1.0, 0.0])
    val = _path_integral(fld, lin, [0, 1], x[None, :], t_max=10.0, dt=1e-2)
    for i, (lam, w) in enumerate(zip(lin.eigenvalues, lin.left_eigenvectors)):
        assert val[0, i] == _scalar_path_integral(fld, lin, lam, w, x, t_max=10.0, dt=1e-2)


def test_path_integral_convergence_condition(cubic):
    # Duffing's fast eigenvalue violates -lambda + 2 lambda_max < 0
    fld = parse_vector_field(["x2", "-3*x2 - 1*x1 - 1*x1^3"])
    lin = linearize(fld)
    with pytest.raises(ConvergenceConditionError, match="diverges"):
        _path_integral(fld, lin, [1], [[1.0, 0.0]])
    # the slow eigenvalue satisfies it
    val = _path_integral(fld, lin, [0], [[0.5, 0.0]], t_max=5.0, dt=1e-2)
    assert np.all(np.isfinite(val))
    # one divergent eigenvalue among the requested ones fails the whole call
    with pytest.raises(ConvergenceConditionError, match="diverges"):
        _path_integral(fld, lin, [0, 1], [[0.5, 0.0]], t_max=5.0, dt=1e-2)


def test_path_integral_argument_validation(cubic):
    fld, lin = cubic
    with pytest.raises(DynamicsError, match="positive"):
        _path_integral(fld, lin, [1], np.zeros((1, 2)), t_max=-1.0)
    with pytest.raises(DynamicsError, match="positive"):
        _path_integral(fld, lin, [1], np.zeros((1, 2)), dt=0.0)


def test_path_integral_step_count_overflow(cubic):
    # t_max / dt overflows to inf for a finite, positive dt
    fld, lin = cubic
    with pytest.raises(DynamicsError, match="not finite"):
        _path_integral(fld, lin, [1], np.zeros((1, 2)), t_max=20.0, dt=1e-320)


def _per_step_path_integral(fld, lin, lams, W, X, t_max, dt):
    """Reference: path_integral_phi with the integrand, trapezoid term, quiet
    counts and batch formed after every step, and the finiteness check on
    every step. Also returns the step after which each point left the batch
    (None if it stayed to the end)."""
    lams, W, X = (np.asarray(a, dtype=float) for a in (lams, W, X))
    n_steps = max(1, int(round(t_max / dt)))
    h = t_max / n_steps

    def integrand(t, state, f):
        return np.exp(-lams * t)[:, None] * (W @ (f - lin.E @ state))

    total = np.zeros((len(lams), len(X)))
    left = [None] * len(X)
    cols = np.arange(len(X))
    state = X.T.copy()
    f = fld.evaluate(state)
    g_prev = integrand(0.0, state, f)
    quiet = np.zeros(total.shape, dtype=int)
    for k in range(n_steps):
        t_next = (k + 1) * h
        state = rk4_step(fld, state, h, k1=f)
        if not np.all(np.isfinite(state)):
            raise BlowUpError(t_next)
        f = fld.evaluate(state)
        g_next = integrand(t_next, state, f)
        active = quiet < koopman._TAIL_STEPS
        total[:, cols] += np.where(active, 0.5 * h * (g_prev + g_next), 0.0)
        g_prev = g_next
        quiet = np.where(active & (np.abs(g_next) >= koopman._TAIL_FLOOR), 0, quiet + 1)
        live = (quiet < koopman._TAIL_STEPS).any(axis=0)
        if not live.all():
            for p in cols[~live]:
                left[p] = k + 1
            if not live.any():
                break
            cols, state, quiet = cols[live], state[:, live], quiet[:, live]
            f, g_prev = f[:, live], g_prev[:, live]
    return X @ W.T + total.T, left


@pytest.mark.parametrize("blocks", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
def test_blocked_path_integral_matches_per_step_reference(monkeypatch, blocks):
    # n_steps = 1, B - 1, B, B + 1 and 3B + 7 for the block size B. E is not
    # diagonal, so every step's products go through BLAS. With the raised
    # floor the pairs go quiet at different steps, most of them inside a
    # block, and the origin leaves the batch after _TAIL_STEPS steps.
    monkeypatch.setattr(koopman, "_TAIL_FLOOR", 1e-3)
    monkeypatch.setattr(koopman, "_TAIL_STEPS", 20)
    n_steps = blocks[0] * koopman._BLOCK + blocks[1]
    fld = parse_vector_field(["-2*x1 + 0.5*x2 + x2^2", "-3*x2 + x1^2"])
    lin = linearize(fld)
    X = np.vstack([np.zeros(2), np.random.default_rng(4).uniform(-1.5, 1.5, size=(7, 2))])
    dt = 1e-2
    val = path_integral_phi(fld, lin, lin.eigenvalues, lin.left_eigenvectors, X,
                            t_max=n_steps * dt, dt=dt)
    ref, left = _per_step_path_integral(fld, lin, lin.eigenvalues, lin.left_eigenvectors, X,
                                        t_max=n_steps * dt, dt=dt)
    np.testing.assert_array_equal(val, ref)
    if n_steps > 3 * koopman._BLOCK:
        gone = [s for s in left if s is not None]
        assert len(gone) >= 3 and any(s % koopman._BLOCK for s in gone)
        assert left[0] == koopman._TAIL_STEPS


def _blow_up_time(fn, *args, **kw):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as info:
            fn(*args, **kw)
    return info.value.t


def test_path_integral_blow_up():
    # stable linearization, unstable far field: the trajectory from x1 = 2
    # escapes and the quadrature must fail loudly, at the time of the first
    # non-finite state
    fld = parse_vector_field(["-1*x1 + x1^3", "-2*x2"])
    lin = linearize(fld)
    args = (fld, lin, lin.eigenvalues[:1], lin.left_eigenvectors[:1], [[2.0, 0.0]])
    t = _blow_up_time(path_integral_phi, *args, t_max=20.0, dt=1e-3)
    assert t == _blow_up_time(_per_step_path_integral, *args, t_max=20.0, dt=1e-3)


def test_path_integral_blow_up_of_one_point_fails_the_batch():
    # two points converge, one escapes: the batch raises rather than
    # returning the survivors
    fld = parse_vector_field(["-1*x1 + x1^3", "-2*x2"])
    lin = linearize(fld)
    X = np.array([[0.5, 0.0], [2.0, 0.0], [0.0, 0.3]])
    args = (fld, lin, lin.eigenvalues[:1], lin.left_eigenvectors[:1], X)
    t = _blow_up_time(path_integral_phi, *args, t_max=2.0, dt=1e-2)
    assert t == _blow_up_time(_per_step_path_integral, *args, t_max=2.0, dt=1e-2)


def test_path_integral_point_that_left_the_batch_may_blow_up():
    # w1 . G = 0, so the pair of lambda = -1 is quiet from the start and the
    # point leaves the batch after _TAIL_STEPS = 100 steps; x2 = 7 then
    # escapes near t = ln(1.4) / 2 = 0.168, inside the same block. That
    # trajectory no longer counts.
    fld = parse_vector_field(["-1*x1", "x2^2 - 2*x2"])
    lin = linearize(fld)
    X = np.array([[0.5, 7.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        val = _path_integral(fld, lin, [0], X)
    ref, left = _per_step_path_integral(
        fld, lin, lin.eigenvalues[:1], lin.left_eigenvectors[:1], X, t_max=20.0, dt=1e-3
    )
    assert left == [koopman._TAIL_STEPS]
    np.testing.assert_array_equal(val, ref)


def test_path_integral_escape_after_leaving_the_batch_is_silent():
    # the point leaves the batch at step 100 and x2 escapes near step 168 of
    # the same 256-step block; that trajectory no longer counts, so numpy's
    # overflow and invalid-value warnings about it are not shown
    fld = parse_vector_field(["-x1", "x2^2 - 2*x2"])
    lin = linearize(fld)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = _path_integral(fld, lin, [0], [[0.5, 7.0]])
    assert lin.eigenvalues[0] == -1.0
    assert val[0, 0] == 0.5
