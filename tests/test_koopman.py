import numpy as np
import pytest

from koopman_lyap import koopman
from koopman_lyap.box import Box
from koopman_lyap.collocation import CollocationProblem, solve, uniform_centers
from koopman_lyap.dynamics import (
    BlowUpError,
    DynamicsError,
    linearize,
    rk4_step,
)
from koopman_lyap.expr import parse_vector_field
from koopman_lyap.kernel import GaussianKernel
from koopman_lyap.koopman import (
    ConvergenceConditionError,
    EigenfunctionSet,
    convergence_margins,
    path_integral_phi,
)


def _solved_set(fld, lin, n, domain, eta):
    """The collocated set on n x n centers over domain, sigma = 1."""
    problem = CollocationProblem(
        GaussianKernel(sigma=1.0), fld, lin, uniform_centers(domain, n), domain, eta
    )
    return EigenfunctionSet(lin, solve(problem))


@pytest.fixture(scope="module")
def cubic():
    fld = parse_vector_field(["-2*x1", "-3*(x2 - x1^2)"])
    return fld, linearize(fld)


@pytest.fixture(scope="module")
def eigs(cubic):
    fld, lin = cubic
    return _solved_set(fld, lin, 7, Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0])), 0.0)


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
    dense = _solved_set(fld, lin, 15, domain, 1e-10)
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


def test_set_iteration_and_indexing(eigs):
    assert [e.lam for e in eigs] == [eigs[0].lam, eigs[1].lam]
    assert eigs[-1].lam == eigs[1].lam


def test_set_reads_its_spectrum_from_the_linearization(cubic, eigs):
    _, lin = cubic
    assert eigs.lin is lin
    assert eigs.eigenvalues is lin.eigenvalues and eigs.W is lin.left_eigenvectors
    for e, w in zip(eigs, lin.left_eigenvectors):
        np.testing.assert_array_equal(e.w, w)


# --- path integrals -------------------------------------------------------------


def test_path_integral_fast_eigenvalue(cubic):
    # for lambda2 = -3 the integral reproduces x2 + 3 x1^2
    fld, lin = cubic
    val = path_integral_phi(fld, lin, [1], [[1.0, 0.0]])
    assert val.shape == (1, 1)
    assert val[0, 0] == pytest.approx(3.0, abs=1e-6)


def test_path_integral_at_origin(cubic):
    fld, lin = cubic
    val = path_integral_phi(fld, lin, [1], np.zeros((1, 2)))
    assert val[0, 0] == 0.0


def test_path_integral_slow_eigenvalue_is_coordinate(cubic):
    # w1 . G vanishes identically, so the quadrature adds exactly nothing
    fld, lin = cubic
    X = np.array([[0.4, -1.2], [1.9, 0.3]])
    val = path_integral_phi(fld, lin, [0], X)
    np.testing.assert_array_equal(val[:, 0], X[:, 0])


def _scalar_path_integral(fld, lin, lam, w, x, t_max, dt):
    """Reference: one point and one eigenvalue per trajectory, same rule."""
    n_steps = max(1, int(round(t_max / dt)))
    h = t_max / n_steps

    def g(t, state):
        return float(np.exp(-lam * t) * (w @ (fld.evaluate(state) - lin.E @ state)))

    total, state, g_prev, quiet = 0.0, x, g(0.0, x), True
    for k in range(n_steps):
        state = rk4_step(fld, state, h)
        g_next = g((k + 1) * h, state)
        total += 0.5 * h * (g_prev + g_next)
        g_prev = g_next
        quiet = quiet and abs(g_next) < koopman._TAIL_FLOOR
        if (k + 1) % koopman._BLOCK == 0:
            if quiet:
                break
            quiet = True
    return float(w @ x + total)


@pytest.mark.parametrize(
    "components",
    [
        # the slow integrands vanish identically and their pairs stop after
        # the first block, as do all pairs of the origin
        ["-2*x1", "-3*(x2 - x1^2)"],
        # the slow integrands do not
        ["-2*x1 + x2^2", "-3*(x2 - x1^2)"],
    ],
)
def test_path_integral_batch_matches_each_point_alone(components):
    # E is diagonal and the w_i are the coordinate axes in both systems, so
    # no BLAS summation order enters and every comparison is exact
    fld = parse_vector_field(components)
    lin = linearize(fld)
    X = np.array([[0.0, 0.0], [1.0, 0.0], [1.9, -1.7]])
    batch = path_integral_phi(fld, lin, [0, 1], X, t_max=10.0, dt=1e-2)
    assert batch.shape == (3, 2)
    for p, x in enumerate(X):
        alone = path_integral_phi(fld, lin, [0, 1], x[None, :], t_max=10.0, dt=1e-2)
        np.testing.assert_array_equal(batch[p], alone[0])
        for i, (lam, w) in enumerate(zip(lin.eigenvalues, lin.left_eigenvectors)):
            ref = _scalar_path_integral(fld, lin, lam, w, x, t_max=10.0, dt=1e-2)
            assert batch[p, i] == ref


def test_path_integral_convergence_condition(cubic):
    # Duffing's fast eigenvalue violates -lambda + 2 lambda_max < 0
    fld = parse_vector_field(["x2", "-3*x2 - 1*x1 - 1*x1^3"])
    lin = linearize(fld)
    margins = convergence_margins(lin)
    np.testing.assert_array_equal(margins, -lin.eigenvalues + 2.0 * lin.eigenvalues[0])
    assert margins[0] < 0.0 < margins[1]
    with pytest.raises(ConvergenceConditionError, match="diverges"):
        path_integral_phi(fld, lin, [1], [[1.0, 0.0]])
    # the slow eigenvalue satisfies it
    val = path_integral_phi(fld, lin, [0], [[0.5, 0.0]], t_max=5.0, dt=1e-2)
    assert np.all(np.isfinite(val))
    # one divergent eigenvalue among the requested ones fails the whole call
    with pytest.raises(ConvergenceConditionError, match="diverges"):
        path_integral_phi(fld, lin, [0, 1], [[0.5, 0.0]], t_max=5.0, dt=1e-2)


def test_path_integral_argument_validation(cubic):
    fld, lin = cubic
    with pytest.raises(DynamicsError, match="positive"):
        path_integral_phi(fld, lin, [1], np.zeros((1, 2)), t_max=-1.0)
    with pytest.raises(DynamicsError, match="positive"):
        path_integral_phi(fld, lin, [1], np.zeros((1, 2)), dt=0.0)


def test_path_integral_step_count_overflow(cubic):
    # t_max / dt overflows to inf for a finite, positive dt
    fld, lin = cubic
    with pytest.raises(DynamicsError, match="not finite"):
        path_integral_phi(fld, lin, [1], np.zeros((1, 2)), t_max=20.0, dt=1e-320)


def _per_step_path_integral(fld, lin, which, X, t_max, dt):
    """Reference: path_integral_phi with the integrand, trapezoid term and
    quiet flags formed after every step, and the finiteness check on every
    step. A pair stops at the end of a block through which it was quiet."""
    lams, W = lin.eigenvalues[which], lin.left_eigenvectors[which]
    X = np.asarray(X, dtype=float)
    n_steps = max(1, int(round(t_max / dt)))
    h = t_max / n_steps

    def integrand(t, state, f):
        return np.exp(-lams * t)[:, None] * (W @ (f - lin.E @ state))

    total = np.zeros((len(lams), len(X)))
    done = np.zeros(total.shape, dtype=bool)
    quiet = np.ones(total.shape, dtype=bool)
    state = X.T.copy()
    f = fld.evaluate(state)
    g_prev = integrand(0.0, state, f)
    for k in range(n_steps):
        t_next = (k + 1) * h
        state = rk4_step(fld, state, h, k1=f)
        if not np.all(np.isfinite(state[:, ~done.all(axis=0)])):
            raise BlowUpError(t_next)
        f = fld.evaluate(state)
        g_next = integrand(t_next, state, f)
        total += np.where(done, 0.0, 0.5 * h * (g_prev + g_next))
        g_prev = g_next
        quiet &= np.abs(g_next) < koopman._TAIL_FLOOR
        if (k + 1) % koopman._BLOCK == 0:
            done |= quiet
            quiet[:] = True
            if done.all():
                break
    return X @ W.T + total.T


@pytest.mark.parametrize("blocks", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
def test_blocked_path_integral_matches_per_step_reference(blocks):
    # n_steps = 1, B - 1, B, B + 1 and 3B + 7 for the block size B. E is not
    # diagonal, so every step's products go through BLAS. The origin's pairs
    # stop after the first block.
    n_steps = blocks[0] * koopman._BLOCK + blocks[1]
    fld = parse_vector_field(["-2*x1 + 0.5*x2 + x2^2", "-3*x2 + x1^2"])
    lin = linearize(fld)
    X = np.vstack([np.zeros(2), np.random.default_rng(4).uniform(-1.5, 1.5, size=(7, 2))])
    dt = 1e-2
    val = path_integral_phi(fld, lin, [0, 1], X, t_max=n_steps * dt, dt=dt)
    ref = _per_step_path_integral(fld, lin, [0, 1], X, t_max=n_steps * dt, dt=dt)
    np.testing.assert_array_equal(val, ref)


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
    args = (fld, lin, [0], [[2.0, 0.0]])
    t = _blow_up_time(path_integral_phi, *args, t_max=20.0, dt=1e-3)
    assert t == _blow_up_time(_per_step_path_integral, *args, t_max=20.0, dt=1e-3)


def test_path_integral_blow_up_of_one_point_fails_the_batch():
    # two points converge, one escapes: the batch raises rather than
    # returning the survivors
    fld = parse_vector_field(["-1*x1 + x1^3", "-2*x2"])
    lin = linearize(fld)
    X = np.array([[0.5, 0.0], [2.0, 0.0], [0.0, 0.3]])
    args = (fld, lin, [0], X)
    t = _blow_up_time(path_integral_phi, *args, t_max=2.0, dt=1e-2)
    assert t == _blow_up_time(_per_step_path_integral, *args, t_max=2.0, dt=1e-2)


def test_path_integral_escape_with_zero_integrand_raises():
    # w1 . G = 0, so the integrand of lambda = -1 vanishes all along, yet
    # x2 = 7 escapes near t = ln(1.4) / 2 = 0.168, inside the first block:
    # the escape raises at the time of the first non-finite state, without
    # numpy warnings (which the test configuration turns into errors)
    fld = parse_vector_field(["-x1", "x2^2 - 2*x2"])
    lin = linearize(fld)
    assert lin.eigenvalues[0] == -1.0
    with pytest.raises(BlowUpError) as info:
        path_integral_phi(fld, lin, [0], [[0.5, 7.0]], t_max=20.0, dt=1e-3)
    ref = _blow_up_time(_per_step_path_integral, fld, lin, [0], [[0.5, 7.0]], t_max=20.0, dt=1e-3)
    assert info.value.t == ref


def test_path_integral_point_whose_pairs_stopped_may_escape():
    # the second point's pair is quiet from the start (w1 . G = x1^2 = 0) and
    # stops after the first block; x2 = 3.01 escapes near t = 1.9, step 1900,
    # while the first point's pair still adds. That trajectory no longer
    # counts, in the batch as alone, and its escape shows no numpy warning.
    fld = parse_vector_field(["-2*x1 + x1^2", "x2^2 - 3*x2"])
    lin = linearize(fld)
    X = np.array([[0.5, 0.0], [0.0, 3.01]])
    batch = path_integral_phi(fld, lin, [0], X, t_max=20.0, dt=1e-3)
    alone = path_integral_phi(fld, lin, [0], X[1:], t_max=20.0, dt=1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _per_step_path_integral(fld, lin, [0], X, t_max=20.0, dt=1e-3)
    np.testing.assert_array_equal(batch, ref)
    assert batch[1, 0] == alone[0, 0] == 0.0


def test_stopped_pairs_match_per_step_reference():
    # example1's field to t_max = 300: the slow pairs vanish identically and
    # stop after the first block; the fast ones (about 3 x1(0)^2 e^-t) stop in
    # different blocks between t = 20 and 30, long before exp(3 t) overflows
    # near t = 237
    fld = parse_vector_field(["-2*x1", "-3*(x2 - x1^2)"])
    lin = linearize(fld)
    X = np.array([[1.0, 0.0], [0.01, 0.5], [-1.5, 1.0]])
    val = path_integral_phi(fld, lin, [0, 1], X, t_max=300.0, dt=1e-2)
    ref = _per_step_path_integral(fld, lin, [0, 1], X, t_max=300.0, dt=1e-2)
    np.testing.assert_array_equal(val, ref)


@pytest.mark.parametrize(
    "components, t_max",
    [
        # bundled example1 with a long horizon: exp(3 t) overflows past t = 237
        (["-2*x1", "-3*(x2 - x1^2)"], 300.0),
        # a linear field at the default horizon: exp(41 t) overflows past t = 17.3
        (["-40*x1", "-41*x2"], 20.0),
    ],
)
def test_path_integral_past_the_range_of_exp_is_finite(components, t_max):
    # the integrands are negligible long before exp(-lambda t) overflows; the
    # result is finite, shows no numpy warning, and matches t_max = 40 (or
    # w . x for the linear field, whose integrand vanishes)
    fld = parse_vector_field(components)
    lin = linearize(fld)
    X = np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, 2))
    val = path_integral_phi(fld, lin, [0, 1], X, t_max=t_max, dt=1e-3)
    assert np.all(np.isfinite(val))
    short = path_integral_phi(fld, lin, [0, 1], X, t_max=min(t_max, 40.0), dt=1e-3)
    np.testing.assert_allclose(val, short, rtol=0.0, atol=1e-10)
    if t_max == 20.0:
        np.testing.assert_array_equal(val, X @ lin.left_eigenvectors.T)


def test_path_integral_overflowing_integrand_raises():
    # lambda = -39.8 meets the convergence condition (margin -0.2), but its
    # integrand, about x1(0)^2 e^(-0.2 t), is far from negligible when
    # exp(39.8 t) overflows near t = 17.8 < t_max
    fld = parse_vector_field(["-20*x1", "-39.8*x2 + x1^2"])
    lin = linearize(fld)
    with pytest.raises(DynamicsError, match="overflows"):
        path_integral_phi(fld, lin, [0, 1], [[0.5, 0.5]], t_max=20.0, dt=1e-2)
