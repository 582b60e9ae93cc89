import collections
import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

import softcbf.backup
import softcbf.sim
from softcbf import (
    BackupProblem,
    BlowUpError,
    ControlAffineSystem,
    DomainError,
    FlowResult,
    FusedField,
    FusedPlant,
    InvalidInputError,
    backup_barrier,
    check_backup_preconditions,
    estimate_bounds,
    get_benchmark,
    integrate_flow,
    integrate_flow_batch,
    probe_boundary,
    sample_tube,
    slice_constraint_set,
    softmin_gradient,
    softmin_value,
    softmin_weights,
    theta_star_compact,
    verify_certificate,
)


def zero_controller(X):
    return np.zeros((X.shape[0], 1))


def column_actuation(col):
    col = np.asarray(col, dtype=float).reshape(-1, 1)

    def g(X):
        return np.broadcast_to(col, (X.shape[0],) + col.shape)

    return g


def quad_fn(level, scale=1.0):
    """X -> (level - scale*|x|^2, gradient) on a block (B, n)."""

    def fn(X):
        return level - scale * np.einsum("bi,bi->b", X, X), -2.0 * scale * X

    return fn


def scalar_problem(**kw):
    # xdot = -x with an idle controller; everything has closed forms
    def drift(x):
        return -np.asarray(x, dtype=float)

    sys = ControlAffineSystem(n=1, m=1, drift=drift, actuation=column_actuation([1.0]))
    defaults = dict(
        sys=sys,
        k_b=zero_controller,
        h=quad_fn(1.0),
        h_b=quad_fn(0.25),
        T=1.0,
        dtau=0.5,
        bounding_box=np.array([[-1.2, 1.2]]),
    )
    defaults.update(kw)
    return BackupProblem(**defaults)


def stationary_problem():
    def drift(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    sys = ControlAffineSystem(n=2, m=1, drift=drift, actuation=column_actuation([0.0, 0.0]))
    return BackupProblem(
        sys=sys,
        k_b=zero_controller,
        h=quad_fn(1.0),
        h_b=quad_fn(0.25),
        T=1.0,
        dtau=1.0,
        bounding_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
    )


def test_problem_validation():
    with pytest.raises(Exception):
        scalar_problem(T=-1.0)
    with pytest.raises(Exception):
        scalar_problem(dtau=0.3)  # does not divide T


def test_horizon_shorter_than_one_slice_interval_raises():
    # T/dtau rounds to 0 within the divisibility tolerance, which would
    # leave a slice family of h_b alone
    with pytest.raises(InvalidInputError, match="shorter than one slice interval"):
        scalar_problem(T=1e-12, dtau=1.0)


@pytest.mark.parametrize(
    "kw",
    [dict(T=math.nan), dict(T=math.inf), dict(dtau=math.inf), dict(dtau=math.nan), dict(h_max=math.nan), dict(h_max=math.inf)],
    ids=["T-nan", "T-inf", "dtau-inf", "dtau-nan", "h_max-nan", "h_max-inf"],
)
def test_non_finite_horizon_step_or_slice_interval_raises(kw):
    with pytest.raises(DomainError, match="must be finite"):
        scalar_problem(**kw)


def test_stationary_flow():
    prob = stationary_problem()
    x0 = np.array([0.3, -0.4])
    flow = integrate_flow(prob, x0)
    assert prob.N == 2
    for i in range(prob.N):
        np.testing.assert_allclose(flow.states[i], x0, atol=1e-15)
        np.testing.assert_allclose(flow.sensitivities[i], np.eye(2), atol=1e-15)


def test_stationary_barrier_reduces_to_direct_evaluation():
    prob = stationary_problem()
    x0 = np.array([0.3, -0.4])
    bb = backup_barrier(prob, integrate_flow(prob, x0), theta=5.0)
    r2 = float(x0 @ x0)
    np.testing.assert_allclose(bb.b_values, [1.0 - r2, 0.25 - r2], atol=1e-14)
    # the terminal (smaller) set always attains the minimum here
    assert bb.b_values.argmin() == 1
    np.testing.assert_allclose(bb.b_gradients, [-2 * x0, -2 * x0], atol=1e-14)
    assert bb.soft_value == pytest.approx(softmin_value(bb.b_values, 5.0))


def test_scalar_linear_flow_matches_closed_form():
    prob = scalar_problem(T=1.0, dtau=0.5, h_max=1e-2)
    x0 = np.array([0.8])
    flow = integrate_flow(prob, x0)
    np.testing.assert_allclose(flow.sensitivities[0], [[1.0]], atol=0)
    for i, tau in enumerate(prob.slice_times):
        assert flow.states[i][0] == pytest.approx(0.8 * np.exp(-tau), abs=1e-9)
        assert flow.sensitivities[i][0, 0] == pytest.approx(np.exp(-tau), abs=1e-9)
    assert flow.stats.steps == 100


def test_sensitivity_matches_matrix_exponential():
    rng = np.random.default_rng(0)
    for _ in range(5):
        A = rng.normal(size=(2, 2))
        A -= (max(np.linalg.eigvals(A).real) + 0.5) * np.eye(2)  # make it stable

        def drift(x, A=A):
            x = np.asarray(x, dtype=float)
            return x @ A.T

        sys = ControlAffineSystem(n=2, m=1, drift=drift, actuation=column_actuation([0.0, 0.0]))
        prob = BackupProblem(
            sys=sys, k_b=zero_controller, h=quad_fn(1.0), h_b=quad_fn(0.25),
            T=1.0, dtau=0.5, bounding_box=np.array([[-1, 1], [-1, 1]]),
        )
        x0 = rng.normal(size=2) * 0.3
        flow = integrate_flow(prob, x0)
        for i, tau in enumerate(prob.slice_times):
            ref = expm(A * tau)
            np.testing.assert_allclose(flow.sensitivities[i], ref, atol=1e-7)
            np.testing.assert_allclose(flow.states[i], ref @ x0, atol=1e-7)


def test_finite_difference_jacobian_agrees_with_analytic():
    bench = get_benchmark("pendulum-backup")
    prob = bench.backup
    prob_fd = BackupProblem(
        sys=prob.sys, k_b=prob.k_b, h=prob.h, h_b=prob.h_b, T=prob.T, dtau=prob.dtau,
        jacobian=None, h_max=prob.h_max, bounding_box=prob.bounding_box,
    )
    x0 = np.array([0.4, -0.3])
    fa = integrate_flow(prob, x0)
    fd = integrate_flow(prob_fd, x0)
    np.testing.assert_allclose(fd.states, fa.states, atol=1e-10)
    np.testing.assert_allclose(fd.sensitivities, fa.sensitivities, atol=1e-7)


def test_batch_matches_single():
    bench = get_benchmark("pendulum-backup")
    prob = bench.backup
    X0 = np.array([[0.4, -0.3], [0.1, 0.2], [-0.5, 0.9]])
    batch = integrate_flow_batch(prob, X0)
    for b, x0 in enumerate(X0):
        single = integrate_flow(prob, x0)
        np.testing.assert_allclose(batch.states[:, b], single.states, atol=1e-13)
        np.testing.assert_allclose(batch.sensitivities[:, b], single.sensitivities, atol=1e-13)


def test_semigroup_and_chain_rule():
    bench = get_benchmark("pendulum-backup")
    prob = bench.backup
    x0 = np.array([0.4, -0.3])
    flow = integrate_flow(prob, x0)
    # restart halfway along the grid: s = t = T/2
    half = prob.N // 2
    mid = flow.states[half]
    prob_half = BackupProblem(
        sys=prob.sys, k_b=prob.k_b, h=prob.h, h_b=prob.h_b, T=prob.T / 2, dtau=prob.dtau,
        jacobian=prob.jacobian, h_max=prob.h_max, bounding_box=prob.bounding_box,
    )
    flow2 = integrate_flow(prob_half, mid)
    np.testing.assert_allclose(flow2.states[-1], flow.states[-1], atol=1e-8)
    np.testing.assert_allclose(
        flow2.sensitivities[-1] @ flow.sensitivities[half], flow.sensitivities[-1], atol=1e-6
    )


def test_blow_up_reports_time():
    def drift(x):
        x = np.asarray(x, dtype=float)
        return x**2

    sys = ControlAffineSystem(n=1, m=1, drift=drift, actuation=column_actuation([0.0]))
    prob = BackupProblem(
        sys=sys, k_b=zero_controller, h=quad_fn(1.0), h_b=quad_fn(0.25),
        T=2.0, dtau=0.5, bounding_box=np.array([[-3, 3]]),
    )
    with pytest.raises(BlowUpError) as err:
        integrate_flow(prob, np.array([2.0]))
    # x(t) = 2 / (1 - 2t) blows up at t = 0.5; RK4 at h = 0.01 gets past it
    # and overflows at its 53rd step, in the second slice interval, whose
    # time is h accumulated step by step
    assert err.value.time == 0.5300000000000002

    # the same flow on the row path of a fused field: it must find the blow
    # up in the same interval, and the block re-run reports the same time.
    # The row square is x * x: Python's float ** raises OverflowError where
    # numpy returns inf
    rows = collections.Counter()

    def square(x):
        x = np.asarray(x, dtype=float)
        return x * x

    def square_row(x):
        rows["row"] += 1
        return (x[0] * x[0],)

    fused = dataclasses.replace(prob, fused=FusedField(square, drift, sys.actuation, zero_controller, square_row))
    assert fused.closed_loop() is square
    with pytest.raises(BlowUpError) as err:
        integrate_flow(fused, np.array([2.0]))
    assert err.value.time == 0.5300000000000002
    assert rows["row"] > 4 * 50


def test_slice_gradients_match_closed_form():
    # for xdot = -x: b_i(x) = level_i - x^2 exp(-2 tau_i), so the pulled-back
    # gradient must be -2 x exp(-2 tau_i)
    prob = scalar_problem()
    x0 = np.array([0.9])
    bb = backup_barrier(prob, integrate_flow(prob, x0), theta=10.0)
    taus = prob.slice_times
    expect_vals = np.array([
        1.0 - 0.81 * np.exp(-2 * taus[0]),
        1.0 - 0.81 * np.exp(-2 * taus[1]),
        0.25 - 0.81 * np.exp(-2 * taus[2]),
    ])
    np.testing.assert_allclose(bb.b_values, expect_vals, atol=1e-9)
    expect_grads = np.array([
        [-2 * 0.9 * np.exp(-2 * taus[0])],
        [-2 * 0.9 * np.exp(-2 * taus[1])],
        [-2 * 0.9 * np.exp(-2 * taus[2])],
    ])
    np.testing.assert_allclose(bb.b_gradients, expect_grads, atol=1e-9)


def test_soft_gradient_matches_finite_differences_through_flow():
    bench = get_benchmark("pendulum-backup")
    prob = bench.backup
    theta = 3.0
    rng = np.random.default_rng(5)
    for _ in range(5):
        x0 = rng.uniform([-0.5, -0.5], [0.5, 0.5])
        bb = backup_barrier(prob, integrate_flow(prob, x0), theta)
        step = 1e-5
        fd = np.empty(2)
        for k in range(2):
            e = np.zeros(2)
            e[k] = step
            up = backup_barrier(prob, integrate_flow(prob, x0 + e), theta).soft_value
            dn = backup_barrier(prob, integrate_flow(prob, x0 - e), theta).soft_value
            fd[k] = (up - dn) / (2 * step)
        np.testing.assert_allclose(bb.soft_gradient, fd, rtol=1e-4, atol=1e-8)


def test_terminal_slice_gradient_matches_finite_differences():
    bench = get_benchmark("pendulum-backup")
    prob = bench.backup
    x0 = np.array([0.2, 0.3])
    bb = backup_barrier(prob, integrate_flow(prob, x0), theta=5.0)
    step = 1e-5
    fd = np.empty(2)
    for k in range(2):
        e = np.zeros(2)
        e[k] = step
        up = backup_barrier(prob, integrate_flow(prob, x0 + e), 5.0).b_values[-1]
        dn = backup_barrier(prob, integrate_flow(prob, x0 - e), 5.0).b_values[-1]
        fd[k] = (up - dn) / (2 * step)
    np.testing.assert_allclose(bb.b_gradients[-1], fd, rtol=1e-5, atol=1e-9)


def test_sandwich_and_theta_monotonicity():
    prob = scalar_problem()
    rng = np.random.default_rng(7)
    for _ in range(20):
        x0 = rng.uniform(-1.1, 1.1, size=1)
        flow = integrate_flow(prob, x0)
        b1 = backup_barrier(prob, flow, theta=2.0)
        b2 = backup_barrier(prob, flow, theta=20.0)
        hard = b1.b_values.min()
        assert b1.soft_value <= hard + 1e-12
        assert b1.soft_value >= hard - np.log(prob.N) / 2.0 - 1e-12
        assert b2.soft_value >= b1.soft_value - 1e-12  # sharper theta is tighter
        assert b2.soft_value <= hard + 1e-12
        # nonnegative smooth value implies membership in the hard set
        if b1.soft_value >= 0:
            assert hard >= 0


@pytest.mark.gate
def test_backup_barrier_matches_the_single_point_softmin_bitwise():
    # backup_barrier's smooth minimum is the block form on its one row; it
    # must give the checked single-point functions bit for bit, on pendulum
    # states (some with exact +-0.0 coordinates) and on the scalar problem
    rng = np.random.default_rng(3)
    pendulum = get_benchmark("pendulum-backup").backup
    box = pendulum.bounding_box
    X = rng.uniform(box[:, 0], box[:, 1], size=(1500, 2))
    X[:4] = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]
    rows = np.arange(4, 304)
    X[rows, rng.integers(2, size=rows.size)] = rng.choice([0.0, -0.0], size=rows.size)
    scalar = np.concatenate([np.linspace(-1.1, 1.1, 41), [0.0, -0.0]])[:, None]
    checked = 0
    for prob, X0 in ((pendulum, X), (scalar_problem(), scalar)):
        flow = integrate_flow_batch(prob, X0)
        for i in range(len(X0)):
            row = FlowResult(flow.states[:, i], flow.sensitivities[:, i], flow.stats)
            for theta in (2.0, 75.0, 7.5e4):
                bb = backup_barrier(prob, row, theta)
                b, gb = bb.b_values, bb.b_gradients
                soft = softmin_value(b, theta)
                grad = softmin_gradient(gb, softmin_weights(b, theta))
                assert np.float64(bb.soft_value).tobytes() == np.float64(soft).tobytes()
                assert bb.soft_gradient.tobytes() == grad.tobytes()
                checked += 1
    assert checked == 3 * (1500 + 43)


def test_preconditions_pass_on_pendulum():
    bench = get_benchmark("pendulum-backup")
    samples = bench.precondition_sampler(1500, 0)
    report = check_backup_preconditions(bench.backup, samples, tol=1e-6)
    assert report.passed
    assert report.backup_set_safe.min_margin > 0.05
    assert report.reachable_boundary_safe.n_points > 0
    assert report.regular_value.passed


def test_preconditions_fail_for_outward_field():
    # repelling closed loop: terminal set boundary flows outward
    def drift(x):
        return np.asarray(x, dtype=float)

    sys = ControlAffineSystem(n=2, m=1, drift=drift, actuation=column_actuation([0.0, 0.0]))
    prob = BackupProblem(
        sys=sys, k_b=zero_controller, h=quad_fn(1.0), h_b=quad_fn(0.25),
        T=1.0, dtau=0.5, bounding_box=np.array([[-1.2, 1.2], [-1.2, 1.2]]),
    )
    psi = np.linspace(0, 2 * np.pi, 60, endpoint=False)
    boundary = 0.5 * np.stack([np.cos(psi), np.sin(psi)], axis=-1)
    report = check_backup_preconditions(prob, boundary, tol=1e-9)
    assert not report.backup_set_safe.passed
    assert len(report.backup_set_safe.witnesses) > 0


def test_preconditions_trivial_case_flagged():
    prob = scalar_problem()
    # samples nowhere near the safe-set boundary: the reachable-boundary
    # check has nothing to verify and must say so
    samples = np.linspace(-0.3, 0.3, 11)[:, None]
    report = check_backup_preconditions(prob, samples, tol=1e-9)
    assert report.reachable_boundary_safe.passed
    assert "trivial" in report.reachable_boundary_safe.note


def test_preconditions_fail_without_terminal_boundary_samples():
    # (1) and (3) check nothing without a sample on the terminal boundary
    # (|x| = 0.5 here) and fail; (2)'s empty set stays the trivial pass
    prob = scalar_problem()
    report = check_backup_preconditions(prob, np.linspace(-0.3, 0.3, 11)[:, None], tol=1e-9)
    for chk in (report.backup_set_safe, report.regular_value):
        assert not chk.passed and chk.n_points == 0
        assert "no samples on the terminal boundary" in chk.note
    assert report.reachable_boundary_safe.passed and not report.passed
    report = check_backup_preconditions(prob, np.array([[-0.5], [0.5]]), tol=1e-9)
    assert report.backup_set_safe.passed and report.regular_value.passed
    assert report.backup_set_safe.n_points == 2


def test_preconditions_refuse_samples_of_the_wrong_width():
    prob = get_benchmark("pendulum-backup").backup
    with pytest.raises(InvalidInputError, match=r"expected states of shape \(B, 2\), got \(3, 3\)"):
        check_backup_preconditions(prob, np.zeros((3, 3)))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
def test_preconditions_reject_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(DomainError, match="precondition tolerance must be finite and positive"):
        check_backup_preconditions(scalar_problem(), np.array([[0.5]]), tol=tol)


def test_certify_backup_scalar_end_to_end():
    prob = scalar_problem()
    F = prob.sys.closed_loop(prob.k_b)
    cs = slice_constraint_set(prob)
    tube = sample_tube(cs, 0.05, 3000.0, seed=0)
    cert = theta_star_compact(estimate_bounds(F, tube), prob.N)
    assert np.isfinite(cert.theta_star) and cert.theta_star > 0
    assert cert.N == 3
    # active slice near the band is the immediate one: inward rate about 2x^2
    assert cert.bounds.r == pytest.approx(2.0, rel=0.15)
    report = verify_certificate(cs, F, cert, 1.01 * cert.theta_star, 100, seed=0)
    assert report.boundary_found and report.min_lie > 0
    assert report.containment_ok


def test_safe_set_function_with_wrong_block_shape_raises():
    def h_single(X):
        # answers a block of states with a single state's value and gradient
        return 1.0 - X[0] @ X[0], -2.0 * X[0]

    prob = scalar_problem(h=h_single)
    with pytest.raises(InvalidInputError, match=r"shape \(\), \(1,\) for a block of 4 states; expected \(4,\), \(4, 1\)"):
        slice_constraint_set(prob).evaluate_batch(np.linspace(-0.5, 0.5, 4)[:, None])


def test_flow_callable_with_wrong_block_shape_raises():
    def drift_single(X):
        # answers a block with the drift of its first state, which would
        # otherwise broadcast silently over the block
        return -X[0]

    def jacobian_single(x):
        return -np.ones((1, 1))

    base = scalar_problem()
    bad_drift = scalar_problem(sys=ControlAffineSystem(
        n=1, m=1, drift=drift_single, actuation=base.sys.actuation))
    bad_jacobian = scalar_problem(jacobian=jacobian_single)
    X0 = np.array([[0.5], [-0.3]])
    with pytest.raises(InvalidInputError, match=r"shape \(1,\), \(2, 1, 1\), \(2, 1\)"):
        integrate_flow_batch(bad_drift, X0)
    with pytest.raises(InvalidInputError, match=r"shape \(1, 1\) for a block of 2 states"):
        integrate_flow_batch(bad_jacobian, X0)


def test_fused_field_with_wrong_block_shape_raises():
    def field_single(X):
        # answers a block with the field of its first state
        return prob.fused.field(X[:1])[0]

    prob = get_benchmark("pendulum-backup").backup
    bad = dataclasses.replace(prob, fused=dataclasses.replace(prob.fused, field=field_single))
    assert bad.closed_loop() is field_single
    with pytest.raises(InvalidInputError, match=r"field_single returned shape \(2,\) for a block of 3 states; expected \(3, 2\)"):
        integrate_flow_batch(bad, np.zeros((3, 2)))


@pytest.mark.gate
def test_row_flows_equal_one_row_block_flows_bitwise():
    # the row path against the same problem without a row form, whose
    # one-row flows run rk4_step on (1, n) blocks of the fused field
    prob = get_benchmark("pendulum-backup").backup
    blocks = dataclasses.replace(prob, fused=dataclasses.replace(prob.fused, row=None))
    assert blocks.closed_loop() is prob.closed_loop()
    box = prob.bounding_box
    rng = np.random.default_rng(5)
    X = rng.uniform(box[:, 0], box[:, 1], size=(200, prob.sys.n))
    zeros = rng.uniform(size=X.shape) < 0.1
    X[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    for x in X:
        for sens in (False, True):
            got = integrate_flow_batch(prob, x[None], sensitivities=sens)
            want = integrate_flow_batch(blocks, x[None], sensitivities=sens)
            assert got.states.tobytes() == want.states.tobytes()
            if sens:
                assert got.sensitivities.tobytes() == want.sensitivities.tobytes()


def row_form_problem(n):
    """A problem whose closed loop is a fused field with a row form and an
    analytic Jacobian: xdot = -x + 0.5 x^2 for n = 1, pendulum-backup for
    n = 2, and a damped chain with a cubic spring for n = 3.  The drift is
    the field, and each component adds the + 0.0 that the composed field's
    einsum adds, so the fused field is the composed one bit for bit."""
    if n == 2:
        return get_benchmark("pendulum-backup").backup

    if n == 1:
        def field(x):
            x = np.asarray(x, dtype=float)
            return -x + 0.5 * x * x + 0.0

        def row(x):
            return (-x[0] + 0.5 * x[0] * x[0] + 0.0,)

        def jacobian(X):
            return (-1.0 + X)[:, :, None]
    else:
        def field(X):
            out = np.empty(X.shape)
            out[:, 0] = X[:, 1] + 0.0
            out[:, 1] = X[:, 2] + 0.0
            out[:, 2] = -X[:, 0] - 2.0 * X[:, 1] - 2.0 * X[:, 2] - 0.5 * X[:, 0] * X[:, 0] * X[:, 0] + 0.0
            return out

        def row(x):
            a, b, c = x
            return (b + 0.0, c + 0.0, -a - 2.0 * b - 2.0 * c - 0.5 * a * a * a + 0.0)

        def jacobian(X):
            J = np.zeros((X.shape[0], 3, 3))
            J[:, 0, 1] = 1.0
            J[:, 1, 2] = 1.0
            J[:, 2, 0] = -1.0 - 1.5 * X[:, 0] * X[:, 0]
            J[:, 2, 1:] = -2.0
            return J

    sys = ControlAffineSystem(n=n, m=1, drift=field, actuation=column_actuation([0.0] * n))
    return BackupProblem(
        sys=sys, k_b=zero_controller, h=quad_fn(1.0), h_b=quad_fn(0.25), T=1.0, dtau=0.25,
        jacobian=jacobian, bounding_box=np.array([[-1.0, 1.0]] * n),
        fused=FusedField(field, field, sys.actuation, zero_controller, row),
    )


@pytest.mark.gate
@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_sensitivities_equal_block_sensitivities_bitwise(n):
    # the float recursion of a one-row flow (backup._sensitivity_row) against
    # the numpy recursion of the same problem without a row form
    rows = collections.Counter()
    prob = row_form_problem(n)
    row = prob.fused.row

    def counted_row(x):
        rows["row"] += 1
        return row(x)

    prob = dataclasses.replace(prob, fused=dataclasses.replace(prob.fused, row=counted_row))
    blocks = dataclasses.replace(prob, fused=dataclasses.replace(prob.fused, row=None))
    box = prob.bounding_box
    rng = np.random.default_rng(7)
    X = rng.uniform(box[:, 0], box[:, 1], size=(40, n))
    zeros = rng.uniform(size=X.shape) < 0.2
    X[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    for x in X:
        got = integrate_flow_batch(prob, x[None])
        want = integrate_flow_batch(blocks, x[None])
        assert got.states.tobytes() == want.states.tobytes()
        assert got.sensitivities.tobytes() == want.sensitivities.tobytes()
    assert rows["row"] == len(X) * (1 + 4 * got.stats.steps)


def matmul_sensitivity_recursion(J, S, h):
    """The block body's variational recursion on one row: stacked
    np.matmul products on (1, n, n) blocks."""
    n = J.shape[-1]
    S = np.array(S).reshape(1, n, n)
    for Jk in J.reshape(-1, 4, 1, n, n):
        k1s = Jk[0] @ S
        k2s = Jk[1] @ (S + 0.5 * h * k1s)
        k3s = Jk[2] @ (S + 0.5 * h * k2s)
        k4s = Jk[3] @ (S + h * k3s)
        S = S + (h / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
    return S.reshape(-1)


@pytest.mark.gate
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sensitivity_row_matches_matmul_reference_on_signed_zeros(n):
    # a flow's S starts at the identity, so no flow test sees a product of
    # a -0.0 entry on its own; here J and S hold exact +-0.0, which tells
    # a gemm product (0.5 * -0.0 summed onto +0.0) from a scalar one (-0.0).
    # One RK4 step per draw: a -0.0 of S reaches the output only when all
    # four stage products keep it, so longer intervals seldom carry it.
    rng = np.random.default_rng(11 + n)
    h = 0.01
    for _ in range(1000):
        J = rng.standard_normal((4, n, n))
        S = rng.standard_normal(n * n)
        for M in (J, S):
            zeros = rng.uniform(size=M.shape) < 0.4
            M[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
        got = np.array(softcbf.backup._sensitivity_row(J, S.tolist(), h))
        assert got.tobytes() == matmul_sensitivity_recursion(J, S, h).tobytes()


def per_slice_values(prob, flow):
    """Slice values and pulled-back gradients one slice at a time: h on
    each slice's block, h_b on the last."""
    N, B, n = flow.states.shape
    vals = np.empty((B, N))
    grads = np.empty((B, N, n))
    for i in range(N):
        v, g = (prob.h if i < N - 1 else prob.h_b)(flow.states[i])
        vals[:, i] = v
        if flow.sensitivities is not None:
            grads[:, i] = np.einsum("bji,bj->bi", flow.sensitivities[i], g)
    return vals, None if flow.sensitivities is None else grads


@pytest.mark.gate
@pytest.mark.parametrize("B", [1, 2, 7, 400])
def test_stacked_slice_values_equal_per_slice_reference_bitwise(B):
    prob = get_benchmark("pendulum-backup").backup
    box = prob.bounding_box
    rng = np.random.default_rng(B)
    X = rng.uniform(box[:, 0], box[:, 1], size=(B, prob.sys.n))
    zeros = rng.uniform(size=X.shape) < 0.1
    X[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    for gradients in (False, True):
        want_vals, want_grads = per_slice_values(prob, integrate_flow_batch(prob, X, sensitivities=gradients))
        vals, grads = softcbf.backup.slice_values_batch(prob, X, gradients=gradients)
        assert vals.tobytes() == want_vals.tobytes()
        if gradients:
            assert grads.tobytes() == want_grads.tobytes()
        else:
            assert grads is None


def test_blow_up_reports_time_on_the_row_path_with_sensitivities():
    # xdot = x * x from 2 overflows in the second slice interval (see
    # test_blow_up_reports_time), so the row path's sensitivity recursion
    # has run over the first interval when the blow-up is found
    rows = collections.Counter()

    def square(x):
        x = np.asarray(x, dtype=float)
        return x * x

    def square_row(x):
        rows["row"] += 1
        return (x[0] * x[0],)

    def jacobian(X):
        return (2.0 * X)[:, :, None]

    sys = ControlAffineSystem(n=1, m=1, drift=square, actuation=column_actuation([0.0]))
    prob = BackupProblem(
        sys=sys, k_b=zero_controller, h=quad_fn(1.0), h_b=quad_fn(0.25), T=2.0, dtau=0.5,
        jacobian=jacobian, bounding_box=np.array([[-3, 3]]),
        fused=FusedField(square, square, sys.actuation, zero_controller, square_row),
    )
    blocks = dataclasses.replace(prob, fused=dataclasses.replace(prob.fused, row=None))
    errors = []
    for p in (prob, blocks):
        with pytest.raises(BlowUpError) as err:
            integrate_flow_batch(p, np.array([[2.0]]), sensitivities=True)
        errors.append((str(err.value), err.value.time))
    assert errors[0] == errors[1]
    assert errors[0][1] == 0.5300000000000002
    assert rows["row"] > 4 * 50


def test_fused_row_form_with_wrong_length_raises():
    def short_row(x):
        return prob.fused.row(x)[:1]

    prob = get_benchmark("pendulum-backup").backup
    bad = dataclasses.replace(prob, fused=dataclasses.replace(prob.fused, row=short_row))
    with pytest.raises(InvalidInputError, match=r"short_row returned \(.+,\) for one state; expected 2 floats"):
        integrate_flow_batch(bad, np.zeros((1, 2)))
    # only a one-row flow takes the row path and checks the row form
    integrate_flow_batch(bad, np.zeros((2, 2)))


def test_fused_field_applies_only_to_the_callables_it_was_declared_for():
    prob = get_benchmark("pendulum-backup").backup
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    drift = counted("drift", prob.sys.drift)
    actuation = counted("actuation", prob.sys.actuation)
    k_b = counted("k_b", prob.k_b)
    field = counted("fused", prob.fused.field)
    row = counted("row", prob.fused.row)
    plant = counted("plant", prob.sys.fused.plant)
    sys = dataclasses.replace(prob.sys, drift=drift, actuation=actuation,
                              fused=FusedPlant(plant, drift, actuation))
    declared = dataclasses.replace(prob, sys=sys, k_b=k_b, fused=FusedField(field, drift, actuation, k_b, row))
    X0 = np.array([[0.3, -0.2], [-0.1, 0.4], [0.05, 0.0]])
    reference = integrate_flow_batch(prob, X0)
    reference_row = integrate_flow_batch(prob, X0[:1])

    # the fused field alone: its shape check on the initial block, then four
    # calls per RK4 step; the finite-difference Jacobian and the
    # precondition checks go through it too
    flow = integrate_flow_batch(declared, X0)
    assert calls == {"fused": 1 + 4 * flow.stats.steps}
    integrate_flow_batch(dataclasses.replace(declared, jacobian=None), X0)
    check_backup_preconditions(declared, X0)
    assert set(calls) == {"fused"}
    assert flow.sensitivities.tobytes() == reference.sensitivities.tobytes()

    # a one-row flow: the row form's check on the initial state and four
    # calls per RK4 step, and the fused field once, for its shape check
    calls.clear()
    flow = integrate_flow_batch(declared, X0[:1])
    assert calls == {"fused": 1, "row": 1 + 4 * flow.stats.steps}
    assert flow.sensitivities.tobytes() == reference_row.sensitivities.tobytes()

    # a wrapped k_b, like a step clock's, keeps the system's fused plant:
    # four calls per RK4 step of the wrapper, the k_b it wraps and the plant,
    # and none of drift or actuation; a one-row flow too, not the row form
    wrapped = dataclasses.replace(declared, k_b=counted("new k_b", k_b))
    for X, want in ((X0, reference), (X0[:1], reference_row)):
        calls.clear()
        flow = integrate_flow_batch(wrapped, X)
        steps = flow.stats.steps
        assert calls == {"new k_b": 4 * steps, "k_b": 4 * steps, "plant": 4 * steps}
        assert flow.states.tobytes() == want.states.tobytes()
        assert flow.sensitivities.tobytes() == want.sensitivities.tobytes()

    # a wrapped drift or actuation, like a call tracer's, puts the flow on
    # the composed field, which calls all three and never the plant
    swaps = {
        "drift": dataclasses.replace(sys, drift=counted("new drift", drift)),
        "actuation": dataclasses.replace(sys, actuation=counted("new actuation", actuation)),
    }
    for name, swapped in swaps.items():
        for X, want in ((X0, reference), (X0[:1], reference_row)):
            calls.clear()
            flow = integrate_flow_batch(dataclasses.replace(declared, sys=swapped), X)
            steps = flow.stats.steps
            assert calls == {"drift": 4 * steps, "actuation": 4 * steps, "k_b": 4 * steps, f"new {name}": 4 * steps}
            assert flow.states.tobytes() == want.states.tobytes()
            assert flow.sensitivities.tobytes() == want.sensitivities.tobytes()


def test_exception_inside_backup_controller_propagates_unchanged():
    def k_single(x):
        if np.asarray(x).ndim != 1:
            raise TypeError("single states only")
        return np.zeros(1)

    prob = scalar_problem(k_b=k_single)
    with pytest.raises(TypeError, match="single states only"):
        integrate_flow_batch(prob, np.array([[0.1], [0.2]]))


@pytest.mark.parametrize(
    "make_problem",
    [lambda: get_benchmark("pendulum-backup").backup, scalar_problem],
    ids=["pendulum", "scalar-stable"],
)
def test_values_only_flow_matches_full_flow_bitwise(make_problem):
    prob = make_problem()
    box = prob.bounding_box
    X0 = np.random.default_rng(0).uniform(box[:, 0], box[:, 1], size=(16, prob.sys.n))
    full = integrate_flow_batch(prob, X0)
    values_only = integrate_flow_batch(prob, X0, sensitivities=False)
    np.testing.assert_array_equal(values_only.states, full.states)
    assert values_only.sensitivities is None
    assert values_only.stats.steps == full.stats.steps


def test_values_only_flow_never_calls_the_jacobian():
    def jacobian(X):
        raise AssertionError("Jacobian called on a values-only flow")

    prob = scalar_problem(jacobian=jacobian)
    flow = integrate_flow_batch(prob, np.array([[0.5], [-0.3]]), sensitivities=False)
    np.testing.assert_allclose(flow.states[-1, :, 0], [0.5 * np.exp(-1.0), -0.3 * np.exp(-1.0)], atol=1e-9)
    cs = slice_constraint_set(prob)
    np.testing.assert_allclose(cs.values(np.array([[0.0]])), [[1.0, 1.0, 0.25]])


@pytest.mark.parametrize("sensitivities", [True, False], ids=["with-sensitivities", "values-only"])
def test_flow_row_does_not_depend_on_its_block(sensitivities):
    # ray marching and bisection flow only the rows still live, so a row
    # must come out bitwise the same whatever rows share its block; a
    # one-row block is exempt (its K.x product takes numpy's dot kernel,
    # not gemv)
    prob = get_benchmark("pendulum-backup").backup
    box = prob.bounding_box
    rng = np.random.default_rng(3)
    pair = rng.uniform(box[:, 0], box[:, 1], size=(2, 2))
    block = rng.uniform(box[:, 0], box[:, 1], size=(64, 2))
    at = [5, 40]
    block[at] = pair
    small = integrate_flow_batch(prob, pair, sensitivities=sensitivities)
    large = integrate_flow_batch(prob, block, sensitivities=sensitivities)
    assert small.states.tobytes() == large.states[:, at].tobytes()
    if sensitivities:
        assert small.sensitivities.tobytes() == large.sensitivities[:, at].tobytes()
    else:
        assert small.sensitivities is None and large.sensitivities is None


def test_level_searches_flow_no_state_outside_h(monkeypatch):
    # b_0 = h needs no flow and h(x) < 0 proves x outside the slice set, so
    # sampling, marching, bisection and boundary probing flow only states
    # with h(x) >= 0
    bench = get_benchmark("pendulum-backup")
    prob = bench.backup
    real = softcbf.backup.integrate_flow_batch
    values_only = []

    def recorded(prob, X0, sensitivities=True):
        if not sensitivities:
            values_only.append(np.array(X0))
        return real(prob, X0, sensitivities)

    monkeypatch.setattr(softcbf.backup, "integrate_flow_batch", recorded)
    cs = slice_constraint_set(prob)
    tube = sample_tube(cs, bench.cert_epsilon, 30.0, seed=0)
    n_tube = len(values_only)
    report = probe_boundary(cs, bench.closed_loop_field(), 3000.0, bench.cert_epsilon, 30, seed=0)
    assert len(tube) > 0 and report.n_located > 0
    assert 0 < n_tube < len(values_only)
    flowed = np.vstack(values_only)
    assert np.all(prob.h(flowed)[0] >= 0.0)
    # the searches do meet states outside h: the first candidates of
    # sample_tube's stream already include some
    box = prob.bounding_box
    cand = np.random.default_rng(0).uniform(box[:, 0], box[:, 1], size=(512, 2))
    assert np.any(prob.h(cand)[0] < 0.0)


def per_stage_sensitivities(prob, X0):
    """Reference for the variational system: the same RK4 recursion with the
    Jacobian called at each stage as the stage is reached."""
    X = np.array(X0, dtype=float)
    B, n = X.shape
    F = prob.sys.closed_loop(prob.k_b)
    jac = softcbf.backup._make_jacobian(prob, F, X)
    n_sub = max(1, math.ceil(prob.dtau / prob.h_max))
    h = prob.dtau / n_sub
    S = np.broadcast_to(np.eye(n), (B, n, n)).copy()
    sens = [S]
    for _ in range(1, prob.N):
        for _ in range(n_sub):
            k1x = F(X)
            X2 = X + 0.5 * h * k1x
            k2x = F(X2)
            X3 = X + 0.5 * h * k2x
            k3x = F(X3)
            X4 = X + h * k3x
            k4x = F(X4)
            k1s = jac(X) @ S
            k2s = jac(X2) @ (S + 0.5 * h * k1s)
            k3s = jac(X3) @ (S + 0.5 * h * k2s)
            k4s = jac(X4) @ (S + h * k3s)
            S = S + (h / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
            X = X + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        sens.append(S)
    return np.array(sens)


@pytest.mark.gate
@pytest.mark.parametrize(
    "make_problem",
    [lambda: get_benchmark("pendulum-backup").backup, lambda: scalar_problem(jacobian=None)],
    ids=["pendulum", "scalar-finite-differences"],
)
def test_sensitivities_match_per_stage_reference_bitwise(make_problem):
    # one Jacobian call per slice interval, on the recorded stage states,
    # gives every row of a block of two or more rows the bits of a call per
    # stage; a one-row flow's Jacobian sees a larger block and may move in
    # the last bit
    prob = make_problem()
    box = prob.bounding_box
    rng = np.random.default_rng(4)
    for B in (2, 64):
        X0 = rng.uniform(box[:, 0], box[:, 1], size=(B, prob.sys.n))
        flow = integrate_flow_batch(prob, X0)
        assert flow.sensitivities.tobytes() == per_stage_sensitivities(prob, X0).tobytes()
    for _ in range(10):
        X0 = rng.uniform(box[:, 0], box[:, 1], size=(1, prob.sys.n))
        flow = integrate_flow_batch(prob, X0)
        np.testing.assert_allclose(flow.sensitivities, per_stage_sensitivities(prob, X0), rtol=0, atol=1e-15)


@pytest.mark.gate
@pytest.mark.parametrize("B", [1, 3])
def test_sensitivity_flow_calls_jacobian_once_per_slice(B):
    prob = get_benchmark("pendulum-backup").backup
    rows = []

    def counted(X):
        rows.append(len(X))
        return prob.jacobian(X)

    n_sub = math.ceil(prob.dtau / prob.h_max)
    X0 = np.linspace(-0.3, 0.3, 2 * B).reshape(B, 2)
    flow = integrate_flow_batch(dataclasses.replace(prob, jacobian=counted), X0)
    # the shape check on the initial block, then one call per slice interval
    # on the 4 stage states of each of its n_sub RK4 steps
    assert rows == [B] + [4 * n_sub * B] * (prob.N - 1)
    assert len(rows) == 11 and flow.stats.steps == 200
    assert flow.sensitivities.tobytes() == integrate_flow_batch(prob, X0).sensitivities.tobytes()


@pytest.mark.gate
def test_large_sensitivity_flow_calls_jacobian_on_whole_steps_within_budget():
    # above the row budget each slice interval's Jacobian runs on groups of
    # whole RK4 steps, which gives the per-stage reference bit for bit
    prob = get_benchmark("pendulum-backup").backup
    B, budget = 300, softcbf.backup._JACOBIAN_ROWS
    n_sub = math.ceil(prob.dtau / prob.h_max)
    assert 4 * B <= budget < 4 * n_sub * B
    rows = []

    def counted(X):
        rows.append(len(X))
        return prob.jacobian(X)

    box = prob.bounding_box
    X0 = np.random.default_rng(6).uniform(box[:, 0], box[:, 1], size=(B, 2))
    flow = integrate_flow_batch(dataclasses.replace(prob, jacobian=counted), X0)
    assert rows[0] == B
    assert all(r % (4 * B) == 0 and 0 < r <= budget for r in rows[1:])
    intervals, acc = 0, 0
    for r in rows[1:]:
        acc += r
        if acc == 4 * n_sub * B:
            intervals, acc = intervals + 1, 0
    assert (intervals, acc) == (prob.N - 1, 0) and len(rows) > prob.N
    assert flow.sensitivities.tobytes() == per_stage_sensitivities(prob, X0).tobytes()


@pytest.mark.gate
def test_pendulum_value_forms_equal_h_and_h_b_bitwise():
    # the values-only forms must give h(X)[0] and h_b(X)[0] bit for bit,
    # signed zeros included, at every block size a flow or screen uses
    prob = get_benchmark("pendulum-backup").backup
    forms = prob.value_forms
    assert forms.h is prob.h and forms.h_b is prob.h_b
    rng = np.random.default_rng(19)
    box = prob.bounding_box
    X = rng.uniform(box[:, 0], box[:, 1], size=(20_000, 2))
    zeros = rng.uniform(size=X.shape) < 0.1
    X[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    X[:4] = [[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]]
    for rows in (1, 2, 1000):
        for start in range(0, len(X), rows):
            block = X[start:start + rows]
            assert forms.h_value(block).tobytes() == prob.h(block)[0].tobytes()
            assert forms.h_b_value(block).tobytes() == prob.h_b(block)[0].tobytes()


def test_value_forms_serve_every_gradient_free_read_of_h_and_h_b():
    bench = get_benchmark("pendulum-backup")
    prob = bench.backup
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(X):
            calls[name] += 1
            return fn(X)

        return wrapper

    h, h_b = counted("h", prob.h), counted("h_b", prob.h_b)
    forms = softcbf.backup.ValueForms(prob.value_forms.h_value, prob.value_forms.h_b_value, h, h_b)
    declared = dataclasses.replace(prob, h=h, h_b=h_b, value_forms=forms)
    box = prob.bounding_box
    X = np.random.default_rng(7).uniform(box[:, 0], box[:, 1], size=(64, 2))

    # a values-only slice evaluation and the slice screen read no gradient
    values, grads = softcbf.backup.slice_values_batch(declared, X, gradients=False)
    assert grads is None
    screened = slice_constraint_set(declared).screened_values(X)
    assert calls == {}
    assert values.tobytes() == softcbf.backup.slice_values_batch(prob, X)[0].tobytes()
    assert (screened[:, 0] < 0.0).any() and not (screened[:, 0] < 0.0).all()

    # the preconditions read h and h_b with gradients once, on the samples;
    # the reachability test of check (2) reads h_b's values alone
    samples = bench.precondition_sampler(300, 0)
    report = check_backup_preconditions(declared, samples)
    assert calls == {"h": 1, "h_b": 1}
    assert report.reachable_boundary_safe.n_points > 0
    plain = check_backup_preconditions(prob, samples)
    for name in ("backup_set_safe", "reachable_boundary_safe", "regular_value"):
        chk, want = getattr(report, name), getattr(plain, name)
        assert (chk.passed, chk.n_points, chk.min_margin) == (want.passed, want.n_points, want.min_margin)

    # swapping h, as a call tracer does, puts every read back on h and h_b
    calls.clear()
    swapped = dataclasses.replace(declared, h=counted("new h", h))
    again, _ = softcbf.backup.slice_values_batch(swapped, X, gradients=False)
    assert calls == {"new h": 1, "h": 1, "h_b": 1}
    assert again.tobytes() == values.tobytes()
    assert slice_constraint_set(swapped).screened_values(X).tobytes() == screened.tobytes()


def flow_paths(prob):
    """The pendulum problem on the fused-plant path and on the composed
    path, each paired with a reference that runs the checked
    `sys.closed_loop(k_b)` at every RK4 stage (as the fused field it is
    declared as)."""
    plant = dataclasses.replace(prob, fused=None)
    composed = dataclasses.replace(plant, sys=dataclasses.replace(prob.sys, fused=None))
    out = {}
    for name, p in (("fused-plant", plant), ("composed", composed)):
        checked = FusedField(p.sys.closed_loop(p.k_b), p.sys.drift, p.sys.actuation, p.k_b)
        out[name] = (p, dataclasses.replace(p, fused=checked))
    return out


@pytest.mark.gate
@pytest.mark.parametrize("path", ["fused-plant", "composed"])
@pytest.mark.parametrize("B", [2, 400])
def test_unchecked_flow_steps_equal_the_checked_field_bitwise(path, B):
    prob, reference = flow_paths(get_benchmark("pendulum-backup").backup)[path]
    assert prob.fused is None and (prob.sys.fused is None) == (path == "composed")
    box = prob.bounding_box
    X0 = np.random.default_rng(B).uniform(box[:, 0], box[:, 1], size=(B, 2))
    X0[0] = [0.0, -0.0]
    for jacobian in (prob.jacobian, None):
        # the finite-difference Jacobian calls the unchecked field as well
        p = dataclasses.replace(prob, jacobian=jacobian)
        want = integrate_flow_batch(dataclasses.replace(reference, jacobian=jacobian), X0)
        got = integrate_flow_batch(p, X0)
        assert got.states.tobytes() == want.states.tobytes()
        assert got.sensitivities.tobytes() == want.sensitivities.tobytes()
        assert integrate_flow_batch(p, X0, sensitivities=False).states.tobytes() == want.states.tobytes()


@pytest.mark.parametrize("path", ["fused-plant", "composed"])
@pytest.mark.parametrize("rows", [1, 4])
def test_backup_controller_with_wrong_shape_raises_in_a_flow(path, rows):
    prob, _ = flow_paths(get_benchmark("pendulum-backup").backup)[path]

    def k_flat(X):
        # answers a block with inputs (B,), not (B, 1)
        return prob.k_b(X)[:, 0]

    bad = dataclasses.replace(prob, k_b=k_flat)
    X0 = np.full((rows, 2), 0.1)
    message = {
        "fused-plant": rf"controller returned shape \({rows},\) for a block of {rows} states; expected \({rows}, 1\)",
        "composed": rf"drift, actuation and controller returned shape \({rows}, 2\), \({rows}, 2, 1\), \({rows},\) "
                    rf"for a block of {rows} states; expected \({rows}, 2\), \({rows}, 2, 1\), \({rows}, 1\)",
    }[path]
    for sensitivities in (True, False):
        with pytest.raises(InvalidInputError, match=message):
            integrate_flow_batch(bad, X0, sensitivities=sensitivities)

    # called directly, the field checks every call, not only the first
    calls = []

    def k_late(X):
        calls.append(1)
        return prob.k_b(X) if len(calls) == 1 else k_flat(X)

    F = prob.sys.closed_loop(k_late)
    F(X0)
    with pytest.raises(InvalidInputError, match=message):
        F(X0)


def rk4_reference(F, X, h):
    """rk4_step with Python-float coefficients, as it was first written."""
    k1 = F(X)
    X2 = X + 0.5 * h * k1
    k2 = F(X2)
    X3 = X + 0.5 * h * k2
    k3 = F(X3)
    X4 = X + h * k3
    k4 = F(X4)
    return X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (X, X2, X3, X4)


@pytest.mark.gate
@pytest.mark.parametrize("B", [1, 2, 550])
def test_rk4_step_matches_python_float_coefficients_bitwise(B):
    # the 0-d coefficients against Python floats, on the pendulum's fused
    # field and on the double integrator's plant with a held input, at the
    # flow's step and at sim step sizes, with signed zeros in the states
    pendulum = get_benchmark("pendulum-backup")
    plant = get_benchmark("double-integrator-box").sys
    rng = np.random.default_rng(B)
    for trial in range(20):
        X = rng.uniform(-1.6, 1.6, size=(B, 2))
        zeros = rng.uniform(size=X.shape) < 0.2
        X[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
        U = rng.choice([0.0, -0.0, 1.5, -2.25], size=(B, 1))
        held = (plant.actuation(X) @ U[:, :, None])[:, :, 0]
        for F in (pendulum.backup.closed_loop(), lambda X: plant.drift(X) + held):
            for h in (0.01, 0.02 / 3, 0.001, 0.1 / 7):
                got, want = softcbf.backup.rk4_step(F, X, h), rk4_reference(F, X, h)
                assert got[0].tobytes() == want[0].tobytes()
                for g, w in zip(got[1], want[1]):
                    assert g.tobytes() == w.tobytes()
        dt, substeps = 0.01, 10
        want = X
        for _ in range(substeps):
            want, _ = rk4_reference(lambda X: plant.drift(X) + held, want, dt / substeps)
        assert softcbf.sim._plant_block(plant, X, U, dt, substeps).tobytes() == want.tobytes()
