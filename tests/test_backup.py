import collections
import dataclasses
import functools
import math
import re
import threading
from sys import getswitchinterval, setswitchinterval

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
    Expr,
    FlowResult,
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


def fused_loop(sys, controller, closed_loop):
    """sys with a FusedPlant that declares `closed_loop`, a tuple of Exprs,
    for `controller`; its plant is the composed drift + actuation @ u."""
    def plant(X, U):
        return sys.drift(X) + np.einsum("bij,bj->bi", sys.actuation(X), U)

    return dataclasses.replace(sys, fused=FusedPlant(plant, sys.drift, sys.actuation, None, controller, closed_loop))


def with_fused(prob, **fields):
    """prob with the named fields of its system's FusedPlant replaced."""
    return dataclasses.replace(prob, sys=dataclasses.replace(prob.sys, fused=dataclasses.replace(prob.sys.fused, **fields)))


def flow_on(fields, prob, X0, sensitivities=True):
    """integrate_flow_batch(prob, X0, sensitivities) with the system's
    (checked field, unchecked field, declared closed loop) of
    `ControlAffineSystem._closed_loop_fields` replaced by fields(*those)."""
    real = ControlAffineSystem._closed_loop_fields
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ControlAffineSystem, "_closed_loop_fields", lambda sys, k: fields(*real(sys, k)))
        return integrate_flow_batch(prob, X0, sensitivities)


def block_path(F, f, loop):
    # no row path: a one-row flow runs rk4_step on (1, n) blocks of the
    # generated block form
    return F, f, None


def checked_path(F, f, loop):
    # the checked field at every RK4 step, finite difference and re-run
    return F, F, None


def counted_block_forms(monkeypatch, calls, name):
    """Count in calls[name] every call of a block form that
    `safety_filter._block_form` generates from here on."""
    real = softcbf.safety_filter._block_form

    def counted(field):
        block = real(field)

        def wrapper(X):
            calls[name] += 1
            return block(X)

        return wrapper

    monkeypatch.setattr(softcbf.safety_filter, "_block_form", counted)


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

    # the same flow on the row path of a declared closed loop: it must find
    # the blow up in the same interval, and the block re-run reports the
    # same time
    (x,) = Expr.state(1)
    fused = dataclasses.replace(prob, sys=fused_loop(sys, zero_controller, (x * x,)))
    assert fused.sys._closed_loop_fields(fused.k_b)[2] == fused.sys.fused.closed_loop
    with pytest.raises(BlowUpError) as err:
        integrate_flow(fused, np.array([2.0]))
    assert err.value.time == 0.5300000000000002


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
    # the Jacobian's first call is on the first slice interval's stage
    # states: 4 stages of each of its 50 RK4 steps, on both rows
    with pytest.raises(InvalidInputError, match=r"shape \(1, 1\) for a block of 400 states"):
        integrate_flow_batch(bad_jacobian, X0)


def test_fused_closed_loop_with_wrong_block_shape_raises(monkeypatch):
    prob = get_benchmark("pendulum-backup").backup
    real = softcbf.safety_filter._block_form(prob.sys.fused.closed_loop)

    def field_single(X):
        # answers a block with the field of its first state
        return real(X[:1])[0]

    monkeypatch.setattr(softcbf.safety_filter, "_block_form", lambda field: field_single)
    assert prob.sys._closed_loop_fields(prob.k_b)[1] is field_single
    with pytest.raises(InvalidInputError, match=r"field_single returned shape \(2,\) for a block of 3 states; expected \(3, 2\)"):
        integrate_flow_batch(prob, np.zeros((3, 2)))
    # a one-row flow on the row path calls the block field only for finite
    # differences, there on the flow's 800 stage states, and checks it
    integrate_flow_batch(prob, np.zeros((1, 2)))
    with pytest.raises(InvalidInputError, match=r"field_single returned shape \(2,\) for a block of 800 states"):
        integrate_flow_batch(dataclasses.replace(prob, jacobian=None), np.zeros((1, 2)))


def test_row_path_flow_never_calls_the_block_field(monkeypatch):
    prob = get_benchmark("pendulum-backup").backup
    X0 = np.array([[0.3, -0.2]])
    want = [integrate_flow_batch(prob, X0, sensitivities=s).states.tobytes() for s in (False, True)]
    calls = collections.Counter()
    counted_block_forms(monkeypatch, calls, "field")
    for sensitivities in (False, True):
        got = integrate_flow_batch(prob, X0, sensitivities=sensitivities)
        assert got.states.tobytes() == want[sensitivities]
    assert calls == {}


def declared_problem(n):
    """A problem whose closed loop is declared once as a tuple of Exprs, with
    an analytic Jacobian: xdot = -x + 0.5 x^2 for n = 1, pendulum-backup
    for n = 2, and a test-only damped chain with a cubic spring for n = 3;
    paired with the same problem on the composed path, and a state from
    which its flow blows up (None for the pendulum, whose field is bounded
    in the rate).  For n = 1 and 3 the drift is the field, and each
    component adds the + 0.0 that the composed field's einsum adds, so the
    declared closed loop is the composed one bit for bit."""
    if n == 2:
        prob = get_benchmark("pendulum-backup").backup
        return prob, dataclasses.replace(prob, sys=dataclasses.replace(prob.sys, fused=None)), None
    x = Expr.state(n)
    if n == 1:
        closed_loop, blow_up = (-x[0] + 0.5 * x[0] * x[0] + 0.0,), [4.0]

        def drift(X):
            return -X + 0.5 * X * X

        def jacobian(X):
            return (-1.0 + X)[:, :, None]
    else:
        closed_loop = (x[1] + 0.0, x[2] + 0.0, -x[0] - 2.0 * x[1] - 2.0 * x[2] - 0.5 * x[0] * x[0] * x[0] + 0.0)
        blow_up = [50.0, 0.0, -0.0]

        def drift(X):
            out = np.empty(X.shape)
            out[:, 0] = X[:, 1]
            out[:, 1] = X[:, 2]
            out[:, 2] = -X[:, 0] - 2.0 * X[:, 1] - 2.0 * X[:, 2] - 0.5 * X[:, 0] * X[:, 0] * X[:, 0]
            return out

        def jacobian(X):
            J = np.zeros((X.shape[0], 3, 3))
            J[:, 0, 1] = 1.0
            J[:, 1, 2] = 1.0
            J[:, 2, 0] = -1.0 - 1.5 * X[:, 0] * X[:, 0]
            J[:, 2, 1:] = -2.0
            return J

    sys = ControlAffineSystem(n=n, m=1, drift=drift, actuation=column_actuation([0.0] * n))
    prob = BackupProblem(
        sys=sys, k_b=zero_controller, h=quad_fn(1.0), h_b=quad_fn(0.25),
        T=1.0, dtau=0.25, jacobian=jacobian, bounding_box=np.array([[-1.0, 1.0]] * n),
    )
    return dataclasses.replace(prob, sys=fused_loop(sys, zero_controller, closed_loop)), prob, blow_up


@pytest.mark.gate
@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_flows_equal_one_row_block_flows_bitwise(n):
    # the row path, on the kernel generated from the declared closed loop,
    # against one-row flows of rk4_step on (1, n) blocks of its generated
    # block form, states and the float recursion's sensitivities
    prob = declared_problem(n)[0]
    assert prob.sys._closed_loop_fields(prob.k_b)[2] is prob.sys.fused.closed_loop
    box = prob.bounding_box
    rng = np.random.default_rng(5 + n)
    X = rng.uniform(box[:, 0], box[:, 1], size=(200 if n == 2 else 40, n))
    zeros = rng.uniform(size=X.shape) < 0.2
    X[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    for x in X:
        for sens in (False, True):
            got = integrate_flow_batch(prob, x[None], sensitivities=sens)
            want = flow_on(block_path, prob, x[None], sens)
            assert got.states.tobytes() == want.states.tobytes()
            if sens:
                assert got.sensitivities.tobytes() == want.sensitivities.tobytes()


@pytest.mark.gate
@pytest.mark.parametrize("n", [1, 2, 3])
def test_declared_closed_loops_equal_the_composed_path_bitwise(n):
    # the generated block form against plant(X, k_b(X)) and the composed
    # field, and the generated interval kernel of one-row flows against
    # one-row block flows on the composed field, on seeded states with
    # signed zeros, a row [..., -0.0] and one state whose flow blows up
    prob, composed, blow_up = declared_problem(n)
    F, block, field = prob.sys._closed_loop_fields(prob.k_b)
    assert field is prob.sys.fused.closed_loop and block is softcbf.safety_filter._block_form(field)
    plant, reference = prob.sys.fused.plant, composed.sys.closed_loop(prob.k_b)
    box = prob.bounding_box
    rng = np.random.default_rng(40 + n)
    X = rng.uniform(box[:, 0], box[:, 1], size=(400, n))
    zeros = rng.uniform(size=X.shape) < 0.2
    X[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    X[0, -1] = -0.0
    for B in (1, 2, 7, 400):
        for r in range(0, len(X), B):
            Xb = X[r:r + B]
            want = reference(Xb).tobytes()
            assert F(Xb).tobytes() == want and plant(Xb, prob.k_b(Xb)).tobytes() == want
    for x in X[:30]:
        for sens in (False, True):
            got, want = integrate_flow_batch(prob, x[None], sens), integrate_flow_batch(composed, x[None], sens)
            assert got.states.tobytes() == want.states.tobytes()
            if sens:
                assert got.sensitivities.tobytes() == want.sensitivities.tobytes()
    if blow_up is not None:
        for sens in (False, True):
            errors = []
            for p in (prob, composed):
                with pytest.raises(BlowUpError) as err:
                    integrate_flow_batch(p, np.array([blow_up]), sens)
                errors.append((str(err.value), err.value.time))
            assert errors[0] == errors[1]


@pytest.mark.parametrize("make", [
    lambda x: x[0] / x[1],
    lambda x: x[0] / 0.0,
    lambda x: x[0] / -0.0,
    lambda x: 1.0 / x[0],
    lambda x: x[0] / Expr.dot([1.0, 2.0]),
])
def test_expression_divides_only_by_a_nonzero_constant(make):
    # Python's float division raises where numpy's gives inf or nan, so the
    # row form could not keep the block form's bits
    with pytest.raises(InvalidInputError, match="divides only by a nonzero constant"):
        make(Expr.state(2))


def test_expression_refuses_non_finite_constants_and_a_closed_loop_of_the_wrong_length():
    x0, x1 = Expr.state(2)
    for bad in (math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="must be finite"):
            x0 + bad
    with pytest.raises(InvalidInputError, match="a dot needs a finite vector"):
        Expr.dot([1.0, math.nan])
    prob = get_benchmark("pendulum-backup").backup
    for field, got in (((x1 + 0.0,), "['Expr']"), ((x1, x0, x0), "['Expr', 'Expr', 'Expr']"),
                       ((x1, 0.0), "['Expr', 'float']"), (lambda X: X, "function")):
        with pytest.raises(InvalidInputError, match=re.escape(f"a closed loop must be n = 2 Exprs that Expr's "
                                                              f"operators make on x0 to x1, got {got}")):
            with_fused(prob, closed_loop=field)
    # nodes that the operators would not make, or that do not fit n = 2,
    # are refused when the system is built, not by the generated code
    x2 = Expr.state(3)[2]
    for bad in (x2, x0 + x2, Expr.dot([1.0, 2.0, 3.0]).tanh(), Expr("c", math.inf), Expr("c", 2),
                Expr("c", np.float64(2.0)), Expr("x", -1), Expr("x", 1.0), Expr("/", x0, x1),
                Expr("/", x0, Expr("c", 0.0)), Expr("**", x0, x1), Expr("sin", x0, x1), Expr("+", x0, 1.0),
                Expr("dot", [1.0, 2.0]), Expr("dot", np.array([1, 2]))):
        with pytest.raises(InvalidInputError, match="a closed loop must be n = 2 Exprs that"):
            with_fused(prob, closed_loop=(x1 + 0.0, x0 * bad))
    assert (x0 / 2.0).op == "/" and (np.float64(2.0) * x0).op == "*"


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
        got = np.array(softcbf.backup._row_kernels(n)[0](J, S.tolist(), h))
        assert got.tobytes() == matmul_sensitivity_recursion(J, S, h).tobytes()


def reference_rk4_row(f, x, h):
    """The row RK4 step as a loop over the components (the row path's
    earlier body, kept here as the kernels' reference)."""
    half, sixth = 0.5 * h, h / 6.0
    k1 = f(x)
    x2 = tuple([a + half * k for a, k in zip(x, k1)])
    k2 = f(x2)
    x3 = tuple([a + half * k for a, k in zip(x, k2)])
    k3 = f(x3)
    x4 = tuple([a + h * k for a, k in zip(x, k3)])
    k4 = f(x4)
    x_next = tuple([a + sixth * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(x, k1, k2, k3, k4)])
    return x_next, (x, x2, x3, x4)


def reference_held_row(f, g):
    """The row form x -> f(x) + g, component by component (the body the
    plant row path stepped with rk4_row before its kernel, kept here as
    plant_row's reference)."""
    def f_held(x):
        return tuple([d + c for d, c in zip(f(x), g)])

    return f_held


def reference_sensitivity_row(J, S, h):
    """The row sensitivity recursion as a loop over the entries of S (the
    row path's earlier body, kept here as the kernels' reference)."""
    n = J.shape[-1]
    T, P = np.empty((n, n)), np.empty((n, n))
    T_flat, read = T.reshape(-1), P.reshape(-1).tolist
    prod = np.matmul if n == 1 else np.ndarray.dot
    half, sixth = 0.5 * h, h / 6.0
    Js = list(J)
    for s in range(0, len(Js), 4):
        T_flat[:] = S
        prod(Js[s], T, out=P)
        k1 = read()
        T_flat[:] = [a + half * k for a, k in zip(S, k1)]
        prod(Js[s + 1], T, out=P)
        k2 = read()
        T_flat[:] = [a + half * k for a, k in zip(S, k2)]
        prod(Js[s + 2], T, out=P)
        k3 = read()
        T_flat[:] = [a + h * k for a, k in zip(S, k3)]
        prod(Js[s + 3], T, out=P)
        k4 = read()
        S = [a + sixth * (p + 2.0 * q + 2.0 * r + t) for a, p, q, r, t in zip(S, k1, k2, k3, k4)]
    return S


# signed zeros, infinities, NaN, subnormals and values whose products overflow
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e-320, 1e300, -3e307]


def special_draws(rng, shape, rate):
    """Normal draws, each replaced by one of SPECIAL_FLOATS with probability rate."""
    out = rng.standard_normal(shape)
    mask = rng.uniform(size=shape) < rate
    out[mask] = rng.choice(SPECIAL_FLOATS, size=mask.sum())
    return out


def scripted_row(slopes):
    """A row form that returns the given slopes in turn, whatever the state."""
    it = iter(slopes)
    return lambda x: tuple(next(it))


def float_bits(values):
    """The bytes of values as float64, with every NaN made math.nan.  The
    sum of two NaNs keeps either one's sign, and which one can change when
    CPython specialises a float addition after a few runs of the same code,
    so a NaN's sign bit does not tell two implementations apart."""
    out = np.array(values, dtype=float)
    out[np.isnan(out)] = math.nan
    return out.tobytes()


@pytest.mark.gate
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_kernels_equal_reference_loop_bodies_bitwise(n):
    # the drift row form answers from a script of drawn slopes, so special
    # values reach every stage; both bodies see the same script
    sensitivity_row, plant_row = softcbf.backup._row_kernels(n)
    rng = np.random.default_rng(100 + n)
    # the plant step's held rows and slopes, from a stream of their own
    plant_rng = np.random.default_rng(200 + n)
    for _ in range(300):
        # a rare special value leaves most of a long recursion finite
        rate = float(rng.choice([0.01, 0.05, 0.3]))
        h = float(rng.choice([0.01, 0.2 / 3, 0.5, rng.uniform(1e-4, 1.0)]))
        x = tuple(special_draws(rng, n, rate).tolist())

        # a plant step: its substeps of the reference step on the drift row plus g
        g = tuple(special_draws(plant_rng, n, rate).tolist())
        for substeps in (1, int(plant_rng.integers(2, 10)), 10):
            slopes = special_draws(plant_rng, (4 * substeps, n), rate).tolist()
            got = plant_row(scripted_row(slopes), x, g, h, substeps)
            f, want = reference_held_row(scripted_row(slopes), g), x
            for _ in range(substeps):
                want, _ = reference_rk4_row(f, want, h)
            assert type(got) is tuple and float_bits(got) == float_bits(want)

        J = special_draws(rng, (4 * int(rng.integers(1, 4)), n, n), rate)
        S = special_draws(rng, n * n, rate).tolist()
        with np.errstate(all="ignore"):
            got, want = sensitivity_row(J, S, h), reference_sensitivity_row(J, S, h)
        assert float_bits(got) == float_bits(want)


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
    # test_blow_up_reports_time), so the row path has recorded the first
    # interval's stage states for its Jacobian when the blow-up is found
    def square(x):
        x = np.asarray(x, dtype=float)
        return x * x

    def jacobian(X):
        return (2.0 * X)[:, :, None]

    (x,) = Expr.state(1)
    sys = ControlAffineSystem(n=1, m=1, drift=square, actuation=column_actuation([0.0]))
    prob = BackupProblem(
        sys=fused_loop(sys, zero_controller, (x * x,)), k_b=zero_controller, h=quad_fn(1.0),
        h_b=quad_fn(0.25), T=2.0, dtau=0.5, jacobian=jacobian, bounding_box=np.array([[-3, 3]]),
    )
    assert prob.sys._closed_loop_fields(prob.k_b)[2] is prob.sys.fused.closed_loop
    errors = []
    for flow in (integrate_flow_batch, functools.partial(flow_on, block_path)):
        with pytest.raises(BlowUpError) as err:
            flow(prob, np.array([[2.0]]), sensitivities=True)
        errors.append((str(err.value), err.value.time))
    assert errors[0] == errors[1]
    assert errors[0][1] == 0.5300000000000002


def test_every_closed_loop_of_the_declared_controller_takes_the_fused_closed_loop(monkeypatch):
    # with the closed loop's generated block form counted, the benchmark's
    # closed-loop field, sys.closed_loop(k_b), a block flow and the
    # precondition checks call it once per block and never the plant
    bench = get_benchmark("pendulum-backup")
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    counted_block_forms(monkeypatch, calls, "closed_loop")
    fused = bench.sys.fused
    sys = dataclasses.replace(bench.sys, fused=dataclasses.replace(fused, plant=counted("plant", fused.plant)))
    prob = dataclasses.replace(bench.backup, sys=sys)
    bench = dataclasses.replace(bench, sys=sys, backup=prob)
    X = np.random.default_rng(3).uniform(prob.bounding_box[:, 0], prob.bounding_box[:, 1], size=(5, 2))
    for F in (bench.closed_loop_field(), sys.closed_loop(prob.k_b)):
        calls.clear()
        F(X)
        assert calls == {"closed_loop": 1}
    calls.clear()
    steps = integrate_flow_batch(prob, X).stats.steps
    assert calls == {"closed_loop": 4 * steps}
    # one call for the Lie derivatives, one flow of the samples near the
    # safe-set boundary
    calls.clear()
    assert check_backup_preconditions(prob, bench.precondition_sampler(60, 0)).passed
    assert calls == {"closed_loop": 1 + 4 * steps}

    # a wrapped k_b falls back to the plant, a wrapped drift or actuation to
    # the composed field, which calls neither
    k_b = prob.k_b
    want = sys.closed_loop(k_b)(X)
    fallbacks = [
        ("plant", sys, lambda X: k_b(X)),
        ("composed", dataclasses.replace(sys, drift=lambda X: sys.drift(X)), k_b),
        ("composed", dataclasses.replace(sys, actuation=lambda X: sys.actuation(X)), k_b),
    ]
    for path, other, controller in fallbacks:
        calls.clear()
        assert other.closed_loop(controller)(X).tobytes() == want.tobytes()
        assert calls == ({"plant": 1} if path == "plant" else {})


def test_fused_closed_loop_applies_only_to_the_callables_it_was_declared_for(monkeypatch):
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
    plant = counted("plant", prob.sys.fused.plant)
    sys = dataclasses.replace(prob.sys, drift=drift, actuation=actuation,
                              fused=FusedPlant(plant, drift, actuation, None, k_b, prob.sys.fused.closed_loop))
    declared = dataclasses.replace(prob, sys=sys, k_b=k_b)
    X0 = np.array([[0.3, -0.2], [-0.1, 0.4], [0.05, 0.0]])
    reference = integrate_flow_batch(prob, X0)
    reference_row = integrate_flow_batch(prob, X0[:1])
    counted_block_forms(monkeypatch, calls, "fused")

    # the fused closed loop alone, four calls per RK4 step, of which the first
    # step's are checked; the finite-difference Jacobian and the
    # precondition checks go through it too
    flow = integrate_flow_batch(declared, X0)
    assert calls == {"fused": 4 * flow.stats.steps}
    integrate_flow_batch(dataclasses.replace(declared, jacobian=None), X0)
    check_backup_preconditions(declared, X0)
    assert set(calls) == {"fused"}
    assert flow.sensitivities.tobytes() == reference.sensitivities.tobytes()

    # a one-row flow: the kernel generated from the declared closed loop,
    # which calls none of them
    calls.clear()
    flow = integrate_flow_batch(declared, X0[:1])
    assert calls == {}
    assert flow.sensitivities.tobytes() == reference_row.sensitivities.tobytes()

    # a wrapped k_b, like a step clock's, keeps the system's fused plant:
    # four calls per RK4 step of the wrapper, the k_b it wraps and the plant,
    # and none of drift or actuation; a one-row flow too, not the row path
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
    jac = softcbf.backup._make_jacobian(prob, F)
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
    # on a block one call per slice interval on the 4 stage states of each
    # of its n_sub RK4 steps, and on the row path one call on the stage
    # states of the whole flow
    if B == 1:
        assert rows == [4 * n_sub * (prob.N - 1)]
    else:
        assert rows == [4 * n_sub * B] * (prob.N - 1)
    assert len(rows) == (1 if B == 1 else 10) and flow.stats.steps == 200
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
    assert all(r % (4 * B) == 0 and 0 < r <= budget for r in rows)
    intervals, acc = 0, 0
    for r in rows:
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
    path."""
    plant = with_fused(prob, controller=None, closed_loop=None)
    composed = dataclasses.replace(prob, sys=dataclasses.replace(prob.sys, fused=None))
    return {"fused-plant": plant, "composed": composed}


@pytest.mark.gate
@pytest.mark.parametrize("path", ["fused-plant", "composed"])
@pytest.mark.parametrize("B", [2, 400])
def test_unchecked_flow_steps_equal_the_checked_field_bitwise(path, B):
    # against a reference that runs the checked sys.closed_loop(k_b) at
    # every RK4 stage
    prob = flow_paths(get_benchmark("pendulum-backup").backup)[path]
    fused = prob.sys.fused
    assert (fused is None) == (path == "composed") and (fused is None or fused.closed_loop is None)
    box = prob.bounding_box
    X0 = np.random.default_rng(B).uniform(box[:, 0], box[:, 1], size=(B, 2))
    X0[0] = [0.0, -0.0]
    for jacobian in (prob.jacobian, None):
        # the finite-difference Jacobian calls the unchecked field as well
        p = dataclasses.replace(prob, jacobian=jacobian)
        want = flow_on(checked_path, p, X0)
        got = integrate_flow_batch(p, X0)
        assert got.states.tobytes() == want.states.tobytes()
        assert got.sensitivities.tobytes() == want.sensitivities.tobytes()
        assert integrate_flow_batch(p, X0, sensitivities=False).states.tobytes() == want.states.tobytes()


@pytest.mark.parametrize("path", ["fused-plant", "composed"])
@pytest.mark.parametrize("rows", [1, 4])
def test_backup_controller_with_wrong_shape_raises_in_a_flow(path, rows):
    prob = flow_paths(get_benchmark("pendulum-backup").backup)[path]

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
        for F in (pendulum.sys.closed_loop(pendulum.backup.k_b), lambda X: plant.drift(X) + held):
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


@pytest.mark.gate
def test_one_row_flows_in_two_threads_give_the_single_thread_bits():
    # the generated kernels make their operand arrays and buffers per call,
    # so concurrent one-row flows share no state
    prob = get_benchmark("pendulum-backup").backup
    box = prob.bounding_box
    starts = [np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], size=(12, 2)) for seed in (31, 32)]

    def flows(X0):
        return [integrate_flow_batch(prob, x[None], sensitivities=k % 2 == 0) for k, x in enumerate(X0)]

    def bits(results):
        return [(r.states.tobytes(), None if r.sensitivities is None else r.sensitivities.tobytes()) for r in results]

    want = [bits(flows(X0)) for X0 in starts]
    got = [None, None]
    barrier = threading.Barrier(2)

    def worker(k):
        barrier.wait(timeout=30)
        got[k] = bits(flows(starts[k]))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
    interval = getswitchinterval()
    setswitchinterval(1e-6)  # switch threads every few bytecodes
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_row_flow_jacobian_groups_whole_steps_across_interval_ends(monkeypatch):
    # below the row budget the row path's Jacobian calls take whole RK4
    # steps across interval ends; the recursion gives the same bits
    prob = get_benchmark("pendulum-backup").backup
    rows = []

    def counted(X):
        rows.append(len(X))
        return prob.jacobian(X)

    X0 = np.array([[0.21, -0.34]])
    want = integrate_flow_batch(prob, X0)
    monkeypatch.setattr(softcbf.backup, "_JACOBIAN_ROWS", 4 * 7 + 3)
    flow = integrate_flow_batch(dataclasses.replace(prob, jacobian=counted), X0)
    steps = flow.stats.steps
    assert rows == [4 * 7] * (steps // 7) + [4 * (steps % 7)]
    assert flow.sensitivities.tobytes() == want.sensitivities.tobytes()
    assert flow.states.tobytes() == want.states.tobytes()
