import numpy as np
import pytest

from softcbf import (
    ClassK,
    ClassKinfK,
    ControlAffineSystem,
    InvalidInputError,
    barrier_row,
    filter_boxed,
    filter_unconstrained,
    make_rhs,
)


def grid_search_halfspace_box(a, c, rhs, u_des, box, resolution=1e-3):
    """Independent oracle: grid search refined to the requested resolution,
    returning the closest feasible grid point to u_des.

    A grid at spacing s pins the optimal *distance* to within O(s) but the
    minimizer itself may slide O(sqrt(dist * s)) along the constraint plane
    (the objective is flat to first order there), so comparisons against
    the analytic projection are made on the objective, and on the point
    only when u_des is close to the plane.
    """
    a = np.asarray(a, dtype=float)
    u_des = np.asarray(u_des, dtype=float)
    box = np.asarray(box, dtype=float)
    m = a.size
    lo, hi = box[:, 0].copy(), box[:, 1].copy()
    best = None
    while True:
        axes = [np.linspace(lo[j], hi[j], 65) for j in range(m)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
        feas = grid[grid @ a >= rhs - c]
        if feas.size == 0:
            return None
        dist = np.linalg.norm(feas - u_des, axis=1)
        cand = feas[int(dist.argmin())]
        if best is None or np.linalg.norm(cand - u_des) <= np.linalg.norm(best - u_des):
            best = cand
        spacing = float((hi - lo).max() / 64.0)
        if spacing <= resolution:
            return best
        half = 8.0 * spacing
        lo = np.maximum(box[:, 0], best - half)
        hi = np.minimum(box[:, 1], best + half)


def test_class_k_forms():
    lin = ClassK(kind="linear", kappa=2.0)
    assert lin(0.0) == 0.0
    assert lin(0.5) == 1.0
    cub = ClassK(kind="cubic", kappa=3.0)
    assert cub(2.0) == 24.0
    tanh = ClassK(kind="tanh", kappa=1.5, scale=2.0)
    assert tanh(0.0) == 0.0
    grid = np.linspace(-3, 3, 101)
    for alpha in (lin, cub, tanh):
        vals = [alpha(h) for h in grid]
        assert np.all(np.diff(vals) > 0)  # strictly increasing on samples


def test_class_k_validation():
    with pytest.raises(InvalidInputError):
        ClassK(kind="sqrt")
    with pytest.raises(InvalidInputError):
        ClassK(kappa=0.0)
    with pytest.raises(InvalidInputError):
        ClassKinfK(alpha1=ClassK(kind="tanh"), beta=ClassK())


def test_class_kinf_k_form():
    gamma = ClassKinfK(alpha1=ClassK(kappa=1.0), beta=ClassK(kappa=1.0))
    assert gamma(1.0, 3.0) == 4.0  # h * (1 + |x|)
    assert gamma(0.0, 10.0) == 0.0
    # increasing in both arguments on samples
    assert gamma(2.0, 3.0) > gamma(1.0, 3.0)
    assert gamma(1.0, 4.0) > gamma(1.0, 3.0)


def test_make_rhs():
    assert make_rhs(ClassK(kappa=2.0), 0.5) == -1.0
    assert make_rhs(ClassK(kind="cubic", kappa=1.0), 0.0) == 0.0
    gamma = ClassKinfK(alpha1=ClassK(), beta=ClassK())
    assert make_rhs(gamma, 1.0, 3.0) == -4.0
    with pytest.raises(InvalidInputError):
        make_rhs(gamma, 1.0)  # state norm required


def test_barrier_row_single_integrator():
    sys = ControlAffineSystem(
        n=2, m=2, drift=lambda X: np.zeros((len(X), 2)), actuation=lambda X: np.broadcast_to(np.eye(2), (len(X), 2, 2))
    )
    a, c = barrier_row(sys, np.array([1.0, 0.0]), np.zeros(2))
    np.testing.assert_array_equal(a, [1.0, 0.0])
    assert c == 0.0


def test_barrier_row_linear_system():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    sys = ControlAffineSystem(n=2, m=1, drift=lambda X: X @ A.T, actuation=lambda X: np.broadcast_to(B, (len(X), 2, 1)))
    a, c = barrier_row(sys, np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    np.testing.assert_array_equal(a, [0.0])
    assert c == 2.0


def test_barrier_row_zero_gradient():
    sys = ControlAffineSystem(
        n=2, m=1, drift=lambda X: np.ones((len(X), 2)), actuation=lambda X: np.ones((len(X), 2, 1))
    )
    a, c = barrier_row(sys, np.zeros(2), np.ones(2))
    np.testing.assert_array_equal(a, [0.0])
    assert c == 0.0


def test_barrier_row_refuses_dynamics_that_ignore_the_block():
    # a drift of (n,) and an actuation of (n, m) whatever the block reshape
    # to the one-row shapes, so only a check of the outputs catches them
    sys = ControlAffineSystem(n=2, m=1, drift=lambda X: np.ones(2), actuation=lambda X: np.ones((2, 1)))
    with pytest.raises(InvalidInputError, match=r"actuation and drift returned shape \(2, 1\), \(2,\) "
                       r"for a block of 1 states; expected \(1, 2, 1\), \(1, 2\)"):
        barrier_row(sys, np.array([1.0, 1.0]), np.zeros(2))


def test_unconstrained_projection_example():
    out = filter_unconstrained(np.array([1.0, 0.0]), 0.0, 1.0, np.zeros(2))
    np.testing.assert_allclose(out.u, [1.0, 0.0])
    assert out.modified
    assert out.qp_status == "analytic"
    assert abs(out.constraint_value) <= 1e-12


def test_unconstrained_feasible_returned_bit_identical():
    u_des = np.array([0.3, -0.7])
    out = filter_unconstrained(np.array([1.0, 1.0]), 5.0, 0.0, u_des)
    assert out.u is u_des or np.array_equal(out.u, u_des)
    assert not out.modified
    assert out.constraint_value >= 0


def test_unconstrained_infeasible_when_unactuated():
    out = filter_unconstrained(np.zeros(2), 0.0, 0.5, np.array([1.0, 1.0]))
    assert out.qp_status == "infeasible"
    assert out.constraint_value < 0


def test_unconstrained_matches_grid_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        a = rng.normal(size=m)
        c = float(rng.normal())
        rhs = float(rng.normal())
        u_des = rng.uniform(-1.0, 1.0, size=m)
        out = filter_unconstrained(a, c, rhs, u_des)
        if out.qp_status == "infeasible":
            continue
        assert out.constraint_value >= -1e-9
        # search region sized from the instance: projection offset plus margin
        reach = max(0.0, rhs - c - float(a @ u_des)) / np.linalg.norm(a) + 1.0
        box = np.stack([u_des - reach, u_des + reach], axis=-1)
        ref = grid_search_halfspace_box(a, c, rhs, u_des, box)
        d_out = np.linalg.norm(out.u - u_des)
        d_ref = np.linalg.norm(ref - u_des)
        # the filter may never beat brute force by more than quantization,
        # nor lose to it at all
        assert d_out <= d_ref + 1e-9
        assert abs(d_out - d_ref) <= 2e-3
        if d_out <= 5e-3:  # near the plane the point itself is pinned
            assert np.linalg.norm(out.u - ref) <= 2e-3


def test_boxed_inactive_box_equals_unconstrained():
    a = np.array([1.0, 0.5])
    c, rhs = 0.0, 0.4
    u_des = np.array([0.0, 0.0])
    box = np.array([[-5.0, 5.0], [-5.0, 5.0]])
    free = filter_unconstrained(a, c, rhs, u_des)
    boxed = filter_boxed(a, c, rhs, u_des, box)
    np.testing.assert_allclose(boxed.u, free.u, atol=1e-12)
    assert boxed.qp_status == "analytic"


def test_boxed_saturation_infeasible():
    out = filter_boxed(np.array([1.0]), 0.0, 2.0, np.array([0.0]), np.array([[-1.0, 1.0]]))
    assert out.qp_status == "infeasible"
    np.testing.assert_allclose(out.u, [1.0])  # best corner reported


def test_boxed_feasible_desired_is_noop():
    u_des = np.array([0.2])
    out = filter_boxed(np.array([1.0]), 1.0, 0.0, u_des, np.array([[-1.0, 1.0]]))
    assert not out.modified
    assert np.array_equal(out.u, u_des)


def test_boxed_clips_desired_outside_box():
    u_des = np.array([4.0])
    out = filter_boxed(np.array([1.0]), 1.0, 0.0, u_des, np.array([[-1.0, 1.0]]))
    assert out.modified
    assert out.qp_status == "clipped"
    np.testing.assert_allclose(out.u, [1.0])


@pytest.mark.gate
def test_boxed_matches_grid_oracle():
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(200):
        m = int(rng.integers(1, 4))
        a = rng.normal(size=m)
        c = float(rng.normal())
        u_des = rng.uniform(-1.0, 1.0, size=m)
        lo = u_des - rng.uniform(0.2, 1.5, size=m)
        hi = u_des + rng.uniform(0.2, 1.5, size=m)
        box = np.stack([lo, hi], axis=-1)
        corner = np.where(a > 0, hi, np.where(a < 0, lo, u_des))
        # aim the threshold so feasible and infeasible instances both occur
        rhs = c + float(rng.uniform(-1.0, 1.2)) * abs(float(a @ corner) - c)
        out = filter_boxed(a, c, rhs, u_des, box)
        if out.qp_status == "infeasible":
            assert float(a @ corner) < rhs - c
            continue
        assert out.constraint_value >= -1e-9
        assert np.all(out.u >= box[:, 0] - 1e-12) and np.all(out.u <= box[:, 1] + 1e-12)
        ref = grid_search_halfspace_box(a, c, rhs, u_des, box)
        d_out = np.linalg.norm(out.u - u_des)
        d_ref = np.linalg.norm(ref - u_des)
        assert d_out <= d_ref + 1e-9
        assert abs(d_out - d_ref) <= 2e-3
        if d_out <= 5e-3:
            assert np.linalg.norm(out.u - ref) <= 2e-3
        checked += 1
    assert checked > 50


@pytest.mark.gate
def test_boxed_free_projection_is_the_unconstrained_projection():
    # instances whose free projection stays in the box: the boxed filter
    # returns the unconstrained filter's outcome bit for bit
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 200:
        m = int(rng.integers(1, 4))
        a = rng.normal(size=m)
        c = float(rng.normal())
        u_des = rng.uniform(-1.0, 1.0, size=m)
        box = np.stack(
            [u_des - rng.uniform(0.2, 1.5, size=m), u_des + rng.uniform(0.2, 1.5, size=m)], axis=-1
        )
        rhs = c + float(a @ u_des) + float(rng.uniform(0.01, 1.0))
        free = filter_unconstrained(a, c, rhs, u_des)
        if not np.all((free.u >= box[:, 0]) & (free.u <= box[:, 1])):
            continue
        out = filter_boxed(a, c, rhs, u_des, box)
        assert np.array_equal(out.u, free.u)
        assert (out.constraint_value, out.multiplier, out.qp_status, out.modified) == (
            free.constraint_value, free.multiplier, free.qp_status, free.modified
        )
        checked += 1


def test_complementary_slackness_when_active():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        a = rng.normal(size=m)
        if np.linalg.norm(a) < 1e-3:
            continue
        u_des = rng.uniform(-1.0, 1.0, size=m)
        c = float(rng.normal())
        rhs = c + float(a @ u_des) + float(rng.uniform(0.1, 1.0))
        out = filter_unconstrained(a, c, rhs, u_des)
        assert out.modified
        assert abs(out.constraint_value) <= 1e-9


def test_homogeneity_of_unconstrained_solution():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.normal(size=3)
        u_des = rng.normal(size=3)
        rhs_minus_c = float(a @ u_des) + 0.5
        s = float(rng.uniform(0.1, 10.0))
        u1 = filter_unconstrained(a, 0.0, rhs_minus_c, u_des).u
        u2 = filter_unconstrained(s * a, 0.0, s * rhs_minus_c, u_des).u
        np.testing.assert_allclose(u1, u2, atol=1e-12)


def test_minimality_on_grids():
    rng = np.random.default_rng(4)
    for _ in range(30):
        m = int(rng.integers(1, 3))
        a = rng.normal(size=m)
        u_des = rng.uniform(-0.5, 0.5, size=m)
        box = np.stack([u_des - 1.0, u_des + 1.0], axis=-1)
        corner = np.where(a > 0, box[:, 1], np.where(a < 0, box[:, 0], u_des))
        rhs = float(a @ u_des) + 0.6 * (float(a @ corner) - float(a @ u_des))
        out = filter_boxed(a, 0.0, rhs, u_des, box)
        if out.qp_status == "infeasible":
            continue
        axes = [np.linspace(box[j, 0], box[j, 1], 101) for j in range(m)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
        feas = grid[grid @ a >= rhs]
        if feas.size:
            assert np.linalg.norm(out.u - u_des) <= np.linalg.norm(feas - u_des, axis=1).min() + 1e-9


@pytest.mark.parametrize("m", [2, 3, 5])
def test_boxed_breakpoint_search_is_exact(m):
    # instances whose free projection leaves the box, so the multiplier comes
    # from the breakpoint search; u_des may start outside the box
    rng = np.random.default_rng(10 + m)
    checked = 0
    while checked < 100:
        a = rng.normal(size=m)
        c = float(rng.normal())
        u_des = rng.uniform(-1.5, 1.5, size=m)
        lo = rng.uniform(-1.0, 0.0, size=m)
        box = np.stack([lo, lo + rng.uniform(0.1, 1.5, size=m)], axis=-1)
        u0 = np.clip(u_des, box[:, 0], box[:, 1])
        corner = np.where(a > 0, box[:, 1], box[:, 0])
        reach = float(a @ corner - a @ u0)
        if reach < 1e-3:  # u_des already at the best corner
            continue
        rhs = c + float(a @ u0) + float(rng.uniform(0.01, 0.99)) * reach
        u_free = u_des + (rhs - c - float(a @ u_des)) / float(a @ a) * a
        if np.all((u_free >= box[:, 0]) & (u_free <= box[:, 1])):
            continue
        out = filter_boxed(a, c, rhs, u_des, box)
        assert out.qp_status == "clipped" and out.modified
        assert out.multiplier >= 0.0
        assert np.array_equal(out.u, np.clip(u_des + out.multiplier * a, box[:, 0], box[:, 1]))
        assert 0.0 <= out.constraint_value <= 1e-12 * (1.0 + abs(rhs - c))
        checked += 1
