import math
from fractions import Fraction

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
    filter_unconstrained_block,
    make_rhs,
)


def exact_filter(a, c, rhs, u_des, box=None):
    """Exact oracle for the filters: the status and the minimiser u, as
    Fractions, of |u - u_des| over {a.u >= rhs - c}, within the box when one
    is given, by the breakpoint walk in rational arithmetic; u is None where
    the status is infeasible."""
    a, u_des = ([Fraction(float(v)) for v in w] for w in (a, u_des))
    target = Fraction(float(rhs)) - Fraction(float(c))
    lo, hi = ([None] * len(a),) * 2 if box is None else ([Fraction(float(v)) for v in b] for b in np.transpose(box))

    def at(lam, clip=True):
        u = [d + lam * x for d, x in zip(u_des, a)]
        return u if box is None or not clip else [min(max(v, l), h) for v, l, h in zip(u, lo, hi)]

    def dot(u):
        return sum(x * v for x, v in zip(a, u))

    u0, nrm2 = at(0), dot(a)
    if dot(u0) >= target:
        return ("analytic" if u0 == u_des else "clipped"), u0
    if nrm2 == 0:
        return "infeasible", None
    free = at((target - dot(u_des)) / nrm2, clip=False)
    if box is None or all(l <= v <= h for v, l, h in zip(free, lo, hi)):
        return "analytic", free
    # the breakpoints, where a component meets its box edge; a.u(lam) is
    # linear between them
    times = sorted({max((b - d) / x, 0) for x, d, l, h in zip(a, u_des, lo, hi) if x for b in (l, h)})
    prev = Fraction(0)
    for t in times:
        g0, g1 = dot(at(prev)), dot(at(t))
        if g1 >= target:
            return "clipped", at(prev + (target - g0) * (t - prev) / (g1 - g0))
        prev = t
    return "infeasible", None


def within_ulps(u, exact, scale, ulps=4):
    """Whether every component of the float vector u is within `ulps` ulps
    of `scale` of the exact Fraction vector."""
    return all(abs(Fraction(float(v)) - e) <= ulps * Fraction(math.ulp(scale)) for v, e in zip(u, exact))


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


def test_class_k_holds_python_floats():
    # a float32 kappa gives make_rhs a float64 product, not a float32 one
    alpha = ClassK(kappa=np.float32(0.1), scale=np.float32(2.0))
    assert type(alpha.kappa) is float and type(alpha.scale) is float
    rhs = make_rhs(alpha, 0.3)
    assert type(rhs) is float and rhs == -(float(np.float32(0.1)) * 0.3)


def test_class_k_refuses_an_int_beyond_the_float_range():
    for kw in ({"kappa": 10**400}, {"kind": "tanh", "scale": 10**400}, {"kappa": 10**5000}):
        with pytest.raises(InvalidInputError, match="must be finite"):
            ClassK(**kw)


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


def test_unconstrained_matches_exact_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        a = rng.normal(size=m)
        c = float(rng.normal())
        rhs = float(rng.normal())
        u_des = rng.uniform(-1.0, 1.0, size=m)
        out = filter_unconstrained(a, c, rhs, u_des)
        status, exact = exact_filter(a, c, rhs, u_des)
        assert out.qp_status == status
        if status == "infeasible":
            continue
        assert out.constraint_value >= -1e-9
        scale = max(np.abs(u_des).max(), np.abs(out.u).max())
        assert within_ulps(out.u, exact, scale), (a, c, rhs, u_des)


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
def test_boxed_matches_exact_oracle():
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
        status, exact = exact_filter(a, c, rhs, u_des, box)
        assert out.qp_status == status
        if status == "infeasible":
            assert float(a @ corner) < rhs - c
            continue
        assert out.constraint_value >= -1e-9
        assert np.all(out.u >= box[:, 0] - 1e-12) and np.all(out.u <= box[:, 1] + 1e-12)
        assert within_ulps(out.u, exact, np.abs(box).max()), (a, c, rhs, u_des, box)
        checked += 1
    assert checked > 50


@pytest.mark.parametrize("a, rhs, u_des", [
    ([50511246.68276012, 91537409.59563617], 13215075.446258515, [1.0, -0.4074418521132803]),
    ([-3175402575.5135016, 3431814791.656508], 5107763272.26022, [-1.0, 0.5630725472807807]),
])
def test_boxed_breakpoint_search_does_not_overshoot_a_tiny_multiplier(a, rhs, u_des):
    # the exact multiplier is far below 1 (5.6e-17 and 1.8e-20), so the slack
    # correction must step lam by its own ulps: an absolute eps step of
    # 2.2e-16 left u's second component 3.7e8 and 6.9e9 of its ulps past the
    # minimiser's, with slack 1.86 and 2,615
    box = [[-1.0, 1.0], [-1.0, 1.0]]
    out = filter_boxed(a, 0.0, rhs, u_des, box)
    status, exact = exact_filter(a, 0.0, rhs, u_des, box)
    assert out.qp_status == status == "clipped"
    assert out.constraint_value >= 0.0
    assert all(abs(Fraction(float(v)) - e) <= Fraction(math.ulp(float(e))) for v, e in zip(out.u, exact))


def test_boxed_breakpoint_search_slope_keeps_no_rounding_of_a_clipped_component():
    # once the component with the large |a_j| clips, the walk's slope is
    # a_0^2 = 8.5e8 alone: a running sum of +-a_j^2 left it the rounding of
    # a_0^2 + a_1^2 = 1.36e13, and u_0 1,635 ulps of the box scale above the
    # minimiser, with slack 1.07e-8, where the correctly rounded u has slack 0
    a, rhs = [29157.667610286375, -3691633.3869117713], 3711679.875241696
    u_des, box = [-0.8046691548289668, -0.862770102151768], [[-1.0, 1.0], [-1.0, 1.0]]
    out = filter_boxed(a, 0.0, rhs, u_des, box)
    status, exact = exact_filter(a, 0.0, rhs, u_des, box)
    assert out.qp_status == status == "clipped"
    assert out.constraint_value >= 0.0
    assert within_ulps(out.u, exact, 1.0)


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


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("a, u_des", [([1e-160], [0.5]), ([1e-160, 0.0], [0.5, -2.0]), ([1e-300], [0.0])])
def test_unconstrained_multiplier_overflow_is_infeasible(a, u_des):
    # a.a is subnormal, so lam = 1 / a.a overflows: no finite input meets the
    # constraint along a, which is reported as for a = 0, not as u = inf
    u_des = np.array(u_des)
    out = filter_unconstrained(np.array(a), 0.0, 1.0, u_des)
    assert out.qp_status == "infeasible"
    assert not out.modified
    assert np.array_equal(out.u, u_des)
    assert out.multiplier == np.inf
    assert out.constraint_value == float(np.array(a) @ u_des) - 1.0


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_boxed_multiplier_overflow_takes_the_breakpoint_search():
    # the free projection of this box-feasible row overflows, so the row is
    # searched and lands at the box edge, not at u_des
    out = filter_boxed(np.array([1e-160]), 0.0, 1.0, np.array([0.5]), np.array([[-1e200, 1e200]]))
    assert out.qp_status == "clipped" and out.modified
    assert np.array_equal(out.u, [1e200])
    assert out.constraint_value >= 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_boxed_row_whose_free_projection_is_infeasible_is_searched():
    # a.a underflows to 0, so the free projection calls the row infeasible;
    # the box corner a.hi = 1e-170 still meets the target 1e-171, so the
    # breakpoint search gives a feasible input
    out = filter_boxed(np.array([1e-170]), 0.0, 1e-171, np.array([-0.5]), np.array([[-1.0, 1.0]]))
    assert out.qp_status == "clipped" and out.modified
    assert out.constraint_value >= 0.0
    assert -0.5 < out.u[0] <= 1.0


def test_boxed_search_on_a_tiny_a_finds_the_minimal_deviation_input():
    # a.a and the slope rates a_j^2 underflow to 0 for a = 1e-170; the walk
    # runs on a scaled by a power of two, so it stops where a.u meets the
    # target, u = 0.1, not at the box edge u = 1.0
    out = filter_boxed(np.array([1e-170]), 0.0, 1e-171, np.array([-0.5]), np.array([[-1.0, 1.0]]))
    assert out.qp_status == "clipped" and out.modified
    assert out.constraint_value >= 0.0
    assert out.u[0] == pytest.approx(0.1, rel=1e-14)
    assert out.multiplier == pytest.approx(6e169, rel=1e-14)


def test_boxed_filter_on_a_tiny_a_matches_the_same_rows_at_unit_scale():
    # a row whose a, c and rhs are scaled by 2**-600 has the same minimal-
    # deviation input: a.a underflows, so the scaled row is searched, and
    # the search finds the unscaled row's input to a few ulps
    rng = np.random.default_rng(5)
    box = np.array([[-1.0, 1.0], [-2.0, 0.5], [-0.3, 3.0]])
    tiny = 2.0 ** -600
    for _ in range(300):
        a = rng.normal(size=3)
        a[rng.uniform(size=3) < 0.2] = 0.0
        u_des = rng.uniform(-3.0, 3.0, size=3)
        c, rhs = rng.normal(), rng.normal()
        want = filter_boxed(a, c, rhs, u_des, box)
        if want.qp_status == "infeasible":
            continue
        got = filter_boxed(a * tiny, c * tiny, rhs * tiny, u_des, box)
        assert got.qp_status != "infeasible" and got.constraint_value >= 0.0
        np.testing.assert_allclose(got.u, want.u, rtol=1e-12, atol=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_boxed_search_on_a_unit_row_with_a_subnormal_component_returns_the_corner():
    # max |a_j| >= 0.5: the walk runs unscaled, so the subnormal a_1, whose
    # u_des sits on a box edge, gives breakpoints 0 and inf, never a 0/0
    # nan; the target is the best corner's a.u, which the search returns
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    out = filter_boxed(np.array([-2.655, 5e-324]), 0.0, 2.655, np.array([0.099, -1.0]), box)
    assert out.qp_status == "clipped" and out.u.tolist() == [-1.0, 1.0]
    assert out.constraint_value == 0.0 and out.multiplier == math.inf


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_boxed_search_on_a_subnormal_a_scales_by_a_finite_power_of_two():
    # max |a_j| = 1e-323 would take a scale of 2**1073, past the largest
    # finite float; the scale stops at 2**1023
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    out = filter_boxed(np.array([5e-324, -1e-323]), 0.0, 5e-324, np.array([-0.5, 0.3]), box)
    assert out.qp_status == "clipped" and out.u.tolist() == [1.0, -1.0]
    assert out.constraint_value == 1e-323


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_boxed_search_whose_multiplier_overflows_moves_only_the_components_along_a():
    # lam overflows to inf; inf * 0 would make the a_1 = 0 component nan, so
    # only a_0 moves, to its box edge, and a_1 keeps clip(u_des_1) with its sign
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    for u_1 in (0.3, -0.0, 0.0, 1.7):
        out = filter_boxed(np.array([5e-324, 0.0]), 0.0, 4e-324, np.array([-0.5, u_1]), box)
        want = min(u_1, 1.0)
        assert out.qp_status == "clipped" and out.multiplier == math.inf
        assert out.u.tobytes() == np.array([1.0, want]).tobytes()
        assert out.constraint_value >= 0.0


def _specials(rng, shape, scale):
    """Normal draws of `scale` with about one entry in three replaced by
    +-0.0, a subnormal, a tiny or a large value."""
    x = rng.normal(scale=scale, size=shape)
    pick = rng.random(shape)
    specials = rng.choice([0.0, -0.0, 5e-324, -3e-320, 1e-155, -1e-160, 1e150, -1e140], size=shape)
    return np.where(pick < 0.3, specials, x)


@pytest.mark.gate
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("m", [1, 2, 3])
def test_all_moved_block_equals_the_masked_path_bitwise(m):
    # 200,000 seeded rows in all: the rows that all move take the filter's
    # all-moved path as one block; with one feasible row appended, the same
    # rows take the np.where path, and every field agrees bit for bit
    rng = np.random.default_rng(100 + m)
    B = (66_668, 66_666, 66_666)[m - 1]
    a, u_des = _specials(rng, (B, m), 1.0), _specials(rng, (B, m), 2.0)
    c, rhs = _specials(rng, B, 1.0), _specials(rng, B, 1.0) + 1.0
    every = filter_unconstrained_block(a, c, rhs, u_des)
    rows = np.flatnonzero(every.modified)
    assert rows.size > B // 2
    feasible = (np.ones((1, m)), np.array([1.0]), np.array([0.0]), np.zeros((1, m)))
    fast = filter_unconstrained_block(a[rows], c[rows], rhs[rows], u_des[rows])
    assert fast.modified.all()
    masked = filter_unconstrained_block(*(np.concatenate([x[rows], y]) for x, y in zip((a, c, rhs, u_des), feasible)))
    assert not masked.modified[-1]
    for name in ("u", "constraint_value", "modified", "qp_status", "multiplier"):
        x, y = getattr(fast, name), getattr(masked, name)[:-1]
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    # and every row of the block is its one-row filter's
    for i in rng.choice(B, 300, replace=False):
        one = filter_unconstrained(a[i], c[i], rhs[i], u_des[i])
        assert one.u.tobytes() == every.u[i].tobytes()
        assert (one.qp_status, one.modified) == (every.qp_status[i], every.modified[i])
        assert np.array([one.constraint_value, one.multiplier]).tobytes() == np.array(
            [every.constraint_value[i], every.multiplier[i]]).tobytes()
