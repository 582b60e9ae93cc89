import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softcbf import (
    DomainError,
    InvalidInputError,
    default_activity_tolerance,
    softmin_gradient,
    softmin_value,
    softmin_weights,
)
from softcbf.softmin import _fold, softmin_block, softmin_rows

# frozen with an independent 50-digit evaluation (mpmath)
SOFTMIN_01_THETA1 = -0.31326168751822283405
W1_01_THETA1 = 0.73105857863000487925
W2_01_THETA1 = 0.26894142136999512075


def test_single_value_is_identity():
    assert softmin_value([3.7], 2.0) == 3.7
    assert softmin_value([3.7], 1e6) == 3.7


def test_equal_pair_drops_by_log2():
    assert softmin_value([0.0, 0.0], 1.0) == pytest.approx(-np.log(2.0), abs=1e-15)


def test_two_values_closed_form():
    assert softmin_value([0.0, 1.0], 1.0) == pytest.approx(SOFTMIN_01_THETA1, abs=1e-15)


def test_weights_symmetry_and_closed_form():
    np.testing.assert_allclose(softmin_weights([0.0, 0.0], 5.0), [0.5, 0.5], atol=1e-15)
    w = softmin_weights([0.0, 1.0], 1.0)
    np.testing.assert_allclose(w, [W1_01_THETA1, W2_01_THETA1], atol=1e-15)


def test_weights_asymptotic_separation():
    w = softmin_weights([0.0, 10.0], 10.0)
    assert w[1] < 1e-40
    assert w[0] == pytest.approx(1.0, abs=1e-40)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_weights_single_value():
    np.testing.assert_array_equal(softmin_weights([2.0], 3.0), [1.0])


def test_gradient_single_and_convex_combination():
    np.testing.assert_array_equal(softmin_gradient([[2.0, 3.0]], [1.0]), [2.0, 3.0])
    np.testing.assert_allclose(
        softmin_gradient([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]), [0.5, 0.5]
    )


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 3))
    b = rng.normal(size=2)
    theta = 2.5

    def f(x):
        return softmin_value(A @ x + b, theta)

    x0 = rng.normal(size=3)
    vals = A @ x0 + b
    grad = softmin_gradient(A, softmin_weights(vals, theta))
    step = 1e-6
    fd = np.empty(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = step
        fd[k] = (f(x0 + e) - f(x0 - e)) / (2 * step)
    np.testing.assert_allclose(grad, fd, rtol=1e-6)


def test_input_validation():
    with pytest.raises(InvalidInputError):
        softmin_value([np.nan, 1.0], 1.0)
    with pytest.raises(InvalidInputError):
        softmin_value([np.inf], 1.0)
    with pytest.raises(DomainError):
        softmin_value([1.0], 0.0)
    with pytest.raises(DomainError):
        softmin_value([1.0], -2.0)
    with pytest.raises(InvalidInputError):
        softmin_gradient([[1.0, 2.0]], [0.5, 0.5])
    with pytest.raises(InvalidInputError):
        softmin_gradient([[1.0], [2.0]], [0.7, 0.7])


values_strategy = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=1, max_size=12
)
theta_strategy = st.floats(min_value=1e-3, max_value=500.0, allow_nan=False)


@given(values_strategy, theta_strategy)
@settings(max_examples=300, deadline=None)
def test_sandwich_property(values, theta):
    v = np.asarray(values)
    s = softmin_value(v, theta)
    assert s <= v.min() + 1e-12
    assert s >= v.min() - np.log(len(values)) / theta - 1e-12


@given(values_strategy, theta_strategy)
@settings(max_examples=200, deadline=None)
def test_weight_normalization_property(values, theta):
    w = softmin_weights(values, theta)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert np.all(w >= 0.0) and np.all(w <= 1.0)


def test_weight_normalization_in_overflow_regime():
    # value spreads beyond exp range must still normalize exactly
    w = softmin_weights([0.0, 800.0, -750.0, 20.0], 1.0)
    assert abs(w.sum() - 1.0) <= 1e-12
    w = softmin_weights([0.0, 1.0, 2.0], 400.0)
    assert abs(w.sum() - 1.0) <= 1e-12


@given(
    values_strategy,
    theta_strategy,
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_translation_equivariance(values, theta, shift):
    v = np.asarray(values)
    a = softmin_value(v + shift, theta)
    b = softmin_value(v, theta) + shift
    assert a == pytest.approx(b, abs=1e-9 * (1.0 + abs(b)))


@given(values_strategy)
@settings(max_examples=100, deadline=None)
def test_monotone_convergence_in_theta(values):
    v = np.asarray(values)
    n = len(values)
    gap1 = v.min() - softmin_value(v, 2.0)
    gap2 = v.min() - softmin_value(v, 8.0)
    assert 0.0 <= gap2 <= gap1 + 1e-12
    assert gap1 <= np.log(n) / 2.0 + 1e-12
    assert gap2 <= np.log(n) / 8.0 + 1e-12


def test_tie_gap_is_exactly_log_n_over_theta():
    for n in (2, 3, 7):
        for theta in (0.5, 3.0, 50.0):
            v = np.full(n, 1.3)
            gap = v.min() - softmin_value(v, theta)
            assert gap == pytest.approx(np.log(n) / theta, rel=1e-13)


@pytest.mark.parametrize("theta", [3.0, 73444.49, 75000.0])
def test_block_kernel_matches_single_point_functions_bitwise(theta):
    rng = np.random.default_rng(5)
    vals = rng.normal(scale=1e-3, size=(64, 11))
    vals[0] = 0.0  # an exact tie
    soft, w = softmin_block(vals, theta)
    assert soft.shape == (64,) and w.shape == (64, 11)
    for b in range(vals.shape[0]):
        assert soft[b] == softmin_value(vals[b], theta)
        np.testing.assert_array_equal(w[b], softmin_weights(vals[b], theta))


@pytest.mark.parametrize("N", [1, 2, 3, 11])
def test_softmin_rows_match_single_point_functions_bitwise(N):
    # value and gradient of each row, at one theta and at one per row, with
    # exact +-0.0 in the gradients to tell the summation orders apart
    rng = np.random.default_rng(N)
    vals = rng.normal(scale=1e-2, size=(200, N))
    grads = rng.normal(size=(200, N, 3))
    zeros = rng.uniform(size=grads.shape) < 0.4
    grads[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    grads[0, :, 0] = -0.0
    thetas = rng.choice([2.0, 75.0, 7.5e4], size=200)
    for theta in (75.0, thetas):
        soft, grad = softmin_rows(vals, grads, theta)
        for b in range(len(vals)):
            t = theta if np.ndim(theta) == 0 else theta[b]
            assert soft[b].tobytes() == np.float64(softmin_value(vals[b], t)).tobytes()
            ref = softmin_gradient(grads[b], softmin_weights(vals[b], t))
            assert grad[b].tobytes() == ref.tobytes()


def test_softmin_rows_of_one_constraint_are_the_constraint():
    vals = np.array([[0.5], [-0.0]])
    grads = np.array([[[1.0, -0.0]], [[-2.0, 3.0]]])
    soft, grad = softmin_rows(vals, grads, 10.0)
    assert soft.tobytes() == vals[:, 0].tobytes()
    assert grad.tobytes() == grads[:, 0].tobytes()
    grads[1, 0, 0] = np.nan
    with pytest.raises(InvalidInputError, match="must be finite"):
        softmin_rows(vals, grads, 10.0)


def test_default_activity_tolerance_scales_with_value():
    assert default_activity_tolerance(0.0) == pytest.approx(1e-8)
    assert default_activity_tolerance(-9.0) == pytest.approx(1e-7)
    h = np.array([0.0, -9.0, 0.37])
    np.testing.assert_array_equal(
        default_activity_tolerance(h), [default_activity_tolerance(v) for v in h]
    )


def mixed_block(rng, B, N):
    """A (B, N) block of ties, signed zeros, infinities, NaNs of both signs
    and normal values."""
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0, 2.5])
    a = rng.choice(specials, size=(B, N))
    normal = rng.uniform(size=(B, N)) < 0.3
    a[normal] = rng.normal(size=normal.sum())
    return a


@pytest.mark.gate
@pytest.mark.parametrize("B", [1, 6, 3000])
def test_column_fold_matches_numpy_row_reductions(B):
    # bit for bit, except the sign of a zero extreme from a row holding both
    # zeros there, which numpy's vectorised reduce picks by CPU while the
    # fold keeps the earlier column, and the sign of a NaN
    rng = np.random.default_rng(B)
    for N in range(1, 17):
        a = mixed_block(rng, B, N)
        for op, ref in ((np.minimum, a.min(axis=1)), (np.maximum, a.max(axis=1))):
            got = _fold(op, a)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            np.testing.assert_array_equal(got, ref)  # NaN equals NaN, +0.0 equals -0.0
            differ = got.view(np.int64) != ref.view(np.int64)
            zero_tie = (ref == 0.0) & ((a == 0.0) & np.signbit(a)).any(axis=1) & \
                ((a == 0.0) & ~np.signbit(a)).any(axis=1)
            assert not (differ & ~zero_tie & ~np.isnan(ref)).any(), (op.__name__, N)
        mask = rng.uniform(size=(B, N)) < 0.9
        assert _fold(np.logical_and, mask).tobytes() == np.all(mask, axis=1).tobytes()
    # the last axis of a (K, L, n) block, as in a ray march's box test
    mask = rng.uniform(size=(5, B, 2)) < 0.8
    assert _fold(np.logical_and, mask).tobytes() == np.all(mask, axis=2).tobytes()


@pytest.mark.gate
@pytest.mark.parametrize("B", [1, 6, 3000])
def test_softmin_block_matches_the_row_max_kernel_bitwise_on_zero_ties(B):
    # the kernel with numpy's row max, as it was written before the fold:
    # the sign of a zero maximum must not reach any output bit
    def reference(vals, theta):
        z = -(theta[:, None] if np.ndim(theta) else theta) * vals
        zmax = z.max(axis=1, keepdims=True)
        e = np.exp(z - zmax)
        total = e.sum(axis=1, keepdims=True)
        return -(zmax[:, 0] + np.log(total[:, 0])) / theta, e / total

    rng = np.random.default_rng(B + 1)
    for N in (1, 2, 4, 9, 11, 16, 17):
        vals = rng.choice([0.0, -0.0, 1e-3, 2.0], size=(B, N))
        normal = rng.uniform(size=(B, N)) < 0.3
        vals[normal] = np.abs(rng.normal(scale=1e-2, size=normal.sum()))
        for theta in (3.0, 7.5e4, rng.choice([2.0, 75.0, 7.5e4], size=B)):
            got, want = softmin_block(vals, theta), reference(vals, theta)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), N
