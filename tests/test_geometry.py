import dataclasses

import numpy as np
import pytest

import softcbf.backup
import softcbf.geometry
from softcbf import (
    BackupProblem,
    CompactBounds,
    ConstraintSet,
    ControlAffineSystem,
    DomainError,
    EmptyTubeError,
    InvalidCertificateError,
    InvalidInputError,
    NotStrictlySafeError,
    benchmark_names,
    check_mfcq,
    estimate_bounds,
    get_benchmark,
    probe_boundary,
    sample_tube,
)
from softcbf.geometry import bisect_to_band, march_and_bisect
from softcbf.softmin import softmin_block
from test_certify import disk_problem


def single_constraint_set(fn, n, box):
    return ConstraintSet(n=n, evaluators=(fn,), bounding_box=np.asarray(box, dtype=float))


def unit_disk():
    def ev(x):
        return float(1.0 - x @ x), -2.0 * np.asarray(x, dtype=float)

    return single_constraint_set(ev, 2, [[-1.2, 1.2], [-1.2, 1.2]])


def box_faces():
    # |x1| <= 1, |x2| <= 1 as four affine constraints
    W = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    b = np.ones(4)

    def make(i):
        def ev(x):
            return float(b[i] + W[i] @ x), W[i].copy()

        return ev

    return ConstraintSet(
        n=2,
        evaluators=tuple(make(i) for i in range(4)),
        bounding_box=np.array([[-1.3, 1.3], [-1.3, 1.3]]),
    )


def scalar_set():
    def h1(x):
        return float(1.0 - x[0] ** 2), np.array([-2.0 * x[0]])

    return single_constraint_set(h1, 1, [[-1.2, 1.2]])


def batch_interval(X):
    return np.hstack([1.0 - X, 1.0 + X]), np.stack([-np.ones_like(X), np.ones_like(X)], axis=1)


def test_constraint_set_validation():
    with pytest.raises(InvalidInputError):
        ConstraintSet(n=0, evaluators=(lambda x: (0.0, np.zeros(1)),))
    with pytest.raises(InvalidInputError):
        ConstraintSet(n=1, evaluators=())
    with pytest.raises(InvalidInputError):
        ConstraintSet(
            n=1, evaluators=(lambda x: (0.0, np.zeros(1)),), bounding_box=[[1.0, -1.0]]
        )
    # the size of a family is declared once: N for a batch-only family,
    # the number of evaluators otherwise
    assert ConstraintSet(n=1, batch_evaluator=batch_interval, N=2).N == 2
    ev = lambda x: (0.0, np.zeros(1))  # noqa: E731
    assert ConstraintSet(n=1, evaluators=(ev, ev), batch_evaluator=batch_interval).N == 2
    with pytest.raises(InvalidInputError, match="needs its size N"):
        ConstraintSet(n=1, batch_evaluator=batch_interval)
    with pytest.raises(InvalidInputError, match="N = 3 but 2 evaluators"):
        ConstraintSet(n=1, evaluators=(ev, ev), batch_evaluator=batch_interval, N=3)
    with pytest.raises(InvalidInputError, match="batch evaluator or per-constraint evaluators"):
        ConstraintSet(n=1, N=2)


@pytest.mark.parametrize("shape", [(1, 2), (3,), ()])
def test_evaluate_takes_exactly_one_state(shape):
    for cs in (get_benchmark("thin-annulus").constraints, box_faces()):
        with pytest.raises(InvalidInputError, match=r"one state of shape \(2,\)"):
            cs.evaluate(np.zeros(shape))


def test_a_per_constraint_family_refuses_a_block_of_the_wrong_width():
    # its evaluators take one row at a time, so the width is checked first
    with pytest.raises(InvalidInputError, match=r"states of shape \(B, 2\), got \(3, 1\)"):
        box_faces().evaluate_batch(np.zeros((3, 1)))


def test_a_replaced_family_evaluates_its_new_evaluators():
    # the per-constraint loop is picked at call time, so it reads the
    # evaluators of the family it is called on (perfbench's tracer
    # replaces them)
    cs = box_faces()
    shifted = dataclasses.replace(
        cs, evaluators=tuple(lambda x, ev=ev: (ev(x)[0] + 1.0, ev(x)[1]) for ev in cs.evaluators))
    X = np.array([[0.1, -0.2], [0.5, 0.3]])
    vals, grads = cs.evaluate_batch(X)
    new_vals, new_grads = shifted.evaluate_batch(X)
    np.testing.assert_array_equal(new_vals, vals + 1.0)
    np.testing.assert_array_equal(new_grads, grads)
    assert shifted.evaluate(X[1])[0].tobytes() == new_vals[1].tobytes()


@pytest.mark.gate
def test_slice_family_evaluate_runs_one_flow(monkeypatch):
    # one state of the batch-first slice family is one flow with
    # sensitivities, not one per slice constraint, and it is the one-row
    # block's evaluation bit for bit
    cs = get_benchmark("pendulum-backup").certification_set()
    real = softcbf.backup.integrate_flow_batch
    flows = []

    def counted(prob, X0, sensitivities=True):
        flows.append((np.array(X0), sensitivities))
        return real(prob, X0, sensitivities)

    monkeypatch.setattr(softcbf.backup, "integrate_flow_batch", counted)
    x = np.array([0.3, -0.4])
    vals, grads = cs.evaluate(x)
    assert len(flows) == 1 and flows[0][1] and flows[0][0].shape == (1, 2)
    bvals, bgrads = cs.evaluate_batch(x[None])
    assert vals.shape == (11,) and grads.shape == (11, 2)
    assert vals.tobytes() == bvals[0].tobytes()
    assert grads.tobytes() == bgrads[0].tobytes()


def zero_field(X):
    return np.zeros(np.shape(X))


# each owner of a box, built with a (2, 2) box
BOX_OWNERS = {
    "ConstraintSet.bounding_box": lambda box: ConstraintSet(
        n=2, evaluators=(lambda x: (1.0, np.zeros(2)),), bounding_box=box
    ),
    "BackupProblem.bounding_box": lambda box: BackupProblem(
        sys=ControlAffineSystem(n=2, m=1, drift=zero_field, actuation=lambda X: np.zeros(np.shape(X) + (1,))),
        k_b=lambda X: np.zeros(np.shape(X)[:-1] + (1,)), h=None, h_b=None, T=1.0, dtau=0.5,
        bounding_box=box,
    ),
    "ControlAffineSystem.input_box": lambda box: ControlAffineSystem(
        n=1, m=2, drift=zero_field, actuation=lambda X: np.zeros(np.shape(X) + (2,)), input_box=box
    ),
}


@pytest.mark.parametrize("owner", sorted(BOX_OWNERS))
def test_every_box_owner_rejects_a_bad_box(owner):
    make = BOX_OWNERS[owner]
    make([[-1.0, 1.0], [0.0, 2.0]])
    bad_boxes = (
        [[-1.0, 1.0]],  # too few rows
        [[-1.0, 0.0, 1.0], [0.0, 1.0, 2.0]],  # too many columns
        [[-1.0, 1.0], [2.0, 2.0]],  # lo == hi
        [[-1.0, 1.0], [3.0, 2.0]],  # lo > hi
    )
    for box in bad_boxes:
        with pytest.raises(InvalidInputError, match="lo < hi"):
            make(box)


def test_sample_tube_disk_band():
    cs = unit_disk()
    tube = sample_tube(cs, 0.1, 800.0, seed=0)
    h = cs.values(tube.samples).min(axis=1)
    assert len(tube) > 50
    assert np.all(h >= 0.0)
    assert np.all(h <= 0.1)
    assert tube.constraint_coverage.all()


def test_sample_tube_box_band_and_coverage():
    cs = box_faces()
    tube = sample_tube(cs, 0.05, 2000.0, seed=1)
    h = cs.values(tube.samples).min(axis=1)
    assert np.all((h >= 0.0) & (h <= 0.05))
    # every face's active region is represented
    assert tube.constraint_coverage.all()


def test_sample_tube_empty_set_raises():
    def ev(x):
        return float(-1.0 - x @ x), -2.0 * np.asarray(x, dtype=float)

    cs = single_constraint_set(ev, 2, [[-1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(EmptyTubeError):
        sample_tube(cs, 0.1, 500.0, seed=0)


def test_sample_tube_requires_box_and_valid_params():
    cs = ConstraintSet(n=1, evaluators=(lambda x: (1.0, np.zeros(1)),))
    with pytest.raises(InvalidInputError):
        sample_tube(cs, 0.1, 100.0, 0)
    disk = unit_disk()
    with pytest.raises(Exception):
        sample_tube(disk, -0.1, 100.0, 0)
    with pytest.raises(Exception):
        sample_tube(disk, 0.1, 0.0, 0)


@pytest.mark.parametrize("epsilon, density", [(np.nan, 100.0), (np.inf, 100.0), (0.1, np.nan), (0.1, np.inf)])
def test_sample_tube_rejects_a_non_finite_band_or_density(epsilon, density):
    with pytest.raises(DomainError, match="must be finite and positive"):
        sample_tube(unit_disk(), epsilon, density, 0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_activity_tolerance_must_be_finite_and_nonnegative(tol):
    tube = sample_tube(unit_disk(), 0.1, 600.0, seed=0)
    with pytest.raises(DomainError, match="activity tolerance must be finite and nonnegative"):
        check_mfcq(tube, tol)
    with pytest.raises(DomainError, match="activity tolerance must be finite and nonnegative"):
        estimate_bounds(lambda X: -X, tube, tol)
    # at zero only the minimizing constraint is active
    assert check_mfcq(tube, 0.0).passed
    assert estimate_bounds(lambda X: -X, tube, 0.0).r > 0


@pytest.mark.parametrize("box", [[[-np.inf, np.inf]], [[-1.0, np.inf]]], ids=["open", "half-open"])
def test_compact_mode_rejects_an_infinite_bounding_box(box):
    # sampling needs a finite volume: both samplers say so instead of
    # overflowing on the box volume or drawing non-finite points
    cs = ConstraintSet(n=1, evaluators=(lambda x: (1.0 - float(x @ x), -2.0 * x),), bounding_box=box)
    with pytest.raises(InvalidInputError, match="tube sampling requires a finite bounding box"):
        sample_tube(cs, 0.1, 100.0, 0)
    with pytest.raises(InvalidInputError, match="boundary probing requires a finite bounding box"):
        probe_boundary(cs, lambda x: -np.asarray(x, dtype=float), 5.0, 0.1, 50, 0)
    # an input box may stay half-open
    sys = ControlAffineSystem(n=1, m=1, drift=lambda x: x, actuation=lambda x: np.ones((1, 1)),
                              input_box=[[0.0, np.inf]])
    assert sys.input_box[0, 1] == np.inf


def test_sample_tube_counts_every_refinement_ray():
    # one constraint 1 - |x2| that jumps to -1 beyond x1 = 0.5: rays that
    # cross |x2| = 1 are located, rays into the jump cross but never reach
    # the band, and rays that leave the box through x1 = -1.2 are abandoned
    def ev(x):
        x = np.asarray(x, dtype=float)
        if x[0] > 0.5:
            return -1.0, np.zeros(2)
        return 1.0 - abs(x[1]), np.array([0.0, -np.sign(x[1])])

    cs = single_constraint_set(ev, 2, [[-1.2, 1.2], [-1.2, 1.2]])
    tube = sample_tube(cs, 0.05, 500.0, seed=0)
    counts = (tube.rays_located, tube.rays_abandoned, tube.rays_unconverged)
    assert min(counts) > 0
    assert sum(counts) == tube.rays_requested
    h = cs.values(tube.samples).min(axis=1)
    assert np.all((h >= 0.0) & (h <= 0.05))


def test_sample_tube_deterministic_for_seed():
    cs = unit_disk()
    a = sample_tube(cs, 0.1, 500.0, seed=7)
    b = sample_tube(cs, 0.1, 500.0, seed=7)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = sample_tube(cs, 0.1, 500.0, seed=8)
    assert a.samples.shape != c.samples.shape or not np.allclose(a.samples, c.samples)


def test_estimate_bounds_stable_scalar():
    # contraction toward the origin keeps the parabola-bounded interval safe:
    # the analytic Lie derivative at the band is 2 x^2 (about 2 near |x| = 1)
    cs = scalar_set()
    tube = sample_tube(cs, 0.05, 3000.0, seed=0)
    bounds = estimate_bounds(lambda X: -X, tube)
    assert bounds.r == pytest.approx(2.0, rel=0.1)
    assert bounds.M == pytest.approx(2.0, rel=0.1)
    assert bounds.M >= bounds.r > 0
    assert bounds.d == np.inf  # single constraint: nothing is ever inactive


def test_estimate_bounds_unstable_scalar_raises_with_witness():
    cs = scalar_set()
    tube = sample_tube(cs, 0.05, 3000.0, seed=0)
    with pytest.raises(NotStrictlySafeError) as err:
        estimate_bounds(lambda x: np.asarray(x, dtype=float), tube)
    assert err.value.point is not None
    assert err.value.constraint == 0
    assert err.value.lie_value < 0


def test_estimate_bounds_box_gap():
    cs = box_faces()
    tube = sample_tube(cs, 0.02, 4000.0, seed=0)

    def F(x):
        return -np.asarray(x, dtype=float)

    bounds = estimate_bounds(F, tube)
    # faces see inward rate about 2|x_i| around 1; gaps can close near corners
    assert 0 < bounds.r <= 2.1
    assert bounds.M <= 2.2 * 1.3
    assert 0 < bounds.d < 2.0


def test_bounds_exact_replay():
    # the stored constants must reproduce exactly when re-derived from the
    # same samples
    cs = box_faces()
    tube = sample_tube(cs, 0.05, 1500.0, seed=3)

    def F(x):
        return -np.asarray(x, dtype=float)

    b1 = estimate_bounds(F, tube)
    b2 = estimate_bounds(F, tube)
    assert (b1.M, b1.r, b1.d) == (b2.M, b2.r, b2.d)


def test_bounds_monotone_under_nested_tube():
    cs = box_faces()

    def F(x):
        return -np.asarray(x, dtype=float)

    tube = sample_tube(cs, 0.08, 3000.0, seed=5)
    h = cs.values(tube.samples).min(axis=1)
    keep = h <= 0.04
    inner = dataclasses.replace(
        tube, epsilon=0.04, samples=tube.samples[keep], values=tube.values[keep],
        gradients=tube.gradients[keep],
    )
    outer_bounds = estimate_bounds(F, tube)
    inner_bounds = estimate_bounds(F, inner)
    assert inner_bounds.r >= outer_bounds.r
    assert inner_bounds.d >= outer_bounds.d


def test_compact_bounds_invariants():
    with pytest.raises(InvalidCertificateError):
        CompactBounds(M=1.0, r=-0.5, d=1.0, epsilon=0.1, n_samples=10)
    with pytest.raises(InvalidCertificateError):
        CompactBounds(M=0.1, r=0.5, d=1.0, epsilon=0.1, n_samples=10)
    with pytest.raises(InvalidCertificateError):
        CompactBounds(M=1.0, r=0.5, d=0.0, epsilon=0.1, n_samples=10)


def test_mfcq_single_gradient_passes():
    cs = unit_disk()
    tube = sample_tube(cs, 0.1, 600.0, seed=0)
    report = check_mfcq(tube)
    assert report.passed
    assert report.n_checked > 0
    assert all(e.witness is not None for e in report.entries)


def test_mfcq_orthogonal_gradients_pass():
    cs = box_faces()
    tube = sample_tube(cs, 0.05, 2000.0, seed=2)
    report = check_mfcq(tube, tol=0.2)
    assert report.passed


def test_mfcq_opposed_gradients_fail():
    # antiparallel active gradients admit no common ascent direction
    def outer(x):
        return float(1.0 - x @ x), -2.0 * np.asarray(x, dtype=float)

    def inner(x):
        return float(x @ x - 0.95), 2.0 * np.asarray(x, dtype=float)

    cs = ConstraintSet(
        n=2,
        evaluators=(outer, inner),
        bounding_box=np.array([[-1.1, 1.1], [-1.1, 1.1]]),
    )
    tube = sample_tube(cs, 0.01, 4000.0, seed=0)
    report = check_mfcq(tube, tol=0.2)
    assert not report.passed
    bad = report.failures[0]
    assert bad.violating_pair == (0, 1) or bad.violating_pair == (1, 0)


def scalar_interval():
    # -1 <= x <= 1 as two affine constraints, with a batch evaluator
    W = np.array([[-1.0], [1.0]])

    def batch(X):
        return 1.0 + X @ W.T, np.broadcast_to(W, (X.shape[0], 2, 1)).copy()

    return ConstraintSet(
        n=1,
        evaluators=(lambda x: (1.0 - x[0], W[0]), lambda x: (1.0 + x[0], W[1])),
        bounding_box=np.array([[-1.3, 1.3]]),
        batch_evaluator=batch,
    )


def test_field_with_wrong_block_shape_raises():
    cs = scalar_interval()
    tube = sample_tube(cs, 0.1, 2000.0, seed=0)

    def F(X):
        # answers a block with a single state's shape
        return -X[0]

    with pytest.raises(InvalidInputError, match=r"shape \(1,\).*expected \(\d+, 1\)"):
        estimate_bounds(F, tube)


def test_batch_evaluator_with_wrong_shape_raises():
    cs = scalar_interval()
    bad = ConstraintSet(
        n=1, evaluators=cs.evaluators, bounding_box=cs.bounding_box,
        batch_evaluator=lambda X: (cs.batch_evaluator(X)[0][:, 0], cs.batch_evaluator(X)[1]),
    )
    with pytest.raises(InvalidInputError, match="expected"):
        bad.evaluate_batch(np.zeros((3, 1)))


def test_value_evaluator_with_wrong_shape_raises():
    cs = scalar_interval()
    bad = dataclasses.replace(cs, value_evaluator=lambda X: cs.batch_evaluator(X)[0][:, 0])
    with pytest.raises(InvalidInputError, match=r"shape \(3,\) for a block of 3 states; expected \(3, 2\)"):
        bad.values(np.zeros((3, 1)))


@pytest.mark.parametrize("name", benchmark_names())
def test_values_match_batch_evaluation_bitwise(name):
    cs = get_benchmark(name).certification_set()
    box = cs.bounding_box
    X = np.random.default_rng(0).uniform(box[:, 0], box[:, 1], size=(64, cs.n))
    np.testing.assert_array_equal(cs.values(X), cs.evaluate_batch(X)[0])


def test_exception_inside_field_propagates_unchanged():
    cs = scalar_interval()
    tube = sample_tube(cs, 0.1, 2000.0, seed=0)

    def F(x):
        if np.asarray(x).ndim != 1:
            raise TypeError("single states only")
        return -np.asarray(x, dtype=float)

    with pytest.raises(TypeError, match="single states only"):
        estimate_bounds(F, tube)


def five_ray_line():
    # level 1 - x on the line: rays from several starts cross at x = 1;
    # the ray pointing left leaves the box and is abandoned
    starts = np.array([[0.0], [0.33], [0.5], [0.71], [0.0]])
    dirs = np.array([[1.0], [1.0], [1.0], [1.0], [-1.0]])
    return starts, 1.0 - starts[:, 0], dirs


def test_march_and_bisect_evaluates_only_live_rows():
    starts, start_levels, dirs = five_ray_line()
    box = np.array([[-2.0, 2.0]])
    band = (0.0, 1e-6)
    calls = []

    def level(X, rays):
        h = 1.0 - X[:, 0]
        calls.append((X.copy(), h.copy()))
        return h

    located, _, _ = march_and_bisect(level, starts, start_levels, dirs, step=0.1, n_steps=100,
                                  box=box, margin=0.0, band=band, max_iter=60)
    assert located.shape == (4, 1)
    np.testing.assert_array_less(1.0 - 1e-6 - 1e-15, located[:, 0])
    np.testing.assert_array_less(located[:, 0], 1.0 + 1e-15)

    # march rounds: with L of the 5 rays live, each takes its next 5 // L
    # steps in one call.  One step per round while 3 to 5 rays live (the
    # rays cross after 3, 6, 7 and 11 steps); two steps per round while two
    # rays live; then five for the left-going ray alone,
    # whose second five-step round stops at its first point outside the box,
    # x = -2 - 4.4e-16 after 20 steps
    sizes = [X.shape[0] for X, _ in calls]
    schedule = [5, 5, 5, 4, 4, 4, 3, 4, 4, 5, 4]
    k = len(schedule)
    assert sizes[:k] == schedule
    assert calls[k - 1][0][-1, 0] < -2.0 <= calls[k - 1][0][-2, 0]
    # bisection rounds: the march hands over the levels of its inside
    # points, so the first round evaluates midpoints alone, none of them a
    # point the march saw, and only for the crossings whose last inside
    # point is not yet in the band; later rounds hold exactly the rows whose
    # inside endpoint is not yet in the band
    inside_levels = []
    for x in starts[:4, 0]:
        while 1.0 - (x + 0.1) >= 0.0:
            x = x + 0.1
        inside_levels.append(1.0 - x)
    assert sizes[k] == sum(not band[0] <= h <= band[1] for h in inside_levels) > 0
    marched = np.concatenate([X[:, 0] for X, _ in calls[:k]])
    assert not np.isin(calls[k][0][:, 0], marched).any()
    for (X, h), nxt in zip(calls[k:], sizes[k + 1:]):
        assert nxt == int(np.sum(~((h >= band[0]) & (h <= band[1]))))
    _, h_last = calls[-1]
    assert np.all((h_last >= band[0]) & (h_last <= band[1]))
    # an unmasked loop would evaluate every ray in every round
    assert sum(sizes) < 5 * len(sizes)


def test_march_and_bisect_counts_the_rays_that_crossed():
    starts, start_levels, dirs = five_ray_line()
    box = np.array([[-2.0, 2.0]])
    kwargs = dict(step=0.1, n_steps=100, box=box, margin=0.0, band=(0.0, 1e-6))
    located, rays, crossed = march_and_bisect(lambda X, r: 1.0 - X[:, 0], starts, start_levels,
                                              dirs, max_iter=60, **kwargs)
    # the left-going ray is abandoned, the other four cross and converge
    assert crossed.tolist() == [True, True, True, True, False]
    assert (located.shape[0], rays.tolist()) == (4, [0, 1, 2, 3])
    # three bisection rounds bring none of the four into the band
    located, rays, crossed = march_and_bisect(lambda X, r: 1.0 - X[:, 0], starts, start_levels,
                                              dirs, max_iter=3, **kwargs)
    assert crossed.sum() == 4 and located.shape[0] == rays.size < 4


def one_step_march(level, starts, start_levels, dirs, step, n_steps, box, margin, band, max_iter):
    # the march that evaluates one step of every live ray per round: the
    # reference for march_and_bisect's located points.  Also returns the
    # number of live rays in each round
    lo_box = box[:, 0] - margin
    hi_box = box[:, 1] + margin
    inside = starts.copy()
    h_inside = np.array(start_levels, dtype=float)
    outside = np.empty_like(starts)
    probe = starts.copy()
    live = np.ones(starts.shape[0], dtype=bool)
    found = np.zeros(starts.shape[0], dtype=bool)
    rounds = []
    for _ in range(n_steps):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        rounds.append(rows.size)
        probe[rows] = probe[rows] + step * dirs[rows]
        pts = probe[rows]
        h = level(pts, rows)
        crossed = h < 0.0
        outside[rows[crossed]] = pts[crossed]
        found[rows[crossed]] = True
        still = ~crossed & (h >= 0.0)
        inside[rows[still]] = pts[still]
        h_inside[rows[still]] = h[still]
        in_box = np.all((pts >= lo_box) & (pts <= hi_box), axis=1)
        live[rows] = ~crossed & in_box
    rays = np.flatnonzero(found)
    located, _ = bisect_to_band(lambda X, r: level(X, rays[r]), inside[found], h_inside[found],
                                outside[found], band, max_iter)
    return located, int(found.sum()), rounds


def corner_cut_set(c):
    # box_faces plus the corner cut x1 + x2 <= c, on a tighter bounding box
    W = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [-1.0, -1.0]])
    b = np.array([1.0, 1.0, 1.0, 1.0, c])

    def make(i):
        def ev(x):
            return float(b[i] + W[i] @ x), W[i].copy()

        return ev

    return ConstraintSet(
        n=2,
        evaluators=tuple(make(i) for i in range(5)),
        bounding_box=np.array([[-1.2, 1.2], [-1.2, 1.2]]),
    )


def march_case(name):
    """(level, starts, start levels, dirs, march keywords) for random rays:
    the quick pendulum slice set under the screened smooth minimum (as
    boundary probing marches it), box faces and the thin annulus under the
    screened minimum (as tube sampling marches them)."""
    rng = np.random.default_rng(7)
    if name == "pendulum":
        cs = get_benchmark("pendulum-backup").certification_set()

        def level(X, rays=None):
            return softmin_block(cs.screened_values(X), 3000.0)[0]

        n_rays, scale_step, n_steps, margin, band, max_iter = 24, 0.04, 60, 0.5, (0.0, 1e-10), 100
    else:
        cs = box_faces() if name == "box-faces" else get_benchmark("thin-annulus").certification_set()

        def level(X, rays=None):
            return cs.screened_values(X).min(axis=1)

        n_rays, scale_step, n_steps, margin, band, max_iter = 64, 0.05, 40, 0.0, (0.0, 1e-3), 80
    box = cs.bounding_box
    pool = rng.uniform(box[:, 0], box[:, 1], size=(32 * n_rays, cs.n))
    pool_level = level(pool)
    starts = pool[pool_level > 0.0][:n_rays]
    dirs = rng.normal(size=starts.shape)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scale = float(np.linalg.norm(box[:, 1] - box[:, 0]))
    kwargs = dict(step=scale_step * scale, n_steps=n_steps, box=box, margin=margin * scale,
                  band=band, max_iter=max_iter)
    return level, starts, level(starts), dirs, kwargs


@pytest.mark.gate
@pytest.mark.parametrize("name", ["pendulum", "box-faces", "thin-annulus"])
def test_march_matches_one_step_reference_bitwise(name):
    level, starts, start_levels, dirs, kwargs = march_case(name)

    def recorded(blocks):
        def fn(X, rays):
            blocks.append(X.shape[0])
            return level(X, rays)

        return fn

    blocks, ref_blocks = [], []
    located, _, crossed = march_and_bisect(recorded(blocks), starts, start_levels, dirs, **kwargs)
    n_crossed = int(crossed.sum())
    ref, ref_crossed, rounds = one_step_march(recorded(ref_blocks), starts, start_levels, dirs, **kwargs)
    assert located.shape[0] > 0
    assert located.tobytes() == ref.tobytes()
    assert n_crossed == ref_crossed
    # never more points in a call than there are rays
    assert max(blocks) <= starts.shape[0]
    # rays cross at different steps, so some round before the reference's
    # last has at most half the rays live: the budgeted march takes two or
    # more steps there, and saves calls (the bisection calls are the same)
    assert any(live <= starts.shape[0] // 2 for live in rounds[:-1])
    assert len(blocks) < len(ref_blocks)


@pytest.mark.parametrize("name", ["pendulum", "box-faces"])
def test_level_gets_the_ray_of_every_point(name):
    # march and bisection points are starts[r] + t * dirs[r] with t > 0 on
    # the ray r they are tagged with
    level, starts, start_levels, dirs, kwargs = march_case(name)
    calls = []

    def recorded(X, rays):
        calls.append((X.copy(), rays.copy()))
        return level(X, rays)

    located, rays, crossed = march_and_bisect(recorded, starts, start_levels, dirs, **kwargs)
    assert located.shape[0] > 0 and np.all(crossed[rays])
    for X, r in calls + [(located, rays)]:
        assert r.shape == (X.shape[0],)
        offset = X - starts[r]
        t = np.einsum("bi,bi->b", offset, dirs[r])
        assert np.all(t > 0.0)
        np.testing.assert_allclose(offset, t[:, None] * dirs[r], rtol=0, atol=1e-12 * (1 + t.max()))


def reference_bisect_to_band(level, inside, inside_levels, outside, band, max_iter, rounds):
    # the bisection that runs every row outside the band until max_iter,
    # collapsed brackets included: the reference for bisect_to_band.  Each
    # round's midpoints and the mask of its collapsed rows go into rounds
    lo, hi = band
    inside = inside.copy()
    outside = outside.copy()
    h_in = np.array(inside_levels, dtype=float)
    done = (h_in >= lo) & (h_in <= hi)
    for _ in range(max_iter):
        rows = np.flatnonzero(~done)
        if rows.size == 0:
            break
        mid = 0.5 * (inside[rows] + outside[rows])
        collapsed = np.all(mid == inside[rows], axis=1) | np.all(mid == outside[rows], axis=1)
        rounds.append((mid, collapsed))
        h_mid = level(mid, rows)
        go_in = h_mid >= 0.0
        inside[rows[go_in]] = mid[go_in]
        outside[rows[~go_in]] = mid[~go_in]
        h_in[rows[go_in]] = h_mid[go_in]
        done[rows] = (h_in[rows] >= lo) & (h_in[rows] <= hi)
    return inside[done], np.flatnonzero(done)


@pytest.mark.gate
def test_bisection_drops_collapsed_brackets(monkeypatch):
    # boundary rays of the disk-and-slab set's smooth minimum at theta = 60,
    # bisected to a band of width 1e-300: on many rays no float lies in it,
    # and their brackets collapse to adjacent floats long before max_iter
    cs, _ = disk_problem()
    box = cs.bounding_box
    rng = np.random.default_rng(0)
    pool = rng.uniform(box[:, 0], box[:, 1], size=(800, 2))

    def level(X, rays=None):
        return softmin_block(cs.screened_values(X), 60.0)[0]

    pool_level = level(pool)
    starts = rng.choice(np.flatnonzero(pool_level > 0.0), size=200)
    dirs = rng.normal(size=(200, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scale = float(np.linalg.norm(box[:, 1] - box[:, 0]))
    kwargs = dict(step=0.04 * scale, n_steps=60, box=box, margin=0.5 * scale,
                  band=(0.0, 1e-300), max_iter=100)

    def run(bisect):
        blocks = []

        def recorded(X, rays):
            blocks.append(X.copy())
            return level(X, rays)

        monkeypatch.setattr(softcbf.geometry, "bisect_to_band", bisect)
        located, _, crossed = march_and_bisect(recorded, pool[starts], pool_level[starts], dirs,
                                               **kwargs)
        return located, int(crossed.sum()), blocks

    located, n_crossed, blocks = run(bisect_to_band)
    rounds = []
    ref, ref_crossed, ref_blocks = run(
        lambda *args: reference_bisect_to_band(*args, rounds=rounds)
    )
    assert located.tobytes() == ref.tobytes()
    assert n_crossed == ref_crossed
    assert n_crossed - located.shape[0] > 0
    n_collapsed = sum(int(c.sum()) for _, c in rounds)
    assert n_collapsed > 0
    # the march's calls are the same; each bisection round evaluates the
    # reference's midpoints less its collapsed rows, and so no collapsed row
    n_march = len(ref_blocks) - len(rounds)
    expected = ref_blocks[:n_march] + [mid[~c] for mid, c in rounds if not c.all()]
    assert len(blocks) == len(expected)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(blocks, expected))


@pytest.mark.gate
def test_sample_tube_coverage_retry_lands_on_the_missed_face():
    # at density 1 the random pass finds no band sample owned by the corner
    # cut (constraint 4); the retry bisects from candidates it owns toward
    # exterior candidates it also owns, so the crossing is on its face
    cs = corner_cut_set(1.7)
    eps = 0.02
    tube = sample_tube(cs, eps, 1.0, seed=0)
    assert tube.constraint_coverage.all()
    owned = tube.values.argmin(axis=1) == 4
    assert owned.any()
    h_hat = tube.values.min(axis=1)
    assert np.all((h_hat[owned] >= 0.0) & (h_hat[owned] <= eps))


def screened_faces():
    # box_faces with a block value evaluator that records its blocks, and
    # face 0 (1 - x1 >= 0) as the screen
    W = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    blocks = []

    def values(X):
        blocks.append(X.copy())
        return 1.0 + X @ W.T

    cs = dataclasses.replace(box_faces(), value_evaluator=values, screen=lambda X: 1.0 - X[:, 0])
    return cs, blocks


def test_screened_values_evaluate_only_rows_the_screen_keeps():
    cs, blocks = screened_faces()
    X = np.array([[0.5, 0.0], [1.5, 0.2], [-0.5, 2.0], [2.0, -3.0]])
    vals = cs.screened_values(X)
    # rows 1 and 3 have x1 > 1: not evaluated, every entry is the screen value
    np.testing.assert_array_equal(blocks[0], X[[0, 2]])
    exact = cs.values(X)
    np.testing.assert_array_equal(vals[[0, 2]], exact[[0, 2]])
    np.testing.assert_array_equal(vals[1], np.full(4, -0.5))
    np.testing.assert_array_equal(vals[3], np.full(4, -1.0))
    # minimum and smooth minimum have the signs of the exact ones
    np.testing.assert_array_equal(vals.min(axis=1) < 0.0, exact.min(axis=1) < 0.0)
    np.testing.assert_array_equal(softmin_block(vals, 50.0)[0] < 0.0, softmin_block(exact, 50.0)[0] < 0.0)


def test_screened_values_never_evaluate_a_lone_row_of_a_larger_request():
    cs, blocks = screened_faces()
    kept = np.array([0.2, 0.1])
    cs.screened_values(np.array([[1.5, 0.0], kept, [3.0, 0.0]]))
    np.testing.assert_array_equal(blocks[-1], [kept, kept])
    cs.screened_values(kept[None, :])
    np.testing.assert_array_equal(blocks[-1], [kept])
    n_blocks = len(blocks)
    vals = cs.screened_values(np.array([[1.5, 0.0], [3.0, 0.0]]))
    assert len(blocks) == n_blocks
    np.testing.assert_array_equal(vals.min(axis=1), [-0.5, -2.0])


def test_screened_values_without_a_screen_are_values():
    cs = get_benchmark("double-integrator-box").certification_set()
    X = np.random.default_rng(1).uniform(-2.0, 2.0, size=(32, cs.n))
    np.testing.assert_array_equal(cs.screened_values(X), cs.values(X))


def test_tube_carries_its_evaluation(monkeypatch):
    bench = get_benchmark("double-integrator-box")
    cs = bench.certification_set()
    F = bench.closed_loop_field()
    tube = sample_tube(cs, bench.cert_epsilon, bench.cert_density, seed=0)
    vals, grads = cs.evaluate_batch(tube.samples)
    assert tube.values.tobytes() == vals.tobytes()
    assert tube.gradients.tobytes() == grads.tobytes()
    fresh = dataclasses.replace(tube, values=vals, gradients=grads)
    expected = (estimate_bounds(F, fresh), check_mfcq(fresh))

    def no_evaluation(self, X):
        raise AssertionError("tube samples evaluated again")

    monkeypatch.setattr(ConstraintSet, "evaluate_batch", no_evaluation)
    bounds, mfcq = estimate_bounds(F, tube), check_mfcq(tube)
    assert bounds == expected[0]
    assert (mfcq.passed, mfcq.n_checked) == (expected[1].passed, expected[1].n_checked)
    assert [e.active for e in mfcq.entries] == [e.active for e in expected[1].entries]


def per_sample_mfcq_entries(tube):
    """check_mfcq's entries computed one near sample at a time with
    _mfcq_witness, as tuples (point, active, ok, witness, violating_pair,
    margin)."""
    h_hat, _, active = softcbf.geometry._activity(tube.values, None)
    near = np.flatnonzero(h_hat <= tube.epsilon / 10.0)
    if len(near) == 0:
        near = np.sort(np.argsort(h_hat)[:10])
    out = []
    for b in near:
        act = np.flatnonzero(active[b])
        g_act = tube.gradients[b][act]
        v, ok, margin = softcbf.geometry._mfcq_witness(g_act)
        pair = None
        if not ok and len(act) >= 2:
            unit = g_act / np.linalg.norm(g_act, axis=1, keepdims=True)
            i, j = divmod(int(np.argmin(unit @ unit.T)), len(act))
            pair = (int(act[i]), int(act[j]))
        out.append((tube.samples[b], tuple(int(i) for i in act), ok, v, pair, margin))
    return out


def assert_mfcq_matches_per_sample(tube):
    report = check_mfcq(tube)
    expected = per_sample_mfcq_entries(tube)
    assert report.n_checked == len(expected) and report.passed == all(e[2] for e in expected)
    for entry, (point, active, ok, witness, pair, margin) in zip(report.entries, expected):
        assert entry.point.tobytes() == point.tobytes()
        assert entry.active == active and type(entry.active[0]) is int
        assert entry.ok is bool(ok) and entry.violating_pair == pair
        if witness is None:
            assert entry.witness is None
        else:
            assert entry.witness.tobytes() == np.asarray(witness, dtype=float).tobytes()
        assert type(entry.margin) is float and np.float64(entry.margin).tobytes() == np.float64(margin).tobytes()
    return report


@pytest.mark.gate
@pytest.mark.parametrize("name", benchmark_names())
def test_mfcq_block_matches_per_sample_witness_on_benchmarks(name):
    # the first guess for all near samples in one stacked matmul per active
    # count gives every entry of the per-sample search, bit for bit
    bench = get_benchmark(name)
    density = 300.0 if bench.backup is not None else bench.cert_density
    tube = sample_tube(bench.certification_set(), bench.cert_epsilon, density, seed=0)
    assert_mfcq_matches_per_sample(tube)


@pytest.mark.gate
@pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
def test_mfcq_block_matches_per_sample_witness_on_failing_samples():
    # rows that pass the first guess, one that needs the sweeps, one with a
    # zero active gradient and antiparallel active pairs, with 1 to 3 active
    # constraints; the inactive third value sits far above
    g = np.array([
        [[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]],
        [[0.6, 0.8], [3.0, -1.0], [1.0, 1.0]],
        [[1.0, 0.0], [1.0, 0.0], [-0.9, 0.1]],
        [[0.0, 0.0], [1.0, 2.0], [1.0, 1.0]],
        [[0.0, 0.0], [1.0, 2.0], [1.0, 1.0]],
        [[1.0, 2.0], [-2.0, -4.0], [1.0, 1.0]],
        [[1.0, 2.0], [0.5, 0.5], [-2.0, -4.0]],
    ])
    vals = np.array([
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 1.0],
        [0.0, 0.0, 0.0],
        [0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0],
    ])
    X = np.arange(14.0).reshape(7, 2)
    tube = softcbf.geometry.TubeSpec(1.0, X, 1.0, np.ones(3, dtype=bool), 0, vals, g)
    report = assert_mfcq_matches_per_sample(tube)
    assert [e.ok for e in report.entries] == [True, True, True, False, False, False, False]
    assert report.entries[3].witness is None and report.entries[3].margin == -np.inf
    assert report.entries[5].violating_pair == (0, 1) and report.entries[6].violating_pair == (0, 2)
