import dataclasses
import re

import numpy as np
import pytest

from softcbf import (
    ControlAffineSystem,
    InvalidInputError,
    benchmark_names,
    double_integrator_box,
    get_benchmark,
    integrate_flow,
    integrate_flow_batch,
    pendulum_backup,
    scalar_stable,
    thin_annulus,
)
from softcbf.safety_filter import ConstantActuation, FusedPlant
from softcbf.systems import PENDULUM_HB_LEVEL, PENDULUM_K, PENDULUM_P, PENDULUM_U_MAX


def test_registry():
    names = benchmark_names()
    assert {"double-integrator-box", "pendulum-backup", "scalar-stable"} <= set(names)
    for name in names:
        bench = get_benchmark(name)
        assert bench.name == name
        assert bench.constraints.n == bench.sys.n
    with pytest.raises(InvalidInputError):
        get_benchmark("no-such-benchmark")


def test_double_integrator_geometry():
    bench = double_integrator_box()
    vals, grads = bench.constraints.evaluate(np.zeros(2))
    assert vals.min() == pytest.approx(1.0)  # distance-like margin at the origin
    # at the sheared-box corner both the shear face and the velocity face bind
    corner = np.array([-0.5, 1.5])  # p + v = 1, v = 1.5
    vals, _ = bench.constraints.evaluate(corner)
    active = np.flatnonzero(vals <= 1e-12)
    np.testing.assert_array_equal(active, [0, 2])


def test_double_integrator_closed_loop_lie_rows():
    bench = double_integrator_box()
    F = bench.closed_loop_field()
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.5, 1.5, size=(40, 2))
    _, grads = bench.constraints.evaluate_batch(X)
    lie = np.einsum("bni,bi->bn", grads, F(X))
    np.testing.assert_allclose(lie, bench.analytic["lie_rows"](X), atol=1e-12)
    # on the shear face the inward rate equals the shear coordinate itself
    on_face = np.array([[0.3, 0.7]])  # p + v = 1
    _, g = bench.constraints.evaluate_batch(on_face)
    lie_face = float(np.einsum("ni,i->n", g[0], F(on_face)[0])[0])
    assert lie_face == pytest.approx(1.0)


def test_double_integrator_strict_safety_margins_on_faces():
    # minimum inward rate over each face: 1 on the shear faces, 0.5 on the
    # velocity faces (analytic; hand-checkable from the closed loop)
    bench = double_integrator_box()
    F = bench.closed_loop_field()
    ts = np.linspace(-1, 1, 201)
    # shear faces: p + v = +-1, v free in [-1.5, 1.5]
    for sgn, idx in ((1.0, 0), (-1.0, 1)):
        v = 1.5 * ts
        p = sgn * 1.0 - v
        X = np.stack([p, v], axis=-1)
        _, grads = bench.constraints.evaluate_batch(X)
        lie = np.einsum("bi,bi->b", grads[:, idx, :], F(X))
        assert lie.min() == pytest.approx(1.0, abs=1e-12)
    # velocity faces: v = +-1.5, p + v in [-1, 1]
    for sgn, idx in ((1.0, 2), (-1.0, 3)):
        s = ts
        v = np.full_like(s, sgn * 1.5)
        p = s - v
        X = np.stack([p, v], axis=-1)
        _, grads = bench.constraints.evaluate_batch(X)
        lie = np.einsum("bi,bi->b", grads[:, idx, :], F(X))
        assert lie.min() == pytest.approx(0.5, abs=1e-12)


def test_scalar_benchmark_closed_forms():
    bench = scalar_stable()
    assert bench.analytic is not None
    X = np.array([[0.8]])
    flow = integrate_flow_batch(_as_backup(bench), X)
    np.testing.assert_allclose(flow.states[-1], bench.analytic["flow"](X, 1.0), atol=1e-9)
    # Lie rows under u = 0: +x for the upper face, -x for the lower
    np.testing.assert_allclose(bench.analytic["lie_rows"](X), [[0.8, -0.8]])


def _as_backup(bench):
    # wrap the scalar benchmark's safe closed loop as a backup problem so the
    # shared integrator can be exercised against the analytic flow
    from softcbf import BackupProblem

    def h(X):
        return 1.0 - X[:, 0], np.full((X.shape[0], 1), -1.0)

    return BackupProblem(
        sys=bench.sys, k_b=bench.safe_controller, h=h, h_b=h, T=1.0, dtau=0.5,
        bounding_box=np.array([[-1.3, 1.3]]),
    )


def test_pendulum_constants_solve_the_design_equations():
    # frozen cost-to-go satisfies the Riccati equation of the upright
    # linearization, and the gain is its input row
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    Q = np.diag([2.0, 1.0])
    residual = A.T @ PENDULUM_P + PENDULUM_P @ A - np.outer(PENDULUM_K, PENDULUM_K) + Q
    assert np.abs(residual).max() < 1e-12
    np.testing.assert_allclose(PENDULUM_K, (B.T @ PENDULUM_P)[0], atol=1e-14)
    # cost-to-go is positive definite
    assert np.all(np.linalg.eigvalsh(PENDULUM_P) > 0)


def test_pendulum_backup_setup():
    bench = pendulum_backup()
    prob = bench.backup
    assert prob.N == 11
    # the upright equilibrium is inside the terminal set and stays put
    val, _ = prob.h_b(np.zeros((1, 2)))
    assert val[0] == pytest.approx(PENDULUM_HB_LEVEL)
    flow = integrate_flow(prob, np.zeros(2))
    np.testing.assert_allclose(flow.states[-1], np.zeros(2), atol=1e-12)
    # backup controller respects the input box everywhere
    rng = np.random.default_rng(1)
    X = rng.uniform(-3, 3, size=(100, 2))
    u = prob.k_b(X)
    assert np.all(np.abs(u) <= 3.0)
    # the set has the stated half-widths: angle 1.0 on the zero-rate slice,
    # rate 1.5 attained where the sheared coordinate vanishes
    h_val, _ = prob.h(np.array([[1.0, 0.0], [-0.6, 1.5]]))
    np.testing.assert_allclose(h_val, 0.0, atol=1e-12)


def test_pendulum_jacobian_matches_finite_differences():
    bench = pendulum_backup()
    prob = bench.backup
    F = prob.sys.closed_loop(prob.k_b)
    X = np.random.default_rng(2).uniform(-1.5, 1.5, size=(10, 2))
    step = 1e-6
    fd = np.empty((10, 2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = step
        fd[:, :, k] = (F(X + e) - F(X - e)) / (2 * step)
    np.testing.assert_allclose(prob.jacobian(X), fd, atol=1e-8)


def test_annulus_constraints_and_width():
    bench = thin_annulus()
    x_outer = np.array([1.0, 0.0])
    vals, grads = bench.constraints.evaluate(x_outer)
    assert vals[0] == pytest.approx(0.0)
    assert vals[1] == pytest.approx(0.05)
    np.testing.assert_allclose(grads[0], -grads[1], atol=1e-14)  # antiparallel


@pytest.mark.parametrize("name", ["double-integrator-box", "pendulum-backup", "scalar-stable", "thin-annulus"])
def test_closed_loop_field_shapes_and_rows(name):
    bench = get_benchmark(name)
    n = bench.sys.n
    box = bench.constraints.bounding_box
    X = np.random.default_rng(0).uniform(box[:, 0], box[:, 1], size=(9, n))
    fields = [bench.closed_loop_field()]
    if bench.backup is not None:
        fields += [bench.sys.closed_loop(bench.backup.k_b), bench.backup.closed_loop()]
    for F in fields:
        block = F(X)
        assert block.shape == (9, n)
        for x, row in zip(X, block):
            one_row = F(x[None])
            assert one_row.shape == (1, n)
            # a one-row block may round K.x differently from a larger one
            np.testing.assert_allclose(one_row[0], row, rtol=1e-14, atol=1e-15)


@pytest.mark.gate
def test_fused_closed_loop_matches_composed_bitwise():
    # compared as bytes, since == takes -0.0 for +0.0: the composed field's
    # einsum turns a -0.0 component into +0.0, and the fused field must too
    prob = pendulum_backup().backup
    fused = prob.closed_loop()
    assert fused is prob.fused.field
    # sys.closed_loop(k_b) is the fused plant's path; the reference is the
    # drift + actuation + einsum sum of a system without one
    composed = dataclasses.replace(prob.sys, fused=None).closed_loop(prob.k_b)
    box = prob.bounding_box
    rng = np.random.default_rng(7)
    for trial in range(1200):
        B = (1, 2, 7, 800)[trial % 4]
        X = rng.uniform(box[:, 0], box[:, 1], size=(B, prob.sys.n))
        zeros = rng.uniform(size=X.shape) < 0.2
        X[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
        assert fused(X).tobytes() == composed(X).tobytes()
    X = np.array([[0.3, -0.0]])
    assert fused(X).tobytes() == composed(X).tobytes()


@pytest.mark.gate
def test_fused_plant_matches_composed_bitwise():
    # the fused plant serves any controller: the backup controller, a wrapped
    # one (a step clock's or a call counter's), the desired controller and
    # seeded linear controllers, whose outputs include both signed zeros
    bench = pendulum_backup()
    sys = bench.sys
    assert sys.fused is not None
    composed_sys = dataclasses.replace(sys, fused=None)
    rng = np.random.default_rng(13)
    k_b = bench.backup.k_b

    def wrapped(X):
        return k_b(X)

    def linear(K):
        return lambda X: X @ K

    def first_coordinate(k):
        # -0.0 or +0.0 wherever the first coordinate is a signed zero
        return lambda X: X[:, :1] * k

    controllers = [k_b, wrapped, bench.desired_controller]
    controllers += [linear(rng.normal(size=(sys.n, sys.m))) for _ in range(3)]
    controllers += [first_coordinate(k) for k in (1.5, -0.7)]
    box = bench.constraints.bounding_box
    zero_signs = set()
    for c in controllers:
        fused, composed = sys.closed_loop(c), composed_sys.closed_loop(c)
        for trial in range(200):
            B = (1, 2, 7, 800)[trial % 4]
            X = rng.uniform(box[:, 0], box[:, 1], size=(B, sys.n))
            zeros = rng.uniform(size=X.shape) < 0.2
            X[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
            assert fused(X).tobytes() == composed(X).tobytes()
            U = c(X)
            zero_signs.update(np.signbit(U[U == 0.0]).tolist())
        X = np.array([[0.3, -0.0]])
        assert fused(X).tobytes() == composed(X).tobytes()
    assert zero_signs == {False, True}


@pytest.mark.gate
def test_fused_row_form_matches_field_bitwise():
    # the row form on a tuple of floats against the fused field on the same
    # state as a one-row block, as bytes, over box states, states where tanh
    # saturates (|x| about 50) and injected signed zeros
    prob = pendulum_backup().backup
    row, field = prob.fused.row, prob.fused.field
    box = prob.bounding_box
    rng = np.random.default_rng(11)
    X = rng.uniform(box[:, 0], box[:, 1], size=(4500, prob.sys.n))
    X[1500:3000] *= 50.0 / np.abs(X[1500:3000]).max(axis=1, keepdims=True)
    zeros = rng.uniform(size=X.shape) < 0.2
    zeros[:1500] = False
    X[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    for x in X:
        out = row(tuple(x.tolist()))
        assert type(out) is tuple and all(type(v) is float for v in out)
        assert np.array(out).tobytes() == field(x[None])[0].tobytes()


@pytest.mark.gate
def test_pendulum_division_matches_the_negated_numerator_bitwise():
    # k_b, the fused field and its row form compute tanh(K.x / -u_max); IEEE
    # division is sign-symmetric, so that is bitwise the written
    # u_max * tanh(-K.x / u_max), signed zeros included
    prob = pendulum_backup().backup
    K, U = PENDULUM_K, PENDULUM_U_MAX
    X = np.random.default_rng(12).uniform(-4.0, 4.0, size=(100_000, 2))
    tiny, huge = 5e-324, 1e300
    X[:12] = [[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [tiny, -tiny], [-tiny, 0.0],
              [2.0 * tiny, -0.0], [huge, -huge], [-huge, 0.5], [huge, huge], [-huge, -huge], [1e-310, 1.0]]
    assert np.isfinite(X.dot(K)).all() and (X[:4].dot(K) == 0.0).all()

    def old_u(X):
        return U * np.tanh(-X.dot(K) / U)

    assert prob.k_b(X).tobytes() == old_u(X)[:, None].tobytes()
    old = np.empty(X.shape)
    old[:, 0] = X[:, 1] + 0.0
    old[:, 1] = np.sin(X[:, 0]) + (old_u(X) + 0.0)
    assert prob.fused.field(X).tobytes() == old.tobytes()

    def old_row(x):
        u = U * float(np.tanh(-float(K.dot(x)) / U))
        return (x[1] + 0.0, float(np.sin(x[0])) + (u + 0.0))

    states = [tuple(x) for x in X.tolist()]
    rows = np.array([prob.fused.row(x) for x in states])
    assert rows.tobytes() == np.array([old_row(x) for x in states]).tobytes()
    # K.x of +0.0 and -0.0: the division alone keeps the sign of the old form
    for kx in (0.0, -0.0):
        assert np.tanh(np.float64(kx) / -U).tobytes() == np.tanh(-np.float64(kx) / U).tobytes()


def test_constant_actuation_shapes():
    gmat = np.array([[0.0], [1.0]])
    g = ConstantActuation(gmat)
    # B grows, shrinks, then grows past the largest block seen so far
    for B in (1, 5, 3, 1000, 7):
        block = g(np.zeros((B, 2)))
        assert isinstance(block, np.ndarray) and block.shape == (B, 2, 1)
        np.testing.assert_array_equal(block, np.broadcast_to(gmat, (B, 2, 1)))
        # the block is a view shared between calls, so it must not be writable
        assert not block.flags.writeable


@pytest.mark.parametrize("part", ["drift", "actuation", "controller"])
@pytest.mark.parametrize("rows", [None, 1, 4], ids=["one-state", "one-row", "four-rows"])
def test_closed_loop_component_with_wrong_shape_raises(part, rows):
    good = {
        "drift": lambda X: -X,
        "actuation": ConstantActuation([[1.0], [0.0]]),
        "controller": lambda X: np.zeros(X.shape[:-1] + (1,)),
    }
    parts = dict(good)
    # answers a block with the shape of one of its states
    parts[part] = lambda X, real=good[part]: real(X)[0]
    sys = ControlAffineSystem(n=2, m=1, drift=parts["drift"], actuation=parts["actuation"])
    F = sys.closed_loop(parts["controller"])
    if rows is None:
        # one state is refused before any component is called
        with pytest.raises(InvalidInputError, match=r"expected states of shape \(B, 2\), got \(2,\)"):
            F(np.full(2, 0.5))
        return
    with pytest.raises(
        InvalidInputError,
        match=rf"drift, actuation and controller returned shape .* for a block of {rows} states; "
        rf"expected \({rows}, 2\), \({rows}, 2, 1\), \({rows}, 1\)",
    ):
        F(np.full((rows, 2), 0.5))


@pytest.mark.parametrize("part", ["controller", "plant"])
@pytest.mark.parametrize("rows", [None, 1, 4], ids=["one-state", "one-row", "four-rows"])
def test_fused_plant_path_with_wrong_shape_raises(part, rows):
    def drift(X):
        return -X

    actuation = ConstantActuation([[1.0], [0.0]])
    parts = {
        "controller": lambda X: np.zeros(X.shape[:-1] + (1,)),
        "plant": lambda X, U: drift(X) + (actuation(X) @ U[:, :, None])[:, :, 0],
    }
    # answers a block with the shape of one of its states
    real = parts[part]
    parts[part] = lambda *args: real(*args)[0]
    sys = ControlAffineSystem(n=2, m=1, drift=drift, actuation=actuation,
                              fused=FusedPlant(parts["plant"], drift, actuation))
    F = sys.closed_loop(parts["controller"])
    if rows is None:
        # one state is refused before the controller or the plant is called
        with pytest.raises(InvalidInputError, match=r"expected states of shape \(B, 2\), got \(2,\)"):
            F(np.full(2, 0.5))
        return
    name, got, want = {
        "controller": ("controller", r"\(1,\)", rf"\({rows}, 1\)"),
        "plant": ("fused plant", r"\(2,\)", rf"\({rows}, 2\)"),
    }[part]
    with pytest.raises(
        InvalidInputError, match=rf"{name} returned shape {got} for a block of {rows} states; expected {want}"
    ):
        F(np.full((rows, 2), 0.5))


@pytest.mark.gate
@pytest.mark.parametrize("name", benchmark_names())
def test_evaluate_equals_a_one_row_batch_bitwise(name):
    # the closed loop evaluates blocks, so one state's evaluation must be the
    # batch evaluator's row, not a formula that rounds differently
    cs = get_benchmark(name).constraints
    box = cs.bounding_box
    X = np.random.default_rng(2).uniform(box[:, 0], box[:, 1], size=(1000, cs.n))
    for x in X:
        vals, grads = cs.evaluate(x)
        bvals, bgrads = cs.evaluate_batch(x[None])
        assert vals.tobytes() == bvals[0].tobytes()
        assert grads.tobytes() == bgrads[0].tobytes()


@pytest.mark.parametrize("method", ["evaluate_batch", "values", "screened_values"])
@pytest.mark.parametrize("name", benchmark_names())
def test_certification_set_refuses_states_that_are_not_a_block_of_width_n(name, method):
    # one check for every family, batch-first or not, before any evaluator
    # runs: numpy's own errors, or values of the wrong width, otherwise
    cs = get_benchmark(name).certification_set()
    for X in (np.zeros((3, cs.n + 1)), np.zeros(cs.n), np.zeros((1, 3, cs.n))):
        with pytest.raises(InvalidInputError, match=re.escape(f"expected states of shape (B, {cs.n}), got {X.shape}")):
            getattr(cs, method)(X)


def test_affine_gradient_block_is_read_only_and_equals_the_copy():
    # the double integrator's family returns a read-only zero-stride slice
    # for every block size, equal bit for bit to the copy it replaced
    cs = double_integrator_box().constraints
    W = np.array([[-1.0, -1.0], [1.0, 1.0], [0.0, -1.0], [0.0, 1.0]])
    rng = np.random.default_rng(3)
    for B in (5, 3, 40, 1, 40):
        X = rng.uniform(-2.0, 2.0, size=(B, 2))
        vals, grads = cs.batch_evaluator(X)
        assert grads.shape == (B, 4, 2) and not grads.flags.writeable
        assert grads.tobytes() == np.broadcast_to(W, (B, 4, 2)).copy().tobytes()
        with pytest.raises(ValueError, match="read-only"):
            grads[0, 0, 0] = 1.0
        assert cs.evaluate_batch(X)[1].tobytes() == grads.tobytes()
