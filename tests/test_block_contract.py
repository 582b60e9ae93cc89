"""The user-callable contract: the package calls every callable of a
benchmark on blocks of states (B, n) only, never on one state (n,).

Each benchmark's dynamics, controllers, constraint functions, Jacobian and
fused forms are wrapped, as a call-counting harness would wrap them, in a
guard that raises on any argument that is not 2-d; then the CLI commands,
a backup takeover and the one-state package API run through them.  The
per-constraint `evaluators`, which take one state by design, are the one
exception; no benchmark declares any.  A LinearDrift and a
ConstantActuation, matrices that the plant step reads, are guarded as
subclasses of themselves, so that guarded plant steps keep the row path,
and every block form generated from a declared expression (a closed loop
or a linear drift) is guarded where it is generated, so that a declared
closed loop keeps its one-row kernel.
"""
import dataclasses

import numpy as np
import pytest

import softcbf.cli
import softcbf.safety_filter
import softcbf.sim
from softcbf import (
    ClassK,
    ConstantActuation,
    FusedPlant,
    LinearDrift,
    SimConfig,
    ValueForms,
    backup_barrier,
    barrier_row,
    benchmark_names,
    check_backup_preconditions,
    get_benchmark,
    integrate_flow,
    run,
)
from softcbf.cli import main


class OneStateCall(Exception):
    """A guarded callable was called on something other than a block."""


def blocks_only(fn):
    if fn is None:
        return None

    def guarded(*args):
        for a in args:
            if np.ndim(a) != 2:
                raise OneStateCall(f"{getattr(fn, '__qualname__', fn)} called on shape {np.shape(a)}")
        return fn(*args)

    return guarded


def _blocks_only_class(cls):
    """A subclass of cls whose calls raise, as `blocks_only`'s do, on an
    argument that is not 2-d."""
    class Guarded(cls):
        def __call__(self, X):
            if np.ndim(X) != 2:
                raise OneStateCall(f"{cls.__name__} called on shape {np.shape(X)}")
            return super().__call__(X)

    return Guarded


GuardedLinearDrift = _blocks_only_class(LinearDrift)
GuardedConstantActuation = _blocks_only_class(ConstantActuation)


@pytest.fixture(autouse=True)
def guarded_block_forms(monkeypatch):
    """Every block form generated from a declared expression, behind
    `blocks_only`."""
    real = softcbf.safety_filter._block_form
    monkeypatch.setattr(softcbf.safety_filter, "_block_form", lambda field: blocks_only(real(field)))


def guarded(bench):
    """The benchmark with every callable behind `blocks_only`, its fused
    forms rebuilt on the guarded objects so that they still apply."""
    g = blocks_only
    sys = bench.sys
    # a LinearDrift and a ConstantActuation stay instances of their classes,
    # so that guarded plant steps keep the row path
    drift = GuardedLinearDrift(sys.drift.A) if isinstance(sys.drift, LinearDrift) else g(sys.drift)
    actuation = (GuardedConstantActuation(sys.actuation.G) if isinstance(sys.actuation, ConstantActuation)
                 else g(sys.actuation))
    backup = bench.backup
    k_b = backup and g(backup.k_b)
    f = sys.fused
    # the drift row form maps one state as a tuple of floats by design; a
    # declared closed loop's block form is guarded where it is generated
    plant = f and FusedPlant(g(f.plant), drift, actuation, f.drift_row, k_b, f.closed_loop)
    sys = dataclasses.replace(sys, drift=drift, actuation=actuation, fused=plant)
    cs = bench.constraints
    cs = dataclasses.replace(cs, batch_evaluator=g(cs.batch_evaluator),
                             value_evaluator=g(cs.value_evaluator), screen=g(cs.screen))
    if backup is not None:
        h, h_b = g(backup.h), g(backup.h_b)
        v = backup.value_forms
        forms = v and ValueForms(g(v.h_value), g(v.h_b_value), h, h_b)
        backup = dataclasses.replace(backup, sys=sys, k_b=k_b, h=h, h_b=h_b,
                                     jacobian=g(backup.jacobian), value_forms=forms)
        block, row = sys._closed_loop_fields(k_b)[1:]
        assert row is plant.closed_loop and block.__qualname__ == "blocks_only.<locals>.guarded"
    # a safe controller that is k_b stays the declared controller of the
    # fused closed loop
    safe = k_b if backup is not None and bench.safe_controller is bench.backup.k_b else g(bench.safe_controller)
    return dataclasses.replace(bench, sys=sys, constraints=cs, backup=backup,
                               desired_controller=g(bench.desired_controller), safe_controller=safe)


def test_the_guard_refuses_one_state():
    bench = guarded(get_benchmark("double-integrator-box"))
    with pytest.raises(OneStateCall, match=r"called on shape \(2,\)"):
        bench.safe_controller(np.zeros(2))
    assert bench.safe_controller(np.zeros((1, 2))).shape == (1, 1)
    # the matrices, guarded as their own classes, refuse one state too: a
    # ConstantActuation would otherwise return an (n, n, m) block for it
    assert isinstance(bench.sys.drift, LinearDrift) and isinstance(bench.sys.actuation, ConstantActuation)
    with pytest.raises(OneStateCall, match=r"LinearDrift called on shape \(2,\)"):
        bench.sys.drift(np.zeros(2))
    with pytest.raises(OneStateCall, match=r"ConstantActuation called on shape \(2,\)"):
        bench.sys.actuation(np.zeros(2))
    assert bench.sys.actuation(np.zeros((3, 2))).shape == (3, 2, 1)


@pytest.fixture
def guarded_cli(monkeypatch):
    real = softcbf.cli.get_benchmark
    monkeypatch.setattr(softcbf.cli, "get_benchmark", lambda name: guarded(real(name)))


@pytest.fixture
def block_steps(monkeypatch):
    """Counts the plant steps that sim takes on the numpy block step."""
    steps = []
    step = softcbf.sim.rk4_step

    def counted(F, X, h):
        steps.append(len(X))
        return step(F, X, h)

    monkeypatch.setattr(softcbf.sim, "rk4_step", counted)
    return steps


@pytest.mark.parametrize("name", benchmark_names())
def test_cli_runs_call_benchmark_callables_on_blocks_only(name, guarded_cli, block_steps, tmp_path):
    # quick sizes: a coarse tube, few rays and precondition points, short runs
    cfg_file = tmp_path / "quick.cfg"
    cfg_file.write_text("n_check = 20\nprecondition_points = 300\n")
    common = ["--benchmark", name, "--config", str(cfg_file), "--density", "200", "--out", str(tmp_path)]
    # certify runs every certification step (scalar-unstable stops at the
    # strict-safety check); simulate runs with --theta, and a sweep of two θ
    # probes and runs them in lockstep
    assert main(["certify", *common]) == (2 if name == "scalar-unstable" else 0)
    assert main(["simulate", *common, "--theta", "2e4", "--t-final", "0.1"]) == 0
    assert main(["sweep", *common, "--thetas", "100,2e4", "--t-final", "0.1"]) == 0
    assert (tmp_path / f"sweep-{name}.csv").read_text().count("\n") == 3
    # the guarded plants keep the row path: the linear drifts' inline kernel
    # and the pendulum's drift row form, never the block step
    assert isinstance(guarded(get_benchmark(name)).sys.drift, LinearDrift) == (name != "pendulum-backup")
    assert block_steps == []


@pytest.mark.parametrize("name", ["scalar-unstable", "pendulum-backup"])
def test_backup_takeover_calls_the_safe_controller_on_a_block(name):
    # no actuation: the filter is infeasible wherever the barrier needs the
    # input, and the safe controller takes over; a second config in lockstep
    # keeps the taken row beside a filtered one
    bench = guarded(get_benchmark(name))
    n, m = bench.sys.n, bench.sys.m
    dead = dataclasses.replace(bench, sys=dataclasses.replace(
        bench.sys, actuation=blocks_only(lambda X: np.zeros((len(X), n, m))), fused=None))
    x0 = np.full(n, 0.9 if n == 1 else 0.3)
    cfgs = [SimConfig(x0=x0, t_final=0.2, dt=0.01, theta=4.0 * n, alpha=ClassK(kappa=0.01)),
            SimConfig(x0=np.zeros(n), t_final=0.2, dt=0.01, theta=4.0 * n)]
    traces = run(dead, cfgs)
    assert traces[0].infeasible.any()
    assert (traces[0].filter_status == "").sum() > 1  # takeover steps


def test_one_state_package_api_calls_benchmark_callables_on_blocks_only():
    bench = guarded(get_benchmark("pendulum-backup"))
    prob, x = bench.backup, np.array([0.2, -0.1])
    a, c = barrier_row(bench.sys, np.array([1.0, 0.5]), x)
    assert a.shape == (1,) and isinstance(c, float)
    vals, grads = bench.certification_set().evaluate(x)
    assert vals.shape == (prob.N,) and grads.shape == (prob.N, 2)
    flow = integrate_flow(prob, x)
    barrier = backup_barrier(prob, flow, 3000.0)
    assert barrier.b_values.tobytes() == vals.tobytes()
    assert bench.constraints.evaluate(x)[0].shape == (1,)
    assert check_backup_preconditions(prob, bench.precondition_sampler(60, 0)).passed
