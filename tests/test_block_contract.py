"""The user-callable contract: the package calls every callable of a
benchmark on blocks of states (B, n) only, never on one state (n,).

Each benchmark's dynamics, controllers, constraint functions, Jacobian and
fused forms are wrapped, as a call-counting harness would wrap them, in a
guard that raises on any argument that is not 2-d; then the CLI commands,
a backup takeover and the one-state package API run through them.  The
per-constraint `evaluators`, which take one state by design, are the one
exception; no benchmark declares any.
"""
import dataclasses

import numpy as np
import pytest

import softcbf.cli
from softcbf import (
    ClassK,
    FusedField,
    FusedPlant,
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


def guarded(bench):
    """The benchmark with every callable behind `blocks_only`, its fused
    forms rebuilt on the guarded objects so that they still apply."""
    g = blocks_only
    sys = bench.sys
    drift, actuation = g(sys.drift), g(sys.actuation)
    plant = sys.fused and FusedPlant(g(sys.fused.plant), drift, actuation)
    sys = dataclasses.replace(sys, drift=drift, actuation=actuation, fused=plant)
    cs = bench.constraints
    cs = dataclasses.replace(cs, batch_evaluator=g(cs.batch_evaluator),
                             value_evaluator=g(cs.value_evaluator), screen=g(cs.screen))
    backup = bench.backup
    if backup is not None:
        k_b, h, h_b = g(backup.k_b), g(backup.h), g(backup.h_b)
        f, v = backup.fused, backup.value_forms
        # the row form maps one state as a tuple of floats by design
        field = f and FusedField(g(f.field), drift, actuation, k_b, row=f.row)
        forms = v and ValueForms(g(v.h_value), g(v.h_b_value), h, h_b)
        backup = dataclasses.replace(backup, sys=sys, k_b=k_b, h=h, h_b=h_b,
                                     jacobian=g(backup.jacobian), fused=field, value_forms=forms)
        assert backup.closed_loop() is field.field
    return dataclasses.replace(bench, sys=sys, constraints=cs, backup=backup,
                               desired_controller=g(bench.desired_controller),
                               safe_controller=g(bench.safe_controller))


def test_the_guard_refuses_one_state():
    bench = guarded(get_benchmark("double-integrator-box"))
    with pytest.raises(OneStateCall, match=r"called on shape \(2,\)"):
        bench.safe_controller(np.zeros(2))
    assert bench.safe_controller(np.zeros((1, 2))).shape == (1, 1)


@pytest.fixture
def guarded_cli(monkeypatch):
    real = softcbf.cli.get_benchmark
    monkeypatch.setattr(softcbf.cli, "get_benchmark", lambda name: guarded(real(name)))


@pytest.mark.parametrize("name", benchmark_names())
def test_cli_runs_call_benchmark_callables_on_blocks_only(name, guarded_cli, tmp_path):
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
