import dataclasses
import io
import json
from pathlib import Path

import numpy as np
import pytest

import softcbf.sim
from softcbf import (
    InvalidInputError,
    SimConfig,
    get_benchmark,
)
from softcbf.sim import run


def scalar_cfg(**kw):
    defaults = dict(x0=np.zeros(1), t_final=2.0, dt=0.01, theta=10.0)
    defaults.update(kw)
    return SimConfig(**defaults)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        scalar_cfg(dt=0.0)
    with pytest.raises(InvalidInputError):
        scalar_cfg(theta=-1.0)
    with pytest.raises(InvalidInputError):
        scalar_cfg(infeasible_policy="panic")


def test_deterministic_traces():
    bench = get_benchmark("scalar-stable")
    a = run(bench, scalar_cfg())
    b = run(bench, scalar_cfg())
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.controls, b.controls)
    np.testing.assert_array_equal(a.h_soft, b.h_soft)


def test_filter_modifies_adversarial_controller():
    bench = get_benchmark("scalar-stable")
    trace = run(bench, scalar_cfg(t_final=5.0))
    assert trace.modified.any()
    assert trace.min_h_soft >= -1e-6
    assert not trace.infeasible.any()
    assert trace.violations == []


def test_safe_desired_controller_is_untouched():
    bench = get_benchmark("scalar-stable")
    safe_bench = dataclasses.replace(bench, desired_controller=bench.safe_controller)
    cfg = scalar_cfg(t_final=1.0)
    trace = run(safe_bench, cfg)
    assert not trace.modified.any()
    # the trace must be bit-identical to the unfiltered closed loop
    x = cfg.x0.copy()
    h = cfg.dt / cfg.substeps
    for k in range(len(trace) - 1):
        np.testing.assert_array_equal(trace.states[k], x)
        u = np.asarray(bench.safe_controller(x), dtype=float).reshape(1)
        np.testing.assert_array_equal(trace.controls[k], u)
        for _ in range(cfg.substeps):
            k1 = -x + u
            k2 = -(x + 0.5 * h * k1) + u
            k3 = -(x + 0.5 * h * k2) + u
            k4 = -(x + h * k3) + u
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    np.testing.assert_array_equal(trace.states[-1], x)


def test_initial_state_checks():
    bench = get_benchmark("scalar-stable")
    with pytest.raises(InvalidInputError):
        run(bench, scalar_cfg(x0=np.array([2.0])))  # outside the hard set
    # inside the hard set but outside the smooth set: warn and proceed
    with pytest.warns(UserWarning):
        trace = run(bench, scalar_cfg(x0=np.array([0.999]), theta=1.0, t_final=0.5))
    assert len(trace) > 1


def test_halt_policy_truncates():
    # actuation vanishes: the barrier constraint is unsatisfiable once the
    # desired push must be corrected, so the filter reports infeasible
    bench = get_benchmark("scalar-stable")
    sys = dataclasses.replace(bench.sys, actuation=lambda x: _zero_actuation(x))
    dead = dataclasses.replace(bench, sys=sys, desired_controller=bench.safe_controller)
    cfg = scalar_cfg(x0=np.array([0.9]), theta=4.0, t_final=5.0, infeasible_policy="halt")
    trace = run(dead, cfg)
    # xdot = -x decays toward 0, never escaping; with u ineffective the
    # constraint c + 0*u >= -alpha(h) holds while h >= 0, so no infeasible
    # event occurs and the trace completes
    assert not trace.truncated
    assert not trace.infeasible.any()


def _zero_actuation(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.zeros((1, 1))
    return np.zeros((x.shape[0], 1, 1))


def test_halt_policy_on_genuinely_infeasible_step():
    # outward drift with no actuation: the constraint fails at once
    bench = get_benchmark("scalar-unstable")
    sys = dataclasses.replace(bench.sys, actuation=lambda x: _zero_actuation(x))
    dead = dataclasses.replace(bench, sys=sys)
    cfg = scalar_cfg(x0=np.array([0.9]), theta=4.0, t_final=5.0, infeasible_policy="halt")
    trace = run(dead, cfg)
    assert trace.truncated
    assert trace.infeasible[-1]
    assert "halted" in trace.note


def test_backup_takeover_policy():
    bench = get_benchmark("scalar-unstable")
    sys = dataclasses.replace(bench.sys, actuation=lambda x: _zero_actuation(x))
    dead = dataclasses.replace(bench, sys=sys)
    cfg = scalar_cfg(x0=np.array([0.9]), theta=4.0, t_final=3.0, infeasible_policy="backup-takeover")
    trace = run(dead, cfg)
    # takeover switches to the safe controller permanently; the run completes
    assert not trace.truncated
    assert trace.infeasible.sum() >= 1


def test_clip_policy_keeps_running():
    bench = get_benchmark("scalar-unstable")
    sys = dataclasses.replace(bench.sys, actuation=lambda x: _zero_actuation(x))
    dead = dataclasses.replace(bench, sys=sys)
    cfg = scalar_cfg(x0=np.array([0.9]), theta=4.0, t_final=1.0, infeasible_policy="clip")
    trace = run(dead, cfg)
    assert not trace.truncated
    assert "unsound" in trace.note
    # the uncorrected push eventually leaves the set: violations are recorded
    assert trace.min_h_soft < 0
    assert len(trace.violations) > 0


def test_csv_format():
    bench = get_benchmark("scalar-stable")
    trace = run(bench, scalar_cfg(t_final=0.1))
    buf = io.StringIO()
    trace.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x_1,u_1,h_soft,h_hard,modified,infeasible"
    assert len(lines) == len(trace) + 1
    row = lines[1].split(",")
    assert len(row) == 7
    # floats are written with 17 significant digits and round-trip exactly
    assert float(row[3]) == trace.h_soft[0]
    assert row[5] in ("0", "1") and row[6] in ("0", "1")


def test_csv_accepts_a_path(tmp_path):
    trace = run(get_benchmark("scalar-stable"), scalar_cfg(t_final=0.1))
    buf = io.StringIO()
    trace.to_csv(buf)
    trace.to_csv(tmp_path / "trace.csv")
    trace.to_csv(str(tmp_path / "trace-str.csv"))
    assert (tmp_path / "trace.csv").read_text() == buf.getvalue()
    assert (tmp_path / "trace-str.csv").read_text() == buf.getvalue()


def test_backup_run_flows_once_per_step(monkeypatch):
    # the barrier at x0 is evaluated once, for the initial check and step 0
    bench = get_benchmark("pendulum-backup")
    real = softcbf.sim.integrate_flow
    flows = []

    def counted(prob, x0):
        flows.append(np.array(x0))
        return real(prob, x0)

    monkeypatch.setattr(softcbf.sim, "integrate_flow", counted)
    trace = run(bench, SimConfig(x0=np.array([0.05, 0.06]), t_final=0.05, dt=0.01, theta=500.0))
    assert len(flows) == len(trace)
    np.testing.assert_array_equal(np.array(flows), trace.states)


def test_backup_benchmark_short_run():
    bench = get_benchmark("pendulum-backup")
    cfg = SimConfig(x0=np.zeros(2), t_final=0.2, dt=0.01, theta=500.0)
    trace = run(bench, cfg)
    assert trace.min_h_soft > 0
    assert trace.h_hard[0] >= trace.h_soft[0]
    assert not trace.infeasible.any()


# closed-loop traces recorded at fixed inputs; the filter acts on most
# steps of both, so the barrier, its gradient, the filter and the plant
# step must all reproduce bit for bit
FIXED_TRACES = json.loads((Path(__file__).parent / "fixed_traces.json").read_text())


@pytest.mark.parametrize("name", sorted(FIXED_TRACES))
def test_simulate_reproduces_fixed_traces(name):
    rec = FIXED_TRACES[name]
    cfg = SimConfig(x0=np.array(rec["x0"]), t_final=rec["t_final"], dt=rec["dt"], theta=rec["theta"])
    trace = run(get_benchmark(name), cfg)
    assert trace.states.tolist() == rec["states"]
    assert trace.controls.tolist() == rec["controls"]
    assert trace.h_soft.tolist() == rec["h_soft"]
    assert trace.min_h_soft == rec["min_h_soft"]
