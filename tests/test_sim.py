import dataclasses
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

import softcbf.backup
from softcbf import (
    ClassK,
    ConstraintSet,
    InvalidInputError,
    SimConfig,
    SimTrace,
    get_benchmark,
)
from softcbf.cli import main
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


@pytest.mark.parametrize(
    "kw",
    [dict(dt=np.nan), dict(t_final=np.inf), dict(t_final=np.nan), dict(theta=np.nan), dict(theta=np.inf)],
    ids=["dt-nan", "t_final-inf", "t_final-nan", "theta-nan", "theta-inf"],
)
def test_non_finite_config_raises(kw):
    with pytest.raises(InvalidInputError, match="must be finite"):
        scalar_cfg(**kw)


def test_simulate_rejects_non_finite_theta(tmp_path, capsys):
    argv = ["simulate", "--benchmark", "double-integrator-box", "--theta", "nan", "--t-final", "0.1", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
        u = bench.safe_controller(x[None])[0]
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


def _zero_actuation(X):
    return np.zeros((len(X), 1, 1))


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
    # the barrier at x0 is evaluated once, for the initial check and step 0;
    # each step is one flow with sensitivities of the live rows
    bench = get_benchmark("pendulum-backup")
    real = softcbf.backup.integrate_flow_batch
    flows = []

    def counted(prob, X0, sensitivities=True):
        flows.append((np.array(X0), sensitivities))
        return real(prob, X0, sensitivities)

    monkeypatch.setattr(softcbf.backup, "integrate_flow_batch", counted)
    trace = run(bench, SimConfig(x0=np.array([0.05, 0.06]), t_final=0.05, dt=0.01, theta=500.0))
    assert len(flows) == len(trace)
    assert all(sens for _, sens in flows)
    np.testing.assert_array_equal(np.array([X0[0] for X0, _ in flows]), trace.states)


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


@pytest.mark.gate
@pytest.mark.parametrize("name", sorted(FIXED_TRACES))
def test_simulate_reproduces_fixed_traces(name):
    rec = FIXED_TRACES[name]
    cfg = SimConfig(x0=np.array(rec["x0"]), t_final=rec["t_final"], dt=rec["dt"], theta=rec["theta"])
    trace = run(get_benchmark(name), cfg)
    assert trace.states.tolist() == rec["states"]
    assert trace.controls.tolist() == rec["controls"]
    assert trace.h_soft.tolist() == rec["h_soft"]
    assert trace.min_h_soft == rec["min_h_soft"]


def assert_same_trace(a, b):
    """Every SimTrace field equal, arrays bit for bit (NaN included)."""
    for f in dataclasses.fields(SimTrace):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
            assert x.tobytes() == y.tobytes(), f.name
        elif isinstance(x, float) and np.isnan(x):
            assert np.isnan(y), f.name
        else:
            assert x == y, f.name


def mixed_block(bench, t_final=2.0):
    # six rows with different x0 (the default, then seeded states inside
    # the hard set), theta, relaxation and policy
    cs = bench.constraints
    X = np.random.default_rng(4).uniform(*cs.bounding_box.T, size=(2000, cs.n))
    inside = X[cs.evaluate_batch(X)[0].min(axis=1) > 0.0]
    x0s = [bench.x0_default] + list(inside[:5])
    alphas = [ClassK(), ClassK(kind="cubic", kappa=2.0), ClassK(kind="tanh", kappa=3.0, scale=0.5)]
    cfgs = []
    for k, theta in enumerate([3.0, 25.0, 400.0, 7e3, 9e4, 50.0]):
        cfgs.append(SimConfig(
            x0=x0s[k], t_final=t_final, dt=0.01, theta=theta,
            alpha=alphas[k % 3],
            infeasible_policy=("backup-takeover", "clip", "halt")[k % 3],
        ))
    return cfgs


@pytest.mark.gate
@pytest.mark.filterwarnings("ignore:initial state is inside the hard set")
@pytest.mark.parametrize(
    "name", ["double-integrator-box", "scalar-stable", "scalar-unstable", "thin-annulus"])
def test_lockstep_rows_equal_single_runs_bitwise(name):
    bench = get_benchmark(name)
    cfgs = mixed_block(bench)
    traces = run(bench, cfgs)
    assert isinstance(traces, list) and len(traces) == len(cfgs)
    for cfg, trace in zip(cfgs, traces):
        assert_same_trace(trace, run(bench, cfg))


@pytest.mark.gate
def test_lockstep_backup_rows_stay_within_1e_12_of_single_runs():
    # the rows share one flow per step, which may round differently in the
    # last bit from a one-row flow
    bench = get_benchmark("pendulum-backup")
    cfgs = [
        SimConfig(x0=np.array(x0), t_final=1.0, dt=0.01, theta=theta)
        for x0, theta in (([0.05, 0.06], 500.0), ([-0.04, 0.02], 75000.0), ([0.0, -0.07], 3000.0))
    ]
    for cfg, trace in zip(cfgs, run(bench, cfgs)):
        single = run(bench, cfg)
        assert len(trace) == len(single) == 101
        for field in ("states", "controls", "h_soft", "h_hard", "slack"):
            np.testing.assert_allclose(getattr(trace, field), getattr(single, field), rtol=0, atol=1e-12)
        for field in ("modified", "infeasible", "filter_status"):
            np.testing.assert_array_equal(getattr(trace, field), getattr(single, field))


@pytest.mark.gate
def test_lockstep_halt_truncates_only_its_row():
    bench = get_benchmark("scalar-unstable")
    sys = dataclasses.replace(bench.sys, actuation=lambda x: _zero_actuation(x))
    dead = dataclasses.replace(bench, sys=sys)
    cfgs = [scalar_cfg(x0=np.array([0.9]), theta=4.0, t_final=1.0, infeasible_policy=policy)
            for policy in ("backup-takeover", "halt", "clip")]
    traces = run(dead, cfgs)
    assert [t.truncated for t in traces] == [False, True, False]
    assert len(traces[1]) < len(traces[0]) == len(traces[2]) == 101
    for cfg, trace in zip(cfgs, traces):
        assert_same_trace(trace, run(dead, cfg))


def test_a_plant_state_that_turns_non_finite_truncates_only_its_row():
    # xdot = x^2 + u blows up at t = 1/x0 from x0 > 0: from 10 inside the
    # run, from 0.5 after it; the box is wide enough that the filter never
    # acts before the state overflows
    bench = get_benchmark("scalar-stable")
    sys = dataclasses.replace(bench.sys, drift=lambda x: np.square(np.asarray(x, dtype=float)))
    W, b = np.array([[1.0], [-1.0]]), np.array([1.0, 1e300])

    def batch(X):
        return b + X @ W.T, np.broadcast_to(W, (len(X), 2, 1)).copy()

    wide = dataclasses.replace(bench, sys=sys, constraints=ConstraintSet(n=1, batch_evaluator=batch, N=2))
    cfgs = [scalar_cfg(x0=np.array([x0]), t_final=0.2) for x0 in (10.0, 0.5)]
    with np.errstate(over="ignore", invalid="ignore"):
        blown, partner = run(wide, cfgs)
        single = run(wide, cfgs[1])
    assert blown.truncated and len(blown) == 11
    assert blown.note == "plant state became non-finite after t=0.1"
    assert np.isfinite(blown.states).all() and not blown.modified.any()
    assert not partner.truncated and len(partner) == 21
    assert_same_trace(partner, single)


@pytest.mark.gate
def test_lockstep_configs_must_share_the_clock():
    bench = get_benchmark("scalar-stable")
    for other in (scalar_cfg(dt=0.02), scalar_cfg(t_final=1.0), scalar_cfg(substeps=5)):
        with pytest.raises(InvalidInputError, match="share dt, t_final and substeps"):
            run(bench, [scalar_cfg(), other])
    with pytest.raises(InvalidInputError):
        run(bench, [])


@pytest.mark.parametrize("rows", [1, 2])
def test_desired_controller_output_of_the_wrong_shape_raises(rows):
    # checked on the one block call run makes: a (1,) output reshapes
    # silently into one row of (1, 1), and not into (2, 1)
    bench = get_benchmark("double-integrator-box")
    bad = dataclasses.replace(bench, desired_controller=lambda X: np.zeros(1))
    cfgs = [SimConfig(x0=np.zeros(2), t_final=0.1, dt=0.01, theta=2e4)] * rows
    message = f"returned shape (1,) for a block of {rows} states; expected ({rows}, 1)"
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        run(bad, cfgs)


@pytest.mark.parametrize("u", [np.zeros(1), np.zeros(2)], ids=["1", "2"])
def test_safe_controller_output_of_the_wrong_shape_raises_on_takeover(u):
    # no actuation: the first filter step is infeasible and the safe
    # controller takes over on the one-row block of that state, whose input
    # must have shape (1, m)
    bench = get_benchmark("scalar-unstable")
    sys = dataclasses.replace(bench.sys, actuation=lambda x: _zero_actuation(x))
    dead = dataclasses.replace(bench, sys=sys, safe_controller=lambda x: u)
    cfg = scalar_cfg(x0=np.array([0.9]), theta=4.0, t_final=0.1)
    message = f"returned shape {u.shape} for a block of 1 states; expected (1, 1)"
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        run(dead, cfg)


def test_filter_record_marks_infeasible_steps():
    bench = get_benchmark("scalar-unstable")
    sys = dataclasses.replace(bench.sys, actuation=lambda x: _zero_actuation(x))
    dead = dataclasses.replace(bench, sys=sys)
    for policy in ("backup-takeover", "clip"):
        trace = run(dead, scalar_cfg(x0=np.array([0.9]), theta=4.0, t_final=1.0,
                                     infeasible_policy=policy))
        assert trace.infeasible.any()
        np.testing.assert_array_equal(trace.filter_status == "infeasible", trace.infeasible)
        ran = trace.filter_status != ""
        # "" and NaN exactly where the filter did not run: takeover and the final row
        assert not ran[-1]
        np.testing.assert_array_equal(np.isnan(trace.slack), ~ran)
        np.testing.assert_array_equal(np.isnan(trace.multiplier), ~ran)
        assert np.all(trace.multiplier[trace.infeasible] == np.inf)
        if policy == "backup-takeover":
            first = int(np.flatnonzero(trace.infeasible)[0])
            assert not ran[first + 1:].any()
        else:
            assert ran[:-1].all()
    trace = run(bench, scalar_cfg(t_final=1.0))
    assert set(trace.filter_status[:-1]) <= {"analytic", "clipped"}
    assert np.all(trace.multiplier[:-1][trace.modified[:-1]] > 0.0)


@pytest.mark.gate
def test_sweep_min_h_soft_matches_simulate(tmp_path):
    thetas = [3.0, 47.0, 9000.0]
    common = ["--benchmark", "double-integrator-box", "--t-final", "2", "--out", str(tmp_path)]
    assert main(["sweep", "--thetas", ",".join(map(str, thetas))] + common) == 0
    rows = np.loadtxt(tmp_path / "sweep-double-integrator-box.csv", delimiter=",", skiprows=1)
    for theta, row in zip(thetas, rows):
        assert main(["simulate", "--theta", str(theta)] + common) == 0
        h_soft = np.loadtxt(tmp_path / "trace-double-integrator-box.csv", delimiter=",",
                            skiprows=1, usecols=4)
        assert row[0] == theta and row[2] == h_soft.min()


def test_one_constraint_family_is_its_own_smooth_minimum():
    # with N = 1 the smooth minimum is the constraint itself, bit for bit
    bench = get_benchmark("scalar-stable")
    W, b = np.array([[-1.0]]), np.array([1.0])

    def batch(X):
        return b + X @ W.T, np.broadcast_to(W, (len(X), 1, 1)).copy()

    cs = ConstraintSet(
        n=1, evaluators=(lambda x: (float(b[0] - x[0]), -np.ones(1)),), batch_evaluator=batch)
    trace = run(dataclasses.replace(bench, constraints=cs), scalar_cfg(theta=0.37, t_final=0.5))
    assert trace.h_soft.tobytes() == trace.h_hard.tobytes()
