import collections
import dataclasses
import hashlib
import io
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import softcbf.backup
import softcbf.sim
from softcbf import (
    ClassK,
    ClassKinfK,
    ConstraintSet,
    InvalidInputError,
    SimConfig,
    SimTrace,
    get_benchmark,
)
from softcbf.cli import main
from softcbf.safety_filter import make_rhs
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


@pytest.mark.parametrize("t_final, dt", [(1.0, 0.6), (1.0, 0.3), (1e300, 1e-300)])
def test_t_final_that_dt_does_not_divide_raises_naming_both(t_final, dt):
    # 1.0 / 0.6 and 1.0 / 0.3 used to round to 2 and 3 steps: traces that
    # ended at t = 1.2 and t = 0.9; the last ratio overflows to inf
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"t_final {t_final} is not a whole number of control steps dt {dt}")):
        scalar_cfg(t_final=t_final, dt=dt)


@pytest.mark.parametrize("t_final, dt", [(1.0, 0.1), (0.3, 0.1), (0.7, 0.1)])
def test_t_final_a_whole_number_of_steps_to_rounding_is_accepted(t_final, dt):
    # t_final / dt is 2.9999999999999996 for (0.3, 0.1) and 6.999999999999999
    # for (0.7, 0.1): off a whole number by rounding alone
    trace = run(get_benchmark("scalar-stable"), scalar_cfg(t_final=t_final, dt=dt))
    assert len(trace) == round(t_final / dt) + 1


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


# SHA-256 of the states, controls and h_soft bytes of 1 s pendulum-backup
# closed loops at theta = 75000, from x0 drawn uniformly in the disc of
# radius 0.08 at seeds 0-4 (perfbench's simulate-pendulum inputs): every
# step runs a one-row flow with sensitivities on the row path
PENDULUM_ROW_PATH_DIGESTS = [
    ("7194a72583a6feb19a00f642ba7277f407e0e2f2a854a75a9336d8577fc6bf2c",
     "a3eebebf337a0a8bad5932eaef6e09ead473ddcbcd2f15c1f1b9535889e06537",
     "49e4615edaee034e1391ff190b594990bc060d1bfb8e700776724aa183929927"),
    ("dfe9d48ec08fce968f852f86f8800844e6848ed91d0a3142b2509d0de18e7dfa",
     "1e5e2b49675f25b8f013ad08522e20bbd489aa2be86a9e8e925171eb9bf0c659",
     "4181ac4f5a95ad3abbebadd1beffd842a3fb17e50686ef5315527f230739bea3"),
    ("c3eabf31dac5fa209c4ee847597805e27564407a28bde20c4f6d08ac2f598408",
     "750bbe97c37dd788796201a28698086fbe929769a659dd08b71c49ee672f1c76",
     "fab33a5ca84ddb0c54deb01558f26cf990fbc09f7f4113da795f5d74112874ff"),
    ("8650c07b5a493d71f9ffe38c5b795e1b5fb21053303b75b3c6dd43dd4fd5e4e6",
     "2959e0c5b916299baa0f7ece410dae7d7f08f0024b8502057a34c2eb1ca0406c",
     "957bbfb20d7f2e87df9638d259d174a381a078ed6a9c92aa1dc09d73729c2e17"),
    ("6de6922467806be7bbda367a88d1ff875283a82acae3a99c4455943bd1e24bcf",
     "d73de47e0dd3aa98ab3b5559c040260368f78a884057d9c7d4a98cf63f881105",
     "704a8bf1bc42ac75adacea53a8fed2f1fa0c0ce1314d9f48484b0c3baa78df57"),
]


@pytest.mark.gate
def test_pendulum_row_path_closed_loops_match_recorded_digests():
    bench = get_benchmark("pendulum-backup")
    for seed, want in enumerate(PENDULUM_ROW_PATH_DIGESTS):
        rng = np.random.default_rng(seed)
        radius = 0.08 * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        x0 = np.array([radius * math.cos(angle), radius * math.sin(angle)])
        trace = run(bench, SimConfig(x0=x0, t_final=1.0, dt=0.01, theta=75000.0))
        assert len(trace) == 101
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (trace.states, trace.controls, trace.h_soft))
        assert got == want, seed


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


# every relaxation kind: linear rows, whose kappa a ClassK holds as a Python
# float whether given as a float, an int, a numpy float64 or a float32, take
# the block right-hand side, the others make_rhs
RELAXATIONS = [
    ClassK(), ClassK(kappa=0.7), ClassK(kappa=3), ClassK(kappa=np.float64(2.5)), ClassK(kappa=np.float32(1.1)),
    ClassK(kind="cubic", kappa=2.0), ClassK(kind="tanh", kappa=3.0, scale=0.5),
    ClassKinfK(alpha1=ClassK(kappa=2.0), beta=ClassK(kind="cubic", kappa=0.5)),
    ClassKinfK(alpha1=ClassK(kind="cubic", kappa=1.5), beta=ClassK(kind="tanh")),
]


@pytest.mark.gate
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_block_right_hand_side_equals_make_rhs_bitwise():
    # h and |x| on +-0.0, subnormals and large values: a cubic row raises
    # make_rhs's OverflowError, and the block raises it too
    cfgs = [SimConfig(x0=np.zeros(2), t_final=0.01, dt=0.01, theta=1.0, alpha=alpha) for alpha in RELAXATIONS]
    rhs_block = softcbf.sim._rhs_block(cfgs)
    assert softcbf.sim._rhs_block(cfgs[:5])(slice(None), np.array([1.0, -0.0, 2.0, 5e-324, 0.3]), None).tobytes() == (
        np.array([-1.0, 0.0, -6.0, -1e-323, -(float(np.float32(1.1)) * 0.3)]).tobytes())
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1e-110, -1e-120, 1e100, -3e102,
                1e200, -1e200, 1.7e308, -1e308]
    rng = np.random.default_rng(21)
    raised = checked = 0
    for _ in range(3000):
        R = int(rng.integers(1, len(cfgs) + 1))
        rows = slice(None) if R == len(cfgs) and rng.random() < 0.5 else np.sort(
            rng.choice(len(cfgs), R, replace=False))
        ids = np.arange(len(cfgs))[rows]
        h = np.where(rng.random(len(ids)) < 0.4, rng.choice(specials, len(ids)), rng.normal(scale=3.0, size=len(ids)))
        X = np.where(rng.random((len(ids), 2)) < 0.3, rng.choice(specials, (len(ids), 2)),
                     rng.normal(size=(len(ids), 2)))
        want = []
        try:
            for i, hj, x in zip(ids, h, X):
                alpha = cfgs[i].alpha
                want.append(make_rhs(alpha, hj, float(np.linalg.norm(x)) if isinstance(alpha, ClassKinfK) else None))
        except OverflowError:
            with pytest.raises(OverflowError):
                rhs_block(rows, h, X)
            raised += 1
            continue
        got = rhs_block(rows, h, X)
        assert got.dtype == np.float64 and got.tobytes() == np.array(want, dtype=np.float64).tobytes()
        checked += 1
    assert raised > 50 and checked > 2000


@pytest.mark.gate
@pytest.mark.filterwarnings("ignore:initial state is inside the hard set")
def test_lockstep_rows_mixing_every_relaxation_equal_single_runs_bitwise():
    # a normal block, and one without actuation whose rows halt, take over
    # or clip, so the filter runs on subsets of the rows
    bench = get_benchmark("double-integrator-box")
    cs = bench.constraints
    X = np.random.default_rng(6).uniform(*cs.bounding_box.T, size=(2000, cs.n))
    x0s = X[cs.evaluate_batch(X)[0].min(axis=1) > 0.0]
    cfgs = [SimConfig(x0=x0s[k], t_final=1.0, dt=0.01, theta=theta, alpha=alpha)
            for k, (theta, alpha) in enumerate(zip([3.0, 25.0, 400.0, 7e3, 9e4, 50.0, 1e3, 2e4, 6.0], RELAXATIONS))]
    for cfg, trace in zip(cfgs, run(bench, cfgs)):
        assert_same_trace(trace, run(bench, cfg))
    unstable = get_benchmark("scalar-unstable")
    dead = dataclasses.replace(unstable, sys=dataclasses.replace(unstable.sys, actuation=_zero_actuation))
    cfgs = [scalar_cfg(x0=np.array([x0]), theta=4.0, t_final=1.0, alpha=alpha, infeasible_policy=policy)
            for x0, alpha, policy in zip(
                np.linspace(-0.9, 0.9, len(RELAXATIONS)), RELAXATIONS,
                itertools.cycle(["clip", "backup-takeover", "clip", "halt"]))]
    traces = run(dead, cfgs)
    assert any(t.truncated for t in traces) and any((t.filter_status == "").sum() > 1 for t in traces)
    for cfg, trace in zip(cfgs, traces):
        assert_same_trace(trace, run(dead, cfg))


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


def test_rows_that_all_halt_at_one_step_leave_an_empty_plant_block():
    # outward drift with no actuation, as a ConstantActuation under a fused
    # plant with a drift row: every row halts at the first step, so that
    # step's plant block is empty and must not take the row path
    bench = get_benchmark("scalar-unstable")
    drift, actuation = bench.sys.drift, softcbf.ConstantActuation([[0.0]])
    plant = softcbf.FusedPlant(lambda X, U: drift(X) + (actuation(X) @ U[:, :, None])[:, :, 0],
                               drift, actuation, lambda x: (x[0],))
    dead = dataclasses.replace(bench, sys=dataclasses.replace(bench.sys, actuation=actuation, fused=plant))
    cfgs = [scalar_cfg(x0=np.array([x0]), theta=4.0, t_final=1.0, infeasible_policy="halt") for x0 in (0.9, -0.9)]
    assert [(t.truncated, len(t)) for t in run(dead, cfgs)] == [(True, 1), (True, 1)]


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


def test_steps_the_filter_found_infeasible_are_neither_modified_nor_near_singular():
    # no actuation: every filtered step is infeasible, with a = 0, and none is
    # an act of the filter, so none counts as near-singular
    bench = get_benchmark("scalar-unstable")
    dead = dataclasses.replace(bench, sys=dataclasses.replace(bench.sys, actuation=_zero_actuation))
    trace = run(dead, scalar_cfg(x0=np.array([0.9]), theta=4.0, t_final=1.0, infeasible_policy="clip"))
    assert trace.infeasible[:-1].all() and trace.near_singular_steps == 0
    # a box too small to hold the outward drift: the boxed filter reports the
    # best corner, which differs from u_des, yet the step is not recorded as
    # modified
    small = dataclasses.replace(bench, sys=dataclasses.replace(bench.sys, input_box=np.array([[-0.05, 0.05]])))
    trace = run(small, scalar_cfg(x0=np.array([0.9]), theta=4.0, t_final=1.0, infeasible_policy="clip"))
    assert trace.infeasible[:-1].all() and not trace.modified.any()
    # a tiny actuation: the filter acts at every step with |a| below
    # 1e-6 (1 + |u_des|), and each act counts
    weak = dataclasses.replace(bench, sys=dataclasses.replace(
        bench.sys, actuation=lambda X: np.full((len(X), 1, 1), 1e-9)))
    trace = run(weak, scalar_cfg(x0=np.array([0.9]), theta=4.0, t_final=0.1))
    assert trace.near_singular_steps == trace.modified.sum() == 10


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


@pytest.mark.parametrize("substeps", [2.5, math.nan, math.inf, "10"])
def test_non_integral_substeps_raise(substeps):
    with pytest.raises(InvalidInputError, match="substeps must be an integer"):
        scalar_cfg(substeps=substeps)


def test_integral_float_substeps_run_as_an_int():
    cfg = scalar_cfg(substeps=5.0, t_final=0.05)
    assert cfg.substeps == 5 and isinstance(cfg.substeps, int)
    got = run(get_benchmark("scalar-stable"), cfg)
    want = run(get_benchmark("scalar-stable"), scalar_cfg(substeps=5, t_final=0.05))
    assert_same_trace(got, want)


@pytest.mark.parametrize("x0", [[math.nan, 0.0], [0.0, -math.inf]], ids=["nan", "-inf"])
def test_non_finite_x0_raises_naming_x0(x0):
    with pytest.raises(InvalidInputError, match="x0 must be finite"):
        SimConfig(x0=np.array(x0), t_final=0.1, dt=0.01, theta=10.0)


def plant_specials(edge):
    """+-0.0, subnormals of both signs and the box edges +-edge."""
    return [0.0, -0.0, 5e-324, -5e-324, -1e-310, edge, -edge]


def plant_draws(rng, size, scale, edge):
    """Uniform draws in [-scale, scale] with plant_specials(edge) mixed in."""
    out = rng.uniform(-scale, scale, size=size)
    special = rng.uniform(size=size) < 0.3
    out[special] = rng.choice(plant_specials(edge), size=special.sum())
    return out


# the row-path benchmarks with the largest input magnitude their rows take:
# the pendulum's input bound, and about the desired input on the corners of
# each box (double integrator |-3 (p - 3) - 3 v| <= 21.6, scalar
# |-1.5 (x - 2)| <= 4.95, annulus |2 x_i| <= 2.2)
ROW_PATH_PLANTS = {"pendulum-backup": 3.0, "double-integrator-box": 21.6, "scalar-stable": 4.95,
                   "scalar-unstable": 4.95, "thin-annulus": 2.2}


def hand_written_di_drift(X):
    out = np.zeros(X.shape)
    out[:, 0] = X[:, 1]
    return out


# the linear drifts as the benchmarks wrote them before LinearDrift, which
# the block step takes as plain callables
HAND_WRITTEN_DRIFTS = {
    "double-integrator-box": hand_written_di_drift,
    "scalar-stable": lambda X: -1.0 * X,
    "scalar-unstable": lambda X: 1.0 * X,
    "thin-annulus": np.zeros_like,
}


@pytest.fixture
def block_steps(monkeypatch):
    """Counts sim's block RK4 steps by block size."""
    steps = collections.Counter()
    step = softcbf.sim.rk4_step

    def counted(F, X, h):
        steps[len(X)] += 1
        return step(F, X, h)

    monkeypatch.setattr(softcbf.sim, "rk4_step", counted)
    return steps


@pytest.mark.gate
@pytest.mark.parametrize("name", ROW_PATH_PLANTS)
def test_plant_row_path_equals_block_plant_bitwise(name, block_steps):
    # sim._plant_block on a block of up to _PLANT_ROWS rows runs each row on
    # the linear drift's inline kernel or the pendulum's drift row form;
    # with a hand-written drift and no fused plant it runs the numpy block
    # step on the same rows
    bench = get_benchmark(name)
    sys = bench.sys
    assert isinstance(sys.drift, softcbf.LinearDrift) == (name in HAND_WRITTEN_DRIFTS)
    blocks = dataclasses.replace(sys, drift=HAND_WRITTEN_DRIFTS.get(name, sys.drift), fused=None)
    box, u_max, n, m = bench.constraints.bounding_box, ROW_PATH_PLANTS[name], sys.n, sys.m
    # every combination of special entries, then random draws with some
    corners = np.array(list(itertools.product(
        *[plant_specials(edge) for edge in box[:, 1]], *[plant_specials(u_max)] * m)))
    rng = np.random.default_rng(21)
    X = np.vstack([corners[:, :n], np.column_stack([plant_draws(rng, 300, edge, edge) for edge in box[:, 1]])])
    U = np.vstack([corners[:, n:], plant_draws(rng, (300, m), u_max, u_max)])
    P = softcbf.sim._PLANT_ROWS
    for B in range(1, P + 2):
        for r in range(0, len(X), B):
            Xb, Ub = X[r:r + B], U[r:r + B]
            block_steps.clear()
            got = softcbf.sim._plant_block(sys, Xb, Ub, 0.01, 10)
            # the row path makes no block step; a block above _PLANT_ROWS
            # rows takes the block step, once per substep
            assert block_steps == ({} if len(Xb) <= P else {len(Xb): 10})
            want = softcbf.sim._plant_block(blocks, Xb, Ub, 0.01, 10)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), (Xb, Ub)
    # the rows of one block give the same bits, whichever path they take
    assert len(X) == {2: 349, 3: 643, 4: 2701}[n + m]
    assert softcbf.sim._plant_block(sys, X, U, 0.01, 10).tobytes() == np.concatenate(
        [softcbf.sim._plant_block(sys, x[None], u[None], 0.01, 10) for x, u in zip(X, U)]).tobytes()


def linear_drift_draws(rng, n):
    """A random (n, n) matrix with zero entries, now and then a zero row,
    and +-1.0, subnormal and tiny entries among the nonzero ones."""
    A = rng.normal(scale=2.0, size=(n, n))
    pick = rng.uniform(size=A.shape)
    A[pick < 0.3] = 0.0
    A[(pick >= 0.3) & (pick < 0.4)] = rng.choice([1.0, -1.0, 5e-324, -1e-310, 1e-300])
    if rng.uniform() < 0.3:
        A[rng.integers(n)] = 0.0
    return A


@pytest.mark.gate
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_linear_drift_kernel_equals_its_block_step_bitwise(n, block_steps):
    # random linear plants on a constant actuation: the inline kernel of
    # each small block against the block step on the drift's block form
    rng = np.random.default_rng(300 + n)
    for _ in range(40):
        drift = softcbf.LinearDrift(linear_drift_draws(rng, n))
        m = int(rng.integers(1, 3))
        G = rng.normal(size=(n, m))
        G[rng.uniform(size=G.shape) < 0.3] = 0.0
        sys = softcbf.ControlAffineSystem(n=n, m=m, drift=drift, actuation=softcbf.ConstantActuation(G))
        blocks = dataclasses.replace(sys, drift=lambda X, drift=drift: drift(X))
        B = int(rng.integers(1, softcbf.sim._PLANT_ROWS + 1))
        X = plant_draws(rng, (B, n), 2.0, 1.5)
        U = plant_draws(rng, (B, m), 5.0, 5.0)
        dt, substeps = float(rng.choice([0.01, 0.05, 0.2])), int(rng.integers(1, 11))
        block_steps.clear()
        got = softcbf.sim._plant_block(sys, X, U, dt, substeps)
        assert not block_steps
        want = softcbf.sim._plant_block(blocks, X, U, dt, substeps)
        assert block_steps == {B: substeps}
        assert got.tobytes() == want.tobytes(), (drift.A, X, U)


def test_linear_drift_block_form_sums_each_row_in_order():
    drift = softcbf.LinearDrift([[0.0, 2.0, -3.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    assert drift.terms == (((1, 2.0), (2, -3.0)), (), ((0, 1.0), (1, 1.0), (2, 1.0)))
    X = [[1e16, 1.0, 1.0], [-0.0, -0.0, -0.0], [0.1, 0.2, 0.3]]
    out = drift(np.array(X))
    want = [[2.0 * x1 + -3.0 * x2, 0.0, 1.0 * x0 + 1.0 * x1 + 1.0 * x2] for x0, x1, x2 in X]
    assert out.tobytes() == np.array(want).tobytes()
    # a left fold: 1e16 + 1.0 rounds back to 1e16 before the second 1.0
    assert out[0, 2] == 1e16 and np.signbit(out[1]).tolist() == [False, False, True]


@pytest.mark.parametrize("A", [[[1.0, math.inf], [0.0, 0.0]], [[math.nan]], [1.0, 2.0], [[1.0, 2.0]]])
def test_linear_drift_refuses_a_non_finite_or_non_square_matrix(A):
    with pytest.raises(InvalidInputError, match="finite and square"):
        softcbf.LinearDrift(A)


def test_linear_drift_must_match_the_system_dimension():
    with pytest.raises(InvalidInputError, match=r"linear drift matrix \(1, 1\) does not match n = 2"):
        softcbf.ControlAffineSystem(n=2, m=1, drift=softcbf.LinearDrift([[1.0]]),
                                    actuation=softcbf.ConstantActuation([[0.0], [1.0]]))


def test_drift_row_applies_only_to_the_drift_and_actuation_it_was_declared_for():
    calls = collections.Counter()
    bench = get_benchmark("pendulum-backup")
    sys = bench.sys

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    plant = dataclasses.replace(sys.fused, drift_row=counted("row", sys.fused.drift_row))
    X, U = np.array([[0.3, -0.2]]), np.array([[1.5]])
    want = softcbf.sim._plant_block(sys, X, U, 0.01, 10)
    for swapped in (dict(drift=counted("drift", sys.drift)),
                    dict(actuation=softcbf.ConstantActuation(sys.actuation.G))):
        other = dataclasses.replace(sys, fused=plant, **swapped)
        assert softcbf.sim._plant_block(other, X, U, 0.01, 10).tobytes() == want.tobytes()
    assert calls == {"drift": 40}


def test_value_error_inside_a_drift_row_form_propagates_unchanged():
    calls = collections.Counter()
    failure = ValueError("row form failed")
    sys = get_benchmark("pendulum-backup").sys

    def failing_row(x):
        calls["row"] += 1
        if calls["row"] == 6:
            raise failure
        return sys.fused.drift_row(x)

    bad = dataclasses.replace(sys, fused=dataclasses.replace(sys.fused, drift_row=failing_row))
    with pytest.raises(ValueError) as err:
        softcbf.sim._plant_block(bad, np.full((1, 2), 0.01), np.ones((1, 1)), 0.01, 10)
    assert err.value is failure


@pytest.mark.gate
@pytest.mark.parametrize("rows", [1, softcbf.sim._PLANT_ROWS])
@pytest.mark.parametrize("later", [False, True], ids=["initial", "later"])
@pytest.mark.parametrize("extra", [1, -1])
def test_drift_row_form_of_the_wrong_length_raises_naming_it(extra, later, rows):
    calls = collections.Counter()
    bench = get_benchmark("pendulum-backup")
    sys = bench.sys
    # a later wrong output comes in the last row's first RK4 substep
    wrong_from = 4 + 4 * 10 * (rows - 1)

    def wrong_row(x):
        calls["row"] += 1
        out = sys.fused.drift_row(x)
        if later and calls["row"] < wrong_from:
            return out
        return out + (0.0,) if extra > 0 else out[:1]

    bad = dataclasses.replace(sys, fused=dataclasses.replace(sys.fused, drift_row=wrong_row))
    # the output of 2 + extra values, named in full
    values = ", ".join([r"[^,()]+"] * (2 + extra)) + ("," if extra < 0 else "")
    match = rf"wrong_row returned \({values}\) for one state; expected 2 floats"
    with pytest.raises(InvalidInputError, match=match):
        softcbf.sim._plant_block(bad, np.full((rows, 2), 0.01), np.ones((rows, 1)), 0.01, 10)
    assert calls["row"] == (wrong_from if later else 1)
    # a block above _PLANT_ROWS rows does not take the row path
    rows = softcbf.sim._PLANT_ROWS + 1
    softcbf.sim._plant_block(bad, np.full((rows, 2), 0.01), np.ones((rows, 1)), 0.01, 10)
