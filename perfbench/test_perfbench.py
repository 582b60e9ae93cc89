"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench -q

The end-to-end tests run every workload at its --quick size (about a
minute in all).
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from measure import (  # noqa: E402
    MIN_BEYOND, NOMINAL_REFERENCE_S, Checks, HostSpeed, StepClock, covered, percentile,
    samples_beyond,
)
from tracing import Tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_p95_needs_200_samples_for_ten_beyond():
    # run.py keeps running until samples_beyond(n, 950) >= MIN_BEYOND
    assert MIN_BEYOND == 10
    assert samples_beyond(200, 950) == 10
    assert samples_beyond(199, 950) == 9
    assert samples_beyond(20, 500) == 10 and samples_beyond(19, 500) == 9
    assert samples_beyond(1000, 990) == 10
    assert percentile(list(range(100, 0, -1)), 950) == 95
    assert percentile([3.0], 500) == 3.0


def test_covered_merges_overlapping_children_and_clips_to_the_span():
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert covered(0.0, 10.0, [(-1.0, 1.0), (9.0, 12.0)]) == 2.0
    assert covered(0.0, 10.0, []) == 0.0


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    tracer.spans = [
        [0, None, "cli", 0.0, 10.0, None],
        [1, 0, "geometry.sample_tube", 1.0, 4.0, None],
        [2, 1, "backup.flow", 1.5, 3.5, None],
        [3, 0, "certify.probe", 5.0, 9.0, None],
    ]
    assert tracer.self_times() == [3.0, 1.0, 2.0, 4.0]
    assert tracer.under(2, "cli") and not tracer.under(3, "geometry.sample_tube")


def test_live_spans_nest_and_restore_the_parent():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: 1)
    outer = tracer.span("outer", lambda: inner() + inner())
    assert outer() == 2
    assert [(s[1], s[2]) for s in tracer.spans] == [(None, "outer"), (0, "inner"), (0, "inner")]
    selfs = tracer.self_times()
    assert 0.0 <= selfs[0] <= tracer.spans[0][4] - tracer.spans[0][3]


def test_step_clock_strides_and_never_bridges_segments():
    clock = StepClock(HostSpeed(), stride=2)
    clock.segments = [[0.0, 0.1, 0.2, 0.3, 0.4], [9.0, 9.1, 9.2]]
    assert clock.intervals() == [(0.0, 0.2), (0.2, 0.4), (9.0, 9.2)]
    calls = StepClock(HostSpeed(every=math.inf))
    stamped = calls.wrap(lambda x: x + 1)
    assert stamped(1) == 2 and stamped(2) == 3
    calls.new_segment()
    stamped(3)
    assert [len(s) for s in calls.segments] == [2, 1]
    assert len(calls.intervals()) == 1


class CountingSpeed(HostSpeed):
    def __init__(self):
        super().__init__(every=0.0)
        self.probes = 0

    def probe(self):
        self.probes += 1


def test_step_clock_off_segment_calls_are_not_stamped():
    clock = StepClock(CountingSpeed(), stride=4, live=False)
    step = clock.wrap(lambda: None)
    step()  # outside any segment: neither stamped nor probed

    def flow(calls):
        for _ in range(calls):
            step()
        return calls

    flow = clock.segment(flow)
    assert flow(12) == 12
    step()
    flow(9)
    assert [len(s) for s in clock.segments] == [12, 9, 0]
    assert len(clock.intervals()) == 2 + 2
    # probed only before calls 0, 4, 8 of each segment: those that close a step
    assert clock.speed.probes == 3 + 3
    assert not clock.live


def test_host_speed_rescales_to_the_nominal_kernel_time():
    speed = HostSpeed()
    # the kernel ran at nominal speed until t=10, then took twice as long from t=20
    speed.taus = [0.0, 10.0, 20.0, 30.0]
    speed.refs = [NOMINAL_REFERENCE_S, NOMINAL_REFERENCE_S, 2 * NOMINAL_REFERENCE_S,
                  2 * NOMINAL_REFERENCE_S]
    assert speed.seconds(0.0, 10.0) == pytest.approx(10.0)
    assert speed.seconds(20.0, 30.0) == pytest.approx(5.0)
    # linear in the kernel time between probes, integrated piecewise
    assert speed.seconds(10.0, 20.0) == pytest.approx(7.5)
    assert speed.gap_seconds([(1.0, 1.5), (25.0, 25.5)]) == pytest.approx([0.5, 0.25])
    assert speed.seconds(28.0, 40.0) == pytest.approx(6.0)  # constant past the last probe


def test_probes_leave_the_probe_free_clock_still():
    speed = HostSpeed()
    before = speed.now()
    speed.probe()
    after = speed.now()
    assert after - before < 0.5 * speed.refs[0]
    assert speed.taus[0] == pytest.approx(before, abs=1e-3)


def test_checks_count_failures_against_attempts():
    checks = Checks()
    checks.check("a", True)
    checks.check("b", False, "detail")
    checks.check("c", True)
    assert (checks.attempted, checks.failed) == (3, 1)
    assert checks.failed_frac == pytest.approx(1 / 3)
    assert checks.failures == ["b: detail"]


def test_failed_outputs_count_as_failed_operations(tmp_path):
    checks = Checks()
    sim = workloads.SimulatePendulum(tmp_path)
    sim.check({}, {"truncated": True, "infeasible_steps": 2, "min_h_soft": -1.0}, checks)
    cert = workloads.CertifyPendulum(tmp_path)
    cert.check({}, {"exit_code": 2, "verify_min_lie": None, "verify_containment": False}, checks)
    sweep = workloads.SweepCompact(tmp_path)
    sweep.check(
        {"certify_exit_code": 0, "thetas": [3.0, 1e5]},
        {"exit_code": 0, "theta_star": 100.0,
         "rows": [[3.0, -1.0, 0.5, 0.0], [1e5, -0.1, math.nan, 0.0]]},
        checks,
    )
    # sweep: 4 checks on the run, then one per row above theta_star
    assert checks.attempted == 3 + 3 + 5
    assert checks.failed == 3 + 3 + 2


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def outputs_line(done):
    return next(line for line in done.stdout.splitlines() if line.startswith("outputs "))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_meets_the_output_contract(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    result = last_json(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_gives_identical_outputs_across_processes():
    args = ("--workload", "simulate-pendulum", "--seed", "5", "--seconds", "0", "--quick")
    assert outputs_line(run_bench(*args)) == outputs_line(run_bench(*args))


def plain_env() -> dict:
    """The environment of a plain softcbf run: no BLAS pinning."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def test_certificate_equals_plain_softcbf_certify(tmp_path):
    done = run_bench("--workload", "certify-pendulum", "--seed", "2", "--seconds", "0", "--quick")
    bench_out = json.loads(outputs_line(done)[len("outputs "):])
    cfg = tmp_path / "quick.cfg"
    cfg.write_text("n_check = 30\nprecondition_points = 300\n")
    plain = subprocess.run(
        [sys.executable, "-m", "softcbf.cli", "certify", "--benchmark", "pendulum-backup",
         "--seed", "2", "--density", "30", "--config", str(cfg), "--out", str(tmp_path)],
        env=plain_env(), capture_output=True, text=True, timeout=170,
    )
    assert plain.returncode == 0, plain.stderr
    report = workloads.read_report(tmp_path / "certify-pendulum-backup.txt")
    for key in workloads.CERT_KEYS:
        assert bench_out[key] == float(report[key]), key


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "sweep-compact", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
