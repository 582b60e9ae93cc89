"""The benchmark's workloads.

Each workload builds its inputs from the seed alone, runs one user-level
operation per repeat through softcbf's public entry points, and checks the
outputs.  A workload also names the callable whose successive calls mark
one step of its loop, for the step latency.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import shutil
from pathlib import Path
from unittest import mock

import numpy as np

import softcbf
import softcbf.backup
import softcbf.cli

from measure import HostSpeed, StepClock

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# certificate numbers every workload records next to its timings
CERT_KEYS = ("theta_star", "M", "r", "d", "verify_min_lie")

# pendulum-backup's certified threshold at seed 0 with the default band,
# density and n_check is 73444.49, so 1.01 times it is 74179; the closed
# loop runs at a fixed theta above that and never certifies
PENDULUM_THETA = 75000.0
# the disc of this radius around the upright lies inside the backup
# terminal set x'Px <= 0.05 (smallest semi-axis 0.089)
PENDULUM_X0_RADIUS = 0.08


def read_report(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def run_cli(argv) -> tuple[int, str]:
    """softcbf's command line in-process; returns the exit code and what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = softcbf.cli.main(argv)
    return code, buf.getvalue()


def certificate(report: dict) -> dict:
    return {key: _number(report.get(key)) for key in CERT_KEYS}


class Workload:
    name = ""
    benchmark = ""
    stride = 1

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def clock(self, speed: HostSpeed) -> StepClock:
        return StepClock(speed, self.stride)

    def inputs(self, seed: int, quick: bool) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """Build what every repeat reuses; not timed as part of an operation."""

    def run_once(self, inputs: dict, clock: StepClock, instrument):
        """The timed operation; instrument maps a Benchmark to the one to use."""
        raise NotImplementedError

    def outputs(self, inputs: dict, raw) -> dict:
        """Result row of one operation: certificate numbers, trace minima, status."""
        raise NotImplementedError

    def check(self, inputs: dict, out: dict, checks) -> None:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


class CertifyPendulum(Workload):
    name = "certify-pendulum"
    benchmark = "pendulum-backup"
    # one RK4 step of the batched flow evaluates the backup controller four
    # times; the controller is also called outside the flows (verification,
    # boundary probes), so only calls inside a flow are stamped
    stride = 4

    def clock(self, speed):
        return StepClock(speed, self.stride, live=False)

    def inputs(self, seed, quick):
        argv = ["certify", "--benchmark", self.benchmark, "--seed", str(seed),
                "--out", str(self.out_dir)]
        if quick:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            cfg = self.out_dir / "quick.cfg"
            cfg.write_text("n_check = 30\nprecondition_points = 300\n")
            argv += ["--density", "30", "--config", str(cfg)]
        return {"argv": argv}

    def run_once(self, inputs, clock, instrument):
        real = softcbf.cli.get_benchmark

        def get_benchmark(name):
            bench = instrument(real(name))
            backup = dataclasses.replace(bench.backup, k_b=clock.wrap(bench.backup.k_b))
            return dataclasses.replace(bench, backup=backup)

        flow = clock.segment(softcbf.backup.integrate_flow_batch)
        with mock.patch.object(softcbf.cli, "get_benchmark", get_benchmark), \
                mock.patch.object(softcbf.backup, "integrate_flow_batch", flow):
            return run_cli(inputs["argv"])

    def outputs(self, inputs, raw):
        code, _ = raw
        report = read_report(self.out_dir / f"certify-{self.benchmark}.txt")
        return {
            "exit_code": code,
            **certificate(report),
            "verify_containment": report.get("verify_containment") == "True",
            "verify_boundary_points": _number(report.get("verify_boundary_points")),
            "tube_samples": _number(report.get("tube_samples")),
            "min_h_soft": None,
            "min_h_hard": None,
        }

    def check(self, inputs, out, checks):
        checks.check("certify exits 0", out["exit_code"] == 0, f"exit {out['exit_code']}")
        lie = out["verify_min_lie"]
        checks.check("verify_min_lie > 0", lie is not None and lie > 0.0, f"{lie}")
        checks.check("verify_containment", out["verify_containment"])


class SimulatePendulum(Workload):
    name = "simulate-pendulum"
    benchmark = "pendulum-backup"

    def inputs(self, seed, quick):
        rng = np.random.default_rng(seed)
        radius = PENDULUM_X0_RADIUS * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        return {
            "x0": [radius * math.cos(angle), radius * math.sin(angle)],
            "theta": PENDULUM_THETA,
            "t_final": 0.05 if quick else 1.0,
            "dt": 0.01,
        }

    def setup(self):
        self.bench = softcbf.get_benchmark(self.benchmark)

    def run_once(self, inputs, clock, instrument):
        bench = instrument(self.bench)
        bench = dataclasses.replace(bench, desired_controller=clock.wrap(bench.desired_controller))
        cfg = softcbf.SimConfig(
            x0=np.array(inputs["x0"]), t_final=inputs["t_final"], dt=inputs["dt"],
            theta=inputs["theta"],
        )
        clock.new_segment()
        return softcbf.run(bench, cfg)

    def outputs(self, inputs, trace):
        return {
            **dict.fromkeys(CERT_KEYS),
            "theta": inputs["theta"],
            "min_h_soft": trace.min_h_soft,
            "min_h_hard": float(trace.h_hard.min()),
            "steps": len(trace) - 1,
            "truncated": trace.truncated,
            "infeasible_steps": int(trace.infeasible.sum()),
            "modified_frac": float(trace.modified[:-1].mean()),
            "final_state": trace.states[-1].tolist(),
        }

    def check(self, inputs, out, checks):
        checks.check("trace not truncated", not out["truncated"])
        checks.check("no infeasible steps", out["infeasible_steps"] == 0,
                     f"{out['infeasible_steps']} infeasible")
        checks.check("min_h_soft >= SAFETY_TOLERANCE",
                     out["min_h_soft"] >= softcbf.SAFETY_TOLERANCE, f"{out['min_h_soft']}")


class SweepCompact(Workload):
    name = "sweep-compact"
    benchmark = "double-integrator-box"

    def inputs(self, seed, quick):
        rng = np.random.default_rng(seed)
        n = 3 if quick else 6
        exps = np.linspace(math.log10(3.0), 5.0, n)
        exps[1:-1] += rng.uniform(-0.3, 0.3, n - 2)
        thetas = [float(t) for t in 10.0**exps]
        argv = ["sweep", "--benchmark", self.benchmark, "--seed", str(seed),
                "--thetas", ",".join(repr(t) for t in thetas), "--out", str(self.out_dir)]
        if quick:
            argv += ["--t-final", "0.2"]
        # the certificate the rows are judged against, from plain softcbf certify
        code, _ = run_cli(["certify", "--benchmark", self.benchmark, "--seed", str(seed),
                           "--out", str(self.out_dir)])
        report = read_report(self.out_dir / f"certify-{self.benchmark}.txt")
        return {"argv": argv, "thetas": thetas, "certify_exit_code": code,
                "certificate": certificate(report)}

    def run_once(self, inputs, clock, instrument):
        real_run = softcbf.cli.run

        def run(bench, cfg):
            clock.new_segment()
            bench = dataclasses.replace(bench, desired_controller=clock.wrap(bench.desired_controller))
            return real_run(bench, cfg)

        real_get = softcbf.cli.get_benchmark
        with mock.patch.object(softcbf.cli, "run", run), \
                mock.patch.object(softcbf.cli, "get_benchmark", lambda name: instrument(real_get(name))):
            return run_cli(inputs["argv"])

    def outputs(self, inputs, raw):
        code, _ = raw
        lines = (self.out_dir / f"sweep-{self.benchmark}.csv").read_text().splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        return {
            "exit_code": code,
            **inputs["certificate"],
            "min_h_soft": min((row[2] for row in rows), default=None),
            "min_h_hard": None,
            "rows": rows,
        }

    def check(self, inputs, out, checks):
        checks.check("certify exits 0", inputs["certify_exit_code"] == 0)
        checks.check("sweep exits 0", out["exit_code"] == 0, f"exit {out['exit_code']}")
        rows = out["rows"]
        checks.check("one row per theta", len(rows) == len(inputs["thetas"]), f"{len(rows)} rows")
        checks.check("rows finite", all(math.isfinite(v) for row in rows for v in row))
        star = out["theta_star"]
        for theta, lie, _, _ in rows:
            if star is not None and theta > star:
                checks.check(f"min_boundary_lie > 0 at theta {theta:.6g}", lie > 0.0, f"{lie}")


WORKLOADS = {cls.name: cls for cls in (CertifyPendulum, SimulatePendulum, SweepCompact)}
