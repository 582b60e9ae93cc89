"""softcbf benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-pendulum --seed 0 --seconds 30 --trace 0

The run imports softcbf from the checkout's src/ and fails when that is
missing.  With --trace 0 it measures the end-to-end metrics: set-up time
(median over fresh processes), the median wall time of the workload's
operation, the step latency p50 and p95, and peak memory.  Times are
rescaled to a nominal host speed with a reference kernel probed throughout
the run (measure.HostSpeed).  The measured times are printed beside them
and kept with them in the run's record, .perfbench_out/result-<workload>-
<seed>-trace<0|1>.json, which also holds the inputs and outputs.
With --trace 1 it runs the operation once untraced and once traced and
reports per-layer numbers.  Every operation's outputs are checked.  The
last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics, whose names and units BENCHMARK.json lists.
--quick runs a tiny size of the workload, for the harness self-tests.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

# pin BLAS to one thread before numpy loads (measure imports it): steadier
# timings on a shared host; set-up processes inherit the setting
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

from measure import (  # noqa: E402
    MIN_BEYOND, NOMINAL_REFERENCE_S, Checks, HostSpeed, median, percentile, samples_beyond,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 15
MIN_OPS = 2  # so every run compares two operations at the same seed


def load_softcbf():
    """Import softcbf from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "softcbf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no softcbf sources under {src}")
    sys.path.insert(0, str(src))
    import softcbf

    if Path(softcbf.__file__).resolve().parent != (src / "softcbf").resolve():
        raise SystemExit(f"perfbench: imported softcbf from {softcbf.__file__}, not {src}")


def setup_runs(benchmark: str, repeats: int, speed: HostSpeed) -> list[tuple[float, float, float]]:
    """Set-ups in fresh processes, as (start, end, seconds the process took
    by its own clock); one untimed process warms the bytecode and file
    caches first."""
    runs = []
    for _ in range(repeats + 1):
        speed.probe()
        start = speed.now()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), benchmark],
            capture_output=True, text=True, timeout=60, check=True,
        )
        end = speed.now()
        speed.probe()
        runs.append((start, end, float(done.stdout.strip().splitlines()[-1])))
    return runs[1:]


def timed(workload, inputs, instrument, speed: HostSpeed):
    """One operation: its (start, end) on the probe-free clock, outputs and step clock."""
    clock = workload.clock(speed)
    speed.probe()
    start = speed.now()
    raw = workload.run_once(inputs, clock, instrument)
    end = speed.now()
    speed.probe()
    return (start, end), workload.outputs(inputs, raw), clock


def as_is(bench):
    return bench


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    load_softcbf()
    from workloads import OUT, WORKLOADS

    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload](OUT / f"{args.workload}-{os.getpid()}")
    try:
        return measure(workload, args, spec)
    finally:
        workload.close()


def measure(workload, args, spec) -> int:
    checks = Checks()
    inputs = workload.inputs(args.seed, args.quick)
    speed = HostSpeed(every=math.inf) if args.trace else HostSpeed()
    setup = [] if args.trace else setup_runs(
        workload.benchmark, 1 if args.quick else SETUP_REPEATS, speed)
    workload.setup()

    rows, ops, intervals = [], [], []
    measured = {}
    if args.trace:
        from tracing import Tracer, layer_metrics

        op, out, _ = timed(workload, inputs, as_is, speed)
        rows.append(out)
        ops.append(op)
        tracer = Tracer()
        with tracer.install():
            traced, out, _ = timed(workload, inputs, tracer.instrument, speed)
        rows.append(out)
        # span seconds are as measured, so the traced wall is too; the
        # overhead compares nominal walls, so host-speed swings cancel
        metrics = layer_metrics(tracer, traced[1] - traced[0],
                                speed.seconds(*traced) - speed.seconds(*op))
        tracer.write(workload.out_dir.parent / f"spans-{args.workload}-{args.seed}.json")
    else:
        start = time.perf_counter()
        # p95 needs MIN_BEYOND steps beyond it, so a full-size run goes on until it has them
        while (len(ops) < MIN_OPS or time.perf_counter() - start < args.seconds
               or (samples_beyond(len(intervals), 950) < MIN_BEYOND and not args.quick)):
            op, out, clock = timed(workload, inputs, as_is, speed)
            rows.append(out)
            ops.append(op)
            intervals.extend(clock.intervals())
    # converted to nominal seconds once the run is over
    walls = [end - begin for begin, end in ops]
    nominal_walls = [speed.seconds(*op) for op in ops]
    gaps = [(b - a) * 1e3 for a, b in intervals]
    nominal_gaps = (speed.gap_seconds(intervals) * 1e3).tolist()
    if not args.trace:
        nominal_setup = [inner * speed.seconds(begin, end) / (end - begin)
                         for begin, end, inner in setup]
        metrics = {
            "setup_s": median(nominal_setup),
            "wall_s": median(nominal_walls),
            "step_ms.p50": percentile(nominal_gaps, 500),
            "step_ms.p95": percentile(nominal_gaps, 950),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        # the same timings before host-speed scaling
        measured = {
            "setup_s": median(inner for _, _, inner in setup),
            "wall_s": median(walls),
            "step_ms.p50": percentile(gaps, 500),
            "step_ms.p95": percentile(gaps, 950),
        }

    for out in rows:
        workload.check(inputs, out, checks)
    first = json.dumps(rows[0], sort_keys=True)
    for out in rows[1:]:
        checks.check("bit-identical outputs at the same seed",
                     json.dumps(out, sort_keys=True) == first)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(walls)} untraced operations, walls as measured {[round(w, 4) for w in walls]}, "
          f"nominal {[round(w, 4) for w in nominal_walls]}")
    if gaps:
        print(f"steps timed: {len(gaps)}, beyond p95: {samples_beyond(len(gaps), 950)}")
    if speed.refs:
        print(f"reference kernel: median {median(speed.refs)!r} s over {len(speed.refs)} probes, "
              f"nominal {NOMINAL_REFERENCE_S!r} s")
    for name, value in metrics.items():
        extra = f"  (measured {measured[name]!r})" if name in measured else ""
        print(f"  {name:32s} {value!r}{extra}")
    print(f"  failed_frac {checks.failed}/{checks.attempted} = {checks.failed_frac!r}")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    print("inputs " + json.dumps(inputs, sort_keys=True))
    print("outputs " + first)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    # the full record; the printed result line keeps the fixed keys only
    record = {
        **result,
        "measured": measured,
        "reference_kernel_s": median(speed.refs) if speed.refs else None,
        "nominal_reference_s": NOMINAL_REFERENCE_S,
        "failures": checks.failures,
        "inputs": inputs,
        "outputs": rows[0],
    }
    result_path(workload.out_dir.parent, args.workload, args.seed, args.trace).write_text(
        json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


def result_path(out: Path, workload: str, seed: int, trace: int) -> Path:
    return out / f"result-{workload}-{seed}-trace{trace}.json"


if __name__ == "__main__":
    raise SystemExit(main())
