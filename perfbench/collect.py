"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/collect.py                       # every workload, seeds 0-9
    python3 perfbench/collect.py --seeds 0,3,5
    python3 perfbench/collect.py --trace --write perfbench/baseline/BENCH_0.json

Runs perfbench/run.py once per workload of BENCHMARK.json and seed, one
process at a time, for the run_seconds that BENCHMARK.json sets.
For every workload and end-to-end metric it prints the median, the
quartiles, and their distance as a share of the median next to the bound
BENCHMARK.json sets, plus the failed share of correctness checks.  --trace
adds one traced run per workload at the first seed and prints its
per-layer numbers.  --write saves all of it, with the machine's
description, as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from measure import quartiles
from run import result_path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's record (run.py's result plus measured times, inputs, outputs)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    record = json.loads(result_path(ROOT / ".perfbench_out", workload, seed, trace).read_text())
    if {k: record[k] for k in result} != result:
        raise SystemExit(f"{workload} seed {seed}: record and printed result differ")
    return {"seed": seed, "exit_code": done.returncode, **record}


def machine() -> dict:
    import numpy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var, "1 (run.py default)")
                         for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def summarise(runs: list[dict], specs: list[dict]) -> dict:
    out = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        entry = {"unit": spec["unit"], "values": values}
        if len(values) >= 2:
            q1, q2, q3 = quartiles(values)
            entry.update(median=q2, q1=q1, q3=q3, spread=(q3 - q1) / q2 if q2 else None)
        else:
            entry.update(median=values[0])
        if "bound" in spec:
            entry["bound"] = spec["bound"]
        out[spec["name"]] = entry
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,5")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", help="save the summary as JSON here")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    seconds = spec["run_seconds"]
    report = {"machine": machine(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_bench(name, seed, seconds, 0))
            print(f"{name} seed {seed}: correct {runs[-1]['correct']}", file=sys.stderr)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "end_to_end": summarise(runs, spec["end_to_end"]),
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "outputs": {r["seed"]: r["outputs"] for r in runs},
            "measured_before_scaling": {r["seed"]: r["measured"] for r in runs},
            "reference_kernel_s": {r["seed"]: r["reference_kernel_s"] for r in runs},
        }
        print(f"\n{name}: {len(runs)} runs, failed_frac {failed}/{attempted} = {failed / attempted!r}")
        for metric, m in entry["end_to_end"].items():
            if "q1" in m:
                third = "" if m["spread"] is None else (
                    "  ok" if m["spread"] < m["bound"] / 3 else "  WIDE (>= bound/3)")
                print(f"  {metric:14s} {m['unit']:3s} median {m['median']:.6g}  "
                      f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.4f}  "
                      f"bound {m['bound']}{third}")
            else:
                print(f"  {metric:14s} {m['unit']:3s} {m['median']!r}")
        if args.trace:
            traced = run_bench(name, seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_seed"] = seeds[0]
            print(f"  traced run, seed {seeds[0]}:")
            for metric, value in entry["per_layer"].items():
                print(f"    {metric:32s} {value!r}")
        report["workloads"][name] = entry

    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
