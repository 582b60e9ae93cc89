"""Time one set-up in a fresh process: import softcbf and build a workload's
objects (get_benchmark, certification_set, closed_loop_field).

Usage: python3 setup_probe.py <checkout root> <benchmark name>
Prints the seconds taken.
"""
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1] + "/src")
import softcbf  # noqa: E402

bench = softcbf.get_benchmark(sys.argv[2])
bench.certification_set()
bench.closed_loop_field()
print(repr(time.perf_counter() - t0))
