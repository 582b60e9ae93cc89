"""Statistics, host-speed scaling and correctness bookkeeping for the runs.

Percentiles use the nearest-rank rule on integer per-mille levels, so the
count of samples beyond a percentile is exact and testable.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

# a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def _rank(n: int, permille: int) -> int:
    """1-based nearest rank of the given per-mille level among n samples."""
    return max(1, -(-permille * n // 1000))


def samples_beyond(n: int, permille: int) -> int:
    """Samples strictly above the nearest-rank percentile."""
    return n - _rank(n, permille)


def percentile(values, permille: int) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), permille) - 1]


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a = max(a, reach)
        b = min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class Checks:
    """Counts correctness checks; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# The reference kernel's time at the nominal host speed: the median of the
# per-run median kernel times of 30 benchmark runs (seeds 0-9 of every
# workload) on a 2-vCPU 2.1 GHz Xeon KVM guest, the host the baseline in
# perfbench/baseline/ was recorded on; that baseline keeps each run's
# kernel time.  Nominal seconds are thus seconds of a typical period on
# that host, not of an idle one.
NOMINAL_REFERENCE_S = 7.06e-4
_A = np.linspace(-1.0, 1.0, 16).reshape(4, 2, 2)
_V = np.ones(2)


def reference_kernel() -> float:
    """Seconds for a fixed burst of small numpy calls made from Python, the
    kind of work the workloads' inner loops do; the best of three."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(100):
            np.einsum("bij,j->bi", _A, _V)
            np.tanh(_V)
            float(np.linalg.norm(_V))
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Rescales times measured on a shared host to a nominal host speed.

    On a host whose speed swings with its neighbours' load, raw times of one
    program vary by tens of percent between runs.  probe() times the
    reference kernel.  A measured second at time t counts as
    NOMINAL_REFERENCE_S / r(t) nominal seconds, where r is the kernel time
    interpolated linearly between probes; intervals are integrated with the
    trapezoid rule on the probe times.  now() is a clock that leaves out the
    probes' own time.
    """

    def __init__(self, every: float = 0.05):
        self.every = every
        self.taus: list[float] = []
        self.refs: list[float] = []
        self._paused = 0.0
        self._last = -math.inf

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def probe(self) -> None:
        t0 = time.perf_counter()
        ref = reference_kernel()
        t1 = time.perf_counter()
        self.taus.append(t0 - self._paused)
        self.refs.append(ref)
        self._paused += t1 - t0
        self._last = t1

    def probe_if_due(self) -> None:
        if time.perf_counter() - self._last >= self.every:
            self.probe()

    def scale(self, at) -> np.ndarray:
        """Nominal seconds per measured second at probe-free time(s) at."""
        return NOMINAL_REFERENCE_S / np.interp(at, self.taus, self.refs)

    def seconds(self, start: float, end: float) -> float:
        """The probe-free interval [start, end] in nominal seconds."""
        knots = np.array([start] + [t for t in self.taus if start < t < end] + [end])
        rate = self.scale(knots)
        return float(np.sum(np.diff(knots) * (rate[1:] + rate[:-1]) / 2.0))

    def gap_seconds(self, intervals) -> np.ndarray:
        """Short intervals (n, 2) in nominal seconds, scaled at their midpoints."""
        iv = np.asarray(intervals, dtype=float).reshape(-1, 2)
        return (iv[:, 1] - iv[:, 0]) * self.scale(iv.mean(axis=1))


class StepClock:
    """Timestamps the calls of a callable; the gap between successive
    calls is one step.  With stride k only every k-th call counts, so a step
    made of k calls is timed as a whole.  A new segment starts a new chain,
    so the time between two runs is never counted as a step.  The stamps
    come from HostSpeed.now(); a due speed probe runs only before a call
    that closes a step, so probes never fall inside a counted step.

    With live=False calls are stamped only inside a function wrapped with
    segment(): each of its calls is one segment of its own.
    """

    def __init__(self, speed: HostSpeed, stride: int = 1, live: bool = True):
        self.speed = speed
        self.stride = stride
        self.live = live
        self.segments: list[list[float]] = [[]]

    def new_segment(self) -> None:
        if self.segments[-1]:
            self.segments.append([])

    def wrap(self, fn):
        def stamped(*args, **kwargs):
            if self.live:
                stamps = self.segments[-1]
                if len(stamps) % self.stride == 0:
                    self.speed.probe_if_due()
                stamps.append(self.speed.now())
            return fn(*args, **kwargs)

        return stamped

    def segment(self, fn):
        def segmented(*args, **kwargs):
            self.new_segment()
            live, self.live = self.live, True
            try:
                return fn(*args, **kwargs)
            finally:
                self.live = live
                self.new_segment()

        return segmented

    def intervals(self) -> list[tuple[float, float]]:
        out = []
        for seg in self.segments:
            ts = seg[:: self.stride]
            out.extend(zip(ts, ts[1:]))
        return out
