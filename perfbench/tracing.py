"""Traced run: spans around the calls into each softcbf layer.

Each layer's public function is wrapped where its caller looks it up, so
the package itself is unchanged.  Spans are kept in memory with the id of
the span that was open when they started (their parent) and written out
when the run ends.  Fine-grained calls into a benchmark's own callables
(dynamics, controllers, constraint functions, Jacobian) are counted, not
spanned, so their time stays in the self time of the layer that made them.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import ExitStack
from unittest import mock

import softcbf
import softcbf.backup
import softcbf.cli
import softcbf.sim
import softcbf.softmin
from softcbf.geometry import ConstraintSet

from measure import covered

# the package re-exports a function named certify, which hides the module
certify_module = importlib.import_module("softcbf.certify")


def _rows(x) -> int:
    return x.shape[0] if getattr(x, "ndim", 1) >= 2 else 1


def _flow_attrs(args, result):
    return {"rows": _rows(args[1]), "steps": result.stats.steps}


def _rows_attrs(args, result):
    return {"rows": _rows(args[1])}


def _probe_attrs(args, result):
    return {"located": result.n_located, "requested": result.n_requested}


def _run_attrs(args, result):
    return {"steps": len(result) - 1}


def _status_attrs(args, result):
    return {"status": result.qp_status}


def _tube_attrs(args, result):
    return {"samples": len(result)}


# (owner, attribute, span name, attributes taken from the call)
TARGETS = (
    (softcbf.cli, "main", "cli", None),
    (softcbf.cli, "check_backup_preconditions", "backup.preconditions", None),
    (softcbf.cli, "sample_tube", "geometry.sample_tube", _tube_attrs),
    (softcbf.cli, "check_mfcq", "geometry.check_mfcq", None),
    (softcbf.cli, "estimate_bounds", "geometry.estimate_bounds", None),
    (softcbf.cli, "verify_certificate", "certify.verify", None),
    (softcbf.cli, "probe_boundary", "certify.probe", _probe_attrs),
    (certify_module, "probe_boundary", "certify.probe", _probe_attrs),
    (softcbf.cli, "run", "sim.run", _run_attrs),
    (softcbf, "run", "sim.run", _run_attrs),
    (softcbf.backup, "integrate_flow_batch", "backup.flow", _flow_attrs),
    (softcbf.backup, "slice_values_batch", "backup.slice_values", None),
    (softcbf.sim, "integrate_flow", "sim.integrate_flow", None),
    (softcbf.sim, "backup_barrier", "backup.barrier", None),
    (softcbf.sim, "filter_boxed", "safety_filter.filter", _status_attrs),
    (softcbf.sim, "filter_unconstrained", "safety_filter.filter", _status_attrs),
    (softcbf.sim, "barrier_row", "safety_filter.barrier_row", None),
    (softcbf.softmin, "softmin_value", "softmin", None),
    (softcbf.softmin, "softmin_weights", "softmin", None),
    (softcbf.softmin, "softmin_gradient", "softmin", None),
    (ConstraintSet, "evaluate_batch", "geometry.evaluate_batch", _rows_attrs),
    (ConstraintSet, "evaluate", "geometry.evaluate", None),
)


class Tracer:
    """In-memory spans [id, parent, name, start, end, attrs] plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._open = [None]

    def span(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            rec = [len(self.spans), self._open[-1], name, 0.0, 0.0, None]
            self.spans.append(rec)
            self._open.append(rec[0])
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                rec[5] = attrs(args, result)
            return result

        return traced

    def counted(self, name, fn):
        if fn is None:
            return None

        def count(x, *args, **kwargs):
            self.counters[name + ".calls"] += 1
            self.counters[name + ".rows"] += _rows(x)
            return fn(x, *args, **kwargs)

        return count

    def install(self) -> ExitStack:
        """Patch every layer boundary in TARGETS; closing the stack restores them."""
        with ExitStack() as stack:
            for owner, attr, name, attrs in TARGETS:
                stack.enter_context(
                    mock.patch.object(owner, attr, self.span(name, getattr(owner, attr), attrs))
                )
            return stack.pop_all()

    def instrument(self, bench):
        """The benchmark with its dynamics, controllers, constraint
        functions and Jacobian counted under systems.dyn."""
        def c(fn):
            return self.counted("systems.dyn", fn)

        sys = dataclasses.replace(bench.sys, drift=c(bench.sys.drift), actuation=c(bench.sys.actuation))
        cs = bench.constraints
        cs = dataclasses.replace(
            cs,
            evaluators=tuple(c(ev) for ev in cs.evaluators),
            batch_evaluator=c(cs.batch_evaluator),
        )
        backup = bench.backup
        if backup is not None:
            backup = dataclasses.replace(
                backup, sys=sys, k_b=c(backup.k_b), h=c(backup.h), h_b=c(backup.h_b),
                jacobian=c(backup.jacobian),
            )
        return dataclasses.replace(
            bench, sys=sys, constraints=cs, backup=backup,
            desired_controller=c(bench.desired_controller),
            safe_controller=c(bench.safe_controller),
        )

    def self_times(self) -> list[float]:
        children = defaultdict(list)
        for sid, parent, _, t0, t1, _ in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        return [
            (t1 - t0) - covered(t0, t1, children[sid])
            for sid, _, _, t0, t1, _ in self.spans
        ]

    def under(self, sid, name) -> bool:
        """Whether span sid has an ancestor called name."""
        parent = self.spans[sid][1]
        while parent is not None:
            if self.spans[parent][2] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end", "attrs")
        with open(path, "w") as fobj:
            json.dump(
                {
                    "spans": [dict(zip(keys, rec)) for rec in self.spans],
                    "counters": dict(self.counters),
                },
                fobj,
            )


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, overhead: float) -> dict:
    """Per-layer numbers of one traced operation: traced_wall is its measured
    wall time, overhead the traced minus the untraced wall time."""
    selfs = tracer.self_times()
    total = Counter()
    self_total = Counter()
    calls = Counter()
    attr_sum = Counter()
    status = Counter()
    sample_tube_rows = probe_rows = row_steps = 0
    for (sid, _, name, t0, t1, attrs), self_s in zip(tracer.spans, selfs):
        total[name] += t1 - t0
        self_total[name] += self_s
        calls[name] += 1
        for key, value in (attrs or {}).items():
            if key == "status":
                status[value] += 1
            else:
                attr_sum[f"{name}.{key}"] += value
        if name == "backup.flow":
            row_steps += attrs["rows"] * attrs["steps"]
        elif name == "geometry.evaluate_batch":
            if tracer.under(sid, "geometry.sample_tube"):
                sample_tube_rows += attrs["rows"]
            if tracer.under(sid, "certify.probe"):
                probe_rows += attrs["rows"]

    dyn_calls = tracer.counters["systems.dyn.calls"]
    filter_calls = calls["safety_filter.filter"]
    return {
        "backup.flow.calls": calls["backup.flow"],
        "backup.flow.rows": attr_sum["backup.flow.rows"],
        "backup.flow.row_steps": row_steps,
        "backup.flow.s": total["backup.flow"],
        "backup.flow.us_per_row_step": _ratio(total["backup.flow"] * 1e6, row_steps),
        "backup.flow.share": _ratio(total["backup.flow"], traced_wall),
        "backup.preconditions.s": total["backup.preconditions"],
        "backup.barrier.s": total["backup.barrier"],
        "geometry.sample_tube.s": total["geometry.sample_tube"],
        "geometry.sample_tube.rows": sample_tube_rows,
        "geometry.tube_yield": _ratio(attr_sum["geometry.sample_tube.samples"], sample_tube_rows),
        "geometry.check_mfcq.s": total["geometry.check_mfcq"],
        "geometry.estimate_bounds.s": total["geometry.estimate_bounds"],
        "certify.probe.s": total["certify.probe"],
        "certify.probe.rows": probe_rows,
        "certify.located_frac": _ratio(
            attr_sum["certify.probe.located"], attr_sum["certify.probe.requested"]
        ),
        "safety_filter.calls.analytic": status["analytic"],
        "safety_filter.calls.clipped": status["clipped"],
        "safety_filter.calls.infeasible": status["infeasible"],
        "safety_filter.us_per_call": _ratio(
            (total["safety_filter.filter"] + total["safety_filter.barrier_row"]) * 1e6, filter_calls
        ),
        "softmin.calls": calls["softmin"],
        "softmin.us_per_call": _ratio(total["softmin"] * 1e6, calls["softmin"]),
        "systems.dyn.calls": dyn_calls,
        "systems.dyn.rows_per_call": _ratio(tracer.counters["systems.dyn.rows"], dyn_calls),
        "sim.steps": attr_sum["sim.run.steps"],
        "sim.run.s": total["sim.run"],
        "sim.self_s": self_total["sim.run"],
        "cli.self_s": self_total["cli"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": overhead,
    }
