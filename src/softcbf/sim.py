"""Closed-loop simulation under the smooth-minimum safety filter.

Zero-order-hold control loop: at each control step the barrier (smooth
minimum of the constraint family, or of the backup slice constraints) and
its gradient are evaluated, the desired input is filtered through the
single-constraint projection, and the plant is integrated one step with
RK4 substeps while the input is held.  Several configurations run in
lockstep as the rows of one block, each step one call per stage for all
of them; a single configuration is the one-row block.

The continuous-time guarantee degrades under sampling; traces are judged
against a small negative tolerance (default -1e-6) that absorbs the
hold-and-integrate error.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from . import softmin as sm
from .backup import rk4_step
from .errors import InvalidInputError
from .geometry import call_batched
from .safety_filter import (
    ClassK,
    ClassKinfK,
    ConstantActuation,
    _rowdot,
    barrier_block,
    filter_boxed_block,
    filter_unconstrained_block,
    make_rhs,
)
from .systems import Benchmark

# the one-row forms stay importable from this module, where perfbench's
# tracer patches them, though the lockstep loop calls the block forms
from .backup import backup_barrier, integrate_flow  # noqa: F401
from .safety_filter import barrier_row, filter_boxed, filter_unconstrained  # noqa: F401

__all__ = ["SimConfig", "SimTrace", "run", "SAFETY_TOLERANCE"]

SAFETY_TOLERANCE = -1e-6


@dataclass(frozen=True)
class SimConfig:
    """Closed-loop run settings.

    infeasible_policy decides what happens when the filter reports an
    infeasible constraint: 'halt' stops the run, 'backup-takeover'
    permanently switches to the benchmark's safe controller, 'clip'
    saturates the desired input and keeps going (unsound; logged).
    """

    x0: np.ndarray
    t_final: float
    dt: float
    theta: float
    alpha: Union[ClassK, ClassKinfK] = field(default_factory=ClassK)
    infeasible_policy: str = "backup-takeover"
    substeps: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.dt) and math.isfinite(self.t_final)):
            raise InvalidInputError(f"dt {self.dt} and t_final {self.t_final} must be finite")
        if self.dt <= 0 or self.t_final < self.dt:
            raise InvalidInputError("need dt > 0 and t_final >= dt")
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise InvalidInputError(f"theta must be finite and positive, got {self.theta}")
        if self.infeasible_policy not in ("halt", "backup-takeover", "clip"):
            raise InvalidInputError(f"unknown infeasible policy {self.infeasible_policy!r}")
        if self.substeps < 1:
            raise InvalidInputError("substeps must be >= 1")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(-1))


@dataclass
class SimTrace:
    """Recorded closed-loop run.

    Row k holds the state at time t_k and the input held over
    [t_k, t_{k+1}); the final row repeats the last input so the arrays
    stay rectangular.  `violations` lists (time, value) pairs where the
    smooth barrier went negative.  `filter_status`, `slack` and
    `multiplier` are the filter's qp_status, constraint_value and
    multiplier at each step; they hold "" and NaN where the filter did not
    run (takeover steps and the final row).  The CSV leaves them out.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    h_soft: np.ndarray
    h_hard: np.ndarray
    modified: np.ndarray
    infeasible: np.ndarray
    filter_status: np.ndarray
    slack: np.ndarray
    multiplier: np.ndarray
    min_h_soft: float
    violations: list
    truncated: bool = False
    note: str = ""
    # steps where the filter had to act with a nearly vanishing input
    # direction: the closed-form projection is discontinuous there, which a
    # certified theta should prevent from mattering; counted, not smoothed
    near_singular_steps: int = 0

    def __len__(self) -> int:
        return self.times.size

    def to_csv(self, fobj) -> None:
        """Write the trace as CSV: t, x_1..x_n, u_1..u_m, h_soft, h_hard,
        modified, infeasible.  Floats carry 17 significant digits.  `fobj`
        is an open text file or a path."""
        n = self.states.shape[1]
        m = self.controls.shape[1]
        cols = (
            ["t"]
            + [f"x_{i+1}" for i in range(n)]
            + [f"u_{j+1}" for j in range(m)]
            + ["h_soft", "h_hard", "modified", "infeasible"]
        )
        data = np.column_stack(
            [self.times, self.states, self.controls, self.h_soft, self.h_hard,
             self.modified, self.infeasible]
        )
        np.savetxt(fobj, data, fmt=["%.17g"] * (n + m + 3) + ["%d"] * 2, delimiter=",",
                   header=",".join(cols), comments="")


def _barrier_block(bench: Benchmark):
    """Return a function (X (B, n), theta (B,)) -> (soft values (B,), soft
    gradients (B, n), hard values (B,)) that evaluates a block in one call:
    one batch evaluation of the benchmark's certification set, which on a
    backup set is one flow with sensitivities of the slices."""
    evaluate = bench.certification_set().evaluate_batch

    def eval_barrier(X, theta):
        vals, grads = evaluate(X)
        soft, grad = sm.softmin_rows(vals, grads, theta)
        return soft, grad, vals.min(axis=1)

    return eval_barrier


def _plant_block(sys, X: np.ndarray, U: np.ndarray, dt: float, substeps: int) -> np.ndarray:
    """Integrate every row of X over one control step with its input row of
    U held.  `run` checks the dynamics' block shapes once, so they are called
    directly here.  Each row's held input g(x) u is a stacked matmul, bitwise
    the one-row g @ u; a ConstantActuation's is the same at every RK4 stage,
    so it is computed once."""
    U = U[:, :, None]
    if isinstance(sys.actuation, ConstantActuation):
        held = (sys.actuation(X) @ U)[:, :, 0]

        def f(X):
            return sys.drift(X) + held

    else:
        def f(X):
            return sys.drift(X) + (sys.actuation(X) @ U)[:, :, 0]

    h = dt / substeps
    for _ in range(substeps):
        X, _ = rk4_step(f, X, h)
    return X


def _as_block(cfg: Union[SimConfig, Sequence[SimConfig]], n: int) -> list:
    """The configs to run in lockstep on an n-dimensional plant, checked."""
    cfgs = [cfg] if isinstance(cfg, SimConfig) else list(cfg)
    if not cfgs:
        raise InvalidInputError("need at least one config")
    clock = {(c.dt, c.t_final, c.substeps) for c in cfgs}
    if len(clock) > 1:
        raise InvalidInputError("configs run in lockstep must share dt, t_final and substeps")
    if any(c.x0.size != n for c in cfgs):
        raise InvalidInputError(f"x0 must have dimension {n}")
    return cfgs


def run(bench: Benchmark, cfg: Union[SimConfig, Sequence[SimConfig]]) -> Union[SimTrace, list]:
    """Simulate the filtered closed loop; deterministic for fixed inputs.

    `cfg` is one SimConfig, which returns one SimTrace, or a list of them,
    which returns one trace per config.  A list runs in lockstep: at each
    control step the live rows share one desired-controller call, one
    barrier evaluation, one block filter and one block plant step.  The
    configs must share dt, t_final and substeps; x0, theta, alpha and
    infeasible_policy may differ.  Takeover, halt, clip and truncation are
    decided per row, and a row that stops leaves the block.  On a
    constraint family each row is bitwise its single run; on a backup set
    the rows share one flow, so a row can differ from its single run in the
    last bits (see `integrate_flow_batch`).
    """
    sys = bench.sys
    cfgs = _as_block(cfg, sys.n)
    B, n, m = len(cfgs), sys.n, sys.m
    eval_barrier = _barrier_block(bench)
    theta = np.array([c.theta for c in cfgs])
    X = np.stack([c.x0 for c in cfgs])

    # the dynamics are called on blocks without per-call checks, so check
    # their shapes once here
    call_batched(sys.drift, X, (n,))
    call_batched(sys.actuation, X, (n, m))
    soft, grad, hard = eval_barrier(X, theta)
    for soft0, hard0 in zip(soft, hard):
        if soft0 < 0.0:
            if hard0 >= 0.0:
                warnings.warn(
                    "initial state is inside the hard set but outside the smooth "
                    "set; the certificate does not cover it",
                    stacklevel=2,
                )
            else:
                raise InvalidInputError(
                    f"initial state is unsafe: smooth barrier {soft0:.4g}, hard barrier {hard0:.4g}"
                )

    dt, substeps = cfgs[0].dt, cfgs[0].substeps
    n_steps = int(round(cfgs[0].t_final / dt))
    times = np.arange(n_steps + 1) * dt
    # the per-step records, keyed by SimTrace field and recorded as
    # [step, row]; each trace takes its column
    records = {
        "states": np.empty((n_steps + 1, B, n)),
        "controls": np.zeros((n_steps + 1, B, m)),
        "h_soft": np.empty((n_steps + 1, B)),
        "h_hard": np.empty((n_steps + 1, B)),
        "modified": np.zeros((n_steps + 1, B), dtype=bool),
        "infeasible": np.zeros((n_steps + 1, B), dtype=bool),
        # the filter's outcome at every step; ""/NaN where it did not run
        "filter_status": np.full((n_steps + 1, B), "", dtype="<U10"),
        "slack": np.full((n_steps + 1, B), np.nan),
        "multiplier": np.full((n_steps + 1, B), np.nan),
    }

    ends = np.full(B, n_steps + 1)  # rows recorded per trace
    notes = [""] * B
    near_singular = np.zeros(B, dtype=int)
    takeover = np.zeros(B, dtype=bool)
    box = sys.input_box

    def fallback(x):
        # one call per taken row, on its one-row block
        return call_batched(bench.safe_controller, x[None], (m,))[0]

    # the rows still running, whose states X holds; `sel` indexes them in
    # the records, as a slice while every row runs
    live, sel, theta_live = np.arange(B), slice(None), theta
    for k in range(n_steps + 1):
        if k > 0:
            soft, grad, hard = eval_barrier(X, theta_live)
        records["states"][k, sel] = X
        records["h_soft"][k, sel] = soft
        records["h_hard"][k, sel] = hard
        if k == n_steps:
            records["controls"][k, sel] = records["controls"][k - 1, sel] if k > 0 else 0.0
            break

        # act: the positions in live whose input is filtered; rows: their records
        U = np.empty((live.size, m))
        act, rows, Xa, soft_a, grad_a = slice(None), sel, X, soft, grad
        if takeover.any():
            taken = takeover[live]
            for j in np.flatnonzero(taken):
                U[j] = fallback(X[j])
            act = np.flatnonzero(~taken)
            rows, Xa, soft_a, grad_a = live[act], X[act], soft[act], grad[act]
        stop = []  # positions in live that halt at this step
        if len(Xa):
            u_des = call_batched(bench.desired_controller, Xa, (m,))
            a, c = barrier_block(sys, grad_a, Xa)
            rhs = np.array([
                make_rhs(cfgs[i].alpha, h,
                         float(np.linalg.norm(x)) if isinstance(cfgs[i].alpha, ClassKinfK) else None)
                for i, h, x in zip(live[act], soft_a, Xa)
            ])
            if box is not None:
                out = filter_boxed_block(a, c, rhs, u_des, box)
            else:
                out = filter_unconstrained_block(a, c, rhs, u_des)
            U[act] = out.u
            records["filter_status"][k, rows] = out.qp_status
            records["slack"][k, rows] = out.constraint_value
            records["multiplier"][k, rows] = out.multiplier
            ok = out.qp_status != "infeasible"
            acted = out.modified & ok
            records["modified"][k, rows] = acted
            # the closed-form projection is discontinuous where the input
            # direction nearly vanishes: count the steps that acted there
            near_singular[rows] += acted & (
                np.sqrt(_rowdot(a, a)) < 1e-6 * (1.0 + np.sqrt(_rowdot(u_des, u_des))))
            for j in () if ok.all() else np.flatnonzero(~ok):
                p = np.arange(live.size)[act][j]  # the position in live of filtered row j
                i = live[p]
                records["infeasible"][k, i] = True
                policy = cfgs[i].infeasible_policy
                if policy == "halt":
                    notes[i] = f"halted on infeasible filter at t={times[k]:.6g}"
                    ends[i] = k + 1
                    stop.append(p)
                elif policy == "backup-takeover":
                    takeover[i] = True
                    U[p] = fallback(X[p])
                else:  # clip
                    notes[i] = notes[i] or "clip policy applied on infeasible steps (unsound)"
                    U[p] = np.clip(u_des[j], box[:, 0], box[:, 1]) if box is not None else u_des[j]
        records["controls"][k, sel] = U

        if stop:
            keep = np.ones(live.size, dtype=bool)
            keep[stop] = False
            live, X, U = live[keep], X[keep], U[keep]
        X = _plant_block(sys, X, U, dt, substeps)
        if not np.isfinite(X).all():
            finite = np.isfinite(X).all(axis=1)
            for i in live[~finite]:
                notes[i] = f"plant state became non-finite after t={times[k]:.6g}"
                ends[i] = k + 1
            live, X = live[finite], X[finite]
        if live.size < len(theta_live):  # rows left the block
            if live.size == 0:
                break
            sel, theta_live = live, theta[live]

    traces = []
    for i, e in enumerate(ends):
        cols = {name: np.ascontiguousarray(rec[:e, i]) for name, rec in records.items()}
        trace_h = cols["h_soft"]
        traces.append(SimTrace(
            times=times[:e],
            **cols,
            min_h_soft=float(trace_h.min()) if trace_h.size else float("nan"),
            violations=[(float(t), float(v)) for t, v in zip(times, trace_h) if v < 0.0],
            truncated=bool(e < n_steps + 1),
            note=notes[i],
            near_singular_steps=int(near_singular[i]),
        ))
    return traces[0] if isinstance(cfg, SimConfig) else traces
