"""Closed-loop simulation under the smooth-minimum safety filter.

Zero-order-hold control loop: at each control step the barrier (smooth
minimum of the constraint family, or of the backup slice constraints) and
its gradient are evaluated, the desired input is filtered through the
single-constraint projection, and the plant is integrated one step with
RK4 substeps while the input is held.

The continuous-time guarantee degrades under sampling; traces are judged
against a small negative tolerance (default -1e-6) that absorbs the
hold-and-integrate error.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import softmin as sm
from .backup import backup_barrier, integrate_flow, rk4_step
from .errors import InvalidInputError
from .safety_filter import (
    ClassK,
    ClassKinfK,
    barrier_row,
    filter_boxed,
    filter_unconstrained,
    make_rhs,
)
from .systems import Benchmark

__all__ = ["SimConfig", "SimTrace", "run", "SAFETY_TOLERANCE"]

SAFETY_TOLERANCE = -1e-6


@dataclass(frozen=True)
class SimConfig:
    """Closed-loop run settings.

    infeasible_policy decides what happens when the filter reports an
    infeasible constraint: 'halt' stops the run, 'backup-takeover'
    permanently switches to the backup (or safe) controller, 'clip'
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
        if self.dt <= 0 or self.t_final < self.dt:
            raise InvalidInputError("need dt > 0 and t_final >= dt")
        if self.theta <= 0:
            raise InvalidInputError("theta must be positive")
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
    smooth barrier went negative.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    h_soft: np.ndarray
    h_hard: np.ndarray
    modified: np.ndarray
    infeasible: np.ndarray
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


def _barrier_state(bench: Benchmark, theta: float):
    """Return a function x -> (soft value, soft gradient, hard value)."""
    if bench.backup is not None:
        prob = bench.backup

        def eval_barrier(x):
            bb = backup_barrier(prob, integrate_flow(prob, x), theta)
            return bb.soft_value, bb.soft_gradient, float(bb.b_values.min())

    else:
        cs = bench.constraints

        def eval_barrier(x):
            vals, grads = cs.evaluate(x)
            w = sm.softmin_weights(vals, theta)
            return (
                sm.softmin_value(vals, theta),
                sm.softmin_gradient(grads, w),
                float(vals.min()),
            )

    return eval_barrier


def _plant_step(bench: Benchmark, x: np.ndarray, u: np.ndarray, dt: float, substeps: int):
    sys = bench.sys

    def f(x):
        g = np.asarray(sys.actuation(x), dtype=float).reshape(sys.n, sys.m)
        return np.asarray(sys.drift(x), dtype=float).reshape(sys.n) + g @ u

    h = dt / substeps
    for _ in range(substeps):
        x, _ = rk4_step(f, x, h)
    return x


def run(bench: Benchmark, cfg: SimConfig) -> SimTrace:
    """Simulate the filtered closed loop; deterministic for fixed inputs."""
    sys = bench.sys
    eval_barrier = _barrier_state(bench, cfg.theta)
    x = cfg.x0.copy()
    if x.size != sys.n:
        raise InvalidInputError(f"x0 must have dimension {sys.n}")

    soft0, _, hard0 = barrier0 = eval_barrier(x)
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

    n_steps = int(round(cfg.t_final / cfg.dt))
    times = np.arange(n_steps + 1) * cfg.dt
    states = np.empty((n_steps + 1, sys.n))
    controls = np.zeros((n_steps + 1, sys.m))
    h_soft = np.empty(n_steps + 1)
    h_hard = np.empty(n_steps + 1)
    modified = np.zeros(n_steps + 1, dtype=bool)
    infeasible = np.zeros(n_steps + 1, dtype=bool)

    takeover = False
    truncated = False
    note = ""
    near_singular = 0
    if bench.backup is not None:
        fallback_controller = bench.backup.k_b
    else:
        fallback_controller = bench.safe_controller

    k = 0
    while k <= n_steps:
        states[k] = x
        # the barrier at x0 was evaluated above
        soft, grad_soft, hard = barrier0 if k == 0 else eval_barrier(x)
        h_soft[k] = soft
        h_hard[k] = hard
        if k == n_steps:
            controls[k] = controls[k - 1] if k > 0 else 0.0
            break

        if takeover:
            u = np.asarray(fallback_controller(x), dtype=float).reshape(sys.m)
        else:
            u_des = np.asarray(bench.desired_controller(x), dtype=float).reshape(sys.m)
            a, c = barrier_row(sys, grad_soft, x)
            rhs = make_rhs(cfg.alpha, soft, float(np.linalg.norm(x)))
            if sys.input_box is not None:
                outcome = filter_boxed(a, c, rhs, u_des, sys.input_box)
            else:
                outcome = filter_unconstrained(a, c, rhs, u_des)
            if outcome.qp_status == "infeasible":
                infeasible[k] = True
                if cfg.infeasible_policy == "halt":
                    controls[k] = outcome.u
                    truncated = True
                    note = f"halted on infeasible filter at t={times[k]:.6g}"
                    k += 1
                    break
                if cfg.infeasible_policy == "backup-takeover":
                    takeover = True
                    u = np.asarray(fallback_controller(x), dtype=float).reshape(sys.m)
                else:  # clip
                    note = note or "clip policy applied on infeasible steps (unsound)"
                    if sys.input_box is not None:
                        u = np.clip(u_des, sys.input_box[:, 0], sys.input_box[:, 1])
                    else:
                        u = u_des
            else:
                u = outcome.u
                modified[k] = outcome.modified
                if outcome.modified and np.linalg.norm(a) < 1e-6 * (1.0 + np.linalg.norm(u_des)):
                    near_singular += 1
        controls[k] = u

        x_next = _plant_step(bench, x, u, cfg.dt, cfg.substeps)
        if not np.all(np.isfinite(x_next)):
            truncated = True
            note = f"plant state became non-finite after t={times[k]:.6g}"
            k += 1
            break
        x = x_next
        k += 1

    if truncated:
        times = times[:k]
        states = states[:k]
        controls = controls[:k]
        h_soft = h_soft[:k]
        h_hard = h_hard[:k]
        modified = modified[:k]
        infeasible = infeasible[:k]

    violations = [(float(t), float(v)) for t, v in zip(times, h_soft) if v < 0.0]
    return SimTrace(
        times=times,
        states=states,
        controls=controls,
        h_soft=h_soft,
        h_hard=h_hard,
        modified=modified,
        infeasible=infeasible,
        min_h_soft=float(h_soft.min()) if h_soft.size else float("nan"),
        violations=violations,
        truncated=truncated,
        note=note,
        near_singular_steps=near_singular,
    )
