"""Minimal-deviation safety filter for a single affine barrier constraint.

For control-affine dynamics xdot = f0(x) + g(x) u the barrier condition
turns into one linear inequality a.u >= rhs - c in the input, with
a = g(x)^T grad_h and c = grad_h . f0(x).  Projecting a desired input onto
that half-space has a closed form; intersecting with a box input set
reduces to a one-dimensional piecewise-linear equation in the dual
multiplier, solved exactly by a breakpoint search.

Infeasibility is surfaced, never silently clipped: with a certified
smoothing threshold it should not occur, so at runtime it is an event the
caller must decide on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import InvalidInputError
from .geometry import _checked_box

__all__ = [
    "ControlAffineSystem",
    "ClassK",
    "ClassKinfK",
    "FilterOutcome",
    "barrier_row",
    "filter_unconstrained",
    "filter_boxed",
    "make_rhs",
]


@dataclass(frozen=True)
class ControlAffineSystem:
    """Dynamics xdot = drift(x) + actuation(x) @ u with an optional box input set.

    drift maps (n,) -> (n,) and a block (B, n) -> (B, n); actuation maps
    (n,) -> (n, m) and (B, n) -> (B, n, m).  The package calls them once per
    block and never falls back to a loop over rows; the closed-loop field
    built from them (`closed_loop`) raises InvalidInputError when either,
    or the controller, returns the wrong shape for a block.  input_box, when
    present, is (m, 2) rows [lo, hi].
    """

    n: int
    m: int
    drift: Callable[[np.ndarray], np.ndarray]
    actuation: Callable[[np.ndarray], np.ndarray]
    input_box: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise InvalidInputError("need n >= 1 and m >= 1")
        if self.input_box is not None:
            object.__setattr__(self, "input_box", _checked_box(self.input_box, self.m, "input box"))

    def closed_loop(self, controller: Callable) -> Callable[[np.ndarray], np.ndarray]:
        """Vector field x -> drift(x) + actuation(x) @ controller(x) on one
        state (n,) or a block (B, n).  The controller follows the same
        contract as the dynamics, returning (B, m) on a block."""
        n, m = self.n, self.m

        def F(x):
            x = np.asarray(x, dtype=float)
            X = x[None] if x.ndim == 1 else x
            f0, g, u = self.drift(X), self.actuation(X), controller(X)
            # checked inline rather than through geometry.call_batched: this
            # body runs four times per RK4 step of every flow
            B = X.shape[0]
            if np.shape(f0) != (B, n) or np.shape(g) != (B, n, m) or np.shape(u) != (B, m):
                raise InvalidInputError(
                    f"drift, actuation and controller returned shape {np.shape(f0)}, "
                    f"{np.shape(g)}, {np.shape(u)} for a block of {B} states; "
                    f"expected {(B, n)}, {(B, n, m)}, {(B, m)}"
                )
            out = f0 + np.einsum("bij,bj->bi", g, u)
            return out[0] if x.ndim == 1 else out

        return F


@dataclass(frozen=True)
class ClassK:
    """Strictly increasing relaxation function with alpha(0) = 0.

    kind 'linear': kappa*h; 'cubic': kappa*h^3; 'tanh': kappa*tanh(scale*h)
    (bounded, so not suitable where an unbounded relaxation is required).
    All forms extend oddly to negative arguments, which is what the filter
    needs when the barrier value dips below zero.
    """

    kind: str = "linear"
    kappa: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "cubic", "tanh"):
            raise InvalidInputError(f"unknown class-K kind {self.kind!r}")
        if self.kappa <= 0 or self.scale <= 0:
            raise InvalidInputError("class-K parameters must be positive")

    @property
    def unbounded(self) -> bool:
        return self.kind in ("linear", "cubic")

    def __call__(self, h: float) -> float:
        h = float(h)
        if self.kind == "linear":
            return self.kappa * h
        if self.kind == "cubic":
            return self.kappa * h**3
        return self.kappa * math.tanh(self.scale * h)


@dataclass(frozen=True)
class ClassKinfK:
    """State-norm weighted relaxation gamma(h, s) = alpha1(h) * (1 + beta(s)).

    alpha1 must be unbounded in h (linear or cubic); beta is any class-K
    function of the state norm.  Used for extended barrier conditions on
    unbounded sets, where the admissible relaxation may grow with |x|.
    """

    alpha1: ClassK
    beta: ClassK

    def __post_init__(self):
        if not self.alpha1.unbounded:
            raise InvalidInputError("alpha1 must be an unbounded class-K function")

    def __call__(self, h: float, x_norm: float) -> float:
        if x_norm < 0:
            raise InvalidInputError("state norm must be nonnegative")
        return self.alpha1(h) * (1.0 + self.beta(x_norm))


@dataclass(frozen=True)
class FilterOutcome:
    """Filter result: input u, slack of the barrier inequality at u
    (nonnegative unless infeasible), whether u differs from the desired
    input, and how the solution was obtained.  `multiplier` is the lam >= 0
    of the KKT solution u = u_des + lam*a, clipped to the box when there is
    one; it is inf when the filter is infeasible."""

    u: np.ndarray
    constraint_value: float
    modified: bool
    qp_status: str  # "analytic" | "clipped" | "infeasible"
    multiplier: float = 0.0


def barrier_row(sys: ControlAffineSystem, grad_h, x) -> tuple[np.ndarray, float]:
    """Coefficients of the barrier inequality: a = g(x)^T grad_h, c = grad_h . f0(x),
    so that the Lie derivative under input u is c + a.u."""
    grad_h = np.asarray(grad_h, dtype=float)
    x = np.asarray(x, dtype=float)
    if grad_h.shape != (sys.n,) or x.shape != (sys.n,):
        raise InvalidInputError(f"expected shape ({sys.n},) for gradient and state")
    if not (np.all(np.isfinite(grad_h)) and np.all(np.isfinite(x))):
        raise InvalidInputError("gradient and state must be finite")
    g = np.asarray(sys.actuation(x), dtype=float).reshape(sys.n, sys.m)
    a = g.T @ grad_h
    c = float(grad_h @ np.asarray(sys.drift(x), dtype=float).reshape(sys.n))
    return a, c


def filter_unconstrained(a, c: float, rhs: float, u_des) -> FilterOutcome:
    """Project u_des onto the half-space a.u >= rhs - c (inputs unconstrained).

    Already-feasible inputs are returned bit-identical.  Infeasible only
    when a = 0 with the inequality violated, i.e. the barrier condition
    itself fails at this state.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    u_des = np.asarray(u_des, dtype=float).reshape(-1)
    if a.shape != u_des.shape:
        raise InvalidInputError(f"a {a.shape} and u_des {u_des.shape} must match")
    slack = float(c + a @ u_des - rhs)
    if slack >= 0.0:
        return FilterOutcome(u=u_des, constraint_value=slack, modified=False, qp_status="analytic")
    nrm2 = float(a @ a)
    if nrm2 == 0.0:
        return FilterOutcome(u=u_des, constraint_value=slack, modified=False,
                             qp_status="infeasible", multiplier=math.inf)
    lam = (rhs - c - float(a @ u_des)) / nrm2
    u = u_des + lam * a
    return FilterOutcome(
        u=u, constraint_value=float(c + a @ u - rhs), modified=True, qp_status="analytic",
        multiplier=lam,
    )


def _clip(u, box):
    return np.clip(u, box[:, 0], box[:, 1])


def filter_boxed(a, c: float, rhs: float, u_des, box) -> FilterOutcome:
    """Project u_des onto {a.u >= rhs - c} intersected with a box input set.

    The KKT solution is u(lam) = clip(u_des + lam*a, box) with the smallest
    lam >= 0 making the inequality hold.  a.u(lam) is piecewise linear and
    nondecreasing, with breakpoints (lo_j - u_j)/a_j and (hi_j - u_j)/a_j,
    so an O(m log m) walk over the sorted breakpoints finds the segment
    where it reaches the bound and solves it in closed form (breakpoint
    search; Kiwiel, Math. Programming 112, 2008).  Infeasible when even the
    best box corner violates.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    u_des = np.asarray(u_des, dtype=float).reshape(-1)
    box = np.asarray(box, dtype=float)
    m = a.size
    if box.shape != (m, 2) or not np.all(box[:, 0] < box[:, 1]):
        raise InvalidInputError(f"box must be ({m}, 2) with lo < hi")

    target = rhs - c
    u0 = _clip(u_des, box)
    if float(a @ u0) >= target:
        modified = not np.array_equal(u0, u_des)
        status = "clipped" if modified else "analytic"
        return FilterOutcome(
            u=u0, constraint_value=float(c + a @ u0 - rhs), modified=modified, qp_status=status
        )

    # best achievable value of a.u over the box
    u_best = np.where(a > 0, box[:, 1], np.where(a < 0, box[:, 0], u0))
    if float(a @ u_best) < target:
        return FilterOutcome(
            u=u_best,
            constraint_value=float(c + a @ u_best - rhs),
            modified=True,
            qp_status="infeasible",
            multiplier=math.inf,
        )

    # the unconstrained projection is exact when it stays inside the box
    free = filter_unconstrained(a, c, rhs, u_des)
    if np.all(free.u >= box[:, 0]) and np.all(free.u <= box[:, 1]):
        return free

    # component j is free between its two breakpoints, adding a_j^2 to the slope
    j = np.flatnonzero(a)
    ends = (box[j] - u_des[j, None]) / a[j, None]
    times = np.maximum(np.concatenate([ends.min(axis=1), ends.max(axis=1)]), 0.0)
    rates = np.concatenate([a[j] ** 2, -(a[j] ** 2)])
    order = np.argsort(times, kind="stable")
    # gap: how far a.u(lam) still falls short of the target
    lam, gap, slope = 0.0, target - float(a @ u0), 0.0
    for t, rate in zip(times[order], rates[order]):
        if slope * (t - lam) >= gap:
            lam += gap / slope
            break
        gap -= slope * (t - lam)
        lam, slope = t, slope + rate
    # rounding can leave the slack a few ulps below 0: step lam up until it is not
    step = np.finfo(float).eps * (1.0 + lam)
    u = _clip(u_des + lam * a, box)
    for _ in range(64):
        if float(c + a @ u - rhs) >= 0.0:
            break
        lam += step
        step *= 2.0
        u = _clip(u_des + lam * a, box)
    return FilterOutcome(
        u=u, constraint_value=float(c + a @ u - rhs), modified=True, qp_status="clipped",
        multiplier=lam,
    )


def make_rhs(alpha: Union[ClassK, ClassKinfK], h_val: float, x_norm: Optional[float] = None) -> float:
    """Right-hand side of the barrier inequality: -alpha(h) or -gamma(h, |x|)."""
    if isinstance(alpha, ClassKinfK):
        if x_norm is None:
            raise InvalidInputError("state norm required for a state-weighted relaxation")
        return -alpha(float(h_val), float(x_norm))
    return -alpha(float(h_val))
