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

Each function has a block form (`barrier_block`, `filter_unconstrained_block`,
`filter_boxed_block`) that treats B independent rows in one call; the
single-row functions are its one-row case.  Every per-row reduction is a
stacked matmul, so a row of a block is bitwise the one-row result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import InvalidInputError
from .geometry import _as_states, _check_shapes, _checked_box

__all__ = [
    "ConstantActuation",
    "ControlAffineSystem",
    "FusedPlant",
    "ClassK",
    "ClassKinfK",
    "FilterOutcome",
    "barrier_row",
    "barrier_block",
    "filter_unconstrained",
    "filter_unconstrained_block",
    "filter_boxed",
    "filter_boxed_block",
    "make_rhs",
]


class ConstantActuation:
    """Actuation g(x) = G that does not depend on the state, as a callable
    that follows the system contract: a block (B, n) gives (B, n, m).
    Because it is constant, the closed-loop simulation evaluates it once
    per control step, not at every RK4 stage.  The blocks are read-only;
    the affine constraint families of `softcbf.systems` return their
    gradients through one.
    """

    def __init__(self, G):
        self.G = np.asarray(G, dtype=float)
        # a block gets a read-only slice of one zero-stride block grown to the
        # largest B seen: far cheaper than a np.broadcast_to call per RK4 stage
        self._block = np.broadcast_to(self.G, (1,) + self.G.shape)

    def __call__(self, X):
        view = self._block  # read once: another thread may swap in a shorter one
        if len(view) < len(X):
            view = self._block = np.broadcast_to(self.G, (len(X),) + self.G.shape)
        return view[: len(X)]


@dataclass(frozen=True)
class FusedPlant:
    """The plant drift(X) + actuation(X) @ U in one pass, declared for the
    drift and actuation it fuses.

    `plant` maps blocks X (B, n) and U (B, m) to (B, n), bit for bit the
    composed `drift(X) + einsum("bij,bj->bi", actuation(X), U)` on finite
    states and inputs, including the sign of zero: the einsum adds an exact
    +0.0 to every component.
    """

    plant: Callable
    drift: Callable
    actuation: Callable


@dataclass(frozen=True)
class ControlAffineSystem:
    """Dynamics xdot = drift(x) + actuation(x) @ u with an optional box input set.

    drift maps a block of states (B, n) to (B, n) and actuation maps it to
    (B, n, m); neither is called on one state (n,).  The package calls them
    once per block and never falls back to a loop over rows; the closed-loop
    field built from them (`closed_loop`) raises InvalidInputError when
    either, or the controller, returns the wrong shape for a block.  An
    actuation that does not depend on the state is best given as a
    ConstantActuation.
    input_box, when present, is (m, 2) rows [lo, hi].

    fused, when given, is a FusedPlant.  While its drift and actuation are
    this system's very objects, `closed_loop(controller)` calls the
    controller and then the plant, whatever the controller; a
    `dataclasses.replace` that swaps the drift or the actuation, such as
    one that wraps them to count their calls, falls back to the composed
    field: drift, actuation and controller, summed by an einsum.
    """

    n: int
    m: int
    drift: Callable[[np.ndarray], np.ndarray]
    actuation: Callable[[np.ndarray], np.ndarray]
    input_box: Optional[np.ndarray] = None
    fused: Optional[FusedPlant] = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise InvalidInputError("need n >= 1 and m >= 1")
        if self.input_box is not None:
            object.__setattr__(self, "input_box", _checked_box(self.input_box, self.m, "input box"))

    def closed_loop(self, controller: Callable) -> Callable[[np.ndarray], np.ndarray]:
        """Vector field X -> drift(X) + actuation(X) @ controller(X) on a
        block (B, n), on the fused plant while it applies.  The controller
        follows the same contract as the dynamics, returning (B, m); the
        input and every output shape are checked at every call."""
        return self._closed_loop_fields(controller)[0]

    def _closed_loop_fields(self, controller: Callable) -> tuple:
        """`closed_loop(controller)` and the same composition on (B, n)
        blocks without its checks, for a flow's RK4 steps after its first."""
        n, m = self.n, self.m
        p = self.fused
        if p is not None and p.drift is self.drift and p.actuation is self.actuation:
            plant = p.plant

            def F(X):
                X = _as_states(X, n)
                u = controller(X)
                _check_shapes("controller", [u], [(len(X), m)])
                out = plant(X, u)
                _check_shapes("fused plant", [out], [(len(X), n)])
                return out

            return F, lambda X: plant(X, controller(X))

        def F(X):
            X = _as_states(X, n)
            f0, g, u = self.drift(X), self.actuation(X), controller(X)
            B = len(X)
            _check_shapes("drift, actuation and controller", [f0, g, u], [(B, n), (B, n, m), (B, m)])
            return f0 + np.einsum("bij,bj->bi", g, u)

        return F, lambda X: self.drift(X) + np.einsum("bij,bj->bi", self.actuation(X), controller(X))


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
        if not (0 < self.kappa < math.inf and 0 < self.scale < math.inf):
            raise InvalidInputError(f"class-K kappa {self.kappa} and scale {self.scale} must be finite and positive")

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


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products (B,) of two (B, k) blocks.  A stacked matmul
    computes each row bitwise like the one-row a[i] @ b[i]; einsum does not
    (it can sum in another order)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def barrier_block(sys: ControlAffineSystem, grad_h, X) -> tuple[np.ndarray, np.ndarray]:
    """`barrier_row` for each row of a block: gradients and states (B, n) give
    a (B, m) and c (B,), each row bitwise the one-row result.  The dynamics
    are called once, on the block.  Neither the inputs nor the dynamics'
    output shapes are checked here, as this is the closed loop's hot path
    and `sim.run` checks the dynamics once per run; `barrier_row` is the
    checked one-row entry point."""
    return _barrier_terms(sys, grad_h, sys.actuation(X), sys.drift(X))


def _barrier_terms(sys: ControlAffineSystem, grad_h, g, f0) -> tuple[np.ndarray, np.ndarray]:
    """a (B, m) and c (B,) from gradients (B, n) and the actuation and drift
    outputs on their states."""
    g = np.asarray(g, dtype=float).reshape(len(grad_h), sys.n, sys.m)
    f0 = np.asarray(f0, dtype=float).reshape(len(grad_h), sys.n)
    # a = g^T grad_h as the stacked (1, n) @ (n, m) product of each row
    return (grad_h[:, None, :] @ g)[:, 0], _rowdot(grad_h, f0)


def barrier_row(sys: ControlAffineSystem, grad_h, x) -> tuple[np.ndarray, float]:
    """Coefficients of the barrier inequality: a = g(x)^T grad_h, c = grad_h . f0(x),
    so that the Lie derivative under input u is c + a.u.  The dynamics are
    called on the one-row block x[None], and their outputs must have the
    block shapes (1, n, m) and (1, n)."""
    grad_h = np.asarray(grad_h, dtype=float)
    x = np.asarray(x, dtype=float)
    if grad_h.shape != (sys.n,) or x.shape != (sys.n,):
        raise InvalidInputError(f"expected shape ({sys.n},) for gradient and state")
    if not (np.all(np.isfinite(grad_h)) and np.all(np.isfinite(x))):
        raise InvalidInputError("gradient and state must be finite")
    X = x[None]
    g, f0 = sys.actuation(X), sys.drift(X)
    _check_shapes("actuation and drift", [g, f0], [(1, sys.n, sys.m), (1, sys.n)])
    a, c = _barrier_terms(sys, grad_h[None], g, f0)
    return a[0], float(c[0])


# dtype of a block's qp_status: long enough for "infeasible"
_STATUS = "<U10"


def _one_row(a, c, rhs, u_des):
    a = np.asarray(a, dtype=float).reshape(1, -1)
    u_des = np.asarray(u_des, dtype=float).reshape(1, -1)
    if a.shape != u_des.shape:
        raise InvalidInputError(f"a {a.shape[1:]} and u_des {u_des.shape[1:]} must match")
    return a, np.array([c], dtype=float), np.array([rhs], dtype=float), u_des


def _first(block: FilterOutcome) -> FilterOutcome:
    return FilterOutcome(
        u=block.u[0],
        constraint_value=float(block.constraint_value[0]),
        modified=bool(block.modified[0]),
        qp_status=str(block.qp_status[0]),
        multiplier=float(block.multiplier[0]),
    )


def filter_unconstrained_block(a, c, rhs, u_des) -> FilterOutcome:
    """`filter_unconstrained` for each row of a block: a and u_des (B, m), c
    and rhs (B,).  The outcome's fields hold one entry per row, each bitwise
    the one-row result.  Inputs are not validated here."""
    au = _rowdot(a, u_des)
    slack = c + au - rhs
    short = ~(slack >= 0.0)
    status = np.full(len(au), "analytic", dtype=_STATUS)
    nrm2 = _rowdot(a, a)
    moved = short & (nrm2 != 0.0)
    dead = short & ~moved
    status[dead] = "infeasible"
    # lam is 0 on the rows that keep u_des; where() keeps them bitwise
    lam = np.where(moved, rhs - c - au, 0.0) / np.where(moved, nrm2, 1.0)
    u = np.where(moved[:, None], u_des + lam[:, None] * a, u_des)
    return FilterOutcome(
        u=u,
        constraint_value=np.where(moved, c + _rowdot(a, u) - rhs, slack),
        modified=moved,
        qp_status=status,
        multiplier=np.where(dead, math.inf, lam),
    )


def filter_unconstrained(a, c: float, rhs: float, u_des) -> FilterOutcome:
    """Project u_des onto the half-space a.u >= rhs - c (inputs unconstrained).

    Already-feasible inputs are returned bit-identical.  Infeasible only
    when a = 0 with the inequality violated, i.e. the barrier condition
    itself fails at this state.
    """
    return _first(filter_unconstrained_block(*_one_row(a, c, rhs, u_des)))


def _breakpoint_search(a, c, rhs, u_des, box, u0):
    """The smallest lam >= 0 with c + a.u(lam) >= rhs, u(lam) = clip(u_des +
    lam*a, box), for one row whose free projection leaves the box; returns
    u(lam) and lam."""
    # component j is free between its two breakpoints, adding a_j^2 to the slope
    j = np.flatnonzero(a)
    ends = (box[j] - u_des[j, None]) / a[j, None]
    times = np.maximum(np.concatenate([ends.min(axis=1), ends.max(axis=1)]), 0.0)
    rates = np.concatenate([a[j] ** 2, -(a[j] ** 2)])
    order = np.argsort(times, kind="stable")
    # gap: how far a.u(lam) still falls short of the target
    lam, gap, slope = 0.0, rhs - c - float(a @ u0), 0.0
    for t, rate in zip(times[order], rates[order]):
        if slope * (t - lam) >= gap:
            lam += gap / slope
            break
        gap -= slope * (t - lam)
        lam, slope = t, slope + rate
    # rounding can leave the slack a few ulps below 0: step lam up until it is not
    step = np.finfo(float).eps * (1.0 + lam)
    u = np.clip(u_des + lam * a, box[:, 0], box[:, 1])
    for _ in range(64):
        if float(c + a @ u - rhs) >= 0.0:
            break
        lam += step
        step *= 2.0
        u = np.clip(u_des + lam * a, box[:, 0], box[:, 1])
    return u, lam


def filter_boxed_block(a, c, rhs, u_des, box) -> FilterOutcome:
    """`filter_boxed` for each row of a block: a and u_des (B, m), c and rhs
    (B,), one box (m, 2) for all rows.  The outcome's fields hold one entry
    per row, each bitwise the one-row result; only the rows whose free
    projection leaves the box run the breakpoint search.  Inputs are not
    validated here."""
    lo, hi = box[:, 0], box[:, 1]
    target = rhs - c
    u = np.clip(u_des, lo, hi)
    au = _rowdot(a, u)
    slack = c + au - rhs
    modified = (u != u_des).any(axis=1)
    status = np.where(modified, "clipped", "analytic").astype(_STATUS)
    multiplier = np.zeros(len(u))
    short = np.flatnonzero(~(au >= target))
    if short.size == 0:
        return FilterOutcome(u=u, constraint_value=slack, modified=modified, qp_status=status,
                             multiplier=multiplier)
    modified[short] = True
    # best achievable value of a.u over the box
    a_s = a[short]
    u_best = np.where(a_s > 0, hi, np.where(a_s < 0, lo, u[short]))
    best = _rowdot(a_s, u_best)
    dead = best < target[short]
    d = short[dead]
    u[d] = u_best[dead]
    slack[d] = c[d] + best[dead] - rhs[d]
    status[d] = "infeasible"
    multiplier[d] = math.inf
    r = short[~dead]
    if r.size:
        # the unconstrained projection is exact where it stays inside the box
        free = filter_unconstrained_block(a[r], c[r], rhs[r], u_des[r])
        inside = ((free.u >= lo) & (free.u <= hi)).all(axis=1)
        k = r[inside]
        u[k] = free.u[inside]
        slack[k] = free.constraint_value[inside]
        modified[k] = free.modified[inside]
        status[k] = free.qp_status[inside]
        multiplier[k] = free.multiplier[inside]
        for i in r[~inside]:
            u[i], multiplier[i] = _breakpoint_search(a[i], c[i], rhs[i], u_des[i], box, u[i])
            slack[i] = c[i] + a[i] @ u[i] - rhs[i]
            status[i] = "clipped"
    return FilterOutcome(u=u, constraint_value=slack, modified=modified, qp_status=status,
                         multiplier=multiplier)


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
    a, c, rhs, u_des = _one_row(a, c, rhs, u_des)
    return _first(filter_boxed_block(a, c, rhs, u_des, _checked_box(box, a.shape[1], "box")))


def make_rhs(alpha: Union[ClassK, ClassKinfK], h_val: float, x_norm: Optional[float] = None) -> float:
    """Right-hand side of the barrier inequality: -alpha(h) or -gamma(h, |x|)."""
    if isinstance(alpha, ClassKinfK):
        if x_norm is None:
            raise InvalidInputError("state norm required for a state-weighted relaxation")
        return -alpha(float(h_val), float(x_norm))
    return -alpha(float(h_val))
