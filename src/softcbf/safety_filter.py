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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import InvalidInputError
from .geometry import _as_states, _check_shapes, _checked_box, call_batched
from .softmin import _constant

__all__ = [
    "ConstantActuation",
    "Expr",
    "LinearDrift",
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


def _operator(op: str, swap: bool = False) -> Callable:
    """Expr's binary operator op, with the operands swapped for the
    reflected one; another operand than an Expr is a finite constant, and
    a divisor must be a nonzero constant."""
    def method(self, other):
        if not isinstance(other, Expr):
            other = Expr("c", float(other))
            if not math.isfinite(other.args[0]):
                raise InvalidInputError(f"an expression constant must be finite, got {other.args[0]}")
        if op == "/" and (swap or other.op != "c" or other.args[0] == 0.0):
            raise InvalidInputError("an expression divides only by a nonzero constant")
        return Expr(op, other, self) if swap else Expr(op, self, other)

    return method


class Expr:
    """A scalar expression in the state x, declared once so that every form
    of it can be generated: state components (`Expr.state(n)`), finite float
    constants, + - * /, negation, `sin`, `tanh` and `Expr.dot(v)`, the dot
    of a constant vector v with x.  A tuple of n of them declares a vector
    field, such as `FusedPlant.closed_loop` or a LinearDrift's components.
    For example, xdot = (x1, x2, -x0 - 2 x1 - 2 x2 - 0.5 x0^3) is

        x0, x1, x2 = Expr.state(3)
        field = (x1, x2, -x0 - 2.0 * x1 - 2.0 * x2 - 0.5 * x0 * x0 * x0)

    `_block_form` writes the field on a block X (B, n), with numpy on the
    columns X[:, i], X.dot(v) and 0-d float64 constants, and `_slope` writes
    it on one state of Python floats into `backup`'s generated one-row
    kernels: Python floats for + - * / and numpy scalar calls for `sin`,
    `tanh` and the dot, so that both forms give the bits of the written
    expression (see FusedPlant).  A divisor must be a nonzero constant, as
    Python's float division raises where numpy gives inf or nan.  The
    operators and constructors above make only valid nodes;
    `ControlAffineSystem` refuses a declared field with any other
    (`_check_field`).
    """

    __array_ufunc__ = None  # a numpy operand defers to the operators below

    def __init__(self, op: str, *args):
        self.op, self.args = op, args

    @staticmethod
    def state(n: int) -> tuple:
        return tuple(Expr("x", i) for i in range(n))

    @staticmethod
    def dot(v) -> "Expr":
        v = np.array(v, dtype=float)
        if v.ndim != 1 or not np.isfinite(v).all():
            raise InvalidInputError(f"a dot needs a finite vector, got shape {v.shape}")
        return Expr("dot", v)

    sin, tanh, __neg__ = [(lambda self, op=op: Expr(op, self)) for op in ("sin", "tanh", "-")]
    __add__, __radd__, __sub__, __rsub__ = _operator("+"), _operator("+", True), _operator("-"), _operator("-", True)
    __mul__, __rmul__ = _operator("*"), _operator("*", True)
    __truediv__, __rtruediv__ = _operator("/"), _operator("/", True)

    def _code(self, src: Optional[str], name: Callable) -> str:
        """The source of this expression on the block X where src is None,
        else on the state src0, src1, ... of Python floats.  name(value)
        adds a constant of the block form to the generated code's scope and
        returns its name; in the row form it takes a dot node and returns
        the local name of its value (see `_slope`)."""
        op, args = self.op, self.args
        if op == "x":
            return f"X[:, {args[0]}]" if src is None else f"{src}{args[0]}"
        if op == "c":
            return name(_constant(args[0])) if src is None else repr(args[0])
        if op == "dot":
            return f"X.dot({name(args[0])})" if src is None else name(self)
        inner = [a._code(src, name) for a in args]
        if op in ("sin", "tanh"):
            return f"{op}({inner[0]})" if src is None else f"float({op}({inner[0]}))"
        return f"(-{inner[0]})" if len(inner) == 1 else f"({inner[0]} {op} {inner[1]})"


def _check_field(field, n: int):
    """Raise InvalidInputError unless field is a tuple of n Exprs whose
    every node is one that Expr's operators and constructors make on states
    of dimension n: a state index below n, a finite float constant, a
    finite float64 dot vector of length n, and + - * / sin tanh with Expr
    operands, a divisor a nonzero constant."""
    def fits(e):
        op, args = e.op, e.args
        a = args[0] if len(args) == 1 else None
        if op in ("x", "c", "dot"):
            return (type(a) is int and 0 <= a < n if op == "x" else type(a) is float and math.isfinite(a) if op == "c"
                    else isinstance(a, np.ndarray) and a.dtype == float and a.shape == (n,) and np.isfinite(a).all())
        return (len(args) in _ARITY.get(op, ()) and all(isinstance(b, Expr) and fits(b) for b in args)
                and (op != "/" or args[1].op == "c" and args[1].args[0] != 0.0))

    if not (isinstance(field, tuple) and len(field) == n and all(isinstance(e, Expr) and fits(e) for e in field)):
        raise InvalidInputError(f"a closed loop must be n = {n} Exprs that Expr's operators make on x0 to x{n - 1}, got "
                                f"{[type(e).__name__ for e in field] if isinstance(field, tuple) else type(field).__name__}")


# the operand counts of each inner node of an Expr
_ARITY = {"sin": (1,), "tanh": (1,), "-": (1, 2), "+": (2,), "*": (2,), "/": (2,)}
# the numpy names that code generated from Exprs calls
_EXPR_NAMES = {"empty": np.empty, "sin": np.sin, "tanh": np.tanh}


def _name(scope: dict, value) -> str:
    """A fresh name for value in the scope of generated code."""
    scope[f"k{len(scope)}"] = value
    return f"k{len(scope) - 1}"


@functools.lru_cache(maxsize=64)
def _block_form(field: tuple) -> Callable:
    """The block form X (B, n) -> (B, n) of a field declared as a tuple of n
    Exprs (see Expr), generated at its first use by one compile/exec, as
    `backup._row_kernels` is, and cached while the tuple lives in the cache."""
    scope = dict(_EXPR_NAMES)
    body = "".join(f"\n    out[:, {i}] = {e._code(None, functools.partial(_name, scope))}" for i, e in enumerate(field))
    source = f"def block(X):\n    out = empty((len(X), {len(field)})){body}\n    return out\n"
    exec(compile(source, "<softcbf block form>", "exec"), scope)
    return scope["block"]


def _slope(field: tuple, scope: dict) -> tuple:
    """(slope, prologue) for the kernel templates of `backup`: slope(src,
    dst) is the statement that sets dst0, ... to the field on the stage
    state src0, ... of Python floats, and prologue the statement that makes
    the kernel's own operand arrays, or "" where the field takes no dot.
    Each dot of a stage runs first, as its vector's bound ndarray.dot on
    the operand o_, filled with the stage state, into the 0-d r_, both
    written and read through memoryviews, which cost less than ndarray
    item access; the dot's bits are those of a fresh operand per call.
    Its constants go into scope, which must hold `_EXPR_NAMES`."""

    def slope(src, dst):
        n, pre = len(field), []

        def dot(e):
            k = _name(scope, e.args[0].dot)
            pre.append(f"{k}(o_, r_); {k}_ = rm[()]")
            return f"{k}_"

        code = [f"{dst}{i} = {e._code(src, dot)}" for i, e in enumerate(field)]
        fill = [f"om[{i}] = {src}{i}" for i in range(n)] if pre else []
        return "; ".join(fill + pre + code)

    operands = f"o_, r_ = empty({len(field)}), empty(()); om, rm = memoryview(o_), memoryview(r_)"
    return slope, operands if "rm[" in slope("x", "a") else ""


@functools.lru_cache(maxsize=64)
def _linear_field(terms: tuple) -> tuple:
    """The LinearDrift of `terms` as a tuple of Exprs, one per component:
    the left fold of its products A[i, j] * x_j, with x_j for A[i, j] = 1.0,
    or the constant 0.0 for a row with none.  Cached by terms, so that
    every drift of one matrix shares one tuple and its generated forms."""
    x = Expr.state(len(terms))
    sums = ([x[j] if a == 1.0 else a * x[j] for j, a in row] for row in terms)
    return tuple(sum(t[1:], t[0]) if t else Expr("c", 0.0) for t in sums)


class LinearDrift:
    """Drift f0(x) = A x, declared as a finite (n, n) matrix A, as a callable
    that follows the system contract: a block (B, n) gives (B, n).

    Component i is the sum, in j order, of A[i, j] * x_j over the nonzero
    entries of row i, and 0.0 where the row has none, declared once as the
    Exprs `field` (`_linear_field`); the block form is generated from them
    at the first call (`_block_form`), one numpy operation per term.  So
    1.0 * x_j is x_j exactly, and a hand-written drift such as
    `out[:, 0] = X[:, 1]` or `-1.0 * X` has the same bits.  On a
    ConstantActuation, `sim.run` steps a block of up to `sim._PLANT_ROWS`
    rows on a plant kernel generated from the same field, with these sums
    written into its RK4 stages (see `sim._plant_block`).
    """

    def __init__(self, A):
        A = np.array(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or not np.isfinite(A).all():
            raise InvalidInputError(f"a linear drift matrix must be finite and square, got shape {A.shape}")
        self.A = A
        # per component, the (j, A[i, j]) of its row's nonzero entries in j
        # order, as Python ints and floats
        self.terms = tuple(tuple((int(j), float(A[i, j])) for j in np.flatnonzero(A[i])) for i in range(len(A)))
        self.field = _linear_field(self.terms)

    @functools.cached_property
    def _block(self) -> Callable:
        return _block_form(self.field)

    def __call__(self, X):
        return self._block(X)


@dataclass(frozen=True)
class FusedPlant:
    """The plant drift(X) + actuation(X) @ U in one pass, declared for the
    drift and actuation it fuses, and optionally the closed loop under one
    controller in one pass, declared for that controller.

    `plant` maps blocks X (B, n) and U (B, m) to (B, n), bit for bit the
    composed `drift(X) + einsum("bij,bj->bi", actuation(X), U)` on finite
    states and inputs, including the sign of zero: the einsum adds an exact
    +0.0 to every component.  `closed_loop`, given with `controller`, is
    the field X -> plant(X, controller(X)), bit for bit on finite states,
    sign of zero included, declared as a tuple of n Exprs (see Expr), from
    which its block form (`_block_form`) and the one-row flows' kernel
    (`backup._inline_kernel`) are generated.

    `drift_row` is the drift's hand-written row form on one state: it maps
    a tuple of n floats to a tuple (or list) of n floats, bit for bit the
    block form on that one-row block.  It serves `sim.run`'s plant steps of
    a block of up to `sim._PLANT_ROWS` rows, with each row's held input
    added, while `actuation` is a ConstantActuation (see `sim._plant_block`);
    a LinearDrift needs none, as its plant steps take a kernel with the
    drift written inline.  It is called from the straight-line kernel
    generated for n (see `backup._row_kernels`), which unpacks every output
    into n local floats: the initial state's output is checked to be n
    floats, and any later output of another length raises
    InvalidInputError.  Only + - * / may be Python float arithmetic; the
    rest goes through the block form's numpy kernels (a bound ndarray.dot
    for a one-row product, which reaches the BLAS dot of the block's matmul,
    np.sin, np.tanh, ...), since `math` and a written-out dot differ in the
    last bit.  A product's operand should be a fresh float64 array filled by
    item assignment, not the state tuple, which numpy converts at every
    call; a buffer shared across calls would not be thread-safe.  A row form
    must not raise on overflow: a square is `x * x`, as Python's float `**`
    raises.  The kernels generated from a declared closed loop keep these
    rules.
    """

    plant: Callable
    drift: Callable
    actuation: Callable
    drift_row: Optional[Callable] = None
    controller: Optional[Callable] = None
    closed_loop: Optional[tuple] = None


@dataclass(frozen=True)
class ControlAffineSystem:
    """Dynamics xdot = drift(x) + actuation(x) @ u with an optional box input set.

    drift maps a block of states (B, n) to (B, n) and actuation maps it to
    (B, n, m); neither is called on one state (n,).  The package calls them
    once per block and never falls back to a loop over rows; the closed-loop
    field built from them (`closed_loop`) raises InvalidInputError when
    either, or the controller, returns the wrong shape for a block.  An
    actuation that does not depend on the state is best given as a
    ConstantActuation, and a linear one as a LinearDrift, whose matrix
    must be (n, n).
    input_box, when present, is (m, 2) rows [lo, hi].

    fused, when given, is a FusedPlant, which applies only while its drift
    and actuation are this system's very objects (`_fused_plant`).  Then
    `closed_loop(controller)` is its `closed_loop` while the controller is
    its declared `controller`, and the controller followed by its `plant`
    for any other controller; otherwise it is the composed field: drift,
    actuation and controller, summed by an einsum.  So a `dataclasses.replace`
    that swaps the drift or the actuation, such as one that wraps them to
    count their calls, falls back to the composed field, and a wrapped
    controller, such as a step clock, to the plant.
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
        if isinstance(self.drift, LinearDrift) and self.drift.A.shape != (self.n, self.n):
            raise InvalidInputError(f"linear drift matrix {self.drift.A.shape} does not match n = {self.n}")
        if self.fused is not None and self.fused.closed_loop is not None:
            _check_field(self.fused.closed_loop, self.n)
        if self.input_box is not None:
            object.__setattr__(self, "input_box", _checked_box(self.input_box, self.m, "input box"))

    def closed_loop(self, controller: Callable) -> Callable[[np.ndarray], np.ndarray]:
        """Vector field X -> drift(X) + actuation(X) @ controller(X) on a
        block (B, n), on the fused forms while they apply.  The controller
        follows the same contract as the dynamics, returning (B, m); the
        input and every output shape are checked at every call."""
        return self._closed_loop_fields(controller)[0]

    def _fused_plant(self, controller: Optional[Callable] = None) -> Optional[FusedPlant]:
        """`fused` while its drift and actuation are this system's and, given
        a controller, while that is its declared `controller`; else None."""
        p = self.fused
        if (p is not None and p.drift is self.drift and p.actuation is self.actuation
                and (controller is None or controller is p.controller)):
            return p
        return None

    def _closed_loop_fields(self, controller: Callable) -> tuple:
        """`closed_loop(controller)`, the same field on (B, n) blocks without
        its checks, for a flow's RK4 steps after its first, and the fused
        closed loop's declared tuple of Exprs, for one-row flows, or None."""
        n, m = self.n, self.m
        loop = self._fused_plant(controller)
        if loop is not None and loop.closed_loop is not None:
            f = _block_form(loop.closed_loop)
            return lambda X: call_batched(f, _as_states(X, n), (n,)), f, loop.closed_loop
        p = self._fused_plant()
        if p is not None:
            plant = p.plant

            def F(X):
                X = _as_states(X, n)
                u = controller(X)
                _check_shapes("controller", [u], [(len(X), m)])
                out = plant(X, u)
                _check_shapes("fused plant", [out], [(len(X), n)])
                return out

            return F, lambda X: plant(X, controller(X)), None

        def F(X):
            X = _as_states(X, n)
            f0, g, u = self.drift(X), self.actuation(X), controller(X)
            B = len(X)
            _check_shapes("drift, actuation and controller", [f0, g, u], [(B, n), (B, n, m), (B, m)])
            return f0 + np.einsum("bij,bj->bi", g, u)

        return F, lambda X: self.drift(X) + np.einsum("bij,bj->bi", self.actuation(X), controller(X)), None


@dataclass(frozen=True)
class ClassK:
    """Strictly increasing relaxation function with alpha(0) = 0.

    kind 'linear': kappa*h; 'cubic': kappa*h^3; 'tanh': kappa*tanh(scale*h)
    (bounded, so not suitable where an unbounded relaxation is required).
    All forms extend oddly to negative arguments, which is what the filter
    needs when the barrier value dips below zero.  kappa and scale are held
    as Python floats.
    """

    kind: str = "linear"
    kappa: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "cubic", "tanh"):
            raise InvalidInputError(f"unknown class-K kind {self.kind!r}")
        if not (0 < self.kappa < math.inf and 0 < self.scale < math.inf):
            raise InvalidInputError(f"class-K kappa {self.kappa} and scale {self.scale} must be finite and positive")
        try:
            object.__setattr__(self, "kappa", float(self.kappa))
            object.__setattr__(self, "scale", float(self.scale))
        except OverflowError:  # an int beyond the float range
            raise InvalidInputError("class-K kappa and scale must be finite, got an int beyond the float range") from None

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
    one; it is inf when the filter is infeasible.  It can also be inf on a
    feasible boxed row where a.a is tiny against the shortfall, when the
    exact lam overflows: for a = [1e-160], c = 0, rhs = 1, u_des = [0.5] on
    the box [-1e200, 1e200], the outcome is clipped with u = [1e200] and
    multiplier inf, where u = [1e160] would meet the constraint."""

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
# the block filters' internal status codes: a code indexes this table, whose
# last entry, "", is the status `sim.run` records where the filter did not run
_STATUS_NAMES = np.array(["analytic", "clipped", "infeasible", ""], dtype=_STATUS)
_CLIPPED, _INFEASIBLE = 1, 2  # and 0, analytic


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


def _outcome(u, slack, modified, codes, multiplier, infeasible) -> FilterOutcome:
    """The FilterOutcome of a block filter's internal rows."""
    return FilterOutcome(u=u, constraint_value=slack, modified=modified, qp_status=_STATUS_NAMES[codes],
                         multiplier=multiplier)


def _unconstrained_rows(a, c, rhs, u_des, nrm2) -> tuple:
    """`filter_unconstrained_block` given nrm2 = _rowdot(a, a), as the tuple
    (u, slack, modified, status codes, multiplier, infeasible), where the
    codes index _STATUS_NAMES and `infeasible` is the mask of the rows with
    status infeasible, or None when there is none."""
    au = _rowdot(a, u_des)
    slack = c + au - rhs
    gap = rhs - c - au
    short = ~(slack >= 0.0)
    moved = short & (nrm2 != 0.0)
    if moved.all():
        # every row moves, as on almost every closed-loop step: np.where(moved,
        # x, y) is then x, so the rows are bitwise those of the masked form
        lam = gap / nrm2
        over = np.isinf(lam)
        if not over.any():
            u = u_des + lam[:, None] * a
            return u, c + _rowdot(a, u) - rhs, moved, np.zeros(len(u), np.int8), lam, None
    else:
        # lam is 0 on the rows that keep u_des; where() keeps them bitwise
        lam = np.where(moved, gap, 0.0) / np.where(moved, nrm2, 1.0)
        over = np.isinf(lam)
    # where a.a is tiny against the shortfall (a subnormal, say), lam
    # overflows: no finite step along a meets the constraint, so the row is
    # infeasible, as where a = 0
    if over.any():
        moved &= ~over
        lam[over] = 0.0
    dead = short & ~moved
    u = np.where(moved[:, None], u_des + lam[:, None] * a, u_des)
    codes = np.zeros(len(u), np.int8)
    codes[dead] = _INFEASIBLE
    return (u, np.where(moved, c + _rowdot(a, u) - rhs, slack), moved, codes, np.where(dead, math.inf, lam),
            dead if dead.any() else None)


def filter_unconstrained_block(a, c, rhs, u_des) -> FilterOutcome:
    """`filter_unconstrained` for each row of a block: a and u_des (B, m), c
    and rhs (B,).  The outcome's fields hold one entry per row, each bitwise
    the one-row result.  Inputs are not validated here."""
    return _outcome(*_unconstrained_rows(a, c, rhs, u_des, _rowdot(a, a)))


def filter_unconstrained(a, c: float, rhs: float, u_des) -> FilterOutcome:
    """Project u_des onto the half-space a.u >= rhs - c (inputs unconstrained).

    Already-feasible inputs are returned bit-identical.  Infeasible when
    the inequality is violated and no finite step along a meets it: where
    a = 0 (or a.a underflows to 0), the barrier condition itself fails at
    this state, and where a.a is so small against the shortfall (a
    subnormal, say) that the multiplier lam = (rhs - c - a.u_des) / a.a
    overflows, u_des + lam*a would not be finite.  An infeasible input keeps
    u_des, with multiplier inf.
    """
    return _first(filter_unconstrained_block(*_one_row(a, c, rhs, u_des)))


def _breakpoint_search(a, c, rhs, u_des, box, u0):
    """The smallest lam >= 0 with c + a.u(lam) >= rhs, u(lam) = clip(u_des +
    lam*a, box), for one row whose free projection leaves the box; returns
    u(lam) and lam.

    Where max |a_j| < 0.5, the walk runs on a and the target scaled up by
    the power of two s that brings max |a_j| into [0.5, 1), so that the
    slopes a_j^2 do not underflow where a is tiny; lam is unscaled before
    the ulp correction; s is at most 2**1023, the largest finite power of
    two.  Scaling up by a power of two is exact, subnormal components
    included, so a row whose walk stays in the normal range has the bits of
    the unscaled walk, and a row with max |a_j| >= 0.5 runs unscaled.
    Where lam overflows to inf, u is u0 with each component whose a_j != 0
    at its box edge in the direction of a_j."""
    s = math.ldexp(1.0, min(max(0, -math.frexp(float(np.abs(a).max()))[1]), 1023))
    a_s = a * s
    # component j is free between its two breakpoints and fixed elsewhere:
    # at u0_j before, at the box edge it moves to after
    j = np.flatnonzero(a_s)
    k, aj, d = len(j), a_s[j].tolist(), u_des[j].tolist()
    fixed, edge = u0[j].tolist(), np.where(a_s[j] > 0, box[j, 1], box[j, 0]).tolist()
    ends = (box[j] - u_des[j, None]) / a_s[j, None]
    times = np.maximum(np.concatenate([ends.min(axis=1), ends.max(axis=1)]), 0.0)
    order = np.argsort(times, kind="stable")
    free, lam = [False] * k, 0.0
    for t, e in zip(times[order].tolist(), order.tolist()):
        # where a.u(lam) meets the target on the segment from the last
        # breakpoint lam to t: (target - a.u(0), the free components at
        # u_des) / (sum of their a_j^2), each sum correctly rounded, as a
        # running gap or slope would carry the rounding of a large a_j^2
        # into a small remainder
        slope = math.fsum([x * x for x, f in zip(aj, free) if f])
        if t > lam and slope > 0.0:
            rest = math.fsum([(rhs - c) * s] + [-x * (y if f else v) for x, f, y, v in zip(aj, free, d, fixed)])
            lam = max(lam, rest / slope)
            if lam <= t:
                break
        free[e % k] = e < k
        if e >= k:
            fixed[e - k] = edge[e - k]
        lam = t
    lam *= s

    def clipped(lam):
        if lam < math.inf:
            return np.clip(u_des + lam * a, box[:, 0], box[:, 1])
        # where lam overflows, inf * 0 would be nan: only the components
        # with a_j != 0 move, to their box edge
        return np.where(a > 0, box[:, 1], np.where(a < 0, box[:, 0], u0))

    # rounding can leave the slack a few ulps below 0: step lam up until it
    # is not, from one ulp of lam (an absolute eps would overshoot a lam << 1)
    step = math.ulp(lam)
    u = clipped(lam)
    for _ in range(64):
        if float(c + a @ u - rhs) >= 0.0:
            break
        lam += step
        step *= 2.0
        u = clipped(lam)
    return u, lam


def _boxed_rows(a, c, rhs, u_des, box, nrm2) -> tuple:
    """`filter_boxed_block` given nrm2 = _rowdot(a, a), as the tuple of
    `_unconstrained_rows`."""
    lo, hi = box[:, 0], box[:, 1]
    target = rhs - c
    u = np.clip(u_des, lo, hi)
    au = _rowdot(a, u)
    slack = c + au - rhs
    modified = (u != u_des).any(axis=1)
    codes = modified.astype(np.int8)  # _CLIPPED where modified, else analytic
    multiplier = np.zeros(len(u))
    short = np.flatnonzero(~(au >= target))
    if short.size == 0:
        return u, slack, modified, codes, multiplier, None
    modified[short] = True
    # best achievable value of a.u over the box
    a_s = a[short]
    u_best = np.where(a_s > 0, hi, np.where(a_s < 0, lo, u[short]))
    best = _rowdot(a_s, u_best)
    dead = best < target[short]
    d = short[dead]
    u[d] = u_best[dead]
    slack[d] = c[d] + best[dead] - rhs[d]
    codes[d] = _INFEASIBLE
    multiplier[d] = math.inf
    r = short[~dead]
    if r.size:
        free_u, free_slack, free_moved, free_codes, free_lam, free_dead = _unconstrained_rows(
            a[r], c[r], rhs[r], u_des[r], nrm2[r])
        # the unconstrained projection is exact where it stays inside the box;
        # a row it finds infeasible is feasible on the box, so it is searched
        inside = ((free_u >= lo) & (free_u <= hi)).all(axis=1)
        if free_dead is not None:
            inside &= ~free_dead
        k = r[inside]
        u[k] = free_u[inside]
        slack[k] = free_slack[inside]
        modified[k] = free_moved[inside]
        codes[k] = free_codes[inside]
        multiplier[k] = free_lam[inside]
        for i in r[~inside]:
            u[i], multiplier[i] = _breakpoint_search(a[i], c[i], rhs[i], u_des[i], box, u[i])
            slack[i] = c[i] + a[i] @ u[i] - rhs[i]
            codes[i] = _CLIPPED
    return u, slack, modified, codes, multiplier, (codes == _INFEASIBLE) if d.size else None


def filter_boxed_block(a, c, rhs, u_des, box) -> FilterOutcome:
    """`filter_boxed` for each row of a block: a and u_des (B, m), c and rhs
    (B,), one box (m, 2) for all rows.  The outcome's fields hold one entry
    per row, each bitwise the one-row result; only the rows whose free
    projection leaves the box, or which it finds infeasible, run the
    breakpoint search.  Inputs are not validated here."""
    return _outcome(*_boxed_rows(a, c, rhs, u_des, box, _rowdot(a, a)))


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
