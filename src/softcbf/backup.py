"""Backup-controller barrier pipeline.

A backup controller k_b renders a small terminal set (h_b >= 0) safe.
Flowing the closed loop forward for a horizon T and sampling the safe-set
function h at uniform slice times tau_i gives the slice constraints

    b_i(x) = h(phi(x, tau_i))   for i < N,
    b_N(x) = h_b(phi(x, T)),

whose pointwise minimum describes the set of states that reach the
terminal set without leaving the safe set.  Gradients come from the flow
sensitivity: grad b_i = D_x phi(x, tau_i)^T grad_h(phi(x, tau_i)), where
the sensitivity matrix solves the variational system Sdot = J_F(x(t)) S
along the trajectory.  The smooth minimum of the slice constraints is then
certified exactly like any other constraint family.

Integration is fixed-step RK4 on a grid aligned with the slice times, so
slice values never require interpolation.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import softmin as sm
from .errors import BlowUpError, DomainError, InvalidInputError
from .geometry import ConstraintSet, _as_states, _checked_box, call_batched
from .safety_filter import _EXPR_NAMES, ControlAffineSystem, _slope

__all__ = [
    "BackupProblem",
    "ValueForms",
    "IntegratorStats",
    "FlowResult",
    "BatchFlowResult",
    "BackupBarrier",
    "rk4_step",
    "integrate_flow",
    "integrate_flow_batch",
    "backup_barrier",
    "slice_values_batch",
    "slice_constraint_set",
    "CheckResult",
    "BackupPreconditionReport",
    "check_backup_preconditions",
]


@dataclass(frozen=True)
class ValueForms:
    """Values-only forms of the very h and h_b named in the last two fields:
    `h_value` and `h_b_value` map a block (B, n) to (B,), bit for bit h(X)[0]
    and h_b(X)[0], sign of zero included (see `BackupProblem.value_forms`)."""

    h_value: Callable
    h_b_value: Callable
    h: Callable
    h_b: Callable


@dataclass(frozen=True)
class BackupProblem:
    """Backup certification problem.

    Every callable maps a block of states (B, n) and is never called on
    one state (n,); a wrong output shape raises InvalidInputError (see
    `geometry.call_batched`).  h and h_b map a block to (values (B,),
    gradients (B, n)); the slice values of a flow from B states call h
    once, on its N - 1 slices stacked into one ((N - 1) * B, n) block, and
    h_b once, on the last.  k_b maps a block to inputs (B, m) inside the
    admissible set and must be continuously differentiable.
    jacobian, when given, is the analytic Jacobian (B, n, n) of the
    closed-loop field; otherwise central finite differences are used.
    bounding_box is the operating region used by sampling-based
    certification.

    The closed-loop field is `sys.closed_loop(k_b)`, on the system's fused
    forms while they apply (see `ControlAffineSystem`): the fused closed
    loop, on a kernel generated from its declared Exprs on one-row flows,
    while k_b is the declared controller.  A flow checks its field on its
    first RK4 step only.

    value_forms, when given, serve the reads of h and h_b that take no
    gradient (see ValueForms): slice values without sensitivities, the
    slice screen and the reachability test of `check_backup_preconditions`.
    They apply only while h and h_b are the very objects they were declared
    for; otherwise those reads take h(X)[0] and h_b(X)[0].
    """

    sys: ControlAffineSystem
    k_b: Callable
    h: Callable
    h_b: Callable
    T: float
    dtau: float
    jacobian: Optional[Callable] = None
    h_max: float = 1e-2
    bounding_box: Optional[np.ndarray] = None
    value_forms: Optional[ValueForms] = None

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.T, self.dtau, self.h_max)):
            raise DomainError(f"horizon {self.T}, slice interval {self.dtau} and h_max {self.h_max} must be finite")
        if self.T <= 0 or self.dtau <= 0:
            raise DomainError("horizon and slice interval must be positive")
        slices = self.T / self.dtau
        if abs(slices - round(slices)) > 1e-9:
            raise InvalidInputError(
                f"slice interval {self.dtau} does not divide the horizon {self.T}"
            )
        if round(slices) < 1:
            raise InvalidInputError(f"horizon {self.T} is shorter than one slice interval {self.dtau}")
        if self.h_max <= 0:
            raise DomainError("h_max must be positive")
        if self.bounding_box is not None:
            object.__setattr__(self, "bounding_box", _checked_box(self.bounding_box, self.sys.n, "bounding box"))

    @property
    def N(self) -> int:
        return int(round(self.T / self.dtau)) + 1

    @property
    def slice_times(self) -> np.ndarray:
        return np.arange(self.N) * self.dtau

    def _value_fns(self) -> tuple:
        """h and h_b as values-only block functions X -> (B,)."""
        v, n = self.value_forms, self.sys.n
        if v is not None and v.h is self.h and v.h_b is self.h_b:
            return v.h_value, v.h_b_value
        return [lambda X, f=f: call_batched(f, X, (), (n,))[0] for f in (self.h, self.h_b)]


# stage rows per Jacobian call of a block flow (whole RK4 steps, at least one)
_JACOBIAN_ROWS = 8192


def _make_jacobian(prob: BackupProblem, F: Callable) -> Callable:
    """Jacobian of the closed-loop field F on (B, n) blocks: the analytic
    one when supplied, its shape checked at every call, otherwise central
    differences with a state-scaled step."""
    n = prob.sys.n
    if prob.jacobian is not None:
        return lambda X: call_batched(prob.jacobian, X, (n, n))

    def fd_jacobian(X: np.ndarray) -> np.ndarray:
        B = X.shape[0]
        delta = 1e-6 * (1.0 + np.linalg.norm(X, axis=1))
        J = np.empty((B, n, n))
        for k in range(n):
            step = np.zeros_like(X)
            step[:, k] = delta
            J[:, :, k] = (F(X + step) - F(X - step)) / (2.0 * delta[:, None])
        return J

    return fd_jacobian


@dataclass(frozen=True)
class IntegratorStats:
    steps: int


@dataclass(frozen=True)
class FlowResult:
    """Flow and sensitivity of one initial state at every slice time.

    states[i] = phi(x0, tau_i); sensitivities[i] = D_x phi(x0, tau_i), with
    sensitivities[0] the identity.
    """

    states: np.ndarray
    sensitivities: np.ndarray
    stats: IntegratorStats


@dataclass(frozen=True)
class BatchFlowResult:
    """Same as FlowResult for a block of initial states: states has shape
    (N, B, n) and sensitivities (N, B, n, n).  A values-only flow has
    sensitivities None."""

    states: np.ndarray
    sensitivities: Optional[np.ndarray]
    stats: IntegratorStats


_TWO = sm._constant(2.0)


@functools.lru_cache(maxsize=64)
def _rk4_constants(h: float) -> tuple:
    """0.5 * h, h and h / 6.0 as read-only 0-d float64 arrays (see
    `softmin._constant`), made once per step size."""
    return sm._constant(0.5 * h), sm._constant(h), sm._constant(h / 6.0)


def rk4_step(F: Callable, X: np.ndarray, h: float):
    """One classical RK4 step of xdot = F(x) from X: returns the next state
    and the four stage states (X, X2, X3, X4) at which F was evaluated.

    The coefficients 0.5 * h, h, h / 6.0 and 2.0 are read-only 0-d float64
    arrays, cached per h, which skip the conversion a Python float costs at
    every ufunc call.  X and F's outputs must be float64, as they are in
    every flow and plant step of the package; the step then has the bits of
    Python-float coefficients.  Under NEP 50 a 0-d float64 array is a strong
    operand, so on a field that returns float32 the products k * coefficient
    are float64, not rounded to float32 as a Python float would leave them."""
    half, h, sixth = _rk4_constants(h)
    k1 = F(X)
    X2 = X + half * k1
    k2 = F(X2)
    X3 = X + half * k2
    k3 = F(X3)
    X4 = X + h * k3
    k4 = F(X4)
    return X + sixth * (k1 + _TWO * k2 + _TWO * k3 + k4), (X, X2, X3, X4)


def _check_row(f: Callable, out, n: int):
    """Raise InvalidInputError unless `out`, an output of the row form f on
    one state, is a tuple or list of n floats: on the initial state before
    a row path starts, and in the generated RK4 kernels on a ValueError."""
    if not (isinstance(out, (tuple, list)) and len(out) == n and all(isinstance(v, float) for v in out)):
        raise InvalidInputError(
            f"{getattr(f, '__qualname__', f)} returned {out!r} for one state; expected {n} floats"
        ) from None


def _namers(n: int) -> tuple:
    """The text helpers of the generated kernels for state dimension n:
    names(stem, k=n) lists the local names stem0, ... as a target list
    ("x0, x1," for stem "x" and k = 2), and each(form, k=n, sep="; ") is
    form once per component, with {0} as its index."""
    return (lambda stem, k=n: ", ".join(f"{stem}{i}" for i in range(k)) + ",",
            lambda form, k=n, sep="; ": sep.join(form.format(i) for i in range(k)))


def _rk4_row_source(n: int, slope: Callable, prologue: str = "", held: bool = False) -> str:
    """The source of a one-row RK4 kernel for state dimension n, where
    slope(src, dst) is the statement that sets the stage slopes dst0, ...
    from the stage state src0, ...: one call of the drift row form f
    (`_row_kernels`), or a declared field written inline
    (`_inline_kernel`), after the statement prologue.  With `held` it is
    plant_row, which adds the held row g to each stage's slopes, else
    interval_row, which writes the stage states into out."""
    names, each = _namers(n)
    add = {d: "; " + each(d + "{0} += g{0}") if held else "" for d in "abcd"}
    if held:
        head, record = f"plant_row(f, x, g, h, n_sub):\n    {names('g')} = g", ""
    else:
        head = "interval_row(f, x, h, n_sub, out, o):"
        record = "".join(f"; out[o + {k * n + i}] = {s}{i}" for k, s in enumerate("xyzw") for i in range(n))
        record += f"; o += {4 * n}"
    return f"""
def {head}
    half = 0.5 * h; sixth = h / 6.0; {prologue}
    {names("x")} = k = x
    try:
        for _ in range(n_sub):
            {slope("x", "a")}{add["a"]}; {each("y{0} = x{0} + half * a{0}")}
            {slope("y", "b")}{add["b"]}; {each("z{0} = x{0} + half * b{0}")}
            {slope("z", "c")}{add["c"]}; {each("w{0} = x{0} + h * c{0}")}
            {slope("w", "d")}{add["d"]}{record}
            {names("x")} = {each("x{0} + sixth * (a{0} + 2.0 * b{0} + 2.0 * c{0} + d{0})", sep=", ")},
    except ValueError:
        check_row(f, k, {n}); raise
    return {names("x")}
"""


@functools.lru_cache(maxsize=None)
def _row_kernels(n: int) -> tuple:
    """(sensitivity_row, plant_row), the one-row kernels for state dimension
    n, generated from n alone by one compile/exec (as dataclasses writes an
    __init__), so one implementation serves every n with no per-element
    loop: each state component, stage slope and entry of S is a local name.

    sensitivity_row(J, S, h) runs the variational recursion over one slice
    interval, with S = D_x phi as n*n floats and J the interval's
    (4*n_sub, n, n) stage Jacobians, and returns the new S as a tuple.  The
    elementwise updates run on Python floats in the block body's order;
    the products J_k @ T stay BLAS calls on one reused (n, n) buffer T,
    written through a memoryview and read back from P, as the block body's
    gemm computes each entry with fused multiply-adds that Python float
    arithmetic cannot reproduce.  For n >= 2 they go through ndarray.dot,
    the same gemm as np.matmul at about a third of its dispatch; for n = 1
    they stay np.matmul, as dot then multiplies the two scalars and keeps
    the -0.0 that gemm's sum turns into +0.0.

    plant_row(f, x, g, h, n_sub) is a plant step's n_sub RK4 steps of size
    h on one state x, a tuple of n floats, for the row form
    x -> f(x) + g of a drift row f and a held row g of n floats (see
    `sim._plant_block`): each stage adds g to f's output component by
    component, like the block sum drift(X) + held, then runs `rk4_step`'s
    operations in its order, so the same bits, without numpy's per-call
    dispatch.  It returns the final state as a tuple.  A stage output that
    does not unpack into n values raises InvalidInputError; a ValueError
    raised in f itself propagates unchanged.  It comes from the template
    `_rk4_row_source`, which `_inline_kernel` shares.

    test_row_kernels_equal_reference_loop_bodies_bitwise,
    test_row_flows_equal_one_row_block_flows_bitwise and
    test_sensitivity_row_matches_matmul_reference_on_signed_zeros keep the
    kernels equal to the loop bodies they replace and to the block bodies."""
    names, each = _namers(n)
    # k holds the row form's latest output (x before its first), so after a
    # ValueError a k of n floats means the error came from inside f
    m = n * n
    source = f"""
def sensitivity_row(J, S, h):
    half = 0.5 * h; sixth = h / 6.0
    T, P = empty(({n}, {n})), empty(({n}, {n}))
    t, p = memoryview(T.reshape(-1)), memoryview(P.reshape(-1))
    {names("s", m)} = S
    for J1, J2, J3, J4 in zip(*[iter(J)] * 4):
        {each("t[{0}] = s{0}", m)}; prod(J1, T, out=P); {names("a", m)} = p
        {each("t[{0}] = s{0} + half * a{0}", m)}; prod(J2, T, out=P); {names("b", m)} = p
        {each("t[{0}] = s{0} + half * b{0}", m)}; prod(J3, T, out=P); {names("c", m)} = p
        {each("t[{0}] = s{0} + h * c{0}", m)}; prod(J4, T, out=P); {names("d", m)} = p
        {names("s", m)} = {each("s{0} + sixth * (a{0} + 2.0 * b{0} + 2.0 * c{0} + d{0})", m, ", ")},
    return {names("s", m)}
"""
    source += _rk4_row_source(n, lambda src, dst: f"k = f(({names(src)})); {names(dst)} = k", held=True)
    scope = {"check_row": _check_row, "empty": np.empty,
             "prod": np.matmul if n == 1 else np.ndarray.dot}
    exec(compile(source, f"<softcbf row kernels n={n}>", "exec"), scope)
    return scope["sensitivity_row"], scope["plant_row"]


@functools.lru_cache(maxsize=64)
def _inline_kernel(field: tuple, held: bool) -> Callable:
    """The one-row RK4 kernel of a field declared as a tuple of n Exprs,
    written into each RK4 stage (see `safety_filter._slope`), so a step has
    `rk4_step`'s bits on its block form and makes no Python call per stage.

    Without `held` it is interval_row(f, x, h, n_sub, out, o), a slice
    interval's n_sub `rk4_step`s on one state x, a tuple of floats, which
    writes the four stage states of each step, 4*n floats, into the float64
    memoryview out from index o on, and returns the final state as a
    tuple.  With `held` it is `_row_kernels(n)`'s plant_row(f, x, g, h,
    n_sub) with the field in place of f's output.  Neither calls f, which
    may be None.  Generated at the first flow or plant step on each field,
    by one compile/exec like `_row_kernels`; unlike those, keyed by n, the
    cache is keyed by the field, so it keeps the kernels of at most 64
    fields, not one for every field a program declares (a LinearDrift's
    field is shared by every drift of its matrix, see `_linear_field`)."""
    scope = {"check_row": _check_row, **_EXPR_NAMES}
    exec(compile(_rk4_row_source(len(field), *_slope(field, scope), held), "<softcbf inline kernel>", "exec"), scope)
    return scope["plant_row" if held else "interval_row"]


def _raise_blow_up(F: Callable, X: np.ndarray, h: float, n_sub: int, i: int):
    """Re-run slice interval i from its finite start X one RK4 step at a
    time and raise BlowUpError at the first step whose state is not
    finite, with the time a test after every step would report."""
    t = 0.0
    for _ in range((i - 1) * n_sub):
        t += h
    for _ in range(n_sub):
        X, _ = rk4_step(F, X, h)
        t += h
        if not np.isfinite(X).all():
            break
    raise BlowUpError(f"state became non-finite at t={t:.6g}", time=t)


def integrate_flow_batch(prob: BackupProblem, X0, sensitivities: bool = True) -> BatchFlowResult:
    """RK4 integration of the closed loop for a block of initial states,
    recording every slice time exactly.  With `sensitivities` the
    variational system is integrated alongside; without, the Jacobian is
    never called and the states are bitwise the same.

    The field is `prob.sys.closed_loop(prob.k_b)`, on any of its paths
    checked on the first RK4 step only: the later steps, finite differences
    and a blow-up re-run skip its checks (see
    `ControlAffineSystem._closed_loop_fields`).  A one-row block on a fused
    closed loop runs each slice interval's value steps in one call of the
    kernel generated from its declared Exprs, with the expression written
    into its stages (`_inline_kernel`), bit for bit and with no Python call
    per RK4 stage.  It calls the block field, checked, only for finite
    differences or a blow-up re-run.
    Finiteness is tested once per slice interval: a non-finite state stays
    non-finite under the later RK4 updates, so the interval is then re-run
    step by step on the block field to raise BlowUpError with the time of
    the step that blew up.

    The value steps of a slice interval record their RK4 stage states; the
    Jacobian then runs on groups of whole steps of at most _JACOBIAN_ROWS
    stage rows (one call per interval while its 4*n_sub*B rows fit), each
    followed by the sensitivity recursion over its steps.  On the row path
    the kernel writes the stage states of the whole flow into one float64
    buffer, and
    once every interval has passed the finiteness test the Jacobian runs on
    groups of whole steps across interval ends, up to _JACOBIAN_ROWS stage
    rows (one call for the pendulum's 800): a block of two or more rows
    gives each row the same bits.  The generated recursion then holds S as
    n*n Python floats, one call per interval: it calls numpy only for the
    products J_k @ T, through ndarray.dot for n >= 2 (np.matmul for n = 1),
    and gives the block recursion's bits.

    In a block of two or more rows, each row comes out bitwise the same
    whatever rows share the block, so marching and bisection may flow only
    live rows.  A one-row block can differ in the last bit: numpy computes
    a (1, n) by (n,) product, like the pendulum's K.x, with dot, not gemv."""
    X = np.atleast_2d(np.asarray(X0, dtype=float)).copy()
    if X.shape[1] != prob.sys.n:
        raise InvalidInputError(f"states must have dimension {prob.sys.n}")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("initial states must be finite")
    B, n = X.shape
    F, F_rest, row = prob.sys._closed_loop_fields(prob.k_b)
    n_sub = max(1, math.ceil(prob.dtau / prob.h_max))
    h = prob.dtau / n_sub
    N = prob.N
    interval_row = None
    if B == 1 and row is not None:
        x, interval_row = tuple(X[0].tolist()), _inline_kernel(row, False)
        # the stage states of the whole flow; no block step runs, so the
        # block field stays checked
        stage_rows, F_rest = np.empty(((N - 1) * n_sub * 4, n)), F
        out = memoryview(stage_rows.reshape(-1))

    states = np.empty((N, B, n))
    states[0] = X
    sens = None
    if sensitivities:
        jac = _make_jacobian(prob, F_rest)
        sens = np.empty((N, B, n, n))
        sens[0] = np.eye(n)
        S = sens[0].copy() if interval_row is None else sens[0, 0].ravel().tolist()
        # the stage states of each RK4 step of one slice interval, which
        # the row path records in stage_rows for the whole flow instead
        stages = np.empty((n_sub, 4, B, n))
        group = max(1, _JACOBIAN_ROWS // (4 * B))
        # rk4_step's coefficients; S and each J @ S are float64 whatever
        # the Jacobian's dtype
        c_half, c_h, c_sixth = _rk4_constants(h)

    # divergence is detected explicitly, so let overflow produce inf quietly
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, N):
            if interval_row is None:
                for s in range(n_sub):
                    X, stage_states = rk4_step(F, X, h)
                    F = F_rest
                    if sens is not None:
                        stages[s] = stage_states
                states[i] = X
            else:
                x = interval_row(None, x, h, n_sub, out, 4 * n * n_sub * (i - 1))
                states[i, 0] = x
            if not np.isfinite(states[i]).all():
                _raise_blow_up(F_rest, states[i - 1], h, n_sub, i)
            if sens is None or interval_row is not None:
                continue
            for g in range(0, n_sub, group):
                for J in jac(stages[g:g + group].reshape(-1, n)).reshape(-1, 4, B, n, n):
                    k1s = J[0] @ S
                    k2s = J[1] @ (S + c_half * k1s)
                    k3s = J[2] @ (S + c_half * k2s)
                    k4s = J[3] @ (S + c_h * k3s)
                    S = S + c_sixth * (k1s + _TWO * k2s + _TWO * k3s + k4s)
            sens[i] = S
        if interval_row is not None and sens is not None:
            # once every interval is finite: whole RK4 steps across interval
            # ends, up to _JACOBIAN_ROWS stage rows per call
            size = 4 * group
            Js = [jac(stage_rows[r:r + size]) for r in range(0, len(stage_rows), size)]
            J = Js[0] if len(Js) == 1 else np.concatenate(Js)
            sensitivity_row = _row_kernels(n)[0]
            for i in range(1, N):
                S = sensitivity_row(J[4 * n_sub * (i - 1):4 * n_sub * i], S, h)
                sens[i, 0].flat = S

    return BatchFlowResult(states=states, sensitivities=sens, stats=IntegratorStats(steps=(N - 1) * n_sub))


def integrate_flow(prob: BackupProblem, x0) -> FlowResult:
    """Single-state version of `integrate_flow_batch`."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    res = integrate_flow_batch(prob, x0[None, :])
    return FlowResult(states=res.states[:, 0], sensitivities=res.sensitivities[:, 0], stats=res.stats)


def _slice_values_from_flow(prob: BackupProblem, states, sens):
    """Slice values (B, N) and pulled-back gradients (B, N, n) from batched
    flow output (N, B, n) / (N, B, n, n); the gradients are None when sens
    is None, and h and h_b then run values-only (`BackupProblem.value_forms`).
    h runs once on the N - 1 slices stacked into one block, h_b on the last."""
    N, B, n = states.shape
    h, h_b, tails = (prob.h, prob.h_b, ((), (n,))) if sens is not None else (*prob._value_fns(), ((),))
    try:
        v = call_batched(h, states[:-1].reshape(-1, n), *tails)
    except InvalidInputError:
        # name the shape error on one slice's block of B states
        call_batched(h, states[0], *tails)
        raise
    v_b = call_batched(h_b, states[-1], *tails)
    if sens is not None:
        (v, g), (v_b, g_b) = v, v_b
    vals = np.empty((B, N))
    vals[:, :-1] = v.reshape(N - 1, B).T
    vals[:, -1] = v_b
    if sens is None:
        return vals, None
    G = np.concatenate([g.reshape(N - 1, B, n), g_b[None]])
    # grad b_i = S_i^T grad_h(phi_i)
    return vals, np.einsum("sbji,sbj->bsi", sens, G)


def slice_values_batch(prob: BackupProblem, X, gradients: bool = True):
    """Slice constraint values (B, N) and gradients (B, N, n) for a block of
    states; one flow integration serves all N constraints.  Without
    `gradients` the flow skips its sensitivities and the gradients are
    None."""
    flow = integrate_flow_batch(prob, X, sensitivities=gradients)
    return _slice_values_from_flow(prob, flow.states, flow.sensitivities)


@dataclass(frozen=True)
class BackupBarrier:
    """Slice constraints at one state plus their smooth minimum."""

    b_values: np.ndarray
    b_gradients: np.ndarray
    theta: float
    soft_value: float
    soft_gradient: np.ndarray


def backup_barrier(prob: BackupProblem, flow: FlowResult, theta: float) -> BackupBarrier:
    """Slice values, pulled-back gradients, and their smooth minimum."""
    vals, grads = _slice_values_from_flow(prob, flow.states[:, None, :], flow.sensitivities[:, None, :, :])
    theta = sm._check_theta(theta)
    soft, grad = sm.softmin_rows(vals, grads, theta)
    return BackupBarrier(
        b_values=vals[0], b_gradients=grads[0], theta=theta, soft_value=float(soft[0]), soft_gradient=grad[0],
    )


def slice_constraint_set(prob: BackupProblem) -> ConstraintSet:
    """The slice constraints packaged as a constraint family.

    The batch evaluator shares one flow integration across all N
    constraints, and the value evaluator does the same without the flow
    sensitivities.  The screen is b_0 = h, values-only, which needs no
    flow.  Sampling the family needs the problem's bounding box.
    """
    return ConstraintSet(
        n=prob.sys.n,
        bounding_box=prob.bounding_box,
        batch_evaluator=lambda X: slice_values_batch(prob, X),
        value_evaluator=lambda X: slice_values_batch(prob, X, gradients=False)[0],
        screen=prob._value_fns()[0],
        N=prob.N,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    n_points: int
    min_margin: Optional[float]
    witnesses: tuple
    note: str = ""


@dataclass(frozen=True)
class BackupPreconditionReport:
    backup_set_safe: CheckResult
    reachable_boundary_safe: CheckResult
    regular_value: CheckResult

    @property
    def passed(self) -> bool:
        return (
            self.backup_set_safe.passed
            and self.reachable_boundary_safe.passed
            and self.regular_value.passed
        )


def check_backup_preconditions(prob: BackupProblem, region_samples, tol: float = 1e-6) -> BackupPreconditionReport:
    """Three sampled checks behind the backup certificate.

    (1) strict safety of the terminal set: the closed loop points inward
        at samples on its boundary (|h_b| <= tol);
    (2) inward flow on the backup-reachable part of the safe-set boundary:
        samples with |h| <= tol whose flow lands in the terminal set after
        the horizon must have a positive Lie derivative of h;
    (3) the terminal boundary is a regular level set: gradient norms stay
        above tol there.

    Membership in (2) is decided with the numerically integrated flow, so
    it inherits the integrator tolerance.  With no samples on the terminal
    boundary, (1) and (3) fail; an empty reachable boundary is (2)'s
    trivial case, which passes.  `tol` must be finite and positive.
    """
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"precondition tolerance must be finite and positive, got {tol}")
    n = prob.sys.n
    X = _as_states(np.atleast_2d(region_samples), n)
    hb_vals, hb_grads = call_batched(prob.h_b, X, (), (n,))
    h_vals, h_grads = call_batched(prob.h, X, (), (n,))
    Fx = prob.sys.closed_loop(prob.k_b)(X)

    on_sb = np.abs(hb_vals) <= tol
    lie_hb = np.einsum("bi,bi->b", hb_grads, Fx)

    def result(name, mask, margins, empty_note, empty_passes=False):
        pts = int(mask.sum())
        if pts == 0:
            return CheckResult(name, empty_passes, 0, None, (), empty_note)
        vals = margins[mask]
        bad = vals <= 0.0
        wit = tuple(
            (X[mask][k].copy(), float(vals[k])) for k in np.flatnonzero(bad)[:8]
        )
        return CheckResult(name, not bad.any(), pts, float(vals.min()), wit)

    unsampled = "no samples on the terminal boundary; the condition is unchecked"
    chk1 = result("backup-set inward flow", on_sb, lie_hb, unsampled)

    near_s = np.abs(h_vals) <= tol
    if near_s.any():
        flow = integrate_flow_batch(prob, X[near_s], sensitivities=False)
        hb_T = call_batched(prob._value_fns()[1], flow.states[-1], ())
        reach = np.zeros_like(near_s)
        reach[np.flatnonzero(near_s)[hb_T >= 0.0]] = True
    else:
        reach = np.zeros_like(near_s)
    lie_h = np.einsum("bi,bi->b", h_grads, Fx)
    chk2 = result("reachable-boundary inward flow", reach, lie_h,
                  "reachable boundary empty on these samples; trivial case, check passes vacuously",
                  empty_passes=True)

    grad_norms = np.linalg.norm(hb_grads, axis=1)
    chk3 = result("terminal boundary regular value", on_sb, grad_norms - tol, unsampled)

    return BackupPreconditionReport(chk1, chk2, chk3)

