"""Benchmark systems with analytic structure for oracle checks.

All dynamics, controller and constraint callables map a block of states of
shape (B, n), as the package requires (see `geometry.call_batched`); none
takes one state (n,).  Constraint families ship a batch evaluator.  Numeric
constants (LQR gain and cost-to-go matrix for the pendulum backup
controller) are frozen in the source for cross-platform determinism; see
scripts/derive_pendulum_lqr.py for the one-off derivation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .backup import BackupProblem, FusedField, ValueForms, slice_constraint_set
from .errors import InvalidInputError
from .geometry import ConstraintSet
from .safety_filter import ConstantActuation, ControlAffineSystem, FusedPlant
from .softmin import _constant

__all__ = [
    "Benchmark",
    "double_integrator_box",
    "pendulum_backup",
    "scalar_stable",
    "scalar_unstable",
    "thin_annulus",
    "get_benchmark",
    "benchmark_names",
]


@dataclass(frozen=True)
class Benchmark:
    """A named system with a constraint family, a desired (possibly unsafe)
    controller for the filter to correct, and a safe controller whose
    closed loop carries the certification and which takes over in `sim.run`
    (a backup benchmark's is its backup controller)."""

    name: str
    sys: ControlAffineSystem
    constraints: ConstraintSet
    desired_controller: Callable
    safe_controller: Callable
    x0_default: np.ndarray
    backup: Optional[BackupProblem] = None
    analytic: Optional[dict] = None
    # (n, seed) -> states used by the backup precondition checks, required
    # with a backup; should place points on the relevant boundaries plus a
    # spread over the box
    precondition_sampler: Optional[Callable] = None
    # band width and sampling density that work well for this benchmark;
    # the band must be thin relative to the smallest constraint scale
    cert_epsilon: float = 0.1
    cert_density: float = 2000.0

    def closed_loop_field(self) -> Callable:
        """Vector field under the safe controller, batched."""
        return self.sys.closed_loop(self.safe_controller)

    def certification_set(self) -> ConstraintSet:
        """Constraint family the certificate is computed on: the slice
        constraints for backup benchmarks, the plain family otherwise."""
        if self.backup is not None:
            return slice_constraint_set(self.backup)
        return self.constraints


def _affine_constraints(W: np.ndarray, b: np.ndarray, box) -> ConstraintSet:
    """Family h_i(x) = b_i + W_i . x with constant gradients W_i."""
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    N, n = W.shape

    def values(X):
        return b[None, :] + X @ W.T

    # W on every row of a block, as a read-only zero-stride slice: a
    # ConstantActuation is any state-independent block of that kind
    gradients = ConstantActuation(W)

    def batch(X):
        return values(X), gradients(X)

    return ConstraintSet(
        n=n,
        bounding_box=np.asarray(box, dtype=float),
        batch_evaluator=batch,
        value_evaluator=values,
        N=N,
    )


# ---------------------------------------------------------------------------
# double integrator in a sheared box
# ---------------------------------------------------------------------------

def double_integrator_box() -> Benchmark:
    """Double integrator (position p, velocity v, xdot = [v, u]) kept in a
    compact box written in the sheared coordinates (p + v, v):

        |p + v| <= 1,   |v| <= 1.5.

    Under the safe controller u = -p - 2v the shear coordinate s = p + v
    obeys sdot = -s, so every face of the box has a strictly positive
    inward margin (0.5 on the velocity faces, 1 on the shear faces).  An
    axis-aligned position-velocity box cannot be strictly inward for a
    double integrator: on the face p = 1 with v > 0 the position keeps
    growing no matter the input, so the shear is essential.

    The desired controller tracks a setpoint outside the box to force
    filter activity.
    """

    def drift(X):
        out = np.zeros(X.shape)
        out[:, 0] = X[:, 1]
        return out

    sys = ControlAffineSystem(n=2, m=1, drift=drift, actuation=ConstantActuation([[0.0], [1.0]]))

    W = np.array([[-1.0, -1.0], [1.0, 1.0], [0.0, -1.0], [0.0, 1.0]])
    b = np.array([1.0, 1.0, 1.5, 1.5])
    constraints = _affine_constraints(W, b, [[-2.6, 2.6], [-1.6, 1.6]])

    def safe(X):
        return -(X[:, 0:1] + 2.0 * X[:, 1:2])

    def desired(X):
        return -3.0 * (X[:, 0:1] - 3.0) - 3.0 * X[:, 1:2]

    def lie_rows(X):
        # per-constraint Lie derivatives under the safe closed loop
        s = X[:, 0] + X[:, 1]
        pv = X[:, 0] + 2.0 * X[:, 1]
        return np.stack([s, -s, pv, -pv], axis=-1)

    return Benchmark(
        name="double-integrator-box",
        sys=sys,
        constraints=constraints,
        desired_controller=desired,
        safe_controller=safe,
        x0_default=np.zeros(2),
        analytic={"lie_rows": lie_rows},
        cert_epsilon=0.05,
        cert_density=2000.0,
    )


# ---------------------------------------------------------------------------
# inverted pendulum with an LQR backup controller
# ---------------------------------------------------------------------------

# LQR for the upright linearization (A = [[0,1],[1,0]], B = [[0],[1]],
# Q = diag(2,1), R = 1), frozen from a one-off Riccati solve:
PENDULUM_P = np.array(
    [
        [4.4036694750416094, 2.7320508075688759],
        [2.7320508075688759, 2.5424597568374119],
    ]
)
PENDULUM_K = np.array([2.7320508075688759, 2.5424597568374119])
PENDULUM_U_MAX = 3.0
PENDULUM_HB_LEVEL = 0.05
# shear of the safe-set coordinates; keeps the inward-flow condition
# non-degenerate where the boundary crosses the zero-velocity axis
PENDULUM_SHEAR = 0.4
# operands of the fused plant and closed loop, whose other side is float64
_ZERO, _U_MAX, _NEG_U_MAX = (_constant(v) for v in (0.0, PENDULUM_U_MAX, -PENDULUM_U_MAX))


def pendulum_backup() -> Benchmark:
    """Inverted pendulum near the upright: angle a, rate w, with
    adot = w, wdot = sin(a) + u and |u| <= 3.

    Safe set: a box-like quartic region with half-widths (1.0, 1.5) in the
    sheared coordinates (a + 0.4 w, w); the shear keeps the boundary
    strictly controllable everywhere (an unsheared box has boundary points
    on the zero-velocity axis where the angle cannot move at first order,
    so no controller achieves a strict inward margin there).  Backup
    controller: saturated LQR pulling to the upright; terminal set: a
    sublevel set of the LQR cost-to-go.  Horizon 2.0 sliced at 0.2 gives
    11 slice constraints.
    """

    def drift(X):
        out = np.empty(X.shape)
        out[:, 0] = X[:, 1]
        out[:, 1] = np.sin(X[:, 0])
        return out

    def plant(X, U):
        # drift(X) + g @ U in one pass, bit for bit: the composed field's
        # einsum adds an exact +0.0 to both components (g = [[0], [1]]),
        # which turns a -0.0 into +0.0, so the two + 0.0 terms stay; the
        # constants are 0-d float64 arrays (see softmin._constant)
        out = np.empty(X.shape)
        out[:, 0] = X[:, 1] + _ZERO
        out[:, 1] = np.sin(X[:, 0]) + (U[:, 0] + _ZERO)
        return out

    actuation = ConstantActuation([[0.0], [1.0]])
    sys = ControlAffineSystem(
        n=2,
        m=1,
        drift=drift,
        actuation=actuation,
        input_box=np.array([[-PENDULUM_U_MAX, PENDULUM_U_MAX]]),
        fused=FusedPlant(plant, drift, actuation),
    )

    c = PENDULUM_SHEAR

    # values-only forms of h and h_b on a block, which h and h_b call
    def h_value(X):
        z = X[:, 0] + c * X[:, 1]
        return 1.0 - z**4 - (X[:, 1] / 1.5) ** 4

    def h_b_value(X):
        return PENDULUM_HB_LEVEL - np.einsum("bi,ij,bj->b", X, PENDULUM_P, X)

    def h(X):
        z3 = (X[:, 0] + c * X[:, 1]) ** 3
        grad = np.stack([-4.0 * z3, -4.0 * c * z3 - 4.0 * X[:, 1] ** 3 / 1.5**4], axis=-1)
        return h_value(X), grad

    def h_b(X):
        return h_b_value(X), -2.0 * X @ PENDULUM_P

    def k_b(X):
        # K.x / -u_max, which IEEE division's sign symmetry makes bitwise
        # -K.x / u_max, saves the negation ufunc here and in the fused forms
        u = PENDULUM_U_MAX * np.tanh(X.dot(PENDULUM_K) / -PENDULUM_U_MAX)
        return u[:, None]

    def closed_loop(X):
        # plant(X, k_b(X)) with k_b written inline
        out = np.empty(X.shape)
        out[:, 0] = X[:, 1] + _ZERO
        out[:, 1] = np.sin(X[:, 0]) + (_U_MAX * np.tanh(X.dot(PENDULUM_K) / _NEG_U_MAX) + _ZERO)
        return out

    def closed_loop_row(x):
        # closed_loop on a tuple of floats, same operations in the same order;
        # K.x, tanh and sin stay numpy calls (a written-out dot or math differ),
        # K.x through the bound ndarray.dot, which skips np.dot's dispatch
        u = PENDULUM_U_MAX * float(np.tanh(float(PENDULUM_K.dot(x)) / -PENDULUM_U_MAX))
        return (x[1] + 0.0, float(np.sin(x[0])) + (u + 0.0))

    def jac_closed_loop(X):
        # d/dx [w, sin(a) + umax*tanh(-K.x/umax)]
        J = np.zeros((len(X), 2, 2))
        J[:, 0, 1] = 1.0
        J[:, 1, 0] = np.cos(X[:, 0])
        # sech^2 by np.square: x * x on each row, as an array's ** 2 is
        sech2 = 1.0 / np.square(np.cosh(X.dot(PENDULUM_K) / PENDULUM_U_MAX))
        J[:, 1, :] -= sech2[:, None] * PENDULUM_K
        return J

    box = np.array([[-1.7, 1.7], [-1.6, 1.6]])
    backup = BackupProblem(
        sys=sys,
        k_b=k_b,
        h=h,
        h_b=h_b,
        T=2.0,
        dtau=0.2,
        jacobian=jac_closed_loop,
        bounding_box=box,
        fused=FusedField(closed_loop, drift, actuation, k_b, row=closed_loop_row),
        value_forms=ValueForms(h_value, h_b_value, h, h_b),
    )

    def batch(X):
        v, g = h(X)
        return v[:, None], g[:, None, :]

    constraints = ConstraintSet(n=2, bounding_box=box, batch_evaluator=batch, N=1)

    def desired(X):
        # constant maximal push away from upright
        return np.full((len(X), 1), PENDULUM_U_MAX)

    chol = np.linalg.cholesky(PENDULUM_P)

    def precondition_samples(n: int, seed: int) -> np.ndarray:
        """Exact points on the terminal and safe-set boundaries plus a
        uniform spread over the operating box."""
        rng = np.random.default_rng(seed)
        n_sb = n // 3
        n_s = n // 3
        n_box = n - n_sb - n_s
        psi = rng.uniform(0.0, 2.0 * np.pi, n_sb)
        circ = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
        on_sb = np.sqrt(PENDULUM_HB_LEVEL) * np.linalg.solve(chol.T, circ.T).T
        t = rng.uniform(0.0, 2.0 * np.pi, n_s)
        z = np.sign(np.cos(t)) * np.abs(np.cos(t)) ** 0.5
        w = 1.5 * np.sign(np.sin(t)) * np.abs(np.sin(t)) ** 0.5
        on_s = np.stack([z - c * w, w], axis=-1)
        in_box = rng.uniform(box[:, 0], box[:, 1], size=(n_box, 2))
        return np.vstack([on_sb, on_s, in_box])

    return Benchmark(
        name="pendulum-backup",
        sys=sys,
        constraints=constraints,
        desired_controller=desired,
        safe_controller=k_b,
        x0_default=np.zeros(2),
        backup=backup,
        precondition_sampler=precondition_samples,
        cert_epsilon=0.005,
        cert_density=1500.0,
    )


# ---------------------------------------------------------------------------
# scalar systems with closed-form oracles
# ---------------------------------------------------------------------------

def _scalar_benchmark(name: str, stable: bool) -> Benchmark:
    sign = -1.0 if stable else 1.0

    def drift(X):
        return sign * X

    sys = ControlAffineSystem(n=1, m=1, drift=drift, actuation=ConstantActuation([[1.0]]))
    constraints = _affine_constraints(
        np.array([[-1.0], [1.0]]), np.array([1.0, 1.0]), [[-1.3, 1.3]]
    )

    def safe(X):
        return np.zeros((len(X), 1))

    def desired(X):
        return -1.5 * (X[:, 0:1] - 2.0)

    analytic = None
    if stable:
        analytic = {
            "flow": lambda X, t: X * np.exp(-t),
            # under u = 0: L h1 = x, L h2 = -x
            "lie_rows": lambda X: np.concatenate([X, -X], axis=1),
        }

    return Benchmark(
        name=name,
        sys=sys,
        constraints=constraints,
        desired_controller=desired,
        safe_controller=safe,
        x0_default=np.zeros(1),
        analytic=analytic,
    )


def scalar_stable() -> Benchmark:
    """xdot = -x + u on the interval [-1, 1]; with u = 0 the flow, its
    sensitivity, and every Lie derivative have one-line closed forms."""
    return _scalar_benchmark("scalar-stable", stable=True)


def scalar_unstable() -> Benchmark:
    """xdot = +x + u: the same interval is not strictly safe under u = 0
    (the boundary is repelled outward); used to exercise failure paths."""
    return _scalar_benchmark("scalar-unstable", stable=False)


# ---------------------------------------------------------------------------
# thin annulus: strictly safe but degenerate constraint geometry
# ---------------------------------------------------------------------------

def thin_annulus(width: float = 0.05) -> Benchmark:
    """Annulus 1 - width <= |x|^2 <= 1 for a single integrator.

    The two constraint gradients are antiparallel everywhere, so any
    activity tolerance wide enough to see both constraints at once makes
    the constraint-qualification check fail; the safe controller still
    keeps the band strictly inward by pushing toward the middle circle.
    """
    if not 0 < width < 1:
        raise InvalidInputError("width must be in (0, 1)")

    def drift(X):
        return np.zeros_like(X)

    sys = ControlAffineSystem(n=2, m=2, drift=drift, actuation=ConstantActuation(np.eye(2)))

    def values(X):
        r2 = np.einsum("bi,bi->b", X, X)
        return np.stack([1.0 - r2, r2 - (1.0 - width)], axis=-1)

    def batch(X):
        return values(X), np.stack([-2.0 * X, 2.0 * X], axis=1)

    constraints = ConstraintSet(
        n=2,
        bounding_box=np.array([[-1.1, 1.1], [-1.1, 1.1]]),
        batch_evaluator=batch,
        value_evaluator=values,
        N=2,
    )

    mid = 1.0 - 0.5 * width

    def safe(X):
        r2 = np.einsum("bi,bi->b", X, X)
        return -4.0 * X * (r2 - mid)[:, None]

    def desired(X):
        # adversarial radial push toward the outer ring
        return 2.0 * X

    return Benchmark(
        name="thin-annulus",
        sys=sys,
        constraints=constraints,
        desired_controller=desired,
        safe_controller=safe,
        # start in the outer half of the band: on the middle circle the two
        # antiparallel gradients cancel and the smooth barrier goes locally
        # flat, so a sampled-data run from there can cross the band before
        # the filter has any leverage
        x0_default=np.array([0.995**0.5, 0.0]),
        cert_epsilon=0.01,
        cert_density=3000.0,
    )


_REGISTRY = {
    "double-integrator-box": double_integrator_box,
    "pendulum-backup": pendulum_backup,
    "scalar-stable": scalar_stable,
    "scalar-unstable": scalar_unstable,
    "thin-annulus": thin_annulus,
}


def benchmark_names() -> list[str]:
    return sorted(_REGISTRY)


def get_benchmark(name: str) -> Benchmark:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown benchmark {name!r}; available: {', '.join(benchmark_names())}"
        ) from None
    return factory()
