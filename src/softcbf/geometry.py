"""Constraint families, boundary-band sampling, and sampled safety bounds.

A safe set is described by N scalar constraints h_i with gradients; the set
is where every h_i is nonnegative, i.e. where the pointwise minimum
(written h_hat below) is nonnegative.  Certification works on the band

    T_eps = { x : 0 <= h_hat(x) <= eps }

just inside the boundary.  Everything here has sampled-certificate
semantics: the bounds hold at the sampled points, and the sampling density
is the caller's rigor knob.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainError,
    EmptyTubeError,
    InvalidCertificateError,
    InvalidInputError,
    NotStrictlySafeError,
)
from .softmin import _fold, default_activity_tolerance

__all__ = [
    "ConstraintSet",
    "TubeSpec",
    "CompactBounds",
    "MFCQEntry",
    "MFCQReport",
    "sample_tube",
    "estimate_bounds",
    "check_mfcq",
    "call_batched",
    "march_and_bisect",
    "bisect_to_band",
]

# callable X -> Xdot on a block of states (B, n)
VectorField = Callable[[np.ndarray], np.ndarray]


_FLOAT64 = np.dtype(np.float64)


def _is_block(a, B: int, tail) -> bool:
    """Whether `a` is a float64 ndarray of shape (B, *tail), which
    `call_batched` returns as it is."""
    return type(a) is np.ndarray and a.dtype is _FLOAT64 and a.shape == (B, *tail)


def call_batched(fn: Callable, X: np.ndarray, *tails: tuple):
    """Call `fn` once on the block X of shape (B, n) and check its output.

    `tails` gives the per-row shape of each returned array: `(n,)` for a
    vector field, `()` and `(n,)` for a function returning (values,
    gradients).  Every callable the package evaluates on blocks follows
    this contract; a wrong shape raises InvalidInputError, and exceptions
    raised by `fn` propagate unchanged.
    """
    out = fn(X)
    B = X.shape[0]
    # the common case, float64 arrays of the expected shapes, is checked
    # without the lists and copies of the general check
    if len(tails) == 1:
        if _is_block(out, B, tails[0]):
            return out
        arrays = [out]
    else:
        if type(out) is tuple and len(out) == len(tails) and all(map(_is_block, out, (B,) * len(tails), tails)):
            return out
        arrays = list(out)
    _check_shapes(getattr(fn, "__qualname__", fn), arrays, [(B,) + tuple(t) for t in tails])
    arrays = tuple(np.asarray(a, dtype=float) for a in arrays)
    return arrays[0] if len(tails) == 1 else arrays


def _as_states(X, n: int) -> np.ndarray:
    """X as a float block, checked to be states of shape (B, n)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise InvalidInputError(f"expected states of shape (B, {n}), got {X.shape}")
    return X


def _check_shapes(what, arrays, expected: list) -> None:
    """Raise InvalidInputError naming `what` unless `arrays` have the
    `expected` shapes, the first of which starts with the block's B."""
    got = [a.shape if isinstance(a, np.ndarray) else np.shape(a) for a in arrays]
    if got != expected:
        raise InvalidInputError(
            f"{what} returned shape {', '.join(map(str, got))} for a block of {expected[0][0]} "
            f"states; expected {', '.join(map(str, expected))}"
        )


def _checked_box(box, rows: int, what: str) -> np.ndarray:
    """`box` as floats, checked to be (rows, 2) with lo < hi in every row."""
    box = np.asarray(box, dtype=float)
    if box.shape != (rows, 2) or not np.all(box[:, 0] < box[:, 1]):
        raise InvalidInputError(f"{what} must be ({rows}, 2) with lo < hi, got {box!r}")
    return box


@dataclass(frozen=True)
class ConstraintSet:
    """Family of N constraint functions with gradients on an n-dimensional state.

    A family is declared batch-first: `batch_evaluator` maps a block X of
    shape (B, n) to (values (B, N), gradients (B, N, n)), and `N` gives its
    size.  A family may instead be declared per constraint: `evaluators[i]`
    maps one state (n,) to (h_i(x), grad_i(x)), and `N` is then
    `len(evaluators)`.  Either way a family evaluates one way, a block at a
    time through `evaluate_batch`: the batch evaluator when there is one,
    else a loop over the rows of the block and, in each, over the
    evaluators.  `bounding_box` (shape (n, 2), rows [lo, hi]) marks
    compact-mode: a box believed to contain the safe set, required for any
    sampling operation.  `value_evaluator`, when given, maps a block to the
    values (B, N) alone and must agree with the batch evaluator; level-set
    search, which reads no gradients, uses it through `values`.  `screen`,
    when given, maps a block to the values (B,) of one cheap member
    constraint (see `screened_values`).  Like every callable the package
    evaluates on blocks (see `call_batched`), all three take (B, n) and a
    wrong output shape raises InvalidInputError.  Evaluators must be safe
    for concurrent invocation.  `evaluate_batch`, `values` and
    `screened_values` refuse states that are not (B, n) with
    InvalidInputError; `evaluate` takes one state (n,).
    """

    n: int
    evaluators: tuple = ()
    bounding_box: Optional[np.ndarray] = None
    batch_evaluator: Optional[Callable] = None
    value_evaluator: Optional[Callable] = None
    screen: Optional[Callable] = None
    N: Optional[int] = None

    def __post_init__(self):
        if self.batch_evaluator is None and not self.evaluators:
            raise InvalidInputError("need a batch evaluator or per-constraint evaluators")
        if self.evaluators:
            if self.N is not None and self.N != len(self.evaluators):
                raise InvalidInputError(f"N = {self.N} but {len(self.evaluators)} evaluators given")
            object.__setattr__(self, "N", len(self.evaluators))
        elif self.N is None:
            raise InvalidInputError("a family with only a batch evaluator needs its size N")
        if self.n < 1 or self.N < 1:
            raise InvalidInputError("need n >= 1 and at least one constraint")
        if self.bounding_box is not None:
            object.__setattr__(self, "bounding_box", _checked_box(self.bounding_box, self.n, "bounding box"))

    @property
    def compact_mode(self) -> bool:
        return self.bounding_box is not None

    def evaluate(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Values (N,) and gradients (N, n) at one state (n,): row 0 of
        `evaluate_batch(x[None])`."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InvalidInputError(f"expected one state of shape ({self.n},), got {x.shape}")
        vals, grads = self.evaluate_batch(x[None])
        return vals[0], grads[0]

    def evaluate_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Values (B, N) and gradients (B, N, n) at a block of states: one
        call of the batch evaluator, or of `_per_constraint` where the
        family has none."""
        X = _as_states(X, self.n)
        return call_batched(self.batch_evaluator or self._per_constraint, X, (self.N,), (self.N, self.n))

    def _per_constraint(self, X) -> tuple[np.ndarray, np.ndarray]:
        """The batch evaluator of a family declared per constraint: each
        row of X, then each evaluator on that one state."""
        vals = np.empty((X.shape[0], self.N))
        grads = np.empty((X.shape[0], self.N, self.n))
        for b, x in enumerate(X):
            for i, ev in enumerate(self.evaluators):
                v, g = ev(x)
                vals[b, i] = v
                grads[b, i] = np.asarray(g, dtype=float)
        return vals, grads

    def values(self, X) -> np.ndarray:
        """Values (B, N) at a block of states, from the value evaluator when
        there is one and from `evaluate_batch` otherwise."""
        X = _as_states(X, self.n)
        if self.value_evaluator is not None:
            return call_batched(self.value_evaluator, X, (self.N,))
        return self.evaluate_batch(X)[0]

    def screened_values(self, X) -> np.ndarray:
        """Values (B, N), exact at every row whose screen value is not
        negative.  A negative one proves the row outside the set, so the row
        is not evaluated: each of its entries holds that value, which keeps
        the signs of its minimum and smooth minimum.  Without a screen this
        is `values`."""
        X = _as_states(X, self.n)
        if self.screen is None:
            return self.values(X)
        s = call_batched(self.screen, X, ())
        vals = np.repeat(s[:, None], self.N, axis=1)
        rows = np.flatnonzero(~(s < 0.0))
        if rows.size:
            # never one row out of several: a lone row can differ in the
            # last bit (see backup.integrate_flow_batch)
            pad = np.repeat(rows, 2) if rows.size == 1 and X.shape[0] > 1 else rows
            vals[rows] = self.values(X[pad])[: rows.size]
        return vals


@dataclass(frozen=True)
class TubeSpec:
    """Samples of the boundary band {0 <= h_hat <= epsilon}.

    `constraint_coverage[i]` is True when some stored sample has constraint
    i attaining the pointwise minimum.  `values` (B, N) and `gradients`
    (B, N, n) are the evaluation of the samples by the family that drew
    them; `check_mfcq` and `estimate_bounds` read them.  The `rays_*`
    counts are those of the refinement pass: every requested ray is
    located, abandoned (it left the box or never crossed) or unconverged
    (it crossed, but its bisection stayed outside the band).
    """

    epsilon: float
    samples: np.ndarray
    sampling_density: float
    constraint_coverage: np.ndarray
    seed: Optional[int]
    values: np.ndarray
    gradients: np.ndarray
    rays_requested: int = 0
    rays_located: int = 0
    rays_abandoned: int = 0
    rays_unconverged: int = 0

    def __post_init__(self):
        if len(self) == 0:
            raise InvalidInputError("tube has no samples")

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class CompactBounds:
    """Sampled certificate constants over one boundary band.

    M: largest |Lie derivative| of any constraint over the samples.
    r: smallest Lie derivative among active constraints (must be > 0).
    d: smallest value gap of any inactive constraint; +inf when every
       sample had all constraints active (no inactive terms anywhere).
    """

    M: float
    r: float
    d: float
    epsilon: float
    n_samples: int

    def __post_init__(self):
        if not (self.M >= self.r > 0.0):
            raise InvalidCertificateError(f"need M >= r > 0, got M={self.M}, r={self.r}")
        if not self.d > 0.0:
            raise InvalidCertificateError(f"need d > 0, got d={self.d}")


def _require_box(cs: ConstraintSet, what: str) -> np.ndarray:
    """The bounding box of a compact-mode family, checked to be finite:
    sampling needs a finite volume, though an input box may be half-open."""
    if not cs.compact_mode:
        raise InvalidInputError(f"{what} requires a bounding box")
    if not np.all(np.isfinite(cs.bounding_box)):
        raise InvalidInputError(f"{what} requires a finite bounding box, got {cs.bounding_box!r}")
    return cs.bounding_box


def bisect_to_band(level, inside, inside_levels, outside, band, max_iter):
    """Bisect between rows of `inside` (level >= 0, given as `inside_levels`)
    and `outside` (level < 0) points until the inside endpoint has level in
    band = (lo, hi).  `level(X, rows)` maps a block of points (B, n), and
    the row each point bisects (B,), to their levels (B,).

    Only the midpoints of rows that have not converged are evaluated in
    each round, in row order.  The brackets of these live rows are kept in
    compact arrays, filtered in order as rows converge or drop.  Returns
    the converged inside points and their rows, ascending; rows still
    outside the band after `max_iter` rounds are dropped, and so is a row
    whose bracket has collapsed to adjacent floats: its midpoint equals one
    of its endpoints, so no further round could move it.
    """
    lo, hi = band
    h_in = np.asarray(inside_levels, dtype=float)
    done = (h_in >= lo) & (h_in <= hi)
    points = inside.copy()
    rows = np.flatnonzero(~done)
    a, b = inside[rows], outside[rows]
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        moved = ~(_fold(np.logical_and, mid == a) | _fold(np.logical_and, mid == b))
        if not moved.all():
            rows, a, b, mid = rows[moved], a[moved], b[moved], mid[moved]
        if rows.size == 0:
            break
        h_mid = level(mid, rows)
        go_in = h_mid >= 0.0
        conv = go_in & (h_mid >= lo) & (h_mid <= hi)
        done[rows[conv]] = True
        points[rows[conv]] = mid[conv]
        keep = ~conv
        rows = rows[keep]
        a = np.where(go_in[:, None], mid, a)[keep]
        b = np.where(go_in[:, None], b, mid)[keep]
    return points[done], np.flatnonzero(done)


def march_and_bisect(level, starts, start_levels, dirs, step, n_steps, box, margin, band, max_iter):
    """Locate points just inside the zero level set of `level` along rays.

    Each ray starts at a row of `starts` (level `start_levels` >= 0) and
    advances by `step` along its unit direction in `dirs` until the level
    turns negative; the crossing is then bisected back until the inside
    endpoint has level in `band` (see `bisect_to_band`).  A ray that leaves `box`
    widened by `margin` on every side before crossing, or that has not
    crossed after `n_steps` steps, is abandoned.  `level(X, rays)` maps a
    block of points (B, n), and the ray each point lies on (B,), to their
    levels (B,), so rays may follow different level sets.

    No call of `level` holds more points than there are rays.  With L of the R
    rays still marching, each evaluates its next min(R // L, steps left)
    points in one call, up to its first point outside the widened box, so
    the calls stay full as rays drop out; points past a crossing are
    evaluated and discarded.  Every point is the running sum `p + step * d`
    a one-step-per-round march forms, and in a block of two or more rows a
    row's level does not depend on the other rows (see
    `backup.integrate_flow_batch`).  So the crossings and the located points
    are bitwise those of a one-step march; only where that march would
    evaluate a lone ray can a level differ, in its last bit.

    Returns the located points, the ray of each (ascending) and the mask
    (R,) of the rays that crossed; the crossed rays that are not located
    stayed outside `band` for `max_iter` rounds.
    """
    lo_box = box[:, 0] - margin
    hi_box = box[:, 1] + margin
    n_rays = starts.shape[0]
    inside = starts.copy()
    h_inside = np.array(start_levels, dtype=float)
    outside = np.empty_like(starts)
    probe = starts.copy()
    live = np.ones(n_rays, dtype=bool)
    found = np.zeros(n_rays, dtype=bool)
    taken = 0
    while taken < n_steps:
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        K = min(n_rays // rows.size, n_steps - taken)
        taken += K
        # the next K points of every live ray, (K, L, n)
        pts = np.empty((K, rows.size, starts.shape[1]))
        p, delta = probe[rows], step * dirs[rows]
        for k in range(K):
            p = p + delta
            pts[k] = p
        in_box = _fold(np.logical_and, (pts >= lo_box) & (pts <= hi_box))
        # a ray's points up to and including its first one outside the box
        evaluated = np.ones_like(in_box)
        evaluated[1:] = ~np.logical_or.accumulate(~in_box, axis=0)[:-1]
        h = np.full(in_box.shape, np.nan)
        h[evaluated] = level(pts[evaluated], np.broadcast_to(rows, in_box.shape)[evaluated])
        neg = h < 0.0
        crossed = neg.any(axis=0)
        first = np.where(crossed, neg.argmax(axis=0), K)
        # the last non-negative level before the crossing
        before = (h >= 0.0) & (np.arange(K)[:, None] < first)
        last = K - 1 - before[::-1].argmax(axis=0)
        cols = np.arange(rows.size)
        outside[rows[crossed]] = pts[first[crossed], cols[crossed]]
        found[rows[crossed]] = True
        kept = before.any(axis=0)
        inside[rows[kept]] = pts[last[kept], cols[kept]]
        h_inside[rows[kept]] = h[last[kept], cols[kept]]
        probe[rows] = pts[-1]
        live[rows] = ~crossed & in_box.all(axis=0)
    rays = np.flatnonzero(found)
    located, conv = bisect_to_band(
        lambda X, r: level(X, rays[r]), inside[rays], h_inside[rays], outside[rays], band, max_iter
    )
    return located, rays[conv], found


def _check_band(epsilon: float, density: float) -> float:
    """epsilon as a float, once it and the density are finite and positive."""
    epsilon = float(epsilon)
    for name, v in (("epsilon", epsilon), ("density", density)):
        if not (math.isfinite(v) and v > 0.0):
            raise DomainError(f"{name} must be finite and positive, got {v}")
    return epsilon


def _check_activity_tolerance(tol: Optional[float]) -> None:
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"activity tolerance must be finite and nonnegative, got {tol}")


def sample_tube(cs: ConstraintSet, epsilon: float, density: float, seed: int) -> TubeSpec:
    """Sample the band {0 <= h_hat <= epsilon} inside the bounding box.

    Deterministic for a given seed: rejection sampling over the box keeps
    candidates inside the band, then a bisection pass along random rays
    refines extra points down to h_hat in [0, epsilon/10] so the check
    functions see genuinely near-boundary states.  Afterwards each
    constraint whose active region was missed gets a targeted search.
    Searches read only the sign of h_hat, through `screened_values`; the
    final samples are evaluated once, with gradients, on the tube.
    """
    box = _require_box(cs, "tube sampling")
    epsilon = _check_band(epsilon, density)
    rng = np.random.default_rng(seed)
    volume = float(np.prod(box[:, 1] - box[:, 0]))
    n_cand = max(512, int(math.ceil(density * volume)))

    # h_hat is only compared, where -0.0 and +0.0 (and NaNs of either sign)
    # agree, so the fold's tie rule (see softmin._fold) changes no decision
    def level(X, _rays):
        return _fold(np.minimum, cs.screened_values(X))

    cand = rng.uniform(box[:, 0], box[:, 1], size=(n_cand, cs.n))
    vals = cs.screened_values(cand)
    h_hat = _fold(np.minimum, vals)
    band = (h_hat >= 0.0) & (h_hat <= epsilon)
    accepted = cand[band]

    # boundary refinement: from interior points, march random rays until the
    # set is left, then bisect the crossing back into [0, eps/10]
    refined = np.empty((0, cs.n))
    n_rays = n_crossed = 0
    interior = np.flatnonzero(h_hat > 0.0)
    if interior.size > 0:
        n_rays = min(interior.size, max(32, n_cand // 16))
        starts = interior[rng.choice(interior.size, size=n_rays, replace=False)]
        dirs = rng.normal(size=(n_rays, cs.n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        scale = float(np.linalg.norm(box[:, 1] - box[:, 0]))
        refined, _, crossed = march_and_bisect(
            level, cand[starts], h_hat[starts], dirs, step=0.05 * scale,
            n_steps=40, box=box, margin=0.0, band=(0.0, epsilon / 10.0), max_iter=80,
        )
        n_crossed = int(crossed.sum())

    samples = np.vstack([accepted, refined]) if refined.size else accepted
    if samples.shape[0] == 0:
        raise EmptyTubeError(
            "no samples with 0 <= min-constraint <= epsilon found; the safe set "
            "may be empty or the bounding box misplaced"
        )

    # per-constraint coverage of the argmin regions, with a targeted retry
    # for constraints the random pass missed
    vals_s, grads_s = cs.evaluate_batch(samples)
    coverage = np.zeros(cs.N, dtype=bool)
    coverage[np.unique(vals_s.argmin(axis=1))] = True
    extra = []
    if not coverage.all():
        argmin_c = vals.argmin(axis=1)
        for i in np.flatnonzero(~coverage):
            owned = np.flatnonzero((argmin_c == i) & (h_hat > epsilon))[:16]
            if owned.shape[0] == 0:
                continue
            # bisect toward exterior points that constraint i also owns, so
            # the crossing lands on its face, and else toward any exterior
            out_pool = cand[(argmin_c == i) & (h_hat < 0.0)]
            if out_pool.shape[0] == 0:
                out_pool = cand[h_hat < 0.0]
            if out_pool.shape[0] == 0:
                continue
            outs = out_pool[rng.choice(out_pool.shape[0], size=owned.shape[0])]
            pts, _ = bisect_to_band(level, cand[owned], h_hat[owned], outs, (0.0, epsilon), 80)
            if pts.shape[0]:
                v_p = cs.values(pts)
                hit = v_p.argmin(axis=1) == i
                if hit.any():
                    extra.append(pts[hit][:4])
                    coverage[i] = True
    if extra:
        samples = np.vstack([samples] + extra)
        vals_s, grads_s = cs.evaluate_batch(samples)

    n_located = refined.shape[0]
    return TubeSpec(
        epsilon, samples, float(density), coverage, int(seed), vals_s, grads_s,
        rays_requested=n_rays, rays_located=n_located,
        rays_abandoned=n_rays - n_crossed, rays_unconverged=n_crossed - n_located,
    )


def _activity(vals: np.ndarray, tol: Optional[float]):
    """The pointwise minimum h_hat (B,) of values (B, N), the gaps
    vals - h_hat (B, N), and the active mask (B, N): gap <= `tol`, where
    None means the value-scaled default of each row."""
    _check_activity_tolerance(tol)
    h_hat = vals.min(axis=1)
    gaps = vals - h_hat[:, None]
    tol = default_activity_tolerance(h_hat) if tol is None else np.full(h_hat.shape, float(tol))
    return h_hat, gaps, gaps <= tol[:, None]


def estimate_bounds(F: VectorField, tube: TubeSpec, tol: Optional[float] = None) -> CompactBounds:
    """Measure the certificate constants M, r, d over the tube samples.

    `tol` is the activity tolerance; None means the value-scaled default.
    Raises NotStrictlySafeError (naming the witness sample and constraint)
    as soon as an active constraint has a nonpositive Lie derivative, since
    that contradicts strict inward flow on the boundary.
    """
    X, vals, grads = tube.samples, tube.values, tube.gradients
    Fx = call_batched(F, X, X.shape[1:])
    lie = np.einsum("bni,bi->bn", grads, Fx)

    _, gaps, active = _activity(vals, tol)

    M = float(np.abs(lie).max())
    lie_active = np.where(active, lie, np.inf)
    r_per = lie_active.min(axis=1)
    r = float(r_per.min())
    if r <= 0.0:
        b = int(r_per.argmin())
        i = int(lie_active[b].argmin())
        raise NotStrictlySafeError(
            f"active constraint {i} has Lie derivative {lie[b, i]:.6g} <= 0 at "
            f"sample {X[b].tolist()} (strict inward flow violated)",
            point=X[b].copy(),
            constraint=i,
            lie_value=float(lie[b, i]),
        )
    gaps_inactive = np.where(~active, gaps, np.inf)
    d = float(gaps_inactive.min())
    return CompactBounds(M=M, r=r, d=d, epsilon=tube.epsilon, n_samples=X.shape[0])


@dataclass(frozen=True)
class MFCQEntry:
    point: np.ndarray
    active: tuple
    ok: bool
    witness: Optional[np.ndarray]
    violating_pair: Optional[tuple]
    margin: float


@dataclass(frozen=True)
class MFCQReport:
    passed: bool
    n_checked: int
    entries: tuple

    @property
    def failures(self) -> tuple:
        return tuple(e for e in self.entries if not e.ok)


_MFCQ_MARGIN = 1e-9  # the relative margin a first guess must beat to skip the sweeps


def _mfcq_witness(grads: np.ndarray, margin: float = _MFCQ_MARGIN, sweeps: int = 50):
    """Search for a direction v with grad_i . v > 0 for all rows.

    First guess: the sum of normalized gradients.  Fallback: a few sweeps
    of projections onto the violated half-spaces.  Returns (v, ok, margin)
    where margin is min_i grad_i . v / |grad_i|.
    """
    norms = np.linalg.norm(grads, axis=1)
    if np.any(norms == 0.0):
        return None, False, -np.inf
    unit = grads / norms[:, None]
    v = unit.sum(axis=0)
    for _ in range(sweeps):
        dots = unit @ v
        j = int(dots.argmin())
        if dots[j] > margin:
            break
        v = v + (2.0 * margin - dots[j]) * unit[j]
    m = float((unit @ v).min())
    return v, m > 0.0, m


def check_mfcq(tube: TubeSpec, tol: Optional[float] = None) -> MFCQReport:
    """Constraint-qualification check at the near-boundary tube samples.

    At each sample with h_hat close to zero, looks for a common ascent
    direction for all active gradients.  Failure means two active gradients
    point in (nearly) opposite directions, i.e. the boundary has a
    degenerate kink there.  `tol` is the activity tolerance, as in
    `estimate_bounds`.
    """
    X, vals, grads = tube.samples, tube.values, tube.gradients
    h_hat, _, active = _activity(vals, tol)
    idx = np.flatnonzero(h_hat <= tube.epsilon / 10.0)
    if len(idx) == 0:
        idx = np.sort(np.argsort(h_hat)[:10])

    # _mfcq_witness's first guess for all samples with k active constraints
    # at once: the stacked matmul gives each sample's gemv margins bit for
    # bit (an einsum does not); only samples whose guess fails run the sweeps
    counts = active[idx].sum(axis=1)
    witness, margins = np.empty((len(idx), X.shape[1])), np.empty(len(idx))
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in np.unique(counts):
            rows = np.flatnonzero(counts == k)
            g_act = grads[idx[rows]][active[idx[rows]]].reshape(len(rows), k, -1)
            unit = g_act / np.linalg.norm(g_act, axis=2)[..., None]
            witness[rows] = unit.sum(axis=1)
            margins[rows] = (unit @ witness[rows][..., None])[..., 0].min(axis=1)

    entries = []
    for b, v, margin in zip(idx, witness, margins.tolist()):
        act = np.flatnonzero(active[b])
        ok, pair = margin > _MFCQ_MARGIN, None
        if not ok:
            g_act = grads[b][act]
            v, ok, margin = _mfcq_witness(g_act)
            if not ok and len(act) >= 2:
                unit = g_act / np.linalg.norm(g_act, axis=1, keepdims=True)
                i, j = divmod(int(np.argmin(unit @ unit.T)), len(act))
                pair = (int(act[i]), int(act[j]))
        entries.append(MFCQEntry(point=X[b].copy(), active=tuple(act.tolist()), ok=bool(ok), witness=v,
                                 violating_pair=pair, margin=margin))
    passed = all(e.ok for e in entries)
    return MFCQReport(passed=passed, n_checked=len(entries), entries=tuple(entries))

