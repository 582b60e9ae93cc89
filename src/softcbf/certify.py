"""Smoothing thresholds and their empirical verification.

Two explicit thresholds are computed from sampled (or user-supplied)
constants:

  * theta_tube  = log(N) / epsilon
        puts the zero level set of the smooth minimum inside the band of
        width epsilon around the true boundary;
  * theta_core  = (1/d) * log( N * (r + M) / r )
        makes the inward active contribution dominate the inactive one on
        that band, given the sampled constants M, r, d;
  * theta_tail  = (1/eta_R) * log( (N-1) * (r_inf + C*(1+R)^p) / r_inf )
        does the same on the unbounded part beyond radius R under
        user-supplied growth constants.

The certified threshold is the maximum of the applicable terms.  Above it
the smooth minimum is a valid (extended) control barrier function for the
closed loop the constants were measured on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, InvalidCertificateError
from .geometry import (
    CompactBounds,
    ConstraintSet,
    VectorField,
    _require_box,
    call_batched,
    march_and_bisect,
)
from .softmin import _check_theta, softmin_block

__all__ = [
    "TailSpec",
    "ThetaCertificate",
    "VerificationReport",
    "ProbeReports",
    "theta_star_compact",
    "theta_star_tail",
    "certify",
    "probe_boundary",
    "verify_certificate",
]


@dataclass(frozen=True)
class TailSpec:
    """Growth constants for the unbounded part beyond radius R.

    eta_at_R: floor on the value gap of inactive constraints at radius R
    (the gap must be nondecreasing in the radius for the guarantee to
    extend outward).  C, p: polynomial envelope C*(1+|x|)^p on inactive
    Lie derivatives.  r_inf: uniform inward floor for active constraints.
    These are trusted inputs; estimating them by sampling an unbounded
    region would be unsound, so the package only ever checks them on a
    finite shell and labels the result accordingly.
    """

    R: float
    eta_at_R: float
    C: float
    p: float
    r_inf: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.R, self.eta_at_R, self.C, self.p, self.r_inf)):
            raise InvalidCertificateError(f"tail constants must be finite, got {self}")
        if not (self.R > 0 and self.eta_at_R > 0 and self.r_inf > 0):
            raise InvalidCertificateError(
                f"R, eta_at_R, r_inf must be positive, got {self.R}, {self.eta_at_R}, {self.r_inf}"
            )
        if self.C < 0 or self.p < 0:
            raise InvalidCertificateError(f"C and p must be nonnegative, got {self.C}, {self.p}")


@dataclass(frozen=True)
class ThetaCertificate:
    """Certified smoothing threshold and the terms it came from."""

    theta_tube: float
    theta_core: float
    theta_tail: Optional[float]
    theta_star: float
    N: int
    bounds: CompactBounds
    tail: Optional[TailSpec]
    kind: str  # "CBF" for compact sets, "eCBF" when a tail term is present


def theta_star_compact(bounds: CompactBounds, N: int) -> ThetaCertificate:
    """Threshold for a compact set from sampled band constants.

    With a single constraint smoothing is exact, so the threshold is 0.
    With no inactive constraint anywhere (d = +inf) the core term vanishes
    and only the band-containment term remains.
    """
    N = int(N)
    if N < 1:
        raise InvalidCertificateError(f"N must be >= 1, got {N}")
    if not (bounds.epsilon > 0 and bounds.r > 0):
        raise InvalidCertificateError(
            f"need epsilon > 0 and r > 0, got {bounds.epsilon}, {bounds.r}"
        )
    if N == 1:
        theta_tube = 0.0
        theta_core = 0.0
    else:
        theta_tube = math.log(N) / bounds.epsilon
        if math.isinf(bounds.d):
            theta_core = 0.0
        else:
            theta_core = math.log(N * (bounds.r + bounds.M) / bounds.r) / bounds.d
    return ThetaCertificate(
        theta_tube=theta_tube,
        theta_core=theta_core,
        theta_tail=None,
        theta_star=max(theta_tube, theta_core),
        N=N,
        bounds=bounds,
        tail=None,
        kind="CBF",
    )


def theta_star_tail(tail: TailSpec, N: int) -> float:
    """Threshold term that keeps the tail inward beyond radius R.

    The inactive sum there has at most N-1 terms, so a single constraint
    gives 0 (nothing to dominate).
    """
    N = int(N)
    if N < 1:
        raise InvalidCertificateError(f"N must be >= 1, got {N}")
    if N == 1:
        return 0.0
    grow = tail.r_inf + tail.C * (1.0 + tail.R) ** tail.p
    return math.log((N - 1) * grow / tail.r_inf) / tail.eta_at_R


def certify(bounds: CompactBounds, tail: Optional[TailSpec], N: int) -> ThetaCertificate:
    """Combine the applicable threshold terms into one certificate.

    Without a tail spec this is the compact-set path (kind CBF); with one,
    the result certifies an extended CBF whose relaxation may grow with
    the state norm (kind eCBF).
    """
    base = theta_star_compact(bounds, N)
    if tail is None:
        return base
    t_tail = theta_star_tail(tail, N)
    return replace(
        base, theta_tail=t_tail, theta_star=max(base.theta_star, t_tail), tail=tail, kind="eCBF"
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of sampling the smooth-minimum zero level set.

    min_lie is the smallest Lie derivative of the smooth minimum over the
    located boundary points; nonpositive witnesses are collected.
    containment_ok states whether every located point kept the pointwise
    minimum inside [0, epsilon].  Every requested ray is located, abandoned
    (no crossing inside the widened box within the march's steps, or no
    interior start at all) or unconverged (crossed, but its bisection did
    not reach the boundary tolerance), so n_requested == n_located +
    n_abandoned + n_unconverged.
    """

    theta: float
    epsilon: float
    n_requested: int
    n_located: int
    n_abandoned: int
    n_unconverged: int
    boundary_found: bool
    min_lie: Optional[float]
    argmin_point: Optional[np.ndarray]
    nonpositive: tuple
    containment_ok: bool
    max_h_hat: Optional[float]
    min_h_hat: Optional[float]

    @property
    def all_positive(self) -> bool:
        return self.boundary_found and self.min_lie is not None and self.min_lie > 0.0


class ProbeReports(tuple):
    """The VerificationReport of each theta of one lockstep probe, with its
    ray counts summed over them, so the call reports them as a one-theta
    call does."""

    @property
    def n_requested(self) -> int:
        return sum(r.n_requested for r in self)

    @property
    def n_located(self) -> int:
        return sum(r.n_located for r in self)


def probe_boundary(
    cs: ConstraintSet,
    F: VectorField,
    theta: Union[float, Sequence[float]],
    epsilon: float,
    n_check: int,
    seed: int,
    boundary_tol: float = 1e-10,
) -> Union[VerificationReport, ProbeReports]:
    """Locate points on the zero level set of the smooth minimum and
    evaluate its Lie derivative there.

    Boundary points are found by bisection along random rays from interior
    points (smooth minimum > 0) to exterior points, driven until the inner
    endpoint sits within `boundary_tol` of the level set; the inner
    endpoint is returned so located points never have a negative smooth
    minimum.  The searches read only the sign of the smooth minimum, which
    never exceeds the pointwise one, so they go through
    `ConstraintSet.screened_values`.  No threshold precondition is imposed
    here, which makes the routine usable for sweeps across the threshold;
    `verify_certificate` adds the precondition.

    `theta` is one value, giving one VerificationReport, or a sequence,
    giving a ProbeReports with one report per value; one value is probed as
    the one-element sequence.  The values are probed in lockstep: the
    interior pool is drawn and screened once, the rays of every value go
    through one `march_and_bisect`, each point at its ray's theta, and all
    located points through one evaluation.  Each value's starts and
    directions come from a generator seeded with `seed` and advanced past
    the pool draw, as if it were probed alone, so its report is that of a
    one-value call; only where that call would evaluate a lone row can a
    level differ, in its last bit (see `march_and_bisect`).
    """
    box = _require_box(cs, "boundary probing")
    thetas = np.array([_check_theta(t) for t in np.ravel(theta)])
    rng = np.random.default_rng(seed)
    n_check = int(n_check)

    # interior pool, screened once; each theta's level is its smooth minimum
    n_pool = max(4 * n_check, 256)
    pool = rng.uniform(box[:, 0], box[:, 1], size=(n_pool, cs.n))
    pool_vals = cs.screened_values(pool)
    after_pool = rng.bit_generator.state
    starts, start_levels, dirs, owners = [], [], [], []
    for j, t in enumerate(thetas):
        pool_level = softmin_block(pool_vals, t)[0]
        interior = np.flatnonzero(pool_level > 0.0)
        if interior.size == 0:
            continue
        rng.bit_generator.state = after_pool
        chosen = interior[rng.choice(interior.size, size=n_check, replace=True)]
        d = rng.normal(size=(n_check, cs.n))
        dirs.append(d / np.linalg.norm(d, axis=1, keepdims=True))
        starts.append(pool[chosen])
        start_levels.append(pool_level[chosen])
        owners.append(np.full(n_check, j))
    owner = np.concatenate(owners) if owners else np.empty(0, dtype=int)
    located, rays, crossed = np.empty((0, cs.n)), np.empty(0, dtype=int), np.empty(0, dtype=bool)
    if owner.size:
        scale = float(np.linalg.norm(box[:, 1] - box[:, 0]))
        located, rays, crossed = march_and_bisect(
            lambda X, r: softmin_block(cs.screened_values(X), thetas[owner[r]])[0],
            np.vstack(starts), np.concatenate(start_levels), np.vstack(dirs), step=0.04 * scale,
            n_steps=60, box=box, margin=0.5 * scale, band=(0.0, boundary_tol), max_iter=100,
        )
    who = owner[rays]
    if located.shape[0]:
        vals, grads = cs.evaluate_batch(located)
        Fx = call_batched(F, located, (cs.n,))
        # Lie derivative of the smooth minimum: weighted sum of per-constraint rows
        _, w = softmin_block(vals, thetas[who])
        lie = np.sum(w * np.einsum("bni,bi->bn", grads, Fx), axis=1)
        h_hat = vals.min(axis=1)

    reports = []
    for j, t in enumerate(thetas.tolist()):
        mine = np.flatnonzero(who == j)
        n_crossed = int(np.count_nonzero(crossed[owner == j]))
        base = dict(
            theta=t, epsilon=float(epsilon), n_requested=n_check, n_located=mine.size,
            n_abandoned=n_check - n_crossed, n_unconverged=n_crossed - mine.size,
        )
        if mine.size == 0:
            reports.append(VerificationReport(
                **base, boundary_found=False, min_lie=None, argmin_point=None, nonpositive=(),
                containment_ok=False, max_h_hat=None, min_h_hat=None,
            ))
            continue
        pts, lie_j, h_j = located[mine], lie[mine], h_hat[mine]
        i_min = int(lie_j.argmin())
        reports.append(VerificationReport(
            **base,
            boundary_found=True,
            min_lie=float(lie_j[i_min]),
            argmin_point=pts[i_min].copy(),
            nonpositive=tuple((pts[b].copy(), float(lie_j[b])) for b in np.flatnonzero(lie_j <= 0.0)),
            containment_ok=bool(np.all(h_j >= 0.0) and np.all(h_j <= epsilon + 1e-9)),
            max_h_hat=float(h_j.max()),
            min_h_hat=float(h_j.min()),
        ))
    return reports[0] if np.ndim(theta) == 0 else ProbeReports(reports)


def verify_certificate(
    cs: ConstraintSet,
    F: VectorField,
    cert: ThetaCertificate,
    theta: float,
    n_check: int,
    seed: int,
) -> VerificationReport:
    """Empirically confirm a certificate at a chosen theta above its threshold.

    Samples the zero level set of the smooth minimum, reports the smallest
    Lie derivative found (positive everywhere is the certified prediction)
    and whether every boundary point stayed inside the sampled band.
    """
    if not _check_theta(theta) > cert.theta_star:
        raise DomainError(
            f"theta={theta} does not exceed the certified threshold {cert.theta_star}"
        )
    return probe_boundary(cs, F, theta, cert.bounds.epsilon, n_check, seed)
