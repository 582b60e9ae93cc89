"""Log-sum-exp smooth minimum.

Given constraint values h_1..h_N and a sharpness theta > 0, the smooth
minimum is

    softmin_theta(h) = -(1/theta) * log( sum_i exp(-theta * h_i) ),

which under-approximates min_i h_i by at most log(N)/theta.  One kernel,
`softmin_block`, computes it together with the softmax weights that mix
the constraint gradients on a (B, N) block of constraint values; the
single-point functions are one-row uses of it.

All functions are pure and safe to call concurrently.  Non-finite inputs
are rejected at the boundary rather than propagated.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError, InvalidInputError

__all__ = [
    "softmin_block",
    "softmin_value",
    "softmin_weights",
    "softmin_gradient",
    "default_activity_tolerance",
]


def _as_values(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise InvalidInputError(f"expected a 1-d vector of at least one value, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("constraint values must be finite")
    return v


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not np.isfinite(theta) or theta <= 0.0:
        raise DomainError(f"theta must be a finite positive number, got {theta}")
    return theta


def default_activity_tolerance(h_min):
    """Default tolerance for deciding which constraints count as active.

    Scales with the magnitude of the pointwise minimum because exact
    floating-point ties never occur.  Accepts a scalar or an array of
    per-row minima.
    """
    return 1e-8 * (1.0 + np.abs(h_min))


def softmin_block(vals: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Smooth minimum (B,) and softmax weights (B, N) of each row of a
    (B, N) block of constraint values, at one sharpness theta for every row
    or one per row (B,).

    Computed in max-shifted form so the result is finite for any finite
    input, including theta in the tens of thousands.  Inputs are not
    validated here; `softmin_value` and `softmin_weights` are the checked
    single-point entry points.
    """
    z = -(theta[:, None] if np.ndim(theta) else theta) * vals
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    total = e.sum(axis=1, keepdims=True)
    return -(zmax[:, 0] + np.log(total[:, 0])) / theta, e / total


def softmin_value(values, theta: float) -> float:
    """Smooth minimum of `values` at sharpness `theta`.

    A single value is returned unchanged (no log/exp round trip).
    """
    v = _as_values(values)
    theta = _check_theta(theta)
    if v.size == 1:
        return float(v[0])
    return float(softmin_block(v[None, :], theta)[0][0])


def softmin_weights(values, theta: float) -> np.ndarray:
    """Softmax weights w_i = exp(-theta*h_i) / sum_j exp(-theta*h_j).

    Strictly inside (0, 1) for N >= 2 up to floating-point underflow of the
    far-from-minimum entries; always sums to 1.
    """
    v = _as_values(values)
    theta = _check_theta(theta)
    if v.size == 1:
        return np.array([1.0])
    return softmin_block(v[None, :], theta)[1][0]


def softmin_gradient(gradients, weights) -> np.ndarray:
    """Convex combination sum_i w_i * grad_i of the constraint gradients.

    This is the gradient of the smooth minimum when `weights` are the
    softmax weights of the same values the gradients belong to.
    """
    g = np.asarray(gradients, dtype=float)
    w = np.asarray(weights, dtype=float)
    if g.ndim == 1:
        g = g.reshape(w.size, -1) if w.size > 1 else g.reshape(1, -1)
    if g.ndim != 2 or w.ndim != 1 or g.shape[0] != w.size:
        raise InvalidInputError(f"gradient block {g.shape} does not match {w.size} weights")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(w))):
        raise InvalidInputError("gradients and weights must be finite")
    if abs(w.sum() - 1.0) > 1e-6:
        raise InvalidInputError(f"weights must sum to 1, got {w.sum()!r}")
    return w @ g

