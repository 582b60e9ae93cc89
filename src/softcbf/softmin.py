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
    "softmin_rows",
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


def _constant(value: float) -> np.ndarray:
    """`value` as a read-only 0-d float64 array: as a ufunc operand it skips
    the conversion a Python float costs at every call, and with a float64
    array on the other side it gives the same bits (under NEP 50 it is a
    strong operand, so use it only where that side is float64)."""
    return np.broadcast_to(np.float64(value), ())


def _fold(op, a: np.ndarray) -> np.ndarray:
    """`op.reduce(a, axis=-1)` for op np.minimum, np.maximum or
    np.logical_and, as a left fold over the last axis of length N once the
    block has at least 8 N rows: numpy reduces each short row in a slow
    inner loop, while N - 1 calls over whole columns are far cheaper
    (N = 4, 3000 rows: 7.5 us against 150 us).  Smaller blocks keep the one
    reduce call, which is cheaper below about 30 rows for N = 4 and 100
    for N = 11.

    Both select the same value.  Only two signs may differ: the sign of a
    zero extreme from a row holding +0.0 and -0.0 there, where the fold
    keeps the earlier column and numpy's vectorised reduce picks by CPU
    (for N = 9, 17, ... on an AVX-512 host), and the sign of a NaN."""
    N = a.shape[-1]
    if N == 1 or a.size < 8 * N * N:
        return op.reduce(a, axis=-1)
    out = op(a[..., 0], a[..., 1])
    for j in range(2, N):
        op(out, a[..., j], out=out)
    return out


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
    # the sign of a zero zmax reaches neither exp(z - zmax) nor the result,
    # so on a NaN-free block the fold's tie rule (see _fold) leaves every bit
    # as z.max gives it; the sum stays numpy's, as from 8 columns on its
    # pairwise order is no left fold
    zmax = _fold(np.maximum, z)
    e = np.exp(z - zmax[:, None])
    total = e.sum(axis=1, keepdims=True)
    return -(zmax + np.log(total[:, 0])) / theta, e / total


def softmin_rows(vals: np.ndarray, grads: np.ndarray, theta) -> tuple[np.ndarray, np.ndarray]:
    """Smooth minimum (B,) and gradient (B, n) of finite values (B, N) and
    gradients (B, N, n), at one theta or one per row (B,); theta is unchecked."""
    if not (np.isfinite(vals).all() and np.isfinite(grads).all()):
        raise InvalidInputError("constraint values and gradients must be finite")
    if vals.shape[1] == 1:  # one constraint is its own smooth minimum
        return vals[:, 0], grads[:, 0]
    soft, w = softmin_block(vals, theta)
    # sum_i w_i grad_i as a stacked (1, N) @ (N, n) product, bitwise per row
    return soft, (w[:, None, :] @ grads)[:, 0]


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
    # one weight returns the row as given, like softmin_rows; w @ g turns -0.0 into +0.0
    return g[0].copy() if w.size == 1 else w @ g

