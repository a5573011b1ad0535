"""Discrete image-grid calculus.

Scalar fields (images) are float64 arrays of shape (M, N), vector fields are
float64 arrays of shape (2, M, N) holding the two difference channels.
grad and div also take float32 fields, and return fields of their
argument's dtype (the float32 Newton solves of ``ssn``).  The
index convention, used everywhere in this package, is ``i`` = row (1..M,
vertical) and ``j`` = column (1..N, horizontal).

The gradient uses forward differences with a zero last row/column (Neumann
side); the divergence is its exact negative adjoint, so

    <grad(u), p>_Y + <u, div(p)>_X == 0

holds to rounding for every pair of fields.  All sums are plain unweighted
pixel sums (no area weights).

grad and div work on the C-ordered flattened image: in the flat layout a
row difference is a shift by N and a column difference a shift by 1 (which
wraps across rows only at the last column, where the stencils zero or drop
the term).  So each channel is one contiguous pass, and inputs in any memory
layout are read through a C-ordered view or copy.  The results are
bit-identical, signed zeros included, to the 2-D slice definitions
documented on each function.

The two TV variants differ only in how a vector field's two channels are
grouped pointwise: per pixel (iso, the Euclidean magnitude) or per channel
(aniso, the absolute value).  ``magnitude`` and ``direction`` are the only
pointwise code that knows this; the projection, the shrinkage, the TV value,
the residuals and the Newton derivatives are written once through them.
"""

from __future__ import annotations

import numpy as np

ISO = "iso"
ANISO = "aniso"


def check_variant(variant: str) -> str:
    if variant not in (ISO, ANISO):
        raise ValueError(f"unknown TV variant {variant!r}; expected 'iso' or 'aniso'")
    return variant


def image(values) -> np.ndarray:
    """Validate and return a scalar field as a float64 (M, N) array.

    Rejects non-2-D input and any NaN/Inf entry.
    """
    u = np.array(values, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] < 1 or u.shape[1] < 1:
        raise ValueError(f"image must be a 2-D array, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("image entries must be finite")
    return u


def grad(u: np.ndarray) -> np.ndarray:
    """Forward-difference gradient, (M, N) -> (2, M, N).

    chan1[i,j] = u[i+1,j] - u[i,j] (0 on the last row),
    chan2[i,j] = u[i,j+1] - u[i,j] (0 on the last column).
    """
    m, n = u.shape
    uf = u.ravel()
    g = np.empty((2, m * n), u.dtype)
    # Flat shifts by N and by 1 are the row and column differences; the
    # column shift wraps across rows only at the last column, zeroed below.
    np.subtract(uf[n:], uf[:-n], out=g[0, :-n])
    g[0, -n:] = 0.0
    np.subtract(uf[1:], uf[:-1], out=g[1, :-1])
    g = g.reshape(2, m, n)
    g[1, :, -1] = 0.0
    return g


def div(p: np.ndarray) -> np.ndarray:
    """Backward-difference divergence, the exact negative adjoint of grad.

    out[i,j] = (p1[i,j] - p1[i-1,j]) + (p2[i,j] - p2[i,j-1]), with the
    terms beyond the last row/column (and before the first) dropped.
    """
    m, n = p.shape[1:]
    p1 = p[0].ravel()
    out = np.empty(m * n, p.dtype)
    # Same operation order as summing into zeros: 0.0 + p1 first (which also
    # turns -0.0 into 0.0), then the shifted differences.
    np.add(p1[:-n], 0.0, out=out[:-n])
    out[-n:] = 0.0
    out[n:] -= p1[:-n]
    # With p2's last column zeroed, the flat shift by 1 adds p2 and subtracts
    # its left neighbour exactly where the 2-D definition does, and adds or
    # subtracts 0.0 elsewhere, which leaves those entries unchanged (none is
    # -0.0 at this point).
    t = p[1].copy()
    t[:, -1] = 0.0
    t = t.ravel()
    out[:-1] += t[:-1]
    out[1:] -= t[:-1]
    return out.reshape(m, n)


def inner_x(u: np.ndarray, v: np.ndarray) -> float:
    """Plain pixel-sum inner product on scalar fields."""
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    return float(np.sum(u * v))


def norm_x(u: np.ndarray) -> float:
    return float(np.sqrt(np.sum(u * u)))


def norm_y(p: np.ndarray) -> float:
    return float(np.sqrt(np.sum(p * p)))


def pointwise_mag(p: np.ndarray) -> np.ndarray:
    """Per-pixel Euclidean magnitude sqrt(chan1^2 + chan2^2), (2,M,N) -> (M,N)."""
    return np.sqrt(p[0] * p[0] + p[1] * p[1])


def magnitude(p: np.ndarray, variant: str) -> np.ndarray:
    """Pointwise magnitude of a vector field, grouped as the TV variant
    groups the two channels.

    iso: the per-pixel Euclidean magnitude, shape (1, M, N); aniso: each
    channel's absolute value, shape (2, M, N).  Either broadcasts against p.
    """
    check_variant(variant)
    if variant == ISO:
        return pointwise_mag(p)[None]
    return np.abs(p)


def direction(p: np.ndarray, variant: str) -> np.ndarray:
    """p divided by its ``magnitude``, 0 where that is 0: the per-pixel unit
    vector (iso) or the per-channel sign (aniso)."""
    check_variant(variant)
    if variant == ISO:
        mag = pointwise_mag(p)
        return p / np.where(mag > 0.0, mag, 1.0)
    return np.sign(p)


def tv_norm(p: np.ndarray, variant: str = ISO) -> float:
    """Total-variation value of a vector field, the sum of its ``magnitude``:
    per-pixel Euclidean magnitudes (iso) or per-channel absolute values
    (aniso)."""
    return float(np.sum(magnitude(p, variant)))
