"""Discrete image-grid calculus.

Scalar fields (images) are float64 arrays of shape (M, N), vector fields are
float64 arrays of shape (2, M, N) holding the two difference channels.  The
index convention, used everywhere in this package, is ``i`` = row (1..M,
vertical) and ``j`` = column (1..N, horizontal).

The gradient uses forward differences with a zero last row/column (Neumann
side); the divergence is its exact negative adjoint, so

    <grad(u), p>_Y + <u, div(p)>_X == 0

holds to rounding for every pair of fields.  All sums are plain unweighted
pixel sums (no area weights).
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
    g = np.zeros((2,) + u.shape)
    g[0, :-1, :] = u[1:, :] - u[:-1, :]
    g[1, :, :-1] = u[:, 1:] - u[:, :-1]
    return g


def div(p: np.ndarray) -> np.ndarray:
    """Backward-difference divergence, the exact negative adjoint of grad."""
    p1, p2 = p[0], p[1]
    out = np.zeros(p1.shape)
    out[:-1, :] += p1[:-1, :]
    out[1:, :] -= p1[:-1, :]
    out[:, :-1] += p2[:, :-1]
    out[:, 1:] -= p2[:, :-1]
    return out


def inner_x(u: np.ndarray, v: np.ndarray) -> float:
    """Plain pixel-sum inner product on scalar fields."""
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    return float(np.sum(u * v))


def inner_y(p: np.ndarray, q: np.ndarray) -> float:
    """Plain pixel-sum inner product on two-channel fields."""
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return float(np.sum(p * q))


def norm_x(u: np.ndarray) -> float:
    return float(np.sqrt(np.sum(u * u)))


def norm_y(p: np.ndarray) -> float:
    return float(np.sqrt(np.sum(p * p)))


def pointwise_mag(p: np.ndarray) -> np.ndarray:
    """Per-pixel Euclidean magnitude sqrt(chan1^2 + chan2^2), (2,M,N) -> (M,N)."""
    return np.sqrt(p[0] * p[0] + p[1] * p[1])


def tv_norm(p: np.ndarray, variant: str = ISO) -> float:
    """Total-variation value of a vector field.

    iso: sum of per-pixel Euclidean magnitudes; aniso: sum of per-channel
    absolute values.
    """
    check_variant(variant)
    if variant == ISO:
        return float(np.sum(pointwise_mag(p)))
    return float(np.sum(np.abs(p)))
