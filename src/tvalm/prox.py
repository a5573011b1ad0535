"""Pointwise dual-ball projection and soft thresholding, both TV variants.

The two operators are the resolvents of the conjugate pair (indicator of the
radius-``alpha`` ball, ``alpha`` times the l1-type norm) and are linked by the
Moreau identity

    v = project_ball(v, alpha) + sigma * soft_threshold(v / sigma, alpha / sigma).
"""

from __future__ import annotations

import numpy as np

from .grid import ISO, check_variant, pointwise_mag


def project_ball(lam: np.ndarray, alpha: float, variant: str = ISO) -> np.ndarray:
    """Project a vector field onto the feasible dual set.

    iso: per-pixel scaling lam / max(1, |lam| / alpha); aniso: the same
    channel by channel.  The max(1, .) form is kept as written so the
    active/inactive pixel split matches the Newton-derivative masks exactly.
    """
    check_variant(variant)
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if variant == ISO:
        denom = np.maximum(1.0, pointwise_mag(lam) / alpha)
        return lam / denom
    return lam / np.maximum(1.0, np.abs(lam) / alpha)


def soft_threshold(v: np.ndarray, tau: float, variant: str = ISO) -> np.ndarray:
    """Shrink a vector field by ``tau`` (the prox of tau * ||.||_1).

    iso: per-pixel v * max(0, 1 - tau/|v|), with output 0 where |v| = 0;
    aniso: scalar three-branch shrinkage per channel.
    """
    check_variant(variant)
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if variant == ISO:
        mag = pointwise_mag(v)
        safe = np.where(mag > 0.0, mag, 1.0)
        scale = np.where(mag > 0.0, np.maximum(0.0, 1.0 - tau / safe), 0.0)
        return v * scale
    return np.sign(v) * np.maximum(0.0, np.abs(v) - tau)

