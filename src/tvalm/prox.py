"""Pointwise dual-ball projection and soft thresholding, both TV variants.

The two operators are the resolvents of the conjugate pair (indicator of the
radius-``alpha`` ball, ``alpha`` times the l1-type norm) and are linked by the
Moreau identity

    v = project_ball(v, alpha) + sigma * soft_threshold(v / sigma, alpha / sigma).

Both are written once, through ``grid.magnitude`` and ``grid.direction``,
which group the channels per pixel (iso) or per channel (aniso).
"""

from __future__ import annotations

import numpy as np

from .grid import ISO, direction, magnitude


def project_ball(lam: np.ndarray, alpha: float, variant: str = ISO) -> np.ndarray:
    """Project a vector field onto the feasible dual set,
    lam / max(1, |lam| / alpha) with |.| the variant's ``magnitude``.

    The max(1, .) form is kept as written so the active/inactive split
    matches the Newton-derivative masks exactly.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return lam / np.maximum(1.0, magnitude(lam, variant) / alpha)


def soft_threshold(v: np.ndarray, tau: float, variant: str = ISO) -> np.ndarray:
    """Shrink a vector field by ``tau`` (the prox of tau * ||.||_1):
    direction(v) * max(0, |v| - tau), 0 where |v| = 0.

    For aniso this is the scalar three-branch shrinkage per channel, whose
    exact form keeps PT's linear multiplier update inside the dual ball;
    the equivalent v * max(0, 1 - tau / |v|) does not.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return direction(v, variant) * np.maximum(0.0, magnitude(v, variant) - tau)
