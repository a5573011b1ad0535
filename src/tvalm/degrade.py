"""Seeded degradation pipeline (blur, then additive Gaussian noise) and
synthetic test scenes.

Noise streams come from numpy's default PCG64 generator with its ziggurat
Gaussian sampler; a given seed reproduces the stream bit for bit within this
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import image
from .linops import BlurKernel, blur_apply

N_BLOCKS = 6


@dataclass(frozen=True)
class DegradeSpec:
    noise_std: float = 0.0
    blur: Optional[BlurKernel] = None
    seed: int = 0

    def __post_init__(self):
        # Written as "not >= 0" so that NaN is rejected too.
        if not self.noise_std >= 0.0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")


def degrade(clean: np.ndarray, spec: DegradeSpec) -> np.ndarray:
    """Blur (if configured), then add i.i.d. Gaussian noise of the given std."""
    out = blur_apply(clean, spec.blur) if spec.blur is not None else clean.copy()
    if spec.noise_std > 0.0:
        rng = np.random.default_rng(spec.seed)
        out = out + rng.normal(0.0, spec.noise_std, size=out.shape)
    return out


def blocks_image(rows: int, cols: int, seed: int = 0) -> np.ndarray:
    """Piecewise-constant synthetic scene: N_BLOCKS random rectangles over a
    flat background, plus a centered disk.  Deterministic per seed."""
    rng = np.random.default_rng(seed)
    u = np.full((rows, cols), 0.25)
    for _ in range(N_BLOCKS):
        r0 = int(rng.integers(0, max(1, rows - 1)))
        c0 = int(rng.integers(0, max(1, cols - 1)))
        r1 = int(rng.integers(r0 + 1, rows + 1))
        c1 = int(rng.integers(c0 + 1, cols + 1))
        u[r0:r1, c0:c1] = rng.uniform(0.0, 1.0)
    ii, jj = np.mgrid[0:rows, 0:cols]
    radius = min(rows, cols) / 4.0
    disk = (ii - rows / 2.0) ** 2 + (jj - cols / 2.0) ** 2 <= radius ** 2
    u[disk] = 0.85
    return image(np.clip(u, 0.0, 1.0))
