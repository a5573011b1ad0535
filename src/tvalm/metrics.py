"""Residuals and quality measures used for stopping and reporting.

All quantities follow the saddle-point optimality system of the restoration
problem: a primal residual res_u, a dual fixed-point residual res_lambda,
their scaled sum Err (the outer stopping quantity), two complementarity
residuals Res1/Res2, the normalized primal-dual gap of the denoising model,
and PSNR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import div, grad, magnitude, norm_x, norm_y, tv_norm
from .linops import DataTerm, LinearMap
from .prox import project_ball
from .ssn import InnerResult

FEAS_SLACK = 1e-12
PSNR_CAP = 99.0


@dataclass(frozen=True)
class MetricRecord:
    """One outer iteration's worth of diagnostics: one CSV row, whose columns
    are these fields in declaration order."""

    k: int
    res_u: float
    res_lambda: float
    err: float
    res1: float
    res2: float
    gap: float
    psnr: float
    wall_ms: float
    inner_newton: int
    avg_krylov: float
    backtracks: int
    tight_resolves: int
    f32_solves: int
    f32_corrections: int
    sigma: float
    inner_threshold: float
    lambda_feasible: bool


def res_u(u: np.ndarray, lam: np.ndarray, f: np.ndarray, H: LinearMap) -> float:
    """Primal optimality residual ||H u - f + grad^* lam||_F."""
    return norm_x(H.apply(u) - f - div(lam))


def _res_lambda(g: np.ndarray, lam: np.ndarray, alpha: float, c0: float,
                variant: str) -> float:
    """Dual fixed-point residual ||lam - P_alpha(lam + c0 g)||_F at g = grad u,
    c0 > 0."""
    if c0 <= 0.0:
        raise ValueError(f"c0 must be positive, got {c0}")
    return norm_y(lam - project_ball(lam + c0 * g, alpha, variant))


def err_total(u: np.ndarray, lam: np.ndarray, f: np.ndarray, H: LinearMap,
              alpha: float, c0: float, variant: str) -> float:
    """Scaled residual sum (res_u + res_lambda) / ||f||_F."""
    return _err(res_u(u, lam, f, H), _res_lambda(grad(u), lam, alpha, c0, variant), f)


def _err(ru: float, rl: float, f: np.ndarray) -> float:
    fn = norm_x(f)
    if fn == 0.0:
        raise ValueError("err_total undefined for f = 0")
    return (ru + rl) / fn


def lambda_feasible(lam: np.ndarray, alpha: float, variant: str) -> bool:
    """Dual feasibility, |lam| <= alpha pointwise (the variant's
    ``magnitude``), up to the relative rounding slack FEAS_SLACK."""
    return bool(np.all(magnitude(lam, variant) <= alpha * (1.0 + FEAS_SLACK)))


def _res1(g: np.ndarray, lam: np.ndarray, alpha: float, variant: str) -> float:
    """Pixel-wise Fenchel-equality residual ||alpha |g| - <lam, g>||_F at
    g = grad u, with |g| the variant's magnitude summed over its channels.

    The feasibility indicator contributes 0 here; infeasible multipliers are
    flagged on the MetricRecord instead.
    """
    dot = lam[0] * g[0] + lam[1] * g[1]
    return norm_x(alpha * magnitude(g, variant).sum(0) - dot)


def _res2(g: np.ndarray, lam: np.ndarray, alpha: float, variant: str) -> float:
    """Optimality-system residual ||alpha g - |g| lam||_F at g = grad u.

    |g| is the variant's ``magnitude``: iso multiplies the per-pixel
    Euclidean magnitude into both channels of lam; aniso applies the
    analogous condition channel by channel (which is what vanishes at
    anisotropic saddle points).
    """
    return norm_y(alpha * g - magnitude(g, variant) * lam)


def _pd_gap(u: np.ndarray, g: np.ndarray, lam: np.ndarray, f: np.ndarray,
            alpha: float, variant: str, feasible: bool) -> float:
    """Normalized primal-dual gap of the denoising (ROF) model, K = I and
    mu = 0, at g = grad u.

    Returns +inf when lam is not ``feasible`` (callers flag the record);
    otherwise the gap divided by the pixel count.
    """
    if not feasible:
        return float("inf")
    raw = (
        0.5 * norm_x(u - f) ** 2
        + alpha * tv_norm(g, variant)
        + 0.5 * norm_x(div(lam) + f) ** 2
        - 0.5 * norm_x(f) ** 2
    )
    return raw / u.size


def psnr(u: np.ndarray, reference: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB against a [0, 1]-scale reference."""
    if u.shape != reference.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {reference.shape}")
    mse = float(np.mean((u - reference) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)


def make_record(k: int, u: np.ndarray, lam: np.ndarray, data: DataTerm,
                alpha: float, variant: str, reference: np.ndarray, wall_ms: float,
                inner: Optional[InnerResult] = None) -> MetricRecord:
    """Assemble the full per-iteration metric row (PSNR display-capped).

    res_lambda uses the dual scaling c0 = 1, as every report does.  grad u,
    both residuals and the feasibility test are evaluated once and shared by
    the columns that use them.  The gap is the denoising (ROF) gap, so it
    reads nan unless the data term is the identity.  The counter columns
    (Newton steps, mean Krylov iterations per step, backtracks, tight
    re-solves), the subproblem's penalty sigma and its stopping threshold
    are read off its result ``inner``; without one, as for ALG2, the counters
    are zero and sigma and the threshold are nan.
    """
    steps = inner.newton_steps if inner else 0
    f = data.f
    g = grad(u)
    feas = lambda_feasible(lam, alpha, variant)
    ru = res_u(u, lam, f, data.H)
    rl = _res_lambda(g, lam, alpha, 1.0, variant)
    p = psnr(u, reference)
    return MetricRecord(
        k=k,
        res_u=ru,
        res_lambda=rl,
        err=_err(ru, rl, f),
        res1=_res1(g, lam, alpha, variant),
        res2=_res2(g, lam, alpha, variant),
        gap=(_pd_gap(u, g, lam, f, alpha, variant, feas) if data.identity
             else float("nan")),
        psnr=min(p, PSNR_CAP),
        wall_ms=wall_ms,
        inner_newton=steps,
        avg_krylov=inner.krylov_iters / steps if steps else 0.0,
        backtracks=inner.backtracks if inner else 0,
        tight_resolves=inner.tight_resolves if inner else 0,
        f32_solves=inner.f32_solves if inner else 0,
        f32_corrections=inner.f32_corrections if inner else 0,
        sigma=inner.sigma if inner else float("nan"),
        inner_threshold=inner.threshold if inner else float("nan"),
        lambda_feasible=feas,
    )
