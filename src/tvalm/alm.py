"""Outer augmented-Lagrangian loop: penalty schedule, inner dispatch,
multiplier update, and convergence bookkeeping.

Each outer iteration solves the penalized subproblem with the configured
semismooth Newton method to the empirical accuracy delta / sigma_k, updates
the multiplier (linear update through the soft threshold for the primal
solver, projection update for the primal-dual solvers), grows the penalty
geometrically up to its cap, and records the full residual suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import MaxOuterError
from .grid import check_variant, grad, norm_y
from .linops import KrylovConfig, LinearMap
from .metrics import MetricRecord, make_record
from .prox import project_ball, soft_threshold
from .report import RunReport, summarize
from .ssn import LineSearchParams, make_context, solve_subproblem


@dataclass(frozen=True)
class AlmConfig:
    """Outer-loop parameters; defaults follow the reference experiments
    (sigma_0 = 4 quadrupled each iteration, delta presets 1e-2 / 1e-4)."""

    alpha: float
    variant: str = "iso"
    mu: float = 0.0
    inner: str = "pdp"
    sigma0: float = 4.0
    growth_c: float = 4.0
    sigma_max: float = 1e6
    delta_inner: float = 1e-4
    outer_tol: float = 1e-6
    max_outer: int = 30
    c0: float = 1.0
    krylov_max_iters: int = 20000
    hinv_tol: float = 1e-12
    ls: LineSearchParams = field(default_factory=LineSearchParams)

    def __post_init__(self):
        check_variant(self.variant)
        if self.alpha <= 0 or self.sigma0 <= 0 or self.outer_tol <= 0 or self.delta_inner <= 0:
            raise ValueError("alpha, sigma0, delta_inner and outer_tol must be positive")
        if self.growth_c <= 1.0:
            raise ValueError("growth_c must exceed 1")
        if self.sigma_max < self.sigma0:
            raise ValueError("sigma_max must be >= sigma0")
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        if self.inner not in ("pdp", "pdd", "pt"):
            raise ValueError(f"unknown inner solver {self.inner!r}")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


@dataclass
class AlmTrace:
    """Internal per-iteration quantities kept for the stopping-theory report."""

    k: int
    sigma: float
    inner_residual: float
    dlambda: float
    newton_steps: int
    krylov_iters: int


@dataclass
class OuterState:
    """Final (or per-iteration) outer iterate with the recorded history."""

    u: np.ndarray
    p: np.ndarray
    lam: np.ndarray
    sigma: float
    k: int
    history: list[MetricRecord] = field(default_factory=list)
    trace: list[AlmTrace] = field(default_factory=list)


def sigma_schedule(sigma0: float, c: float, sigma_max: float, k: int) -> float:
    """Penalty after k growth steps: min(sigma0 * c^k, sigma_max)."""
    return min(sigma0 * c ** k, sigma_max)


def inner_stop_rule(inner_res: float, sigma_k: float, delta: float) -> bool:
    """Empirical subproblem accuracy: residual <= delta / sigma_k.

    The division by sigma_k tightens the rule as the penalty grows, which is
    what makes the inexact outer iteration converge.
    """
    if sigma_k <= 0.0:
        raise ValueError("sigma_k must be positive")
    return inner_res <= delta / sigma_k


def alm_run(z: np.ndarray, K: Optional[LinearMap], cfg: AlmConfig,
            reference: Optional[np.ndarray] = None,
            seed: Optional[int] = None) -> tuple[OuterState, RunReport]:
    """Run the full ALM solver on observed data ``z``.

    K = None selects the denoising model (identity data operator).  PSNR is
    computed against ``reference`` when given, against ``z`` otherwise.
    Raises MaxOuterError (carrying the final state) when ``max_outer``
    iterations do not reach ``outer_tol``.
    """
    ref = z if reference is None else reference
    kcfg = KrylovConfig(rel_tol=0.1, max_iters=cfg.krylov_max_iters, method="bicgstab")

    shape = grad(z).shape
    u = z.copy()
    lam = np.zeros(shape)
    h = np.zeros(shape)
    p = np.zeros(shape)
    sigma = cfg.sigma0
    state = OuterState(u=u, p=p, lam=lam, sigma=sigma, k=0)
    err = float("inf")
    # f = K*z, H and the nested-solve config are fixed for the run; each outer
    # iteration only swaps in the current multiplier and penalty.
    ctx = make_context(z, lam, sigma, cfg.alpha, cfg.variant, K=K, mu=cfg.mu,
                       hinv_tol=cfg.hinv_tol)

    for k in range(cfg.max_outer):
        t0 = time.perf_counter()
        ctx = replace(ctx, lam=lam, sigma=sigma)
        inner = solve_subproblem(u, h, ctx, cfg.inner, cfg.delta_inner, kcfg, cfg.ls)
        u, h = inner.state.u, inner.state.h

        lam_prev = lam
        if cfg.inner == "pt":
            p = soft_threshold(lam / sigma + grad(u), cfg.alpha / sigma, cfg.variant)
            lam = lam + sigma * (grad(u) - p)
        else:
            lam = project_ball(lam + sigma * grad(u), cfg.alpha, cfg.variant)
            p = soft_threshold(lam_prev / sigma + grad(u), cfg.alpha / sigma, cfg.variant)

        wall_ms = (time.perf_counter() - t0) * 1e3
        steps = inner.newton_steps
        record = make_record(
            k + 1, u, lam, ctx.f, ctx.H, cfg.alpha, cfg.c0, cfg.variant, ref, wall_ms,
            steps, inner.krylov_iters / steps if steps else 0.0,
        )
        state.history.append(record)
        state.trace.append(AlmTrace(
            k=k + 1, sigma=sigma, inner_residual=inner.state.inner_residual,
            dlambda=norm_y(lam - lam_prev), newton_steps=steps,
            krylov_iters=inner.krylov_iters,
        ))
        err = record.err

        sigma = sigma_schedule(cfg.sigma0, cfg.growth_c, cfg.sigma_max, k + 1)
        state.u, state.p, state.lam, state.sigma, state.k = u, p, lam, sigma, k + 1
        if err <= cfg.outer_tol:
            report = summarize("alm-" + cfg.inner, cfg, state.history, seed,
                               converged=True)
            return state, report

    report = summarize("alm-" + cfg.inner, cfg, state.history, seed, converged=False)
    raise MaxOuterError("outer iteration budget exhausted", err=err,
                        state=state, report=report)


@dataclass
class CriteriaReport:
    """Retrospective view of the theoretical inner stopping criteria.

    Only the surrogate of the subgradient-distance criterion is computable
    from a run (inner residual times sigma over the multiplier step); the
    value-gap criteria need inf Phi_k, which is unavailable, and are reported
    as such.
    """

    ratios: list[Optional[float]]
    notes: str = ("value-gap criteria unavailable (inf Phi_k unknown); "
                  "ratios are inner_residual * sigma / ||lambda_{k+1} - lambda_k||")


def criteria_abc_report(trace: list[AlmTrace]) -> CriteriaReport:
    ratios: list[Optional[float]] = []
    for t in trace:
        if t.dlambda == 0.0:
            ratios.append(None)
        else:
            ratios.append(t.inner_residual * t.sigma / t.dlambda)
    return CriteriaReport(ratios=ratios)
