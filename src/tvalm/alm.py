"""Outer augmented-Lagrangian loop: penalty schedule, inner dispatch and
convergence bookkeeping.

A run builds its data term (``linops.DataTerm``: f = K* z, H and the solves
with H) once.  Each outer iteration solves the penalized subproblem with the
configured semismooth Newton method to the empirical accuracy delta / sigma_k;
its Krylov solves ask for no more accuracy than that, or than the outer
stopping test needs (``AlmContext.need``).
``ssn.solve_subproblem`` returns the new image with the next multiplier,
lam_{k+1} = P_alpha(lam_k + sigma_k grad u_{k+1}), so the loop takes both
from its result.  It then grows the penalty geometrically up to its cap and
records the full residual suite: one ``MetricRecord`` per outer iteration,
carrying the subproblem's counters and penalty (``metrics.make_record``).  The
report holds the records; the returned state holds the last recorded iterate.

The convergence theory asks only for an increasing penalty sequence, so its
growth factor is a cost choice, and the default depends on the inner method
(``DEFAULT_GROWTH``).  PDP and PDD quadruple sigma; doubling it adds outer
iterations and makes them slower.  PT doubles it: at x4 more of its steps
backtrack at the late penalties, and the run takes up to two-thirds more
Krylov iterations than at x2 (9,597 against 5,796 on a 64x64 iso denoise).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import MaxOuterError, SolverError
from .grid import check_variant, norm_x
from .linops import DataTerm, LinearMap
from .metrics import make_record
from .report import RunReport, summarize
from .ssn import AlmContext, solve_subproblem


# Penalty growth factor per inner method when AlmConfig.growth_c is None.
DEFAULT_GROWTH = {"pdp": 4.0, "pdd": 4.0, "pt": 2.0}


@dataclass(frozen=True)
class AlmConfig:
    """Outer-loop parameters; defaults follow the reference experiments
    (sigma_0 = 4, delta presets 1e-2 / 1e-4).  sigma grows by ``growth_c``
    each outer iteration; None, the default, takes the inner method's factor
    from DEFAULT_GROWTH (4 for PDP and PDD, 2 for PT) when the run starts,
    so a config copied with another ``inner`` gets that method's factor."""

    alpha: float
    variant: str = "iso"
    mu: float = 0.0
    inner: str = "pdp"
    sigma0: float = 4.0
    growth_c: Optional[float] = None
    sigma_max: float = 1e6
    delta_inner: float = 1e-4
    outer_tol: float = 1e-6
    max_outer: int = 30

    def __post_init__(self):
        check_variant(self.variant)
        # Written as "not > 0" so that NaN is rejected too.
        if not all(v > 0 for v in (self.alpha, self.sigma0, self.outer_tol, self.delta_inner)):
            raise ValueError("alpha, sigma0, delta_inner and outer_tol must be positive")
        if self.growth_c is not None and not self.growth_c > 1.0:
            raise ValueError("growth_c must exceed 1")
        if not self.sigma_max >= self.sigma0:
            raise ValueError("sigma_max must be >= sigma0")
        if not self.mu >= 0:
            raise ValueError("mu must be >= 0")
        if self.inner not in DEFAULT_GROWTH:
            raise ValueError(f"unknown inner solver {self.inner!r}")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


@dataclass
class OuterState:
    """The latest recorded iterate: image, multiplier and iteration count."""

    u: np.ndarray
    lam: np.ndarray
    k: int


def sigma_schedule(sigma0: float, c: float, sigma_max: float, k: int) -> float:
    """Penalty after k growth steps: min(sigma0 * c^k, sigma_max)."""
    return min(sigma0 * c ** k, sigma_max)


def alm_run(z: np.ndarray, K: Optional[LinearMap], cfg: AlmConfig,
            reference: Optional[np.ndarray] = None,
            seed: Optional[int] = None) -> tuple[OuterState, RunReport]:
    """Run the full ALM solver on observed data ``z``.

    K = None selects the denoising model (identity data operator); any other
    K must be a ``blur_map``.  PSNR is computed against ``reference`` when
    given, against ``z`` otherwise.  Raises ValueError before the first
    iteration for ALM-PDD on a blur with mu = 0 (H is singular there), and
    MaxOuterError (carrying the final state) when ``max_outer`` iterations
    do not reach ``outer_tol``.  Any other SolverError, raised by a
    subproblem solve, gets the attributes ``outer`` (the 1-based outer
    iteration), ``sigma`` (its penalty) and ``report`` (the unconverged
    report of the outer iterations completed before it) as it propagates.
    Every report's config holds the growth factor the run used.
    """
    if cfg.growth_c is None:
        cfg = replace(cfg, growth_c=DEFAULT_GROWTH[cfg.inner])
    ref = z if reference is None else reference

    u = z.copy()
    lam = np.zeros((2,) + z.shape)
    h = np.zeros_like(lam)
    sigma = cfg.sigma0
    state = OuterState(u=u, lam=lam, k=0)
    records = []
    err = float("inf")
    data = DataTerm(z, K, cfg.mu)
    if cfg.inner == "pdd":
        # PDD nests H^{-1}: refuse a singular H before the first iteration.
        data.prepare_solve()
    # An inner residual the Err test can accept: a tenth of the residual sum
    # it accepts.
    need = 0.1 * cfg.outer_tol * norm_x(data.f)

    for k in range(cfg.max_outer):
        t0 = time.perf_counter()
        ctx = AlmContext(lam, sigma, cfg.alpha, cfg.variant, data, need)
        try:
            inner = solve_subproblem(u, h, ctx, cfg.inner, cfg.delta_inner)
        except SolverError as exc:
            exc.outer, exc.sigma = k + 1, sigma
            exc.report = summarize("alm-" + cfg.inner, cfg, records, seed, converged=False)
            raise
        u, h, lam = inner.state.u, inner.state.h, inner.lam

        wall_ms = (time.perf_counter() - t0) * 1e3
        record = make_record(k + 1, u, lam, data, cfg.alpha, cfg.variant, ref, wall_ms,
                             inner)
        records.append(record)
        err = record.err

        sigma = sigma_schedule(cfg.sigma0, cfg.growth_c, cfg.sigma_max, k + 1)
        state.u, state.lam, state.k = u, lam, k + 1
        if err <= cfg.outer_tol:
            report = summarize("alm-" + cfg.inner, cfg, records, seed, converged=True)
            return state, report

    report = summarize("alm-" + cfg.inner, cfg, records, seed, converged=False)
    raise MaxOuterError("outer iteration budget exhausted", err=err,
                        state=state, report=report)

