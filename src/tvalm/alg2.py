"""Accelerated first-order primal-dual baseline.

The dual ascent step projects onto the feasible ball, the primal descent step
is the exact prox of the quadratic data term, and the extrapolation parameter
is driven by gamma: 1, the data term's strong-convexity modulus, when H is
the identity, and the gradient-penalty weight mu otherwise.  With a blur the
exact modulus is the smallest of ``DataTerm``'s eigenvalues a_i + b_j,
a little below mu: 0.913 mu for a width-9 motion blur at 32 x 32, where
taking it gave the same iteration counts as gamma = mu.  Step sizes keep
tau * sigma * L^2 <= 1 with L^2 = 8 for the difference stencil.

The prox step (I + tau H)^{-1} is ``DataTerm.solve`` (see ``linops``):
v / (1 + tau) for denoising and otherwise exact, by fast diagonalization,
with the eigenbases built once per run before the first iteration; so ALG2
runs no Krylov solve and records avg_krylov = 0.  With a blur it needs
mu > 0.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from .alm import OuterState
from .errors import MaxOuterError
from .grid import div, grad
from .linops import DataTerm, LinearMap
from .metrics import make_record
from .prox import project_ball
from .report import RunReport, summarize

GRAD_NORM_SQ = 8.0


def alg2_run(z: np.ndarray, K: Optional[LinearMap], alpha: float, mu: float,
             variant: str, outer_tol: float, max_iters: int,
             reference: Optional[np.ndarray] = None, seed: Optional[int] = None,
             check_every: int = 1) -> tuple[OuterState, RunReport]:
    """Run the accelerated primal-dual iteration until Err <= outer_tol.

    ``check_every`` sets how often the (comparatively expensive) residual
    suite is evaluated and recorded; the iterate sequence itself does not
    depend on it.  Raises MaxOuterError carrying the final state when the
    budget runs out; raises ValueError for a blur with mu <= 0 before the
    first iteration.
    """
    if check_every < 1:
        raise ValueError("check_every must be >= 1")
    ref = z if reference is None else reference
    data = DataTerm(z, K, mu)
    data.prepare_solve()
    gamma = 1.0 if data.identity else mu

    u = z.copy()
    u_bar = z.copy()
    lam = np.zeros(grad(z).shape)
    tau = sigma = 1.0 / np.sqrt(GRAD_NORM_SQ)
    state = OuterState(u=u, lam=lam, k=0)
    records = []
    err = float("inf")
    cfg_snapshot = {
        "alpha": alpha, "mu": mu, "variant": variant, "outer_tol": outer_tol,
        "max_iters": max_iters, "tau0": tau, "sigma0": sigma, "gamma": gamma,
        "check_every": check_every,
    }

    t0 = time.perf_counter()
    for k in range(1, max_iters + 1):
        lam = project_ball(lam + sigma * grad(u_bar), alpha, variant)
        u_prev = u
        v = u + tau * div(lam) + tau * data.f
        u = data.solve(v, tau)
        theta = 1.0 / np.sqrt(1.0 + 2.0 * gamma * tau)
        tau *= theta
        sigma /= theta
        assert tau * sigma * GRAD_NORM_SQ <= 1.0 + 1e-12
        u_bar = u + theta * (u - u_prev)

        if k % check_every == 0 or k == max_iters:
            wall_ms = (time.perf_counter() - t0) * 1e3
            record = make_record(k, u, lam, data, alpha, variant, ref, wall_ms)
            records.append(record)
            err = record.err
            t0 = time.perf_counter()
            state.u, state.lam, state.k = u, lam, k
            if err <= outer_tol:
                report = summarize("alg2", cfg_snapshot, records, seed, converged=True)
                return state, report

    report = summarize("alg2", cfg_snapshot, records, seed, converged=False)
    raise MaxOuterError("iteration budget exhausted", err=err, state=state,
                        report=report)
