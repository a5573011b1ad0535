"""Accelerated first-order primal-dual baseline.

The dual ascent step projects onto the feasible ball, the primal descent step
is the exact prox of the quadratic data term, and the extrapolation parameter
is driven by gamma: 1, the data term's strong-convexity modulus, when H is
the identity, and the gradient-penalty weight mu otherwise.  With a blur the
exact modulus is the smallest of ``DataTerm``'s eigenvalues a_i + b_j,
a little below mu: 0.913 mu for a width-9 motion blur at 32 x 32, where
taking it gave the same iteration counts as gamma = mu.  Step sizes keep
tau * sigma * L^2 <= 1 with L^2 = 8 for the difference stencil.

The ratio tau / sigma is balanced from the iterates (Goldstein, Li, Yuan,
Esser & Baraniuk, NeurIPS 2015), starting from tau = sigma.  After each step
the primal residual p = ||u_k - u_{k+1}|| / tau and the dual residual
d = ||(lam_k - lam_{k+1}) / sigma + grad ubar_k - grad u_{k+1}|| are
compared: when p > DELTA d the primal step lags, so tau is divided and sigma
multiplied by (1 - a); when p < d / DELTA the move goes the other way; and
each move shrinks a by ETA.  The constants are fixed, A0 = 0.5 (the first a),
ETA = 0.95 and DELTA = 1.5.  A move keeps tau * sigma, so the step bound and
the gamma acceleration are those of the fixed-ratio method, and the moves
are summable (a shrinks geometrically), so the ratio settles and the
method's convergence argument applies from there on.  On the 32 x 32
motion deblur at Err 1e-5 this takes 450 iterations against 910 at the
fixed ratio 1.

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
A0 = 0.5
ETA = 0.95
DELTA = 1.5


def balance(tau: float, sigma: float, a: float, p: float,
            d: float) -> tuple[float, float, float]:
    """One residual-balancing move: (tau, sigma, a) after primal residual p
    and dual residual d.

    tau grows by 1 / (1 - a) and sigma shrinks by (1 - a) when p > DELTA d,
    the other way when p < d / DELTA, and each move shrinks a by ETA; inside
    the band nothing moves.  tau * sigma is kept.
    """
    if p > DELTA * d:
        return tau / (1.0 - a), sigma * (1.0 - a), ETA * a
    if p < d / DELTA:
        return tau * (1.0 - a), sigma / (1.0 - a), ETA * a
    return tau, sigma, a


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
    g = g_bar = grad(u)
    lam = np.zeros_like(g)
    tau = sigma = 1.0 / np.sqrt(GRAD_NORM_SQ)
    a = A0
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
        lam_prev, lam = lam, project_ball(lam + sigma * g_bar, alpha, variant)
        v = div(lam)
        v += data.f
        v *= tau
        v += u
        u_prev, u = u, data.solve(v, tau)
        g_prev, g = g, grad(u)

        # The step's residuals, at the tau and sigma it took.
        du = u_prev - u
        p = np.sqrt(np.vdot(du, du)) / tau
        r = lam_prev - lam
        r /= sigma
        r += g_bar
        r -= g
        d = np.sqrt(np.vdot(r, r))
        tau, sigma, a = balance(tau, sigma, a, p, d)

        theta = 1.0 / np.sqrt(1.0 + 2.0 * gamma * tau)
        tau *= theta
        sigma /= theta
        assert tau * sigma * GRAD_NORM_SQ <= 1.0 + 1e-12
        g_bar = g - g_prev
        g_bar *= theta
        g_bar += g

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
