"""Accelerated first-order primal-dual baseline.

The dual ascent step projects onto the feasible ball, the primal descent step
is the exact prox of the quadratic data term, and the extrapolation parameter
is driven by the data term's strong-convexity modulus (1 for denoising; the
gradient-penalty weight mu is used as a practical surrogate for deblurring,
where the certified modulus is not available).  Step sizes keep
tau * sigma * L^2 <= 1 with L^2 = 8 for the difference stencil.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .alm import OuterState
from .errors import MaxOuterError
from .grid import div, grad
from .linops import KrylovConfig, LinearMap, cg_solve, h_map
from .metrics import make_record
from .prox import project_ball
from .report import RunReport, summarize

GRAD_NORM_SQ = 8.0


@dataclass
class Alg2State:
    u: np.ndarray
    u_bar: np.ndarray
    lam: np.ndarray
    tau: float
    sigma: float
    theta_accel: float
    gamma: float


def alg2_run(z: np.ndarray, K: Optional[LinearMap], alpha: float, mu: float,
             variant: str, outer_tol: float, max_iters: int,
             reference: Optional[np.ndarray] = None, seed: Optional[int] = None,
             check_every: int = 1) -> tuple[OuterState, RunReport]:
    """Run the accelerated primal-dual iteration until Err <= outer_tol.

    ``check_every`` sets how often the (comparatively expensive) residual
    suite is evaluated and recorded; the iterate sequence itself does not
    depend on it.  Raises MaxOuterError carrying the final state when the
    budget runs out.
    """
    if K is not None and mu <= 0.0:
        raise ValueError("deblurring needs mu > 0 for a strongly convex data term")
    if check_every < 1:
        raise ValueError("check_every must be >= 1")
    ref = z if reference is None else reference
    f = z.copy() if K is None else K.apply_adjoint(z)
    H = h_map(mu, K)
    denoise = K is None and mu == 0.0
    gamma = 1.0 if denoise else mu
    kcfg = KrylovConfig(rel_tol=1e-12, max_iters=20000)

    st = Alg2State(
        u=z.copy(), u_bar=z.copy(), lam=np.zeros(grad(z).shape),
        tau=1.0 / np.sqrt(GRAD_NORM_SQ), sigma=1.0 / np.sqrt(GRAD_NORM_SQ),
        theta_accel=1.0, gamma=gamma,
    )
    state = OuterState(u=st.u, p=np.zeros_like(st.lam), lam=st.lam, sigma=st.sigma, k=0)
    err = float("inf")
    cfg_snapshot = {
        "alpha": alpha, "mu": mu, "variant": variant, "outer_tol": outer_tol,
        "max_iters": max_iters, "tau0": st.tau, "sigma0": st.sigma, "gamma": gamma,
        "check_every": check_every,
    }

    # The prox operator t + tau*H t reads the current tau from the state.
    prox_op = LinearMap(lambda t: t + st.tau * H.apply(t),
                        lambda t: t + st.tau * H.apply(t), self_adjoint=True)

    t0 = time.perf_counter()
    krylov_in_window = 0
    for k in range(1, max_iters + 1):
        st.lam = project_ball(st.lam + st.sigma * grad(st.u_bar), alpha, variant)
        u_prev = st.u
        v = st.u + st.tau * div(st.lam) + st.tau * f
        if denoise:
            st.u = v / (1.0 + st.tau)
        else:
            st.u, kit = cg_solve(prox_op, v, kcfg)
            krylov_in_window += kit
        st.theta_accel = 1.0 / np.sqrt(1.0 + 2.0 * st.gamma * st.tau)
        st.tau *= st.theta_accel
        st.sigma /= st.theta_accel
        assert st.tau * st.sigma * GRAD_NORM_SQ <= 1.0 + 1e-12
        st.u_bar = st.u + st.theta_accel * (st.u - u_prev)

        if k % check_every == 0 or k == max_iters:
            wall_ms = (time.perf_counter() - t0) * 1e3
            record = make_record(k, st.u, st.lam, f, H, alpha, 1.0, variant, ref,
                                 wall_ms, 0, float(krylov_in_window))
            state.history.append(record)
            err = record.err
            t0 = time.perf_counter()
            krylov_in_window = 0
            state.u, state.lam, state.sigma, state.k = st.u, st.lam, st.sigma, k
            if err <= outer_tol:
                report = summarize("alg2", cfg_snapshot, state.history, seed,
                                   converged=True)
                return state, report

    report = summarize("alg2", cfg_snapshot, state.history, seed, converged=False)
    raise MaxOuterError("iteration budget exhausted", err=err, state=state,
                        report=report)
