"""Semismooth Newton solvers for the penalized subproblem at fixed multiplier.

Three formulations of the same nonlinear optimality system are offered:

* ``ssnpdp_step``: primal-dual Newton eliminating the auxiliary dual field,
  solving the symmetric part of a scalar Schur-complement system for u
  first (CG, Jacobi-preconditioned when deblurring), then recovering and
  projecting the dual iterate.
* ``ssnpdd_step``: the mirrored order, solving the two-channel system for the
  dual field first (BiCGSTAB, nesting H^{-1} actions, in float32 first for
  loose requests when H = I), then recovering u.  H^{-1} is
  ``DataTerm.solve`` (see ``linops``), which needs mu > 0 with a blur.  For
  an aniso denoise (H = I) the step is globalized by PT's Armijo search on
  the image update, and both fields move by the length it accepts.
* ``ssnpt_step``: a primal Newton step through the soft-thresholding
  operator, globalized by an Armijo backtracking line search on the merit
  function.  It takes PDP's direction and recovers PDP's dual on the step
  it accepts.

PDP and PT are one image-space step (``_image_step``) that differs only in
its step length: the unit step, or Armijo's.  PDD is a step of its own.

Why aniso PDD shares PT's search and iso PDD does not.  With a per-channel
flux (aniso), PDD's dual system and PDP's image system are the two Schur
complements of one symmetric Newton system, so in exact arithmetic PDD's
image update u_full - u is PT's direction and descends on PT's merit; the
search then applies unchanged.  Iso PDD solves the unsymmetrized
linearization, whose image update need not be PT's direction; the search
alone does not make it converge (64x64 iso denoises failed at the Newton
cap where the tight mode converges), so iso PDD keeps the full step.  The
search is measured on denoising only, so PDD with mu > 0 or a blur keeps
the full step too.  ``_line_searched`` is the one rule for which steps
search.

All three linearize the same map, the projection P_alpha onto the dual ball:
with w = lam + sigma grad u, U = max(1, |w| / alpha) and |.| the variant's
``grid.magnitude``, P_alpha(w) = w / U.  Active sets use the tie convention
s = 1: a pixel (or channel) counts as active exactly where |w| >= alpha, and
there the derivative weight is coef = (sigma / alpha) direction(w).  PT's
shrinkage S_tau (tau = alpha / sigma) is I - P_alpha by the Moreau identity,
so lam + sigma (grad u - S_tau(lam / sigma + grad u)) = P_alpha(w): PT's
residual is PDP's right-hand side, the primal residual at P_alpha(w), and
its generalized derivative is PDP's operator at h = P_alpha(w).  PT's step
does not solve with that derivative but with PDP's operator at the dual h
its iterate carries, the primal-dual direction of Hintermueller & Stadler
(SIAM J. Sci. Comput. 28, 2006), inside an Armijo-globalized Newton-CG
method (Zhao, Sun & Toh, SIAM J. Optim. 20, 2010).  With |h| <= alpha that
operator is H plus a positive semidefinite part, so the CG direction
descends on the merit; on the 128x128 benchmark denoise it takes about half
the Newton steps and an eighth of the backtracks of the generalized
derivative.

Every solver evaluates an iterate's fields (``Fields``) once, by ``_fields``:
they give its residual and ride on its ``NewtonState`` to the next step,
which takes them as its linearization.  The residual field rhs (one H and
one div) is evaluated only where it is read: at PT's iterates, for PT's
residual and next step; at the start of a PDP step, as PDP's right-hand
side; and in a line-searched PDD step (aniso, H = I), for the slope.
Other PDD steps never read it.

The image-space Newton system (the PDP Schur complement, which PT shares)
is of the form H + sigma grad^* D grad with a pointwise symmetric D.
``_image_system`` assembles it once per Newton step as

    v -> K*K v - div(F grad v),    F = [[a0, off], [off, a1]],

with mu folded into a (H = K*K - mu Laplacian).  One Krylov iteration's
operator application is one flat 5-point stencil: two difference passes,
the pointwise flux, and four passes that take the flux's backward
differences, plus K*K when deblurring (``DataTerm.gram``, one matmul).  It
calls neither grad nor div, yet matches them bit for bit.  The tensor is the
symmetric part of PDP's Newton flux (sigma g - B g) / U, with B g = coef g h
per channel (aniso) or (coef . g) h (iso):

    a = (sigma - coef h) / U per channel,  off = -(h0 coef1 + h1 coef0) / 2U

(off is iso only).  For aniso the flux is already symmetric; for iso the
symmetric part (Hintermueller & Stadler) is exact where h is parallel to
w, as at the solution.  With |h| <= alpha the tensor is positive
semidefinite, so CG applies; when deblurring it is preconditioned by the
operator's closed-form diagonal (``_jacobi``), and ``_image_system`` is
where that is decided.  The PDD dual system
q -> U q - (sigma - B) grad H^{-1} div q takes one grad per application.

A denoising step whose Krylov request is at least F32_MIN_TOL solves in
float32 first (``_mixed_solve``): PDP's and PT's CG when K = I, and PDD's
BiCGSTAB when H = I (``DataTerm.identity``: K = I and mu = 0, where H^{-1}
returns its argument and the dual operator is a pure stencil).  The
operator built from float32 coefficients, and the solver in float32, move
half the bytes of the float64 ones; the stencils and the vector updates are
bound by memory traffic at 128x128 and above.  Requests are loose, so
float32 rounding rarely decides whether one is met; but CG and BiCGSTAB
stop on recursive residuals, which in float32 can drift from the true one.
So the answer x is checked with one float64 residual r = b - A x, and if it
misses the request a float64 solve of A c = r to the remaining tolerance
gives x + c: inexact Newton in mixed precision (Kelley, SIAM Review 64,
2022), made safe by one step of mixed-precision iterative refinement
(Carson & Higham, SIAM J. Sci. Comput. 40, 2018).  A float32 solve that
raises KrylovError (BiCGSTAB giving up, say) is no failure: its answer
counts as zero, the float64 solve starts from scratch, and only that solve
can fail the step.  Every direction thus meets its request in float64; the
residual, the merit, the line search and the dual stay in float64.
Deblurring, PDD with mu > 0, and requests below F32_MIN_TOL stay in
float64 throughout.

The line search runs on a precomputed line.  The merit is the data term
plus sigma times a Huber sum of q = lam / sigma + grad u, less a constant.
The data term is quadratic and grad is linear, so ``_merit_line`` takes
grad u, grad delta_u and two inner products with H once per Newton step, and
a trial step length costs pointwise work only.

Each step returns the new iterate and the Krylov iterations its linear solve
took; ``solve_subproblem`` sums those counts, the Armijo backtracks (PT's
and aniso PDD's), the tight re-solves and the float32 solves and
corrections for the subproblem, and returns the next multiplier with them.
For PDP and PDD that is P_alpha(lam + sigma grad u) at the final iterate,
w / U read off its fields; PT keeps the soft-threshold form
lam + sigma (grad u - S_tau(lam / sigma + grad u)), equal by the Moreau
identity but rounded differently.

Each Newton step's Krylov request comes from ``_krylov_request``: an
inexact-Newton forcing term tied to the residual (Dembo, Eisenstat &
Steihaug, SIAM J. Numer. Anal. 19, 1982), floored at the accuracy the
subproblem needs, since a solve past its stopping test is oversolving
(Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996).  The subproblem needs
its residual only below the target: the stopping threshold or, when
smaller, the residual the outer stopping test can accept
(``AlmContext.need``).  A step whose length the line search did not choose
is not globalized: every ALM-PDP and iso ALM-PDD step, and an aniso PDD
step whose inexact direction does not descend on the merit.  The first
such step of a subproblem that raises the nonlinear residual puts the
subproblem in the tight mode, whose requests take TIGHT_FACTOR times the
forcing term; the step is discarded and redone at its tight request when
that is tighter than its loose one.  In aniso PDD the residual may rise up
to the subproblem's first residual before that: its searched steps make
the merit fall, not the residual, and a direction that does not descend
(each one measured raised the residual) is harmless while the residual
stays below where the subproblem began.  Past it, the measured runs fell
into a cycle of loose requests, residual jumps and stalled searches until
the Newton cap.  PT, whose every step is searched, never discards or
re-solves a step.

Fixed constants: the Armijo line search tries ARMIJO_THETA ** b from the
full Newton step (b = 0) and takes the first length at which the merit
falls by ARMIJO_MU times the predicted decrease, failing after
ARMIJO_MAX_BACKTRACKS trials.  These are the standard Armijo choices (mu in
(0, 1/2), theta in (0, 1)); no solver or command uses other values, so they
are not settable.
TIGHT_FACTOR, ENOUGH, FORCING_FLOOR and F32_MIN_TOL are fixed for the same
reason.
Each Newton system solve stops after KRYLOV_MAX_ITERS iterations, a cap that
only bounds a failing solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import InnerNewtonError, KrylovError, LineSearchError
from .grid import (ISO, check_variant, direction, div, grad, inner_x, magnitude, norm_x,
                   norm_y, tv_norm)
from .linops import DataTerm, KrylovConfig, LinearMap, bicgstab_solve, cg_solve
from .prox import project_ball, soft_threshold

MAX_NEWTON_STEPS = 50
KRYLOV_MAX_ITERS = 20000
ARMIJO_MU = 1e-4
ARMIJO_THETA = 0.5
ARMIJO_MAX_BACKTRACKS = 40
TIGHT_FACTOR = 0.01
ENOUGH = 0.5
FORCING_FLOOR = 1e-13
F32_MIN_TOL = 1e-5


@dataclass(frozen=True)
class AlmContext:
    """Frozen data of one augmented-Lagrangian subproblem.

    lam is the current multiplier, sigma the penalty, and ``data`` the run's
    data term (``linops.DataTerm``: f = K* z, H, K*K and solves with H).
    ``need`` is the inner residual the outer stopping test can accept
    (infinite when there is none); ``solve_subproblem`` asks no Krylov solve
    for more accuracy than it or the subproblem's own threshold needs.

    The multiplier terms of PT's merit (lam / sigma and
    ||lam||^2 / (2 sigma)) are computed once per context; ``replace`` makes a
    new context with an empty cache, and lam must not be written in place.
    """

    lam: np.ndarray
    sigma: float
    alpha: float
    variant: str
    data: DataTerm
    need: float = np.inf

    def __post_init__(self):
        check_variant(self.variant)
        if self.sigma <= 0.0 or self.alpha <= 0.0:
            raise ValueError("sigma and alpha must be positive")

    @cached_property
    def lam_over_sigma(self) -> np.ndarray:
        return self.lam / self.sigma

    @cached_property
    def lam_energy(self) -> float:
        """||lam||^2 / (2 sigma), the constant term of the merit."""
        return norm_y(self.lam) ** 2 / (2.0 * self.sigma)


class Fields(NamedTuple):
    """The fields of P_alpha at an iterate u: w, U and coef as in the module
    docstring (coef is 0 off the active set), and rhs = f - H u + div(w / U),
    the primal residual at the projected dual, negated (``_primal_rhs``).
    rhs is None unless asked for: only PT reads it at its iterates; PDP and
    line-searched PDD evaluate it in their step."""

    w: np.ndarray
    U: np.ndarray
    coef: np.ndarray
    rhs: np.ndarray | None


@dataclass
class NewtonState:
    """One inner iterate: image, feasible dual field, its residual and its
    ``Fields``, which the step from it takes off it.  The step that made it
    also records the Armijo ``backtracks`` it took (PT, aniso PDD), whether
    its direction was a float32 solve and needed a float64 correction
    (``f32_solves``, ``f32_corrections``, each 0 or 1; see ``_mixed_solve``)
    and whether the line search chose its length (``searched``; a step that
    was not searched may put its subproblem in the tight mode)."""

    u: np.ndarray
    h: np.ndarray
    inner_residual: float
    fields: Fields | None
    backtracks: int = 0
    f32_solves: int = 0
    f32_corrections: int = 0
    searched: bool = False


def _fields(u: np.ndarray, ctx: AlmContext, with_rhs: bool = False) -> Fields:
    """The ``Fields`` at u: the one evaluation of w, U and coef, and of rhs
    if ``with_rhs``."""
    w = ctx.lam + ctx.sigma * grad(u)
    mag = magnitude(w, ctx.variant)
    U = np.maximum(1.0, mag / ctx.alpha)
    coef = np.where(mag >= ctx.alpha, (ctx.sigma / ctx.alpha) * direction(w, ctx.variant), 0.0)
    return Fields(w, U, coef, _primal_rhs(u, w / U, ctx) if with_rhs else None)


def _take_fields(state: NewtonState) -> Fields:
    """The state's fields, taken off it, so that a step holds the only
    reference and frees them before it evaluates the new iterate's."""
    fields, state.fields = state.fields, None
    return fields


def _line_searched(method: str, ctx: AlmContext) -> bool:
    """Whether ``method``'s steps in ``ctx`` are globalized by the Armijo
    search on the merit: PT's, and ALM-PDD's for an aniso denoise (H = I).
    The other steps (PDP, iso PDD, PDD with mu > 0 or a blur) are not."""
    return method == "pt" or (method == "pdd" and ctx.variant != ISO and ctx.data.identity)


def _iterate(u: np.ndarray, h: np.ndarray, ctx: AlmContext, method: str,
             h_pre: np.ndarray | None = None, backtracks: int = 0, f32_solves: int = 0,
             f32_corrections: int = 0, searched: bool = False) -> NewtonState:
    """The iterate (u, h) with its fields and ``method``'s residual: PT's
    primal ||rhs||, or the primal-dual dual row ||U h_pre - w|| of the
    pre-projection dual field h_pre (h itself at a subproblem's start; PT's
    residual does not read it).  Only PT's fields carry rhs.  The counts are
    those of the step that made it (``NewtonState``)."""
    fields = _fields(u, ctx, method == "pt")
    if method == "pt":
        res = norm_x(fields.rhs)
    else:
        res = norm_y(fields.U * (h if h_pre is None else h_pre) - fields.w)
    return NewtonState(u, h, res, fields, backtracks, f32_solves, f32_corrections, searched)


def _b_of_grad(g, coef, h, variant) -> np.ndarray:
    """Rank-structured derivative piece B applied to a field with gradient g:
    (coef . g) h per pixel (iso), coef g h per channel (aniso)."""
    if variant == ISO:
        return (coef[0] * g[0] + coef[1] * g[1]) * h
    return coef * g * h


def _image_system(ctx: AlmContext, a: np.ndarray,
                  off: np.ndarray | None = None) -> tuple[LinearMap, np.ndarray | None]:
    """The assembled image-space Newton operator v -> K*K v - div(F grad v),
    and its Jacobi diagonal when the data term blurs (None for K = I, where
    Jacobi costs more Krylov iterations than it saves).

    F is the pointwise symmetric flux F g = (a + mu) g + off g^T with
    g^T = (g1, g0): a holds F's two diagonal entries, off (None for zero) the
    off-diagonal one.  K*K comes from the data term (v itself for the
    identity).  The H = K*K - mu Laplacian part of the system is thus folded
    in: mu joins a.

    The operator is one 5-point stencil on the C-ordered flattened image,
    where the row and column differences are shifts by N and by 1 (see
    ``grid``).  Its coefficients are fixed for the Newton step and laid out
    once: a0 over the first MN - N entries (the pixels with a row below),
    a1 and off with their last column zeroed, which drops the column
    differences that wrap across rows.  Each application forms the two
    difference channels, the flux, and the backward differences of the flux
    in grad's and div's operation order, so the result is bit-identical to
    div(F grad v) through those functions.

    The operator works in its coefficients' dtype: from float32 a and off
    it builds float32 work arrays and returns float32 images for float32
    arguments (``_newton_direction``'s float32 solve).
    """
    data = ctx.data
    if data.mu > 0.0:
        a = a + data.mu
    m, n = a.shape[1:]
    k = m * n - n
    a0 = a[0].ravel()[:k]
    a1 = _zero_last_column(a[1])
    offk = None if off is None else _zero_last_column(off)[:k]

    # Work arrays for the differences and fluxes, reused by every
    # application: allocating them per application costs page faults.
    dtype = a.dtype
    d0, d1 = np.empty(k, dtype), np.empty(m * n - 1, dtype)
    flux0, cross = (None, None) if off is None else (np.empty(k, dtype), np.empty(k, dtype))

    def system(v):
        vf = v.ravel()
        np.subtract(vf[n:], vf[:-n], out=d0)
        np.subtract(vf[1:], vf[:-1], out=d1)
        if offk is None:
            f0 = np.multiply(a0, d0, out=d0)
            f1 = np.multiply(a1, d1, out=d1)
        else:
            # The cross terms: off times the other channel's difference.
            f0 = np.multiply(a0, d0, out=flux0)
            f0 += np.multiply(offk, d1[:k], out=cross)
            f1 = np.multiply(a1, d1, out=d1)
            f1[:k] += np.multiply(offk, d0, out=cross)
        # div's order: 0.0 + f0 first (which turns -0.0 into 0.0), then the
        # shifted differences.
        out = np.empty(m * n, dtype)
        np.add(f0, 0.0, out=out[:k])
        out[k:] = 0.0
        out[n:] -= f0
        out[:-1] += f1
        out[1:] -= f1
        out = out.reshape(m, n)
        # K*K may return its input's array, so the difference goes into out.
        return np.subtract(data.gram(v), out, out=out)
    jacobi = None if data.K is None else _jacobi(data, a, off)
    return LinearMap(system, system, self_adjoint=True), jacobi


def _zero_last_column(c: np.ndarray) -> np.ndarray:
    """A flat copy of the scalar field c, without its last entry and with
    the last column zeroed: the coefficient of the column differences."""
    c = c.copy()
    c[:, -1] = 0.0
    return c.ravel()[:-1]


def _jacobi(data: DataTerm, a: np.ndarray, off: np.ndarray | None) -> np.ndarray:
    """Diagonal of ``_image_system``'s operator, given a with mu folded in.

    With F = [[a0, off], [off, a1]] and the grid's zero last row and column
    of grad, the diagonal of -div(F grad .) at a pixel is
    m0 F00 + m1 F11 + 2 m0 m1 F01 (m0, m1 masking the last row and column)
    plus F00 of the pixel above and F11 of the pixel to the left; K*K adds
    its own diagonal.
    """
    f00, f11 = a[0], a[1]
    d = np.zeros(f00.shape)
    d[:-1] += f00[:-1]
    d[1:] += f00[:-1]
    d[:, :-1] += f11[:, :-1]
    d[:, 1:] += f11[:, :-1]
    if off is not None:
        d[:-1, :-1] += 2.0 * off[:-1, :-1]
    d += data.gram_diagonal
    return d


def _pdp_flux(U, coef, h, ctx: AlmContext):
    """The flux (a, off) of the symmetric part of ssnpdp_step's Schur
    operator.

    The Newton flux is (sigma g - B g) / U.  Its symmetric part has the
    diagonal a = (sigma - coef h) / U per channel; iso couples the channels
    through the off-diagonal -(h0 coef1 + h1 coef0) / 2U (aniso: None).  The
    part equals the flux where h is parallel to w (at the solution, on the
    active set), and is positive semidefinite because |h| <= alpha.
    """
    a = (ctx.sigma - coef * h) / U
    if ctx.variant == ISO:
        return a, -0.5 * (h[0] * coef[1] + h[1] * coef[0]) / U[0]
    return a, None


def _pdd_system(U, coef, h, ctx: AlmContext) -> Callable[[np.ndarray], np.ndarray]:
    """Dual operator of ssnpdd_step, q -> U q - sigma grad t + B t with
    t = H^{-1} div q, taking grad t once."""
    if ctx.variant == ISO:
        def system(q):
            g = grad(ctx.data.solve(div(q)))
            bg = _b_of_grad(g, coef, h, ISO)
            out = U * q
            out -= np.multiply(ctx.sigma, g, out=g)
            out += bg
            return out
    else:
        scale = ctx.sigma - coef * h

        def system(q):
            g = grad(ctx.data.solve(div(q)))
            out = U * q
            out -= np.multiply(scale, g, out=g)
            return out
    return system


def _primal_rhs(u: np.ndarray, p: np.ndarray, ctx: AlmContext) -> np.ndarray:
    """f - H u + div p: the primal residual at dual field p, negated."""
    return ctx.data.f - ctx.data.H.apply(u) + div(p)


def _newton_direction(ctx: AlmContext, a: np.ndarray, off: np.ndarray | None,
                      rhs: np.ndarray, kcfg: KrylovConfig) -> tuple[np.ndarray, int, int, int]:
    """The CG solution of ``_image_system``'s operator at flux (a, off)
    against rhs, to kcfg's request in float64; returns it with the Krylov
    iterations, float32 solves and float32 corrections it took.

    Deblurring solves in float64, Jacobi-preconditioned.  For K = I the
    solve is ``_mixed_solve``'s: in float32 first for a request of at least
    F32_MIN_TOL, checked and refined in float64.
    """
    if ctx.data.K is not None:
        system, jacobi = _image_system(ctx, a, off)
        delta_u, kit = cg_solve(system, rhs, kcfg, jacobi)
        return delta_u, kit, 0, 0

    def build(dtype):
        off_d = None if off is None else off.astype(dtype, copy=False)
        return _image_system(ctx, a.astype(dtype, copy=False), off_d)[0]
    return _mixed_solve(build, cg_solve, rhs, kcfg, True)


def _mixed_solve(build: Callable[[type], LinearMap], krylov: Callable, b: np.ndarray,
                 kcfg: KrylovConfig, allow_f32: bool) -> tuple[np.ndarray, int, int, int]:
    """The solution of A x = b, A = build(float64), by ``krylov`` (cg_solve
    or bicgstab_solve) to kcfg's request in float64; returns it with the
    Krylov iterations, float32 solves and float32 corrections it took.

    build(dtype) makes the operator from its coefficients cast to dtype.
    When ``allow_f32`` (the caller's data term has a float32 operator) and
    the request is at least F32_MIN_TOL, krylov first runs in float32 on
    build(float32), where the operator and the vector updates move half the
    bytes.  The float32 answer is then checked with one application of A:
    if its float64 residual r = b - A x misses rel_tol ||b||, krylov solves
    A c = r in float64 to rel_tol ||b|| / ||r|| and x += c (mixed-precision
    iterative refinement), so the returned answer meets the request in
    float64.  A float32 solve that raises KrylovError is not a failure: its
    answer counts as zero, so the float64 correction solves A x = b from
    zero at the request, and only that solve can raise.  Both solves'
    iterations are counted.
    """
    if not allow_f32 or kcfg.rel_tol < F32_MIN_TOL:
        x, kit = krylov(build(np.float64), b, kcfg)
        return x, kit, 0, 0
    # The float32 operator's work arrays are freed before the float64 ones
    # are built.
    try:
        x, kit = krylov(build(np.float32), b.astype(np.float32), kcfg)
    except KrylovError as err:
        x, kit = None, err.iterations
    A = build(np.float64)
    if x is None:
        x, ckit = krylov(A, b, kcfg)
        return x, kit + ckit, 1, 1
    x = x.astype(np.float64)
    r = A.apply(x)
    np.subtract(b, r, out=r)
    tol, r_norm = kcfg.rel_tol * norm_x(b), norm_x(r)
    if r_norm <= tol:
        return x, kit, 1, 0
    c, ckit = krylov(A, r, KrylovConfig(tol / r_norm, kcfg.max_iters))
    x += c
    return x, kit + ckit, 1, 1


def _image_step(state: NewtonState, ctx: AlmContext, kcfg: KrylovConfig,
                method: str) -> tuple[NewtonState, int]:
    """One image-space Newton step of PDP or PT from the dual h the iterate
    carries.

    The increment solves the symmetric part of the Schur system at h (see
    ``_pdp_flux``) by CG (``_newton_direction``: Jacobi-preconditioned under
    a blur, in float32 for loose denoising requests), from a zero start
    against the primal residual rhs = f - H u + div(w / U); so the
    relative tolerance is measured against the nonlinear residual, which
    keeps inexact steps local.  PDP takes the unit step; PT backtracks it by
    ``_armijo``, with -rhs the generalized gradient of the merit at u.  The
    dual is then recovered from the unsymmetrized linearization on the step
    s actually taken, h_pre = (w + sigma grad s - B grad s) / U, and
    projected.
    """
    u, h = state.u, state.h
    w, U, coef, rhs = _take_fields(state)
    if rhs is None:
        rhs = _primal_rhs(u, w / U, ctx)
    delta_u, kit, *f32 = _newton_direction(ctx, *_pdp_flux(U, coef, h, ctx), rhs, kcfg)
    slope = -inner_x(rhs, delta_u) if _line_searched(method, ctx) else None
    # Freed before the line search and the new iterate's fields, not after.
    del rhs
    eta, backtracks = (1.0, 0) if slope is None else _armijo(u, delta_u, slope, ctx)
    s = delta_u if eta == 1.0 else eta * delta_u
    del delta_u
    u_new = u + s

    g = grad(s)
    h_pre = (w + ctx.sigma * g - _b_of_grad(g, coef, h, ctx.variant)) / U
    # Freed before the new iterate's fields are evaluated, not after.
    del w, U, coef, g, s
    h_new = project_ball(h_pre, ctx.alpha, ctx.variant)
    return _iterate(u_new, h_new, ctx, method, h_pre, backtracks, *f32,
                    searched=slope is not None), kit


def ssnpdp_step(state: NewtonState, ctx: AlmContext,
                kcfg: KrylovConfig) -> tuple[NewtonState, int]:
    """One u-first primal-dual Newton step (Schur complement in the image):
    ``_image_step`` with the unit step."""
    return _image_step(state, ctx, kcfg, "pdp")


def ssnpdd_step(state: NewtonState, ctx: AlmContext,
                kcfg: KrylovConfig) -> tuple[NewtonState, int]:
    """One h-first primal-dual Newton step (Schur complement in the dual).

    Nested H^{-1} actions come from ctx.data.solve; the two-channel system is
    solved in increment form like ssnpdp_step, by BiCGSTAB through
    ``_mixed_solve``: in float32 first when H = I (the operator is then a
    pure stencil) and the request is at least F32_MIN_TOL.  The full step
    takes h + delta_h and u_full = H^{-1}(f + div(h + delta_h)).

    Aniso denoising steps are globalized as PT's are (``_line_searched``):
    with delta_u = u_full - u and rhs = f - H u + div(w / U) from the
    iterate's fields, a descent direction (slope -<rhs, delta_u> < 0) is
    backtracked by ``_armijo`` on PT's merit, and both fields move by the
    same length, u + eta delta_u and h + eta delta_h.  The full step (eta =
    1, or a direction that does not descend) keeps u_full and h + delta_h;
    a direction that does not descend is not ``searched``, and is left to
    the tight mode of ``solve_subproblem``.
    """
    u, h = state.u, state.h
    w, U, coef, _ = _take_fields(state)
    b2 = ctx.lam + _b_of_grad(grad(u), coef, h, ctx.variant)
    g_inv = grad(ctx.data.solve(ctx.data.f))
    rhs = b2 + ctx.sigma * g_inv - _b_of_grad(g_inv, coef, h, ctx.variant)
    rhs -= _pdd_system(U, coef, h, ctx)(h)
    del b2, g_inv

    def build(dtype):
        system = _pdd_system(U.astype(dtype, copy=False), coef.astype(dtype, copy=False),
                             h.astype(dtype, copy=False), ctx)
        return LinearMap(system, system)
    delta_h, kit, *f32 = _mixed_solve(build, bicgstab_solve, rhs, kcfg, ctx.data.identity)
    del coef, build, rhs
    h_pre = h + delta_h
    u_new = ctx.data.solve(ctx.data.f + div(h_pre))
    backtracks, searched = 0, False
    if _line_searched("pdd", ctx):
        delta_u = u_new - u
        slope = -inner_x(_primal_rhs(u, w / U, ctx), delta_u)
        searched = slope < 0.0
        if searched:
            eta, backtracks = _armijo(u, delta_u, slope, ctx)
            if eta != 1.0:
                u_new, h_pre = u + eta * delta_u, h + eta * delta_h
        del delta_u
    # Freed before the new iterate's fields are evaluated, not after.
    del w, U, delta_h
    h_new = project_ball(h_pre, ctx.alpha, ctx.variant)
    return _iterate(u_new, h_new, ctx, "pdd", h_pre, backtracks, *f32, searched=searched), kit


def merit_phi(u: np.ndarray, ctx: AlmContext) -> float:
    """Value of the reduced augmented Lagrangian at u (dual field eliminated
    through the soft threshold)."""
    q = ctx.lam_over_sigma + grad(u)
    s = soft_threshold(q, ctx.alpha / ctx.sigma, ctx.variant)
    return (
        ctx.data.energy(u)
        + ctx.alpha * tv_norm(s, ctx.variant)
        + 0.5 * ctx.sigma * norm_y(q - s) ** 2
        - ctx.lam_energy
    )


def _merit_line(u: np.ndarray, delta_u: np.ndarray,
                ctx: AlmContext) -> tuple[float, Callable[[float], float]]:
    """The merit at u, and its change along the line u + eta delta_u,

        eta -> eta c1 + eta^2 c2 / 2 + sigma (E(eta) - E(0)),

    with c1 = <H u - f, delta_u>, c2 = <delta_u, H delta_u> and E(eta) the
    sum over the variant's groups of e(q) = m (|q| - m/2), m = min(|q|, tau),
    at q = q0 + eta g, q0 = lam / sigma + grad u, g = grad delta_u.  sigma e(q)
    is the merit's TV part alpha |S_tau(q)| + sigma/2 |q - S_tau(q)|^2 in
    Huber form.  The data term is quadratic and grad is linear, so a trial
    costs pointwise work on q only: no grad, no shrinkage, no data term.  The
    merit at u is assembled from the same terms, as ``merit_phi``'s value.
    """
    data = ctx.data
    tau = ctx.alpha / ctx.sigma
    q0 = ctx.lam_over_sigma + grad(u)
    g = grad(delta_u)
    # The trials' work array: allocating per trial costs page faults.
    q = np.empty_like(q0)

    def huber(eta: float) -> float:
        np.add(np.multiply(eta, g, out=q), q0, out=q)
        r = magnitude(q, ctx.variant)
        # q is not read again, so its leading channels take m; then
        # r -> m (2r - m), whose doubling and halving are exact.
        m = np.minimum(r, tau, out=q[:len(r)])
        r *= 2.0
        r -= m
        r *= m
        return 0.5 * float(np.sum(r))

    e0 = huber(0.0)
    phi0 = data.energy(u) + ctx.sigma * e0 - ctx.lam_energy
    c1 = inner_x(data.H.apply(u) - data.f, delta_u)
    c2 = inner_x(delta_u, data.H.apply(delta_u))

    def change(eta: float) -> float:
        return eta * c1 + 0.5 * eta * eta * c2 + ctx.sigma * (huber(eta) - e0)
    return phi0, change


def _armijo(u: np.ndarray, delta_u: np.ndarray, slope: float,
            ctx: AlmContext) -> tuple[float, int]:
    """The Armijo step length along delta_u, and the backtracks taken.

    The trials are eta = ARMIJO_THETA ** b for b < ARMIJO_MAX_BACKTRACKS,
    from the full Newton step (b = 0); the first whose merit change along
    the line (``_merit_line``) is at most ARMIJO_MU eta slope is taken,
    after b backtracks.  If none is, LineSearchError reports the last trial.
    """
    phi0, change = _merit_line(u, delta_u, ctx)
    # Near the solution the predicted decrease falls below the merit's
    # floating-point resolution; take the plain Newton step there.
    if abs(ARMIJO_MU * slope) <= 64.0 * np.finfo(np.float64).eps * max(1.0, abs(phi0)):
        return 1.0, 0
    for backtracks in range(ARMIJO_MAX_BACKTRACKS):
        eta = ARMIJO_THETA ** backtracks
        dphi = change(eta)
        if dphi <= ARMIJO_MU * eta * slope:
            return eta, backtracks
    raise LineSearchError("Armijo backtracking failed",
                          phi0=phi0, phi_last=phi0 + dphi, eta=eta)


def ssnpt_step(state: NewtonState, ctx: AlmContext,
               kcfg: KrylovConfig) -> tuple[NewtonState, int]:
    """One primal Newton step with Armijo backtracking on the merit function:
    ``_image_step`` with the line search.

    Its Newton operator is PDP's at the dual h the iterate carries, not the
    generalized derivative at P_alpha(w); its right-hand side is PDP's, the
    residual field negated, whose norm is PT's residual; and the new iterate
    carries the dual recovered on the step the line search accepts.
    """
    return _image_step(state, ctx, kcfg, "pt")


@dataclass
class InnerResult:
    """Outcome of one subproblem solve: final state, the next multiplier
    ``lam`` (see the module docstring), residual history, the Newton steps,
    Krylov iterations, Armijo backtracks, tight re-solves, float32 solves
    and float32 corrections it took (``_mixed_solve``; discarded steps
    counted too), the penalty ``sigma`` it was solved at and the stopping
    ``threshold`` its residual was brought below."""

    state: NewtonState
    lam: np.ndarray
    residuals: list[float]
    newton_steps: int
    krylov_iters: int
    backtracks: int
    tight_resolves: int
    f32_solves: int
    f32_corrections: int
    sigma: float
    threshold: float


def _krylov_request(res: float, res0: float, target: float, tight: bool) -> KrylovConfig:
    """The Krylov request of a Newton step at residual res (res0 the
    subproblem's first): at most KRYLOV_MAX_ITERS iterations, to

        min(0.1, max(FORCING_FLOOR, f, ENOUGH * target / res)),

    with the forcing term f = 0.1 * min(1, res / res0) ** 1.5, times
    TIGHT_FACTOR in the tight mode.  The ENOUGH term asks the linear model
    to land at ENOUGH times the target, and no further."""
    forcing = 0.1 * min(1.0, res / res0) ** 1.5
    if tight:
        forcing = TIGHT_FACTOR * forcing
    rel_tol = min(0.1, max(FORCING_FLOOR, forcing, ENOUGH * target / res))
    return KrylovConfig(rel_tol=rel_tol, max_iters=KRYLOV_MAX_ITERS)


def solve_subproblem(u0: np.ndarray, h0: np.ndarray, ctx: AlmContext, method: str,
                     delta: float) -> InnerResult:
    """Run inner Newton steps until the residual drops below the threshold
    delta / sigma (floored at evaluation noise), and return the final
    iterate with the next multiplier and that threshold.

    Each step asks for ``_krylov_request`` at its residual, the target being
    the threshold or ctx.need if that is smaller; exceeding MAX_NEWTON_STEPS
    steps raises rather than silently continuing.  The tight mode and its
    re-solve are as in the module docstring; a discarded step's Krylov
    iterations are counted too.  PDP and PDD read the next multiplier off
    the final iterate's fields, w / U = P_alpha(w); PT takes its
    soft-threshold update.
    """
    step_fn = {"pdp": ssnpdp_step, "pdd": ssnpdd_step, "pt": ssnpt_step}.get(method)
    if step_fn is None:
        raise ValueError(f"unknown inner method {method!r}")
    state = _iterate(u0.copy(), h0.copy(), ctx, method)
    res0 = state.inner_residual
    residuals = [res0]
    # The residual is a difference of terms whose size grows with sigma, so
    # delta / sigma is floored at the 64-bit evaluation noise of those terms.
    eps = np.finfo(np.float64).eps
    noise = 64.0 * eps * (norm_y(ctx.lam) + ctx.sigma * norm_y(grad(u0))
                          + norm_x(ctx.data.f))
    threshold = max(delta / ctx.sigma, noise)
    # The residual a step need not solve past: the threshold, or what the
    # outer stopping test can accept if that is smaller.
    target = min(threshold, ctx.need)
    tight_mode = False
    line_searched = _line_searched(method, ctx)
    newton_steps = krylov_iters = backtracks = tight_resolves = 0
    f32_solves = f32_corrections = 0
    while state.inner_residual > threshold:
        if newton_steps >= MAX_NEWTON_STEPS:
            raise InnerNewtonError("inner Newton cap exceeded",
                                   iterations=newton_steps,
                                   residual=state.inner_residual,
                                   sigma=ctx.sigma, residuals=residuals)
        kcfg = _krylov_request(state.inner_residual, res0, target, tight_mode)
        cand, kit = step_fn(state, ctx, kcfg)
        # A step the line search did not choose may raise the residual: not
        # at all where no step is searched (PDP, iso PDD, PDD with mu > 0 or
        # a blur), and up to the subproblem's first residual in aniso PDD
        # denoising, whose searched steps make the merit fall, not the
        # residual.  PT's steps are all searched.
        limit = res0 if line_searched else state.inner_residual
        if not tight_mode and not cand.searched and cand.inner_residual > limit:
            # The loose solve threw the iterate off: the unglobalized
            # primal-dual Newton is only locally robust.  Keep tight solves
            # for the rest of this subproblem, and redo this step unless its
            # tight request equals the loose one (the ENOUGH floor binding
            # at both): that redo would repeat the same solve.
            tight_mode = True
            tight = _krylov_request(state.inner_residual, res0, target, tight_mode)
            if tight.rel_tol < kcfg.rel_tol:
                tight_resolves += 1
                krylov_iters += kit
                f32_solves += cand.f32_solves
                f32_corrections += cand.f32_corrections
                # The step took the iterate's fields: evaluate them again,
                # once the discarded candidate's are freed.
                del cand
                state.fields = _fields(state.u, ctx)
                cand, kit = step_fn(state, ctx, tight)
        state = cand
        newton_steps += 1
        krylov_iters += kit
        backtracks += state.backtracks
        f32_solves += state.f32_solves
        f32_corrections += state.f32_corrections
        residuals.append(state.inner_residual)
    # The next multiplier.  The final fields hold P_alpha(w) = w / U and are
    # the state's alone, so it is written over w; PT keeps its own form.
    if method == "pt":
        state.fields = None
        gu = grad(state.u)
        p = soft_threshold(ctx.lam_over_sigma + gu, ctx.alpha / ctx.sigma, ctx.variant)
        lam = ctx.lam + ctx.sigma * (gu - p)
    else:
        w, U, _, _ = _take_fields(state)
        lam = np.divide(w, U, out=w)
    return InnerResult(state, lam, residuals, newton_steps, krylov_iters, backtracks,
                       tight_resolves, f32_solves, f32_corrections, ctx.sigma, threshold)
