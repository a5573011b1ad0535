"""Matrix-free linear operators and Krylov solvers.

Provides the data operator K (correlation with a blur kernel under replicate
boundary extension, and its adjoint), the restoration operator
H = -mu*Laplacian + K*K, and unpreconditioned CG / BiCGSTAB with the
forcing-term rule used to pick inner tolerances for Newton steps.  Every solve
starts from the zero vector so iteration counts are reproducible.

K is held in Kronecker form.  The kernel taps split by SVD into rank-one terms
c_r r_r^T (one term for the separable motion and Gaussian kernels, at most
min(kh, kw) otherwise), and with replicate boundaries each term acts on an
M x N image as C_r u R_r^T, where C_r (M x M) and R_r (N x N) are the 1-D
correlation matrices of c_r and r_r.  So K u = sum_r C_r u R_r^T and
K* y = sum_r C_r^T y R_r, which is the exact adjoint by construction.  The
matrices are built once per image shape and cached on the BlurKernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import KrylovError
from .grid import div, grad

FORCING_FLOOR = 1e-13
BREAKDOWN_EPS = 1e-30


@dataclass(frozen=True)
class LinearMap:
    """A matrix-free operator: forward and adjoint actions plus a symmetry flag."""

    apply: Callable[[np.ndarray], np.ndarray]
    apply_adjoint: Callable[[np.ndarray], np.ndarray]
    self_adjoint: bool = False


def _rank_one_terms(taps: np.ndarray) -> tuple:
    """Split the taps into rank-one terms (c, r), taps = sum c r^T.

    A one-row kernel is its own single term, with c = None standing for the
    1 x 1 factor 1.  Otherwise the terms are the SVD's, dropping singular
    values at rounding level (the matrix_rank cut-off).
    """
    kh, kw = taps.shape
    if kh == 1:
        return ((None, taps[0]),)
    U, s, Vt = np.linalg.svd(taps)
    keep = np.flatnonzero(s > s[0] * max(kh, kw) * np.finfo(np.float64).eps)
    return tuple((U[:, k] * s[k], Vt[k]) for k in keep)


def _correlation_matrix(t: np.ndarray, size: int) -> np.ndarray:
    """The size x size matrix of 1-D correlation with taps ``t`` under
    replicate extension: (A x)[i] = sum_a t[a] x[clip(i + a - k//2)]."""
    k = t.size
    rows = np.broadcast_to(np.arange(size)[:, None], (size, k))
    cols = np.clip(rows + (np.arange(k) - k // 2), 0, size - 1)
    A = np.zeros((size, size))
    np.add.at(A, (rows, cols), np.broadcast_to(t, (size, k)))
    return A


@dataclass(frozen=True)
class BlurKernel:
    """Odd-supported 2-D stencil with weights summing to 1.

    Also caches the operator's Kronecker form: per image shape, the (C, R)
    correlation matrices of each rank-one term of the taps (C is None for a
    one-row kernel).  They are built on first use at a shape and live as
    long as the kernel.
    """

    taps: np.ndarray
    _matrices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        taps = np.array(self.taps, dtype=np.float64)
        if taps.ndim != 2:
            raise ValueError(f"kernel taps must be 2-D, got shape {taps.shape}")
        if taps.shape[0] % 2 == 0 or taps.shape[1] % 2 == 0:
            raise ValueError(f"kernel support must be odd in both axes, got {taps.shape}")
        if abs(float(taps.sum()) - 1.0) > 1e-12:
            raise ValueError(f"kernel weights must sum to 1, got {taps.sum()!r}")
        # Read-only, so the cached matrices can never go stale.
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)

    def matrices(self, shape: tuple[int, int]) -> list:
        """The cached (C, R) pair of every rank-one term at image ``shape``."""
        mats = self._matrices.get(shape)
        if mats is None:
            m, n = shape
            if self.taps.shape[0] > m or self.taps.shape[1] > n:
                raise ValueError(f"kernel {self.taps.shape} larger than image {shape}")
            mats = [(None if c is None else _correlation_matrix(c, m),
                     _correlation_matrix(r, n)) for c, r in _rank_one_terms(self.taps)]
            self._matrices[shape] = mats
        return mats


def motion_kernel(length: int) -> BlurKernel:
    """Horizontal motion blur: a 1 x length row of uniform weights (odd length)."""
    if length < 1 or length % 2 == 0:
        raise ValueError(f"motion kernel length must be odd and >= 1, got {length}")
    return BlurKernel(np.full((1, length), 1.0 / length))


def gaussian_kernel(radius: int, std: float) -> BlurKernel:
    """Truncated, normalized Gaussian on a (2r+1) x (2r+1) support."""
    if radius < 0 or std <= 0:
        raise ValueError("radius must be >= 0 and std positive")
    ax = np.arange(-radius, radius + 1, dtype=np.float64)
    g1 = np.exp(-0.5 * (ax / std) ** 2)
    taps = np.outer(g1, g1)
    return BlurKernel(taps / taps.sum())


def blur_apply(u: np.ndarray, kernel: BlurKernel) -> np.ndarray:
    """Correlate ``u`` with the kernel taps, replicate boundary extension:
    K u = sum over rank-one terms of C u R^T (C u skipped for a one-row
    kernel), with the matrices cached on the kernel per image shape."""
    out = None
    for C, R in kernel.matrices(u.shape):
        term = (u if C is None else C @ u) @ R.T
        out = term if out is None else out + term
    return out


def blur_adjoint(y: np.ndarray, kernel: BlurKernel) -> np.ndarray:
    """Exact adjoint of blur_apply: K* y = sum over terms of C^T y R."""
    out = None
    for C, R in kernel.matrices(y.shape):
        term = (y if C is None else C.T @ y) @ R
        out = term if out is None else out + term
    return out


def blur_map(kernel: BlurKernel) -> LinearMap:
    return LinearMap(
        lambda u: blur_apply(u, kernel),
        lambda u: blur_adjoint(u, kernel),
        self_adjoint=False,
    )


def h_apply(u: np.ndarray, mu: float, K: LinearMap | None) -> np.ndarray:
    """Action of H = -mu*Laplacian + K*K; identity when K is None and mu = 0."""
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    out = u.copy() if K is None else K.apply_adjoint(K.apply(u))
    if mu > 0.0:
        out -= mu * div(grad(u))
    return out


def h_map(mu: float, K: LinearMap | None) -> LinearMap:
    op = lambda u: h_apply(u, mu, K)
    return LinearMap(op, op, self_adjoint=True)


@dataclass(frozen=True)
class KrylovConfig:
    rel_tol: float = 1e-10
    max_iters: int = 10000
    method: str = "cg"

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.method not in ("cg", "bicgstab"):
            raise ValueError(f"unknown method {self.method!r}")


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b))


STALL_WINDOW = 400
STALL_ACCEPT = 0.3


class _BestIterate:
    """Tracks the lowest-residual iterate and detects stagnation.

    Finite-precision Krylov solves often bottom out above very tight demanded
    tolerances.  When no 1% improvement happens over a window of iterations,
    the solve is declared stagnated: the best iterate is returned if it
    reduced the residual by at least 10x, otherwise the caller gets an error.
    """

    def __init__(self, b_norm: float):
        self.b_norm = b_norm
        self.best_r = float("inf")
        self.best_x = None
        self.since_improve = 0

    def update(self, x: np.ndarray, r_norm: float) -> None:
        if r_norm < 0.99 * self.best_r:
            self.best_r = r_norm
            self.best_x = x.copy()
            self.since_improve = 0
        else:
            self.since_improve += 1

    def stagnated(self) -> bool:
        return self.since_improve >= STALL_WINDOW

    def accept_or_raise(self, method: str, it: int) -> np.ndarray:
        if self.best_x is not None and self.best_r <= STALL_ACCEPT * self.b_norm:
            return self.best_x
        raise KrylovError("stagnated without sufficient progress", method=method,
                          residual=self.best_r / self.b_norm, iterations=it)


def cg_solve(A: LinearMap, b: np.ndarray, cfg: KrylovConfig) -> tuple[np.ndarray, int]:
    """Conjugate gradients for a self-adjoint positive-definite map.

    Returns (x, iterations) with ||A x - b|| <= rel_tol * ||b|| (or the best
    attainable iterate when finite precision stalls the recurrence).  Raises
    KrylovError if a search direction exposes indefiniteness (p'Ap <= 0) or
    the iteration budget runs out.
    """
    b_norm = np.sqrt(_dot(b, b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0
    tol = cfg.rel_tol * b_norm
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = _dot(r, r)
    for it in range(1, cfg.max_iters + 1):
        Ap = A.apply(p)
        pAp = _dot(p, Ap)
        if pAp <= 0.0:
            raise KrylovError("indefinite operator detected", method="cg",
                              residual=np.sqrt(rs) / b_norm, iterations=it)
        a = rs / pAp
        x += a * p
        r -= a * Ap
        rs_new = _dot(r, r)
        if np.sqrt(rs_new) <= tol:
            return x, it
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise KrylovError("max iterations exceeded", method="cg",
                      residual=np.sqrt(rs) / b_norm, iterations=cfg.max_iters)


def bicgstab_solve(A: LinearMap, b: np.ndarray, cfg: KrylovConfig) -> tuple[np.ndarray, int]:
    """Unpreconditioned BiCGSTAB; works on scalar or two-channel fields.

    Returns (x, iterations).  Raises KrylovError on breakdown (rho or omega
    vanishing) or when max_iters is exceeded.
    """
    b_norm = np.sqrt(_dot(b, b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0
    tol = cfg.rel_tol * b_norm
    # A recurrence breakdown (rho, r0'v, t, or omega vanishing) ends the
    # iteration; it counts as acceptable when the residual has already been
    # reduced past the stall gate, and as an error otherwise.
    accept_norm = max(tol, STALL_ACCEPT * b_norm)
    x = np.zeros_like(b)
    r = b.copy()
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    best = _BestIterate(b_norm)
    for it in range(1, cfg.max_iters + 1):
        rho_new = _dot(r0, r)
        if abs(rho_new) < BREAKDOWN_EPS:
            r_norm = np.sqrt(_dot(r, r))
            if r_norm <= accept_norm:
                return x, it
            # <r0, r> vanishing while the residual is nonzero stalls the
            # recurrence; re-seed the shadow residual and restart.
            r0 = r.copy()
            rho_new = _dot(r0, r)
            if rho_new < BREAKDOWN_EPS:
                return x, it
            p = r.copy()
            v = np.zeros_like(b)
            alpha = omega = 1.0
        else:
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
        v = A.apply(p)
        r0v = _dot(r0, v)
        if abs(r0v) < BREAKDOWN_EPS:
            if np.sqrt(_dot(r, r)) <= accept_norm:
                return x, it
            raise KrylovError("breakdown: r0'v ~ 0", method="bicgstab",
                              residual=np.sqrt(_dot(r, r)) / b_norm, iterations=it)
        alpha = rho_new / r0v
        s = r - alpha * v
        x += alpha * p
        if np.sqrt(_dot(s, s)) <= tol:
            return x, it
        t = A.apply(s)
        tt = _dot(t, t)
        if tt < BREAKDOWN_EPS:
            if np.sqrt(_dot(s, s)) <= accept_norm:
                return x, it
            raise KrylovError("breakdown: t ~ 0", method="bicgstab",
                              residual=np.sqrt(_dot(s, s)) / b_norm, iterations=it)
        omega = _dot(t, s) / tt
        if abs(omega) < BREAKDOWN_EPS:
            if np.sqrt(_dot(s, s)) <= accept_norm:
                return x, it
            raise KrylovError("breakdown: omega ~ 0", method="bicgstab",
                              residual=np.sqrt(_dot(s, s)) / b_norm, iterations=it)
        x += omega * s
        r = s - omega * t
        r_norm = np.sqrt(_dot(r, r))
        if r_norm <= tol:
            return x, it
        best.update(x, r_norm)
        if best.stagnated():
            return best.accept_or_raise("bicgstab", it), it
        rho = rho_new
    raise KrylovError("max iterations exceeded", method="bicgstab",
                      residual=np.sqrt(_dot(r, r)) / b_norm, iterations=cfg.max_iters)


def newton_forcing_tol(res_k: float, res_0: float, floor: float = FORCING_FLOOR) -> float:
    """Inner linear-solve tolerance 0.1 * min((r_k/r_0)^1.5, r_k/r_0).

    Clamped below at ``floor`` to avoid demanding sub-machine-precision
    solves; res_0 = 0 (already exact) also yields the floor.
    """
    if res_0 <= 0.0:
        return floor
    ratio = res_k / res_0
    return max(floor, 0.1 * min(ratio ** 1.5, ratio))
