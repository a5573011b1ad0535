"""Matrix-free linear operators and Krylov solvers.

Provides the data operator K (correlation with a blur kernel under replicate
boundary extension, and its adjoint), the restoration operator
H = -mu*Laplacian + K*K, CG for the symmetric Newton systems of ALM-PDP and
ALM-PT (with an optional Jacobi preconditioner, which both use when
deblurring) and unpreconditioned BiCGSTAB for ALM-PDD's nonsymmetric dual
system.  Both solvers work in their right-hand side's dtype: ``ssn`` runs
loose denoising requests in float32 (CG when K = I, BiCGSTAB when H = I),
then checks and refines the answer in float64.  Every solve starts from
the zero vector so iteration counts are reproducible.  The solvers' inner
products are BLAS dot products (np.vdot), and their iterates, residuals and
search directions are updated in place.  An operator may return its
argument's own array, so a solver writes only to arrays it allocated, and
only after its last read of any operator output that may share them.

BiCGSTAB ends in one of three ways: it meets rel_tol, it exceeds max_iters
(KrylovError), or it gives up.  It gives up on any breakdown, tested
relative to b so that the outcome does not depend on b's scale, and on
stagnation.  Giving up returns the lowest-residual iterate when that
residual is at most STALL_ACCEPT * ||b||, short of rel_tol, and raises
KrylovError otherwise; ALM-PDD's dual solves on iso TV denoising sometimes
end through that acceptance.  A float32 solve that raises fails no Newton
step: ``ssn`` counts its answer as zero and solves again in float64 from
zero, and only that solve's KrylovError reaches the caller.

K is one row of odd width w, correlating each image row with the taps
under replicate extension.  On an M x N image it acts as K u = u R^T with
R (N x N) the 1-D correlation matrix of the taps, so K* y = y R is the exact
adjoint by construction and K*K v = v (R^T R), one matmul (the Gram form).
R and R^T R are built once per image shape and cached on the BlurKernel.

``DataTerm`` is the one place that knows H's form: it owns f = K* z, H,
K*K in Gram form, the data energy and the solves with H.  H is the
identity (K = I, mu = 0) or, for mu > 0, a Kronecker sum with an exact
inverse.  With a blur and mu = 0 it is K*K, which is applied but never
inverted: R^T R is singular for most motion blurs.  The grid's zero last
row and column make -div grad equal to L_M u + u L_N, with L the 1-D Neumann
path Laplacian, so H u = A u + u B with A = mu L_M and B = R^T R + mu L_N
(R = I for the identity).  With the eigendecompositions A = P diag(a) P^T
and B = Q diag(b) Q^T, built once per data term, H^{-1} F =
P [(P^T F Q) / (a_i + b_j)] Q^T, four matmuls (the fast-diagonalization
method of Lynch, Rice & Thomas, Numer. Math. 6, 1964); the prox inverse
(I + tau H)^{-1} divides by 1 + tau (a_i + b_j) instead.

R, the Gram matrix and the eigenbases are dense, so each costs
O(M^2 N + M N^2) per application: above about 512 px a side the blur is
slower than a banded or tap-loop form would be.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import KrylovError
from .grid import div, grad, norm_y


@dataclass(frozen=True)
class LinearMap:
    """A matrix-free operator: forward and adjoint actions plus a symmetry
    flag.  A blur map also carries its kernel, which gives K*K and H^{-1}
    their Kronecker forms."""

    apply: Callable[[np.ndarray], np.ndarray]
    apply_adjoint: Callable[[np.ndarray], np.ndarray]
    self_adjoint: bool = False
    kernel: BlurKernel | None = None


def _correlation_matrix(t: np.ndarray, size: int) -> np.ndarray:
    """The size x size matrix of 1-D correlation with taps ``t`` under
    replicate extension: (A x)[i] = sum_a t[a] x[clip(i + a - k//2)]."""
    k = t.size
    rows = np.broadcast_to(np.arange(size)[:, None], (size, k))
    cols = np.clip(rows + (np.arange(k) - k // 2), 0, size - 1)
    A = np.zeros((size, size))
    np.add.at(A, (rows, cols), np.broadcast_to(t, (size, k)))
    return A


@dataclass(frozen=True, eq=False)
class BlurKernel:
    """One row of odd width, with weights summing to 1.

    Also caches the operator's Kronecker form: per image shape, the row's
    correlation matrix R and the Gram matrix R^T R, built on first use at a
    shape and kept as long as the kernel.

    Kernels compare and hash by their taps' values (the read-only taps keep
    the hash fixed); the cache takes no part in either.
    """

    taps: np.ndarray
    _matrices: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _grams: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        taps = np.array(self.taps, dtype=np.float64)
        if taps.ndim != 2 or taps.shape[0] != 1:
            raise ValueError(f"kernel taps must be one row, got shape {taps.shape}")
        if taps.shape[1] % 2 == 0:
            raise ValueError(f"kernel width must be odd, got {taps.shape[1]}")
        if not np.all(np.isfinite(taps)):
            raise ValueError("kernel taps must be finite")
        if abs(float(taps.sum()) - 1.0) > 1e-12:
            raise ValueError(f"kernel weights must sum to 1, got {taps.sum()!r}")
        # Read-only, so the cached matrices can never go stale.
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)

    def __eq__(self, other):
        if not isinstance(other, BlurKernel):
            return NotImplemented
        return (self.taps.shape == other.taps.shape
                and bool(np.array_equal(self.taps, other.taps)))

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0, which array_equal counts as equal.
        return hash((self.taps.shape, (self.taps + 0.0).tobytes()))

    def matrix(self, shape: tuple[int, int]) -> np.ndarray:
        """The cached correlation matrix R at image ``shape``: K u = u R^T."""
        R = self._matrices.get(shape)
        if R is None:
            if self.taps.shape[1] > shape[1]:
                raise ValueError(f"kernel {self.taps.shape} larger than image {shape}")
            R = _correlation_matrix(self.taps[0], shape[1])
            self._matrices[shape] = R
        return R

    def gram(self, shape: tuple[int, int]) -> np.ndarray:
        """The cached Gram matrix R^T R at image ``shape``: K*K v = v (R^T R)."""
        G = self._grams.get(shape)
        if G is None:
            R = self.matrix(shape)
            G = R.T @ R
            self._grams[shape] = G
        return G


def motion_kernel(length: int) -> BlurKernel:
    """Horizontal motion blur: a 1 x length row of uniform weights (odd length)."""
    if length < 1 or length % 2 == 0:
        raise ValueError(f"motion kernel length must be odd and >= 1, got {length}")
    return BlurKernel(np.full((1, length), 1.0 / length))


def blur_apply(u: np.ndarray, kernel: BlurKernel) -> np.ndarray:
    """Correlate each row of ``u`` with the kernel taps, replicate boundary
    extension: K u = u R^T, with R cached on the kernel per image shape."""
    return u @ kernel.matrix(u.shape).T


def blur_adjoint(y: np.ndarray, kernel: BlurKernel) -> np.ndarray:
    """Exact adjoint of blur_apply: K* y = y R."""
    return y @ kernel.matrix(y.shape)


def blur_map(kernel: BlurKernel) -> LinearMap:
    return LinearMap(
        lambda u: blur_apply(u, kernel),
        lambda u: blur_adjoint(u, kernel),
        self_adjoint=False,
        kernel=kernel,
    )


def h_apply(u: np.ndarray, mu: float, K: LinearMap | None) -> np.ndarray:
    """Action of H = -mu*Laplacian + K*K; identity when K is None and mu = 0."""
    if not mu >= 0.0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    out = u.copy() if K is None else u @ K.kernel.gram(u.shape)
    if mu > 0.0:
        out -= mu * div(grad(u))
    return out


def h_map(mu: float, K: LinearMap | None) -> LinearMap:
    """H as a self-adjoint map.  K must be None or a ``blur_map``: H's Gram
    form and inverse need the kernel."""
    if K is not None and K.kernel is None:
        raise ValueError("the data operator must be None (identity) or a blur_map")
    op = lambda u: h_apply(u, mu, K)
    return LinearMap(op, op, self_adjoint=True)


def _path_laplacian(n: int) -> np.ndarray:
    """D^T D for the n-point forward difference D: the 1-D Neumann Laplacian
    that grad and div apply along one axis."""
    D = np.diff(np.eye(n), axis=0)
    return D.T @ D


@dataclass(frozen=True, eq=False)
class DataTerm:
    """The data term 0.5 ||K u - z||^2 + mu/2 ||grad u||^2, with K None
    (the identity) or a ``blur_map``: f = K* z and H = K*K - mu Laplacian."""

    z: np.ndarray
    K: LinearMap | None = None
    mu: float = 0.0
    f: np.ndarray = field(init=False, repr=False)
    H: LinearMap = field(init=False, repr=False)

    def __post_init__(self):
        # Written as "not >= 0" so that NaN is rejected too.
        if not self.mu >= 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        object.__setattr__(self, "H", h_map(self.mu, self.K))
        object.__setattr__(self, "f", self.z.copy() if self.K is None
                           else self.K.apply_adjoint(self.z))

    @property
    def identity(self) -> bool:
        """H = I (denoising without a gradient penalty): solves are free."""
        return self.K is None and self.mu == 0.0

    def gram(self, v: np.ndarray) -> np.ndarray:
        """K*K v in Gram form, v (R^T R); v itself for the identity."""
        return v if self.K is None else v @ self.K.kernel.gram(v.shape)

    @cached_property
    def gram_diagonal(self) -> np.ndarray | float:
        """The diagonal of K*K on the image: diag(R^T R), one value per
        column (broadcast over the rows); 1.0 for the identity."""
        return 1.0 if self.K is None else np.diag(self.K.kernel.gram(self.z.shape))

    def energy(self, u: np.ndarray) -> float:
        """The data term at u, evaluated cancellation-free."""
        r = (u - self.z) if self.K is None else (self.K.apply(u) - self.z)
        value = 0.5 * float(np.sum(r * r))
        if self.mu > 0.0:
            value += 0.5 * self.mu * norm_y(grad(u)) ** 2
        return value

    def solve(self, F: np.ndarray, tau: float | None = None) -> np.ndarray:
        """H^{-1} F, or (I + tau H)^{-1} F when ``tau`` is given.

        For the identity this is F itself (callers must not write into it)
        or F / (1 + tau); otherwise the exact fast-diagonalization inverse.
        """
        if self.identity:
            return F if tau is None else F / (1.0 + tau)
        P, Q, eig = self._eigenbases
        d = eig if tau is None else 1.0 + tau * eig
        return P @ ((P.T @ F @ Q) / d) @ Q.T

    def prepare_solve(self) -> None:
        """Build the eigenbases now, so a singular H is refused up front."""
        if not self.identity:
            self._eigenbases

    @cached_property
    def _eigenbases(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(P, Q, a_i + b_j), built on first use; mu <= 0 raises ValueError."""
        if self.mu <= 0.0:
            raise ValueError(f"inverting H needs mu > 0, got {self.mu}")
        m, n = self.z.shape
        gram = np.eye(n) if self.K is None else self.K.kernel.gram(self.z.shape)
        a, P = np.linalg.eigh(self.mu * _path_laplacian(m))
        b, Q = np.linalg.eigh(gram + self.mu * _path_laplacian(n))
        return P, Q, a[:, None] + b[None, :]


@dataclass(frozen=True)
class KrylovConfig:
    rel_tol: float = 1e-10
    max_iters: int = 10000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b))


# BiCGSTAB's give-up rule (see the module docstring).
BREAKDOWN_EPS = 1e-30
STALL_WINDOW = 400
STALL_ACCEPT = 0.3


def cg_solve(A: LinearMap, b: np.ndarray, cfg: KrylovConfig,
             diag: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Conjugate gradients for a self-adjoint positive-definite map.

    With ``diag``, the operator's (positive) diagonal, the iteration is
    Jacobi-preconditioned: each search direction comes from r / diag.  The
    stopping test is on the unpreconditioned residual either way.

    The iteration works in b's dtype: its vectors are allocated like b, and
    a float32 b with an operator that maps float32 to float32 gives a
    float32 solve (``ssn._mixed_solve``).  The stop is on CG's own
    recursive residual r, updated as r -= a A p, not on b - A x: the two
    agree to rounding in float64, but in float32 they may drift apart by
    more than a loose tolerance, so a float32 answer is checked by its
    caller.

    Returns (x, iterations) with ||r|| <= rel_tol * ||b||.  Raises
    KrylovError if a search direction exposes indefiniteness (p'Ap <= 0) or
    the iteration budget runs out.
    """
    b_norm = np.sqrt(_dot(b, b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0
    tol = cfg.rel_tol * b_norm
    x = np.zeros_like(b)
    r = b.copy()
    inv_diag = None if diag is None else 1.0 / diag
    # z is the preconditioned residual; without a preconditioner it is r.
    z = r if inv_diag is None else r * inv_diag
    p = z.copy()
    tmp = np.empty_like(b)
    rz = _dot(r, z)
    r_norm = b_norm
    for it in range(1, cfg.max_iters + 1):
        Ap = A.apply(p)
        pAp = _dot(p, Ap)
        if pAp <= 0.0:
            raise KrylovError("indefinite operator detected", method="cg",
                              residual=r_norm / b_norm, iterations=it)
        a = rz / pAp
        x += np.multiply(a, p, out=tmp)
        r -= np.multiply(a, Ap, out=tmp)
        rr = _dot(r, r)
        r_norm = np.sqrt(rr)
        if r_norm <= tol:
            return x, it
        if inv_diag is None:
            rz_new = rr
        else:
            np.multiply(r, inv_diag, out=z)
            rz_new = _dot(r, z)
        # p = z + beta p in place; Ap, which may be p itself, is not read again.
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise KrylovError("max iterations exceeded", method="cg",
                      residual=r_norm / b_norm, iterations=cfg.max_iters)


def bicgstab_solve(A: LinearMap, b: np.ndarray, cfg: KrylovConfig) -> tuple[np.ndarray, int]:
    """Unpreconditioned BiCGSTAB; works on scalar or two-channel fields,
    in b's dtype as ``cg_solve`` does, and stops on its recursive residual.

    Returns (x, iterations) with a recursive residual of at most
    rel_tol * ||b|| (||A x - b|| to rounding in float64), or else gives up:
    on a breakdown (|rho|, |r0'v| or t't below BREAKDOWN_EPS * ||b||^2, or
    |omega| below BREAKDOWN_EPS) or after STALL_WINDOW iterations without a
    1% fall of the lowest residual.  Giving up returns the lowest-residual
    iterate if its residual is at most STALL_ACCEPT * ||b||, and raises
    KrylovError otherwise.  Exceeding max_iters raises KrylovError.
    """
    b_norm = np.sqrt(_dot(b, b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0
    tol = cfg.rel_tol * b_norm
    tiny = BREAKDOWN_EPS * b_norm * b_norm
    x = np.zeros_like(b)
    r = b.copy()
    r0 = b  # the shadow residual, never written
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    tmp = np.empty_like(b)
    best_r, best_x, since_best = float("inf"), None, 0
    for it in range(1, cfg.max_iters + 1):
        rho_new = _dot(r0, r)
        if abs(rho_new) < tiny:
            break
        # p = r + beta (p - omega v), in place; v may alias p.
        beta = (rho_new / rho) * (alpha / omega)
        p -= np.multiply(omega, v, out=tmp)
        p *= beta
        p += r
        v = A.apply(p)
        r0v = _dot(r0, v)
        if abs(r0v) < tiny:
            break
        alpha = rho_new / r0v
        # s = r - alpha v overwrites r, which is not read again until
        # r = s - omega t is formed in the same array.
        s = r
        s -= np.multiply(alpha, v, out=tmp)
        x += np.multiply(alpha, p, out=tmp)
        if np.sqrt(_dot(s, s)) <= tol:
            return x, it
        t = A.apply(s)
        tt = _dot(t, t)
        if tt < tiny:
            break
        omega = _dot(t, s) / tt
        if abs(omega) < BREAKDOWN_EPS:
            break
        x += np.multiply(omega, s, out=tmp)
        r -= np.multiply(omega, t, out=tmp)
        r_norm = np.sqrt(_dot(r, r))
        if r_norm <= tol:
            return x, it
        if r_norm < 0.99 * best_r:
            best_r, best_x, since_best = r_norm, x.copy(), 0
        else:
            since_best += 1
            if since_best >= STALL_WINDOW:
                break
        rho = rho_new
    else:
        raise KrylovError("max iterations exceeded", method="bicgstab",
                          residual=np.sqrt(_dot(r, r)) / b_norm, iterations=cfg.max_iters)
    if best_r <= STALL_ACCEPT * b_norm:
        return best_x, it
    raise KrylovError("gave up on a breakdown or stagnation", method="bicgstab",
                      residual=min(best_r, np.sqrt(_dot(r, r))) / b_norm, iterations=it)
