"""Linear operators and Krylov solvers against dense oracles."""

import numpy as np
import pytest

from tvalm.degrade import DegradeSpec
from tvalm.errors import KrylovError
from tvalm.grid import ISO, div, grad, inner_x
from tvalm.linops import (BlurKernel, DataTerm, KrylovConfig, LinearMap, _path_laplacian,
                          bicgstab_solve, blur_adjoint, blur_apply, blur_map, cg_solve,
                          h_apply, h_map, motion_kernel)
from tvalm.ssn import AlmContext

RNG = np.random.default_rng(5150)
IDENTITY = LinearMap(lambda u: u.copy(), lambda u: u.copy(), self_adjoint=True)
# The identity handing back its argument's own array: a solver that writes into
# A.apply's output would write into its own search direction.
ALIASING_IDENTITY = LinearMap(lambda u: u, lambda u: u, self_adjoint=True)


def tap_loop_apply(u, kernel):
    """Reference blur: one edge pad, then a tap-weighted sum of shifted views."""
    kh, kw = kernel.taps.shape
    m, n = u.shape
    ci, cj = kh // 2, kw // 2
    padded = np.pad(u, ((ci, ci), (cj, cj)), mode="edge")
    out = np.zeros_like(u)
    for a in range(kh):
        for b in range(kw):
            out += kernel.taps[a, b] * padded[a:a + m, b:b + n]
    return out


def tap_loop_adjoint(y, kernel):
    """Reference adjoint: scatter the taps into the padded plane, then fold
    the pad borders back onto the edge rows and columns."""
    kh, kw = kernel.taps.shape
    m, n = y.shape
    ci, cj = kh // 2, kw // 2
    plane = np.zeros((m + 2 * ci, n + 2 * cj))
    for a in range(kh):
        for b in range(kw):
            plane[a:a + m, b:b + n] += kernel.taps[a, b] * y
    rows = plane[ci:ci + m, :].copy()
    if ci:
        rows[0, :] += plane[:ci, :].sum(axis=0)
        rows[m - 1, :] += plane[m + ci:, :].sum(axis=0)
    out = rows[:, cj:cj + n].copy()
    if cj:
        out[:, 0] += rows[:, :cj].sum(axis=1)
        out[:, n - 1] += rows[:, n + cj:].sum(axis=1)
    return out


def random_kernel(width, seed):
    taps = np.random.default_rng(seed).uniform(size=(1, width))
    return BlurKernel(taps / taps.sum())


def gaussian_row(radius, std):
    """A one-row Gaussian profile: symmetric taps that are not uniform."""
    ax = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-0.5 * (ax / std) ** 2)
    return BlurKernel(g[None, :] / g.sum())


ORACLE_KERNELS = {
    "motion1": motion_kernel(1),
    "motion3": motion_kernel(3),
    "motion9": motion_kernel(9),
    "gauss2": gaussian_row(2, 1.0),
    # Asymmetric taps: with symmetric ones a transposed R would go unnoticed.
    "random1x7": random_kernel(7, 11),
}


def dense_from_map(A: LinearMap, shape):
    """Assemble the dense matrix of a LinearMap by probing unit fields."""
    n = int(np.prod(shape))
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols.append(A.apply(e.reshape(shape)).ravel())
    return np.array(cols).T


def adjoint_probe(A: LinearMap, shape, trials=20, tol=1e-12):
    for _ in range(trials):
        u = RNG.normal(size=shape)
        v = RNG.normal(size=shape)
        lhs = float(np.sum(A.apply(u) * v))
        rhs = float(np.sum(u * A.apply_adjoint(v)))
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= tol * scale


class TestBlurKernel:
    def test_motion_kernel_normalized(self):
        k = motion_kernel(9)
        assert k.taps.shape == (1, 9)
        assert k.taps.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(k.taps >= 0)

    def test_even_support_rejected(self):
        with pytest.raises(ValueError):
            motion_kernel(40)
        with pytest.raises(ValueError, match="odd"):
            BlurKernel(np.full((1, 4), 0.25))

    @pytest.mark.parametrize("taps", [np.full((3, 3), 1.0 / 9), np.full((2, 3), 1.0 / 6),
                                      np.full(3, 1.0 / 3)])
    def test_more_than_one_row_rejected(self, taps):
        with pytest.raises(ValueError, match="one row"):
            BlurKernel(taps)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            BlurKernel(np.ones((1, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_taps_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BlurKernel([[bad, 1.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            BlurKernel([[0.5, 0.5, bad, 0.0, 0.0]])

    def test_equality_by_taps(self):
        a, b = motion_kernel(3), motion_kernel(3)
        assert a == b and not a != b
        assert a != motion_kernel(5)
        assert a != gaussian_row(1, 1.0)
        # Same taps in another shape are another kernel.
        assert BlurKernel([[1.0]]) != BlurKernel([[0.0, 1.0, 0.0]])
        assert a != "motion-3"

    def test_equality_ignores_matrix_cache(self):
        a, b = motion_kernel(3), motion_kernel(3)
        a.gram((5, 5))
        assert a == b and hash(a) == hash(b)

    def test_hash_consistent_with_equality(self):
        assert hash(motion_kernel(3)) == hash(motion_kernel(3))
        assert {motion_kernel(3): "m3"}[motion_kernel(3)] == "m3"
        assert len({motion_kernel(3), motion_kernel(3), motion_kernel(5)}) == 2
        signed = BlurKernel([[-0.0, 1.0, 0.0]])
        assert signed == BlurKernel([[0.0, 1.0, 0.0]])
        assert hash(signed) == hash(BlurKernel([[0.0, 1.0, 0.0]]))

    def test_degrade_spec_equality(self):
        spec = DegradeSpec(noise_std=0.01, blur=motion_kernel(9), seed=21)
        assert spec == DegradeSpec(noise_std=0.01, blur=motion_kernel(9), seed=21)
        assert spec != DegradeSpec(noise_std=0.01, blur=motion_kernel(7), seed=21)
        assert spec != DegradeSpec(noise_std=0.01, seed=21)
        assert hash(spec) == hash(DegradeSpec(noise_std=0.01, blur=motion_kernel(9),
                                              seed=21))


class TestBlurApply:
    def test_identity_kernel(self):
        k = BlurKernel(np.array([[1.0]]))
        u = RNG.normal(size=(5, 5))
        assert np.array_equal(blur_apply(u, k), u)

    def test_constant_image_preserved(self):
        u = np.full((6, 6), 0.7)
        out = blur_apply(u, motion_kernel(5))
        assert np.allclose(out, 0.7, atol=1e-14)

    def test_row_mean_center_pixel(self):
        u = np.arange(9, dtype=float).reshape(3, 3)
        out = blur_apply(u, BlurKernel(np.full((1, 3), 1.0 / 3)))
        assert out[1, 1] == pytest.approx(u[1].mean())

    def test_kernel_larger_than_image(self):
        with pytest.raises(ValueError):
            blur_apply(np.ones((3, 3)), motion_kernel(5))

    def test_adjoint_is_exact(self):
        adjoint_probe(blur_map(motion_kernel(5)), (7, 9))
        adjoint_probe(blur_map(ORACLE_KERNELS["random1x7"]), (6, 8))

    def test_adjoint_matches_dense_transpose(self):
        k = random_kernel(3, 4)
        shape = (4, 5)
        Kd = dense_from_map(blur_map(k), shape)
        y = RNG.normal(size=shape)
        assert np.allclose(blur_adjoint(y, k).ravel(), Kd.T @ y.ravel(), atol=1e-13)


class TestKroneckerBlur:
    """The Kronecker-form blur against the tap-loop oracle above."""

    @pytest.mark.parametrize("name", sorted(ORACLE_KERNELS))
    @pytest.mark.parametrize("shape", [(7, 9), (32, 32)])
    def test_matches_tap_loop(self, name, shape):
        k = ORACLE_KERNELS[name]
        u = RNG.normal(size=shape)
        tol = 1e-13 * np.max(np.abs(u))
        assert np.max(np.abs(blur_apply(u, k) - tap_loop_apply(u, k))) <= tol
        assert np.max(np.abs(blur_adjoint(u, k) - tap_loop_adjoint(u, k))) <= tol

    def test_kernel_taps_are_asymmetric(self):
        taps = ORACLE_KERNELS["random1x7"].taps
        assert np.max(np.abs(taps - taps[:, ::-1])) > 0.1 * np.max(taps)

    def test_matrix_cached_per_shape(self):
        k = motion_kernel(3)
        R = k.matrix((7, 9))
        assert R.shape == (9, 9) and k.matrix((7, 9)) is R
        assert k.matrix((7, 5)).shape == (5, 5)

    @pytest.mark.parametrize("name, shape", [("motion9", (4, 9)), ("gauss2", (5, 5)),
                                             ("random1x7", (3, 7))])
    def test_kernel_as_large_as_image(self, name, shape):
        kernel = ORACLE_KERNELS[name]
        u = RNG.normal(size=shape)
        tol = 1e-13 * np.max(np.abs(u))
        assert np.max(np.abs(blur_apply(u, kernel) - tap_loop_apply(u, kernel))) <= tol
        assert np.max(np.abs(blur_adjoint(u, kernel) - tap_loop_adjoint(u, kernel))) <= tol

    @pytest.mark.parametrize("name", ["motion9", "gauss2", "random1x7"])
    def test_adjoint_is_dense_transpose(self, name):
        k = ORACLE_KERNELS[name]
        shape = (7, 9)
        Kd = dense_from_map(blur_map(k), shape)
        for _ in range(3):
            y = RNG.normal(size=shape)
            assert np.allclose(blur_adjoint(y, k).ravel(), Kd.T @ y.ravel(),
                               rtol=0.0, atol=1e-13 * np.max(np.abs(y)))

    def test_one_kernel_at_two_shapes(self):
        k = random_kernel(5, 13)
        for shape in [(7, 9), (12, 6), (7, 9)]:
            u = RNG.normal(size=shape)
            tol = 1e-13 * np.max(np.abs(u))
            out = blur_apply(u, k)
            assert out.shape == shape
            assert np.max(np.abs(out - tap_loop_apply(u, k))) <= tol
            assert np.max(np.abs(blur_adjoint(u, k) - tap_loop_adjoint(u, k))) <= tol

    def test_taps_read_only(self):
        k = motion_kernel(3)
        with pytest.raises(ValueError):
            k.taps[0, 0] = 0.5

    def test_result_never_aliases_input(self):
        k = BlurKernel(np.array([[1.0]]))
        u = RNG.normal(size=(3, 4))
        assert not np.shares_memory(blur_apply(u, k), u)
        assert not np.shares_memory(blur_adjoint(u, k), u)


def _boom(*args):
    raise AssertionError("K or K* applied where the Gram form should run")


class TestGramForm:
    """K*K as v (R^T R), against the blur and its adjoint."""

    @pytest.mark.parametrize("name", sorted(ORACLE_KERNELS))
    @pytest.mark.parametrize("shape", [(7, 9), (32, 32)])
    def test_matches_adjoint_of_blur(self, name, shape):
        k = ORACLE_KERNELS[name]
        v = RNG.normal(size=shape)
        want = blur_adjoint(blur_apply(v, k), k)
        got = DataTerm(np.zeros(shape), blur_map(k)).gram(v)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert not np.shares_memory(got, v)

    def test_identity_gram_is_its_argument(self):
        v = RNG.normal(size=(4, 5))
        assert DataTerm(np.zeros((4, 5)), None, 1e-3).gram(v) is v

    def test_gram_is_cached(self):
        k = ORACLE_KERNELS["random1x7"]
        G = k.gram((9, 9))
        assert G.shape == (9, 9) and k.gram((9, 9)) is G
        R = k.matrix((9, 9))
        assert np.array_equal(G, R.T @ R)

    def test_h_apply_uses_the_kernel(self):
        # H is applied through the kernel's Gram matrix, never through the
        # map's blur and adjoint.
        k = motion_kernel(5)
        u = RNG.normal(size=(6, 8))
        gram_only = LinearMap(_boom, _boom, kernel=k)
        want = blur_adjoint(blur_apply(u, k), k) - 1e-3 * div(grad(u))
        assert np.linalg.norm(h_apply(u, 1e-3, gram_only) - want) <= (
            1e-13 * np.linalg.norm(want))

    def test_newton_system_uses_the_kernel(self, monkeypatch):
        import tvalm.linops as linops
        from tvalm.ssn import _image_system
        k = motion_kernel(3)
        data = DataTerm(RNG.normal(size=(6, 6)), blur_map(k), 1e-6)
        ctx = AlmContext(np.zeros((2, 6, 6)), 4.0, 0.1, ISO, data)
        a = np.full((2, 6, 6), 0.5)
        v = RNG.normal(size=(6, 6))
        want = blur_adjoint(blur_apply(v, k), k) - div((a + data.mu) * grad(v))
        # The blur map's closures look these up at call time.
        monkeypatch.setattr(linops, "blur_apply", _boom)
        monkeypatch.setattr(linops, "blur_adjoint", _boom)
        got = _image_system(ctx, a)[0].apply(v)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _residual(x, F, mu, K, tau=None):
    Hx = h_apply(x, mu, K)
    r = Hx - F if tau is None else x + tau * Hx - F
    return np.linalg.norm(r) / np.linalg.norm(F)


class TestExactHInverse:
    """Fast diagonalization of H = A (x) I + I (x) B against h_apply."""

    def test_laplacian_is_a_kronecker_sum(self):
        # The zero last row and column of grad make -div grad = L_M u + u L_N.
        for shape in [(1, 4), (5, 1), (7, 9), (16, 16)]:
            u = RNG.normal(size=shape)
            want = _path_laplacian(shape[0]) @ u + u @ _path_laplacian(shape[1])
            assert np.allclose(-div(grad(u)), want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("kernel", [None, motion_kernel(1), motion_kernel(3),
                                        motion_kernel(9)])
    @pytest.mark.parametrize("shape", [(7, 9), (32, 32)])
    def test_against_dense_solves(self, kernel, shape):
        K = None if kernel is None else blur_map(kernel)
        for mu in (1e-2, 1e-6):
            data = DataTerm(np.zeros(shape), K, mu)
            Hd = dense_from_map(h_map(mu, K), shape)
            Fs = RNG.normal(size=(3, *shape))
            for tau in (None, 1e-3, 0.35):  # ALG2 starts at 8^(-1/2) and shrinks tau
                A = Hd if tau is None else np.eye(Hd.shape[0]) + tau * Hd
                lu = np.linalg.solve(A, Fs.reshape(3, -1).T).T.reshape(Fs.shape)
                for F, x_lu in zip(Fs, lu):
                    x = data.solve(F, tau)
                    r = _residual(x, F, mu, K, tau)
                    # Backward-stable LU on the assembled matrix sets the
                    # floor: for H at mu = 1e-6 (condition number near 1e6)
                    # neither gets much below 1e-11 on a random right-hand side.
                    assert r <= max(1e-13, 10.0 * _residual(x_lu, F, mu, K, tau))
                    assert r <= (5e-11 if tau is None and mu == 1e-6 else 1e-13)
                    rel = 1e-10 if tau is None else 1e-13
                    assert np.linalg.norm(x - x_lu) <= rel * np.linalg.norm(x_lu)

    @pytest.mark.parametrize("K", [None, blur_map(motion_kernel(5))])
    def test_mu_zero_rejected(self, K):
        # Without mu, H is the identity, which needs no inverse, or R^T R,
        # which is singular for most motion blurs (motion_kernel(5) at 8
        # columns among them).
        b = RNG.normal(size=(8, 8))
        data = DataTerm(b, K, 0.0)
        if K is None:
            data.prepare_solve()
            assert data.solve(b) is b
        else:
            for call in (data.prepare_solve, lambda: data.solve(b)):
                with pytest.raises(ValueError, match="mu > 0"):
                    call()

    @pytest.mark.parametrize("mu", [-1e-6, float("nan")])
    def test_invalid_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="mu must be >= 0"):
            DataTerm(np.ones((4, 4)), blur_map(motion_kernel(3)), mu)

    def test_solve_h_uses_the_exact_inverse(self, monkeypatch):
        import tvalm.linops as linops
        monkeypatch.setattr(linops, "cg_solve", _boom)
        K, mu = blur_map(motion_kernel(5)), 1e-6
        b = RNG.normal(size=(8, 8))
        assert _residual(DataTerm(b, K, mu).solve(b), b, mu, K) <= 5e-11

    def test_solve_h_identity_with_mu_uses_the_exact_inverse(self, monkeypatch):
        import tvalm.linops as linops
        monkeypatch.setattr(linops, "cg_solve", _boom)
        b = RNG.normal(size=(8, 8))
        assert _residual(DataTerm(b, None, 1e-2).solve(b), b, 1e-2, None) <= 1e-13


class TestHOperator:
    def test_rof_case_identity(self):
        u = RNG.normal(size=(4, 4))
        assert np.array_equal(h_apply(u, 0.0, None), u)

    def test_constant_image_with_laplacian(self):
        u = np.full((5, 5), 2.0)
        assert np.allclose(h_apply(u, 1.0, None), u, atol=1e-14)

    def test_self_adjoint_probe(self):
        K = blur_map(motion_kernel(5))
        adjoint_probe(h_map(1e-3, K), (6, 8))
        u = RNG.normal(size=(6, 8))
        v = RNG.normal(size=(6, 8))
        H = h_map(1e-3, K)
        assert inner_x(H.apply(u), v) == pytest.approx(inner_x(u, H.apply(v)),
                                                       rel=1e-12)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            h_apply(np.ones((2, 2)), -1.0, None)

    def test_kernel_less_data_operator_rejected(self):
        # H's Gram form and inverse need the kernel that blur_map carries.
        with pytest.raises(ValueError, match="blur_map"):
            h_map(1e-6, IDENTITY)
        with pytest.raises(ValueError, match="blur_map"):
            DataTerm(np.ones((4, 4)), IDENTITY, 1e-6)


class TestHSolve:
    """H^{-1} actions through DataTerm.solve (the exact inverse)."""

    def test_identity_case(self):
        b = RNG.normal(size=(4, 4))
        data = DataTerm(b)
        assert np.array_equal(data.solve(b), b)
        assert np.array_equal(data.solve(b, 0.25), b / 1.25)

    def test_roundtrip_random(self):
        K = blur_map(motion_kernel(5))
        for mu in (1e-6, 1e-9):
            x_true = RNG.normal(size=(8, 8))
            b = h_apply(x_true, mu, K)
            x = DataTerm(b, K, mu).solve(b)
            rel = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
            assert rel <= 10 * 1e-4  # conditioning eats a few digits

    def test_zero_rhs(self):
        data = DataTerm(np.ones((3, 3)), None, 1e-6)
        assert np.all(data.solve(np.zeros((3, 3))) == 0.0)


class TestCg:
    def test_identity_one_iteration(self):
        b = RNG.normal(size=(5, 5))
        x, it = cg_solve(IDENTITY, b, KrylovConfig(rel_tol=1e-12))
        assert it == 1
        assert np.allclose(x, b)

    def test_diagonal_two_pixel(self):
        d = np.array([[2.0, 1.0]])
        A = LinearMap(lambda u: d * u, lambda u: d * u, self_adjoint=True)
        x, _ = cg_solve(A, np.array([[2.0, 1.0]]), KrylovConfig(rel_tol=1e-14))
        assert np.allclose(x, 1.0, atol=1e-12)

    def test_matches_dense_solve_on_deblur_h(self):
        K = blur_map(BlurKernel(np.full((1, 3), 1.0 / 3)))
        H = h_map(1e-2, K)
        shape = (3, 3)
        Hd = dense_from_map(H, shape)
        b = RNG.normal(size=shape)
        x, _ = cg_solve(H, b, KrylovConfig(rel_tol=1e-13, max_iters=1000))
        assert np.allclose(x.ravel(), np.linalg.solve(Hd, b.ravel()), atol=1e-8)

    def test_indefinite_detected(self):
        A = LinearMap(lambda u: -u, lambda u: -u, self_adjoint=True)
        with pytest.raises(KrylovError):
            cg_solve(A, np.ones((2, 2)), KrylovConfig())

    def test_max_iters_error_carries_residual(self):
        # One CG iteration cannot solve this 2-value diagonal system.
        d = np.array([[5.0, 1.0]])
        A = LinearMap(lambda u: d * u, lambda u: d * u, self_adjoint=True)
        with pytest.raises(KrylovError) as err:
            cg_solve(A, np.array([[1.0, 2.0]]), KrylovConfig(rel_tol=1e-14, max_iters=1))
        assert err.value.residual > 0

    def test_zero_rhs_short_circuit(self):
        x, it = cg_solve(IDENTITY, np.zeros((3, 3)), KrylovConfig())
        assert it == 0 and np.all(x == 0.0)


class TestJacobiCg:
    """CG with a diagonal (Jacobi) preconditioner, the fourth argument."""

    @staticmethod
    def spd_map(n, seed):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(n * n, n * n))
        # Badly scaled rows and columns, which Jacobi undoes.
        scale = np.diag(10.0 ** rng.uniform(-2, 2, size=n * n))
        A = scale @ (M @ M.T + n * n * np.eye(n * n)) @ scale
        op = lambda u: (A @ u.ravel()).reshape(u.shape)
        return LinearMap(op, op, self_adjoint=True), A

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
    def test_meets_rel_tol_on_the_true_residual(self, rel_tol):
        n = 4
        A_map, A = self.spd_map(n, seed=9)
        b = RNG.normal(size=(n, n))
        diag = np.diag(A).reshape(n, n)
        x, it = cg_solve(A_map, b, KrylovConfig(rel_tol=rel_tol, max_iters=500), diag)
        r = b.ravel() - A @ x.ravel()
        assert np.linalg.norm(r) <= rel_tol * np.linalg.norm(b)
        assert np.allclose(x.ravel(), np.linalg.solve(A, b.ravel()),
                           atol=1e-4 if rel_tol > 1e-8 else 1e-8)
        _, it_plain = cg_solve(A_map, b, KrylovConfig(rel_tol=rel_tol, max_iters=500))
        assert it < it_plain

    def test_exact_jacobi_on_a_diagonal_takes_one_iteration(self):
        d = np.array([[5.0, 1.0, 1e-3], [2.0, 7.5, 40.0]])
        A = LinearMap(lambda u: d * u, lambda u: d * u, self_adjoint=True)
        b = RNG.normal(size=d.shape)
        x, it = cg_solve(A, b, KrylovConfig(rel_tol=1e-12), d)
        assert it == 1
        assert np.allclose(x, b / d, rtol=1e-14)
        # Without it, CG needs about one iteration per distinct eigenvalue.
        _, it_plain = cg_solve(A, b, KrylovConfig(rel_tol=1e-12))
        assert it_plain >= d.size

    def test_no_preconditioner_is_the_plain_iteration(self):
        A_map, _ = self.spd_map(3, seed=4)
        b = RNG.normal(size=(3, 3))
        cfg = KrylovConfig(rel_tol=1e-10, max_iters=200)
        x0, it0 = cg_solve(A_map, b, cfg)
        x1, it1 = cg_solve(A_map, b, cfg, None)
        assert it0 == it1 and np.array_equal(x0, x1)


class TestBicgstab:
    def test_identity(self):
        b = RNG.normal(size=(4, 4))
        x, _ = bicgstab_solve(IDENTITY, b, KrylovConfig(rel_tol=1e-12))
        assert np.allclose(x, b)

    @pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-16, 1e-20])
    def test_random_dense_4x4_system(self, scale):
        """The breakdown tests are relative to b: scaling b scales x and
        leaves the iteration count alone."""
        rng = np.random.default_rng(31)
        M = rng.normal(size=(16, 16))
        M = M @ M.T + 16 * np.eye(16)  # well conditioned
        M[0, 3] += 2.0  # break symmetry
        A = LinearMap(lambda u: (M @ u.ravel()).reshape(4, 4),
                      lambda u: (M.T @ u.ravel()).reshape(4, 4))
        b = rng.normal(size=(4, 4))
        cfg = KrylovConfig(rel_tol=1e-12, max_iters=500)
        _, it_unit = bicgstab_solve(A, b, cfg)
        x, it = bicgstab_solve(A, scale * b, cfg)
        assert it == it_unit
        assert np.linalg.norm(A.apply(x) - scale * b) <= cfg.rel_tol * np.linalg.norm(scale * b)
        assert np.allclose(x.ravel() / scale, np.linalg.solve(M, b.ravel()), atol=1e-8)

    def test_agrees_with_cg_on_spd(self):
        K = blur_map(motion_kernel(3))
        H = h_map(0.1, K)
        b = RNG.normal(size=(6, 6))
        cfg = KrylovConfig(rel_tol=1e-10, max_iters=5000)
        x_cg, _ = cg_solve(H, b, cfg)
        x_bi, _ = bicgstab_solve(H, b, cfg)
        scale = max(np.linalg.norm(x_cg), np.linalg.norm(b))
        assert np.linalg.norm(x_cg - x_bi) <= 10 * cfg.rel_tol * scale

    def test_two_channel_system(self):
        scale = np.stack((np.full((3, 3), 2.0), np.full((3, 3), 4.0)))
        A = LinearMap(lambda q: scale * q, lambda q: scale * q)
        b = RNG.normal(size=(2, 3, 3))
        x, _ = bicgstab_solve(A, b, KrylovConfig(rel_tol=1e-12))
        assert np.allclose(x, b / scale)

    def test_float32_right_hand_side(self):
        # A float32 b with an operator that maps float32 to float32 gives a
        # float32 solve that meets a loose tolerance on its true residual.
        rng = np.random.default_rng(31)
        M = rng.normal(size=(32, 32))
        M = M @ M.T + 32 * np.eye(32)
        M[0, 3] += 2.0  # break symmetry
        M32 = M.astype(np.float32)
        seen = []

        def apply(q):
            seen.append(q.dtype)
            return (M32 @ q.ravel()).reshape(q.shape)

        b = rng.normal(size=(2, 4, 4)).astype(np.float32)
        cfg = KrylovConfig(rel_tol=1e-4)
        x, it = bicgstab_solve(LinearMap(apply, apply), b, cfg)
        assert x.dtype == np.float32 and it > 0
        assert set(seen) == {np.dtype(np.float32)}
        r = b.ravel().astype(np.float64) - M @ x.ravel().astype(np.float64)
        assert np.linalg.norm(r) <= cfg.rel_tol * np.linalg.norm(b.astype(np.float64))

    def test_breakdown_without_progress_raises(self):
        zero = LinearMap(np.zeros_like, np.zeros_like)  # r0'v = 0 at once
        with pytest.raises(KrylovError, match="gave up") as info:
            bicgstab_solve(zero, RNG.normal(size=(4, 4)), KrylovConfig(rel_tol=1e-12))
        assert (info.value.residual, info.value.iterations) == (1.0, 1)

    @pytest.mark.parametrize("second", ["zero t", "t orthogonal to s"])
    def test_breakdown_at_the_second_product_raises(self, second):
        # The first product, a diagonal scaling, leaves s = r - alpha v =
        # (0.5, -0.5) (the identity would solve the system there).  The
        # second returns t = 0 (t't below tiny) or s rotated pairwise, whose
        # t's = -s1 s0 + s0 s1 is 0 exactly, FMA or not, since the products
        # are exact (omega = 0).
        d = np.array([[1.0, 3.0]])
        calls = []

        def stub(x):
            calls.append(x)
            if len(calls) == 1:
                return d * x
            if second == "zero t":
                return np.zeros_like(x)
            return np.array([[-x[0, 1], x[0, 0]]])
        with pytest.raises(KrylovError, match="gave up") as info:
            bicgstab_solve(LinearMap(stub, stub), np.ones((1, 2)), KrylovConfig(rel_tol=1e-12))
        assert len(calls) == 2
        assert info.value.iterations == 1

    def test_max_iters_error(self):
        d = 1.0 + np.arange(16.0).reshape(4, 4)
        A = LinearMap(lambda u: d * u, lambda u: d * u)
        with pytest.raises(KrylovError):
            bicgstab_solve(A, RNG.normal(size=(4, 4)),
                           KrylovConfig(rel_tol=1e-14, max_iters=1))


class TestOperatorOutputAliasing:
    @pytest.mark.parametrize("solve", [cg_solve, bicgstab_solve])
    @pytest.mark.parametrize("shape", [(5, 5), (2, 4, 3)])
    def test_operator_returning_its_argument(self, solve, shape):
        b = RNG.normal(size=shape)
        b_before = b.copy()
        x, it = solve(ALIASING_IDENTITY, b, KrylovConfig(rel_tol=1e-12))
        assert it == 1
        assert np.array_equal(x, b)
        assert np.array_equal(b, b_before)
        assert x is not b


class TestDispatchAndAdjointInvariants:
    def test_all_shipped_maps_pass_adjoint_probes(self):
        maps = [
            (IDENTITY, (5, 5)),
            (blur_map(motion_kernel(7)), (9, 9)),
            (blur_map(gaussian_row(2, 1.5)), (8, 6)),
            (h_map(0.0, None), (4, 4)),
            (h_map(1e-6, blur_map(motion_kernel(5))), (7, 7)),
        ]
        for A, shape in maps:
            adjoint_probe(A, shape)
            if A.self_adjoint:
                u = RNG.normal(size=shape)
                assert np.allclose(A.apply(u), A.apply_adjoint(u), atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KrylovConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            KrylovConfig(max_iters=0)
