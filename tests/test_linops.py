"""Linear operators and Krylov solvers against dense oracles."""

import numpy as np
import pytest

from tvalm.errors import KrylovError
from tvalm.grid import ISO, inner_x
from tvalm.linops import (BlurKernel, KrylovConfig, LinearMap, bicgstab_solve,
                          blur_adjoint, blur_apply, blur_map, cg_solve,
                          gaussian_kernel, h_apply, h_map, motion_kernel,
                          newton_forcing_tol)
from tvalm.ssn import make_context

RNG = np.random.default_rng(5150)
IDENTITY = LinearMap(lambda u: u.copy(), lambda u: u.copy(), self_adjoint=True)


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


def random_kernel(shape, seed):
    taps = np.random.default_rng(seed).uniform(size=shape)
    return BlurKernel(taps / taps.sum())


ORACLE_KERNELS = {
    "motion1": motion_kernel(1),
    "motion3": motion_kernel(3),
    "motion9": motion_kernel(9),
    "gauss2": gaussian_kernel(2, 1.0),
    "random3x5": random_kernel((3, 5), 11),
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

    def test_gaussian_kernel_normalized(self):
        k = gaussian_kernel(3, 1.2)
        assert k.taps.shape == (7, 7)
        assert k.taps.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(k.taps >= 0)

    def test_even_support_rejected(self):
        with pytest.raises(ValueError):
            motion_kernel(40)
        with pytest.raises(ValueError):
            BlurKernel(np.full((2, 3), 1.0 / 6))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            BlurKernel(np.ones((3, 3)))


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
        adjoint_probe(blur_map(gaussian_kernel(2, 1.0)), (6, 6))

    def test_adjoint_matches_dense_transpose(self):
        k = gaussian_kernel(1, 0.8)
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

    def test_term_counts(self):
        shape = (9, 9)
        for name in ("motion1", "motion3", "motion9", "gauss2"):
            assert len(ORACLE_KERNELS[name].matrices(shape)) == 1
        assert len(ORACLE_KERNELS["random3x5"].matrices(shape)) == 3

    @pytest.mark.parametrize("name, shape", [("motion9", (4, 9)), ("gauss2", (5, 5)),
                                             ("random3x5", (3, 5))])
    def test_kernel_as_large_as_image(self, name, shape):
        kernel = ORACLE_KERNELS[name]
        u = RNG.normal(size=shape)
        tol = 1e-13 * np.max(np.abs(u))
        assert np.max(np.abs(blur_apply(u, kernel) - tap_loop_apply(u, kernel))) <= tol
        assert np.max(np.abs(blur_adjoint(u, kernel) - tap_loop_adjoint(u, kernel))) <= tol

    @pytest.mark.parametrize("name", ["motion9", "gauss2", "random3x5"])
    def test_adjoint_is_dense_transpose(self, name):
        k = ORACLE_KERNELS[name]
        shape = (7, 9)
        Kd = dense_from_map(blur_map(k), shape)
        for _ in range(3):
            y = RNG.normal(size=shape)
            assert np.allclose(blur_adjoint(y, k).ravel(), Kd.T @ y.ravel(),
                               rtol=0.0, atol=1e-13 * np.max(np.abs(y)))

    def test_one_kernel_at_two_shapes(self):
        k = random_kernel((3, 5), 13)
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


class TestHSolve:
    """H^{-1} actions through AlmContext.solve_h (nested CG on H)."""

    def test_identity_case(self):
        b = RNG.normal(size=(4, 4))
        ctx = make_context(b, np.zeros((2, 4, 4)), 1.0, 1.0, ISO)
        assert np.array_equal(ctx.solve_h(b), b)

    def test_roundtrip_random(self):
        K = blur_map(motion_kernel(5))
        for mu in (1e-6, 1e-9):
            x_true = RNG.normal(size=(8, 8))
            b = h_apply(x_true, mu, K)
            ctx = make_context(b, np.zeros((2, 8, 8)), 1.0, 1.0, ISO, K=K, mu=mu,
                               hinv_tol=1e-12)
            x = ctx.solve_h(b)
            rel = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
            assert rel <= 10 * 1e-4  # conditioning eats a few digits

    def test_zero_rhs(self):
        ctx = make_context(np.ones((3, 3)), np.zeros((2, 3, 3)), 1.0, 1.0, ISO,
                           K=IDENTITY, mu=1e-6)
        assert np.all(ctx.solve_h(np.zeros((3, 3))) == 0.0)


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


class TestBicgstab:
    def test_identity(self):
        b = RNG.normal(size=(4, 4))
        x, _ = bicgstab_solve(IDENTITY, b, KrylovConfig(rel_tol=1e-12))
        assert np.allclose(x, b)

    def test_random_dense_4x4_system(self):
        M = RNG.normal(size=(16, 16))
        M = M @ M.T + 16 * np.eye(16)  # well conditioned
        M[0, 3] += 2.0  # break symmetry
        A = LinearMap(lambda u: (M @ u.ravel()).reshape(4, 4),
                      lambda u: (M.T @ u.ravel()).reshape(4, 4))
        b = RNG.normal(size=(4, 4))
        x, _ = bicgstab_solve(A, b, KrylovConfig(rel_tol=1e-12, max_iters=500))
        assert np.allclose(x.ravel(), np.linalg.solve(M, b.ravel()), atol=1e-8)

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

    def test_max_iters_error(self):
        d = 1.0 + np.arange(16.0).reshape(4, 4)
        A = LinearMap(lambda u: d * u, lambda u: d * u)
        with pytest.raises(KrylovError):
            bicgstab_solve(A, RNG.normal(size=(4, 4)),
                           KrylovConfig(rel_tol=1e-14, max_iters=1))


class TestDispatchAndAdjointInvariants:
    def test_all_shipped_maps_pass_adjoint_probes(self):
        maps = [
            (IDENTITY, (5, 5)),
            (blur_map(motion_kernel(7)), (9, 9)),
            (blur_map(gaussian_kernel(2, 1.5)), (8, 6)),
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
        with pytest.raises(ValueError):
            KrylovConfig(method="gmres")


class TestForcingRule:
    def test_ratio_one(self):
        assert newton_forcing_tol(1.0, 1.0) == pytest.approx(0.1)

    def test_small_ratio_uses_power(self):
        assert newton_forcing_tol(0.01, 1.0) == pytest.approx(1e-4)

    def test_zero_residual_floor(self):
        assert newton_forcing_tol(0.0, 1.0) == 1e-13
        assert newton_forcing_tol(0.0, 0.0) == 1e-13

    def test_floor_clamps(self):
        assert newton_forcing_tol(1e-20, 1.0) == 1e-13
