"""Residual suite and PSNR against duplicate-formula oracles and a converged
saddle point."""

import numpy as np
import pytest

from tvalm.alm import AlmConfig, alm_run
from tvalm.grid import ANISO, ISO, div, grad, norm_x, pointwise_mag
from tvalm.linops import DataTerm, blur_map, h_map, motion_kernel
from tvalm.metrics import (_pd_gap, _res1, _res2, _res_lambda, err_total, lambda_feasible,
                           make_record, psnr, res_u)
from tvalm.prox import project_ball
from tvalm.ssn import InnerResult

RNG = np.random.default_rng(2718)
IDENTITY = h_map(0.0, None)


# The residual suite at an image u, as make_record evaluates it from grad u.
def res_lambda(u, lam, alpha, c0, variant):
    return _res_lambda(grad(u), lam, alpha, c0, variant)


def res1(u, lam, alpha, variant):
    return _res1(grad(u), lam, alpha, variant)


def res2(u, lam, alpha, variant=ISO):
    return _res2(grad(u), lam, alpha, variant)


def pd_gap(u, lam, f, alpha, variant=ISO):
    return _pd_gap(u, grad(u), lam, f, alpha, variant, lambda_feasible(lam, alpha, variant))


@pytest.fixture(scope="module")
def saddle():
    """A tightly converged 6x6 iso denoise solution (u, lam, f)."""
    z = np.clip(0.5 + 0.1 * np.random.default_rng(4).normal(size=(6, 6)), 0, 1)
    cfg = AlmConfig(alpha=0.1, variant=ISO, inner="pdp", outer_tol=1e-11,
                    delta_inner=1e-4, sigma_max=16384.0, max_outer=60)
    state, _ = alm_run(z, None, cfg)
    return state.u, state.lam, z


class TestResU:
    def test_zero_at_stationary_pair(self, saddle):
        u, lam, f = saddle
        assert res_u(u, lam, f, IDENTITY) <= 1e-9

    def test_rof_specialization(self):
        u = RNG.normal(size=(4, 4))
        f = RNG.normal(size=(4, 4))
        assert res_u(u, np.zeros((2, 4, 4)), f, IDENTITY) == pytest.approx(
            norm_x(u - f), rel=1e-14)

    def test_duplicate_formula(self):
        u = RNG.normal(size=(3, 3))
        lam = RNG.normal(size=(2, 3, 3))
        f = RNG.normal(size=(3, 3))
        # independent re-evaluation: H = I, grad^* = -div written out
        want = np.sqrt(np.sum((u - f - div(lam)) ** 2))
        assert res_u(u, lam, f, IDENTITY) == pytest.approx(want, abs=1e-14)


class TestResLambda:
    def test_zero_at_saddle_for_any_c0(self, saddle):
        u, lam, f = saddle
        for c0 in (0.5, 1.0, 3.0):
            assert res_lambda(u, lam, 0.1, c0, ISO) <= 1e-9

    def test_constant_u_feasible_lambda(self):
        u = np.full((4, 4), 0.3)
        lam = project_ball(RNG.normal(size=(2, 4, 4)), 0.2, ISO)
        assert res_lambda(u, lam, 0.2, 1.0, ISO) <= 1e-14

    def test_duplicate_formula(self):
        u = RNG.normal(size=(3, 3))
        lam = RNG.normal(size=(2, 3, 3))
        alpha, c0 = 0.3, 1.0
        probe = lam + c0 * grad(u)
        mag = pointwise_mag(probe)
        proj = probe / np.maximum(1.0, mag / alpha)
        want = np.sqrt(np.sum((lam - proj) ** 2))
        assert res_lambda(u, lam, alpha, c0, ISO) == pytest.approx(want, abs=1e-14)

    def test_c0_must_be_positive(self):
        with pytest.raises(ValueError):
            res_lambda(np.ones((2, 2)), np.zeros((2, 2, 2)), 0.1, 0.0, ISO)


class TestErrTotal:
    def test_zero_at_saddle(self, saddle):
        u, lam, f = saddle
        assert err_total(u, lam, f, IDENTITY, 0.1, 1.0, ISO) <= 1e-9

    def test_scaled_sum_arithmetic(self):
        u = RNG.normal(size=(4, 4))
        lam = RNG.normal(size=(2, 4, 4))
        f = RNG.normal(size=(4, 4))
        total = err_total(u, lam, f, IDENTITY, 0.2, 1.0, ANISO)
        parts = (res_u(u, lam, f, IDENTITY)
                 + res_lambda(u, lam, 0.2, 1.0, ANISO)) / norm_x(f)
        assert total == pytest.approx(parts, rel=1e-14)

    def test_zero_f_rejected(self):
        with pytest.raises(ValueError):
            err_total(np.ones((2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2)),
                      IDENTITY, 0.1, 1.0, ISO)

    def test_scale_consistency(self):
        # Scaling (u, lam, f) and alpha jointly by s leaves Err unchanged.
        u = RNG.normal(size=(5, 5))
        lam = RNG.normal(size=(2, 5, 5))
        f = RNG.normal(size=(5, 5))
        alpha, s = 0.15, 7.5
        base = err_total(u, lam, f, IDENTITY, alpha, 1.0, ISO)
        scaled = err_total(s * u, s * lam, s * f, IDENTITY, s * alpha, 1.0, ISO)
        assert scaled == pytest.approx(base, rel=1e-10)


class TestRes1Res2:
    def test_zero_at_saddle(self, saddle):
        u, lam, f = saddle
        assert res1(u, lam, 0.1, ISO) <= 1e-9
        assert res2(u, lam, 0.1, ISO) <= 1e-9

    def test_res1_with_zero_lambda(self):
        u = RNG.normal(size=(4, 4))
        alpha = 0.3
        want = np.sqrt(np.sum((alpha * pointwise_mag(grad(u))) ** 2))
        assert res1(u, np.zeros((2, 4, 4)), alpha, ISO) == pytest.approx(
            want, abs=1e-14)

    def test_res1_duplicate_formula_aniso(self):
        u = RNG.normal(size=(3, 3))
        lam = RNG.normal(size=(2, 3, 3))
        alpha = 0.2
        g = grad(u)
        per_pixel = alpha * (np.abs(g[0]) + np.abs(g[1])) - (
            lam[0] * g[0] + lam[1] * g[1])
        want = np.sqrt(np.sum(per_pixel ** 2))
        assert res1(u, lam, alpha, ANISO) == pytest.approx(want, abs=1e-14)

    def test_res2_zero_gradient(self):
        u = np.full((4, 4), 0.9)
        lam = RNG.normal(size=(2, 4, 4))
        assert res2(u, lam, 0.1, ISO) == 0.0

    def test_res2_duplicate_formula(self):
        u = RNG.normal(size=(3, 3))
        lam = RNG.normal(size=(2, 3, 3))
        alpha = 0.4
        g = grad(u)
        want = np.sqrt(np.sum((alpha * g - pointwise_mag(g) * lam) ** 2))
        assert res2(u, lam, alpha, ISO) == pytest.approx(want, abs=1e-14)


class TestGap:
    def test_u_equals_f_zero_lambda(self):
        f = RNG.uniform(size=(5, 5))
        alpha = 0.2
        from tvalm.grid import tv_norm
        want = alpha * tv_norm(grad(f), ISO) / f.size
        assert pd_gap(f, np.zeros((2, 5, 5)), f, alpha, ISO) == pytest.approx(
            want, rel=1e-12)

    def test_nonnegative_for_feasible(self):
        f = RNG.uniform(size=(5, 5))
        for _ in range(15):
            u = RNG.normal(size=(5, 5))
            lam = project_ball(RNG.normal(size=(2, 5, 5)), 0.3, ISO)
            assert pd_gap(u, lam, f, 0.3, ISO) >= -1e-12

    def test_infeasible_reports_inf(self):
        lam = np.full((2, 3, 3), 5.0)
        assert pd_gap(np.ones((3, 3)), lam, np.ones((3, 3)), 0.1, ISO) == float("inf")
        assert not lambda_feasible(lam, 0.1, ISO)

    def test_tiny_at_saddle(self, saddle):
        u, lam, f = saddle
        assert pd_gap(u, lam, f, 0.1, ISO) <= 1e-10

    def test_feasibility_slack_absorbs_rounding(self):
        lam = project_ball(RNG.normal(size=(2, 4, 4)), 0.25, ANISO)
        assert lambda_feasible(lam, 0.25, ANISO)


class TestPsnr:
    def test_identical_images_inf(self):
        u = RNG.uniform(size=(4, 4))
        assert psnr(u, u) == float("inf")

    def test_uniform_offset_20db(self):
        u = RNG.uniform(0.2, 0.8, size=(8, 8))
        assert psnr(u + 0.1, u) == pytest.approx(20.0, abs=1e-9)

    def test_zero_vs_one_0db(self):
        assert psnr(np.zeros((4, 4)), np.ones((4, 4))) == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.ones((2, 2)), np.ones((3, 3)))


class TestMakeRecord:
    def test_record_fields_finite_and_capped(self):
        u = RNG.uniform(size=(4, 4))
        lam = project_ball(RNG.normal(size=(2, 4, 4)), 0.1, ISO)
        inner = InnerResult(state=None, lam=lam, residuals=[], newton_steps=4,
                            krylov_iters=30, backtracks=2, tight_resolves=1,
                            f32_solves=3, f32_corrections=1, sigma=64.0, threshold=1e-4 / 64.0)
        rec = make_record(3, u, lam, DataTerm(u), 0.1, ISO, u, 12.5, inner)
        assert rec.psnr == 99.0  # identical reference, display capped
        assert rec.lambda_feasible
        for field in ("res_u", "res_lambda", "err", "res1", "res2", "gap"):
            assert np.isfinite(getattr(rec, field))
        assert rec.k == 3 and rec.inner_newton == 4 and rec.avg_krylov == 7.5
        assert rec.backtracks == 2 and rec.tight_resolves == 1 and rec.sigma == 64.0
        assert rec.f32_solves == 3 and rec.f32_corrections == 1
        assert rec.inner_threshold == 1e-4 / 64.0

    @pytest.mark.parametrize("K, mu", [(None, 1e-3), (blur_map(motion_kernel(3)), 1e-6)])
    def test_gap_is_nan_unless_denoising(self, K, mu):
        # pd_gap is the denoising (ROF) gap; it means nothing for other data.
        u = RNG.uniform(size=(4, 4))
        lam = project_ball(RNG.normal(size=(2, 4, 4)), 0.1, ISO)
        rec = make_record(1, u, lam, DataTerm(u, K, mu), 0.1, ISO, u, 1.0)
        assert np.isnan(rec.gap)
        assert np.isfinite(rec.err) and rec.lambda_feasible
