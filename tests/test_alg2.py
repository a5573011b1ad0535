"""Accelerated primal-dual baseline: step invariant, residual balancing,
agreement, determinism."""

import numpy as np
import pytest

import tvalm.alg2 as alg2_module
import tvalm.linops as linops
from tvalm.alg2 import DELTA, ETA, alg2_run, balance
from tvalm.alm import AlmConfig, alm_run
from tvalm.degrade import DegradeSpec, blocks_image, degrade
from tvalm.errors import MaxOuterError
from tvalm.grid import ANISO, ISO
from tvalm.linops import KrylovConfig, LinearMap, blur_map, cg_solve, motion_kernel


def noisy_flat(n, noise=0.05, seed=11):
    return degrade(np.full((n, n), 0.5), DegradeSpec(noise_std=noise, seed=seed))


class TestAlg2:
    def test_negligible_regularization(self):
        z = noisy_flat(6)
        state, _ = alg2_run(z, None, 1e-12, 0.0, ISO, 1e-6, 5000)
        assert np.max(np.abs(state.u - z)) <= 1e-5

    def test_agrees_with_alm_pdp(self):
        z = noisy_flat(8)
        a_state, _ = alm_run(z, None, AlmConfig(alpha=0.1, variant=ISO,
                                                inner="pdp", outer_tol=1e-8,
                                                sigma_max=16384.0))
        b_state, _ = alg2_run(z, None, 0.1, 0.0, ISO, 1e-8, 10 ** 6,
                              check_every=50)
        assert np.max(np.abs(a_state.u - b_state.u)) <= 1e-6

    def test_deterministic_bitwise(self):
        z = noisy_flat(8)
        s1, _ = alg2_run(z, None, 0.1, 0.0, ANISO, 1e-7, 10 ** 5, check_every=25)
        s2, _ = alg2_run(z, None, 0.1, 0.0, ANISO, 1e-7, 10 ** 5, check_every=25)
        assert np.array_equal(s1.u, s2.u)
        assert np.array_equal(s1.lam, s2.lam)

    def test_dual_iterates_always_feasible(self):
        z = noisy_flat(8)
        state, report = alg2_run(z, None, 0.1, 0.0, ISO, 1e-7, 10 ** 5,
                                 check_every=10)
        for rec in report.records:
            assert rec.lambda_feasible
            assert np.isfinite(rec.res1)
            assert np.isfinite(rec.gap)

    def test_records_carry_no_newton_counts(self):
        _, report = alg2_run(noisy_flat(8), None, 0.1, 0.0, ISO, 1e-7, 10 ** 5,
                             check_every=10)
        # make_record without a subproblem result: every counter is zero.
        for rec in report.records:
            assert (rec.inner_newton, rec.avg_krylov, rec.backtracks, rec.tight_resolves,
                    rec.f32_solves, rec.f32_corrections) == (0, 0.0, 0, 0, 0, 0)

    def test_records_carry_no_inner_threshold(self):
        # Nor an inner stopping threshold.
        _, report = alg2_run(noisy_flat(8), None, 0.1, 0.0, ISO, 1e-7, 10 ** 5,
                             check_every=10)
        assert all(np.isnan(rec.inner_threshold) for rec in report.records)

    def test_records_carry_no_penalty(self):
        # ALG2 has no ALM subproblem, so its sigma column reads nan.
        _, report = alg2_run(noisy_flat(8), None, 0.1, 0.0, ISO, 1e-7, 10 ** 5,
                             check_every=10)
        assert report.records and all(np.isnan(rec.sigma) for rec in report.records)

    def test_gap_improves_from_first_record(self):
        z = noisy_flat(8)
        _, report = alg2_run(z, None, 0.1, 0.0, ISO, 1e-8, 10 ** 6, check_every=5)
        assert report.records[-1].gap < report.records[0].gap

    def test_budget_exhaustion_carries_state(self):
        z = noisy_flat(8, noise=0.1, seed=0)
        with pytest.raises(MaxOuterError) as err:
            alg2_run(z, None, 0.1, 0.0, ISO, 1e-14, 200, check_every=20)
        assert err.value.state is not None

    def test_deblur_requires_positive_mu(self, monkeypatch):
        z = noisy_flat(8)

        def no_iteration(*args):
            raise AssertionError("ALG2 iterated")
        monkeypatch.setattr(alg2_module, "project_ball", no_iteration)
        with pytest.raises(ValueError, match="mu > 0"):
            alg2_run(z, blur_map(motion_kernel(3)), 0.1, 0.0, ISO, 1e-6, 100)
        with pytest.raises(ValueError, match="mu must be >= 0"):
            alg2_run(z, blur_map(motion_kernel(3)), 0.1, float("nan"), ISO, 1e-6, 100)

    def test_kernel_less_data_operator_rejected(self):
        z = noisy_flat(8)
        identity = LinearMap(lambda u: u.copy(), lambda u: u.copy(), self_adjoint=True)
        with pytest.raises(ValueError, match="blur_map"):
            alg2_run(z, identity, 0.1, 1e-6, ISO, 1e-6, 100)

    def test_iterates_independent_of_check_every(self):
        # The same iteration cap with and without the residual suite in
        # between: the final state is bit-identical.
        clean, z = blurred_square(motion_kernel(3))
        finals = []
        for check_every in (1, 7):
            with pytest.raises(MaxOuterError) as err:
                alg2_run(z, blur_map(motion_kernel(3)), 0.01, 0.05, ISO, 1e-14, 60,
                         reference=clean, check_every=check_every)
            finals.append(err.value.state)
        assert finals[0].k == finals[1].k == 60
        assert np.array_equal(finals[0].u, finals[1].u)
        assert np.array_equal(finals[0].lam, finals[1].lam)

    def test_iteration_count_order_of_magnitude(self):
        # Counts to Err 1e-4 on a 64x64 aniso instance land in the hundreds
        # to low thousands; exact values depend on the noise realization.
        clean = blocks_image(64, 64, seed=3)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        state, _ = alg2_run(z, None, 0.1, 0.0, ANISO, 1e-4, 10 ** 5,
                            check_every=10)
        assert 100 <= state.k <= 20000

    def test_deblur_path_converges(self):
        clean = np.full((8, 8), 0.4)
        clean[2:6, 2:6] = 0.8
        kern = motion_kernel(3)
        z = degrade(clean, DegradeSpec(noise_std=0.01, blur=kern, seed=9))
        state, report = alg2_run(z, blur_map(kern), 0.01, 0.05, ISO, 1e-7,
                                 10 ** 5, reference=clean, check_every=25)
        assert report.summary["converged"]
        # The gap column is the denoising gap, so a deblur leaves it nan.
        assert all(np.isnan(r.gap) for r in report.records)


class TestBalance:
    """The residual-balancing move of tau and sigma, and the iterations it
    saves."""

    def test_primal_residual_ahead_grows_tau(self):
        tau, sigma, a = balance(0.2, 0.5, 0.5, 1.6, 1.0)
        assert (tau, sigma, a) == (0.4, 0.25, 0.5 * ETA)

    def test_dual_residual_ahead_grows_sigma(self):
        tau, sigma, a = balance(0.2, 0.5, 0.5, 1.0, 1.6)
        assert (tau, sigma, a) == (0.1, 1.0, 0.5 * ETA)

    @pytest.mark.parametrize("p", [1.0 / DELTA, 0.9, 1.0, 1.2, DELTA])
    def test_no_move_inside_the_band(self, p):
        assert balance(0.2, 0.5, 0.5, p, 1.0) == (0.2, 0.5, 0.5)

    def test_each_move_shrinks_a(self):
        a = 0.5
        for p, d in [(2.0, 1.0), (1.0, 2.0), (3.0, 1.0)]:
            _, _, a_next = balance(0.2, 0.5, a, p, d)
            assert a_next == ETA * a
            a = a_next

    def test_product_kept(self):
        tau = sigma = 1.0 / np.sqrt(8.0)
        a = 0.5
        rng = np.random.default_rng(0)
        for p, d in rng.uniform(0.0, 2.0, size=(200, 2)):
            tau, sigma, a = balance(tau, sigma, a, p, d)
        assert tau * sigma == pytest.approx(0.125, rel=1e-13)

    def test_deblur_32_iteration_bound(self):
        # The benchmark's deblur-32 instance: 910 iterations with the fixed
        # tau = sigma, 450 balanced.
        clean = blocks_image(32, 32, seed=3)
        kernel = motion_kernel(9)
        z = degrade(clean, DegradeSpec(noise_std=0.01, blur=kernel, seed=21))
        state, _ = alg2_run(z, blur_map(kernel), 0.005, 1e-6, ISO, 1e-5, 600,
                            reference=clean, check_every=10)
        assert state.k <= 600

    def test_iso_denoise_64_iteration_bound(self):
        # 19,900 iterations with the fixed tau = sigma, about 1,500 balanced.
        clean = blocks_image(64, 64, seed=3)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        state, _ = alg2_run(z, None, 0.1, 0.0, ISO, 1e-5, 3000, reference=clean,
                            check_every=10)
        assert state.k <= 3000


def blurred_square(kernel):
    clean = np.full((8, 8), 0.4)
    clean[2:6, 2:6] = 0.8
    return clean, degrade(clean, DegradeSpec(noise_std=0.01, blur=kernel, seed=9))


class TestProxSolve:
    """The prox step (I + tau H)^{-1} is exact: no Krylov solve runs."""

    @pytest.mark.parametrize("kernel", [motion_kernel(3), None])
    def test_no_krylov_solve(self, kernel, monkeypatch):
        # The motion-blur path and the identity with a gradient penalty.
        def no_cg(*args):
            raise AssertionError("CG ran on H")
        monkeypatch.setattr(linops, "cg_solve", no_cg)
        monkeypatch.setattr(alg2_module, "cg_solve", no_cg, raising=False)
        clean, z = blurred_square(kernel)
        K = None if kernel is None else blur_map(kernel)
        _, report = alg2_run(z, K, 0.01, 0.05, ISO, 1e-5, 10 ** 5,
                             reference=clean, check_every=10)
        assert report.summary["converged"]
        assert all(r.avg_krylov == 0.0 for r in report.records)

    def test_exact_prox_follows_the_cg_iterates(self, monkeypatch):
        # Reference: the prox solved by CG on I + tau H to near machine
        # precision.  Both runs stop at the iteration cap.
        kernel = motion_kernel(3)
        clean, z = blurred_square(kernel)
        K = blur_map(kernel)

        class CgProx(linops.DataTerm):
            def solve(self, v, tau):
                A = LinearMap(lambda t: t + tau * self.H.apply(t),
                              lambda t: t + tau * self.H.apply(t), self_adjoint=True)
                return cg_solve(A, v, KrylovConfig(rel_tol=1e-12, max_iters=20000))[0]

        finals = []
        for data_term in (linops.DataTerm, CgProx):
            monkeypatch.setattr(alg2_module, "DataTerm", data_term)
            with pytest.raises(MaxOuterError) as err:
                alg2_run(z, K, 0.01, 0.05, ISO, 1e-14, 200, check_every=50)
            finals.append(err.value.state)
        assert np.max(np.abs(finals[0].u - finals[1].u)) <= 1e-10
        assert np.max(np.abs(finals[0].lam - finals[1].lam)) <= 1e-10
