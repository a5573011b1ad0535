"""Accelerated primal-dual baseline: step invariant, agreement, determinism."""

import numpy as np
import pytest

from tvalm.alg2 import alg2_run
from tvalm.alm import AlmConfig, alm_run
from tvalm.degrade import DegradeSpec, degrade
from tvalm.errors import MaxOuterError
from tvalm.grid import ANISO, ISO
from tvalm.linops import (LinearMap, blur_adjoint, blur_apply, blur_map, gaussian_kernel,
                          motion_kernel)


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

    def test_gap_improves_from_first_record(self):
        z = noisy_flat(8)
        _, report = alg2_run(z, None, 0.1, 0.0, ISO, 1e-8, 10 ** 6, check_every=5)
        assert report.records[-1].gap < report.records[0].gap

    def test_budget_exhaustion_carries_state(self):
        z = noisy_flat(8, noise=0.1, seed=0)
        with pytest.raises(MaxOuterError) as err:
            alg2_run(z, None, 0.1, 0.0, ISO, 1e-14, 200, check_every=20)
        assert err.value.state is not None

    def test_deblur_requires_positive_mu(self):
        z = noisy_flat(8)
        with pytest.raises(ValueError):
            alg2_run(z, blur_map(motion_kernel(3)), 0.1, 0.0, ISO, 1e-6, 100)

    def test_iteration_count_order_of_magnitude(self):
        # Counts to Err 1e-4 on a 64x64 aniso instance land in the hundreds
        # to low thousands; exact values depend on the noise realization.
        from tvalm.degrade import blocks_image
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


def blurred_square(kernel):
    clean = np.full((8, 8), 0.4)
    clean[2:6, 2:6] = 0.8
    return clean, degrade(clean, DegradeSpec(noise_std=0.01, blur=kernel, seed=9))


class TestProxSolve:
    """The prox step (I + tau H)^{-1}: exact for a one-row kernel, CG otherwise."""

    @pytest.mark.parametrize("kernel, exact", [(motion_kernel(3), True),
                                               (gaussian_kernel(1, 0.8), False)])
    def test_avg_krylov_by_structure(self, kernel, exact):
        clean, z = blurred_square(kernel)
        _, report = alg2_run(z, blur_map(kernel), 0.01, 0.05, ISO, 1e-5, 10 ** 5,
                             reference=clean, check_every=10)
        krylov = [r.avg_krylov for r in report.records]
        assert all(k == 0.0 for k in krylov) if exact else all(k > 0.0 for k in krylov)

    def test_exact_prox_follows_the_cg_iterates(self):
        # The same map without its kernel takes the CG path; both runs stop
        # at the iteration cap.
        kernel = motion_kernel(3)
        clean, z = blurred_square(kernel)
        plain = LinearMap(lambda u: blur_apply(u, kernel), lambda y: blur_adjoint(y, kernel))
        finals = []
        for K in (blur_map(kernel), plain):
            with pytest.raises(MaxOuterError) as err:
                alg2_run(z, K, 0.01, 0.05, ISO, 1e-14, 200, check_every=50)
            finals.append(err.value.state)
        assert np.max(np.abs(finals[0].u - finals[1].u)) <= 1e-10
        assert np.max(np.abs(finals[0].lam - finals[1].lam)) <= 1e-10
