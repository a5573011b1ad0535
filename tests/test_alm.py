"""Outer ALM loop: schedule, stopping rule, multiplier updates, convergence."""

import time
from dataclasses import replace
from importlib import import_module

import numpy as np
import pytest

from tvalm.alm import AlmConfig, alm_run, sigma_schedule
from tvalm.degrade import DegradeSpec, blocks_image, degrade
from tvalm.errors import (InnerNewtonError, KrylovError, LineSearchError, MaxOuterError,
                          SolverError)
from tvalm.grid import ANISO, ISO, grad, norm_y, pointwise_mag
from tvalm.linops import DataTerm, LinearMap, blur_map, h_map, motion_kernel
from tvalm.metrics import err_total, lambda_feasible
from tvalm.prox import project_ball, soft_threshold
from tvalm.report import strip_timing_columns
from tvalm.ssn import AlmContext, solve_subproblem

RNG = np.random.default_rng(777)


def noisy_flat(n, noise=0.05, seed=11):
    return degrade(np.full((n, n), 0.5), DegradeSpec(noise_std=noise, seed=seed))


class TestSchedule:
    def test_exact_formula(self):
        for k in range(8):
            assert sigma_schedule(4.0, 4.0, 1e6, k) == min(4.0 * 4.0 ** k, 1e6)

    def test_nondecreasing_and_capped(self):
        vals = [sigma_schedule(4.0, 4.0, 1e4, k) for k in range(12)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1e4


class TestDefaultGrowth:
    """growth_c = None takes the inner method's factor when the run starts:
    4 for the primal-dual methods, 2 for PT."""

    @staticmethod
    def instance(n):
        clean = blocks_image(n, n, seed=3)
        return clean, degrade(clean, DegradeSpec(noise_std=0.1, seed=7))

    @pytest.mark.parametrize("inner", ["pdp", "pdd"])
    def test_primal_dual_runs_are_those_at_growth_4(self, inner):
        clean, z = self.instance(32)
        cfg = AlmConfig(alpha=0.1, variant=ANISO, inner=inner, outer_tol=1e-6)
        _, default = alm_run(z, None, cfg, reference=clean)
        _, pinned = alm_run(z, None, replace(cfg, growth_c=4.0), reference=clean)
        assert default.config == pinned.config
        assert (strip_timing_columns(default.to_csv())
                == strip_timing_columns(pinned.to_csv()))

    @pytest.mark.parametrize("inner, growth_c, growth", [
        ("pdp", None, 4.0), ("pdd", None, 4.0), ("pt", None, 2.0), ("pt", 3.0, 3.0)])
    def test_records_carry_the_penalty(self, inner, growth_c, growth):
        cfg = AlmConfig(alpha=0.1, variant=ANISO, inner=inner, growth_c=growth_c)
        _, report = alm_run(self.instance(16)[1], None, cfg)
        assert report.config["growth_c"] == growth
        assert [rec.sigma for rec in report.records] == [
            sigma_schedule(cfg.sigma0, growth, cfg.sigma_max, k)
            for k in range(len(report.records))]

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_pt_outer_iteration_economy(self, variant):
        # Acceptance criterion 6's bound for ALM-PT, 12 outer iterations,
        # holds at PT's default growth on that criterion's instance.
        clean, z = self.instance(64)
        cfg = AlmConfig(alpha=0.1, variant=variant, inner="pt", outer_tol=1e-6)
        state, report = alm_run(z, None, cfg, reference=clean)
        assert report.config["growth_c"] == 2.0
        assert state.k <= 12 and report.records[-1].err <= 1e-6


class TestConfigValidation:
    def test_rejects_bad_growth(self):
        with pytest.raises(ValueError):
            AlmConfig(alpha=0.1, growth_c=1.0)

    def test_rejects_bad_inner(self):
        with pytest.raises(ValueError):
            AlmConfig(alpha=0.1, inner="sgd")

    def test_rejects_sigma_max_below_sigma0(self):
        with pytest.raises(ValueError):
            AlmConfig(alpha=0.1, sigma0=8.0, sigma_max=4.0)


class TestAlmRun:
    def test_negligible_regularization_returns_data(self):
        z = noisy_flat(6)
        cfg = AlmConfig(alpha=1e-12, variant=ISO, inner="pdp", outer_tol=1e-6)
        state, report = alm_run(z, None, cfg)
        assert state.k == 1
        assert np.max(np.abs(state.u - z)) <= 1e-6

    def test_huge_alpha_flattens_to_mean(self):
        z = noisy_flat(16, noise=0.1, seed=5)
        cfg = AlmConfig(alpha=1e3, variant=ISO, inner="pdp", outer_tol=1e-8,
                        sigma_max=16384.0)
        state, _ = alm_run(z, None, cfg)
        assert np.max(np.abs(state.u - z.mean())) <= 1e-4

    def test_matches_long_alg2_reference(self):
        from tvalm.alg2 import alg2_run
        z = noisy_flat(8)
        cfg = AlmConfig(alpha=0.1, variant=ISO, inner="pdp", outer_tol=1e-9,
                        sigma_max=16384.0)
        state, _ = alm_run(z, None, cfg)
        ref, _ = alg2_run(z, None, 0.1, 0.0, ISO, 1e-10, 10 ** 6, check_every=100)
        assert np.max(np.abs(state.u - ref.u)) <= 1e-6

    def test_multiplier_feasible_on_projection_path(self):
        z = degrade(blocks_image(12, 12, seed=1), DegradeSpec(noise_std=0.1, seed=2))
        for variant in (ISO, ANISO):
            cfg = AlmConfig(alpha=0.1, variant=variant, inner="pdp", outer_tol=1e-6)
            state, _ = alm_run(z, None, cfg)
            if variant == ISO:
                assert np.all(pointwise_mag(state.lam) <= 0.1 + 1e-14)
            else:
                assert np.all(np.abs(state.lam) <= 0.1 + 1e-14)

    def test_terminates_below_tolerance(self):
        z = noisy_flat(8)
        cfg = AlmConfig(alpha=0.1, variant=ANISO, inner="pt", outer_tol=1e-7,
                        sigma_max=16384.0)
        state, report = alm_run(z, None, cfg)
        assert report.records[-1].err <= 1e-7
        assert report.summary["converged"]

    def test_max_outer_exhaustion_carries_state(self):
        z = noisy_flat(8)
        cfg = AlmConfig(alpha=0.1, variant=ISO, inner="pdp", outer_tol=1e-12,
                        max_outer=2)
        with pytest.raises(MaxOuterError) as err:
            alm_run(z, None, cfg)
        assert err.value.state is not None
        assert err.value.err > 0
        assert not err.value.report.summary["converged"]

    def test_pt_linear_update_equals_projection_update(self):
        # Moreau identity: lam + sigma(grad u - p) == P_alpha(lam + sigma grad u).
        z = noisy_flat(8)
        lam = np.zeros((2, 8, 8))
        sigma, alpha = 4.0, 0.1
        ctx = AlmContext(lam, sigma, alpha, ISO, DataTerm(z))
        res = solve_subproblem(z, np.zeros((2, 8, 8)), ctx, "pt", 1e-10)
        u = res.state.u
        p = soft_threshold(lam / sigma + grad(u), alpha / sigma, ISO)
        linear = lam + sigma * (grad(u) - p)
        projected = project_ball(lam + sigma * grad(u), alpha, ISO)
        assert np.max(np.abs(linear - projected)) <= 1e-12

    def test_per_iteration_records_complete(self):
        z = noisy_flat(8)
        cfg = AlmConfig(alpha=0.1, variant=ANISO, inner="pdd", outer_tol=1e-7,
                        sigma_max=16384.0)
        state, report = alm_run(z, None, cfg)
        assert [rec.k for rec in report.records] == list(range(1, state.k + 1))
        for rec in report.records:
            assert rec.inner_newton >= 0 and rec.avg_krylov >= 0.0
            assert rec.wall_ms >= 0.0
        assert sum(rec.inner_newton for rec in report.records) > 0

    @pytest.mark.parametrize("inner, variant", [
        pytest.param("pdp", ANISO, id="pdp"), pytest.param("pdd", ANISO, id="pdd"),
        pytest.param("pt", ANISO, id="pt"), pytest.param("pdd", ISO, id="pdd-iso")])
    def test_records_carry_the_subproblem_counts(self, inner, variant, monkeypatch):
        # Each record holds its subproblem's Newton steps, backtracks, tight
        # re-solves and float32 solves and corrections.  Only the steps
        # without a line search (PDP, iso PDD, an aniso PDD direction that
        # does not descend) re-solve, and PDP and iso PDD never backtrack;
        # aniso PDD backtracks here and all its directions descend (PT takes
        # the full step), and all solve in float32 when denoising.
        import tvalm.alm as alm
        real = alm.solve_subproblem
        results = []

        def recorded(*args):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(alm, "solve_subproblem", recorded)
        clean = blocks_image(16, 16, seed=3)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        _, report = alm_run(z, None, AlmConfig(alpha=0.1, variant=variant, inner=inner))
        for rec, res in zip(report.records, results, strict=True):
            assert (rec.inner_newton, rec.backtracks, rec.tight_resolves, rec.f32_solves,
                    rec.f32_corrections) == (res.newton_steps, res.backtracks,
                                             res.tight_resolves, res.f32_solves,
                                             res.f32_corrections)
        tight = sum(rec.tight_resolves for rec in report.records)
        backtracks = sum(rec.backtracks for rec in report.records)
        if inner == "pt":
            assert tight == 0
        elif inner == "pdd" and variant == ANISO:
            assert tight == 0 and backtracks > 0
        else:
            assert tight > 0 and backtracks == 0
        assert sum(rec.f32_solves for rec in report.records) > 0

    @pytest.mark.parametrize("inner", ["pdp", "pdd", "pt"])
    def test_records_carry_the_inner_threshold(self, inner, monkeypatch):
        # Each record holds the threshold its subproblem's residual was
        # brought below: delta / sigma, above the evaluation noise here.
        import tvalm.alm as alm
        real = alm.solve_subproblem
        results = []

        def recorded(*args):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(alm, "solve_subproblem", recorded)
        clean = blocks_image(16, 16, seed=3)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        cfg = AlmConfig(alpha=0.1, variant=ANISO, inner=inner)
        _, report = alm_run(z, None, cfg)
        for rec, res in zip(report.records, results, strict=True):
            assert rec.inner_threshold == res.threshold == cfg.delta_inner / rec.sigma
            assert res.residuals[-1] <= res.threshold

    def test_subproblems_get_the_outer_test_s_need(self, monkeypatch):
        # The inner residual the Err test can accept: a tenth of
        # outer_tol ||f||, the same for every subproblem of a run.
        import tvalm.alm as alm
        real = alm.solve_subproblem
        needs = []

        def recorded(u0, h0, ctx, method, delta):
            needs.append(ctx.need)
            return real(u0, h0, ctx, method, delta)

        monkeypatch.setattr(alm, "solve_subproblem", recorded)
        z = noisy_flat(8)
        cfg = AlmConfig(alpha=0.1, variant=ISO, inner="pt", outer_tol=1e-5)
        alm_run(z, None, cfg)
        assert len(needs) > 1
        assert needs == [0.1 * 1e-5 * np.linalg.norm(z)] * len(needs)


class TestFailureLocation:
    """A subproblem failure names the outer iteration and the sigma it
    happened at."""

    @pytest.mark.parametrize("cap, error", [("MAX_NEWTON_STEPS", InnerNewtonError),
                                            ("KRYLOV_MAX_ITERS", KrylovError)])
    def test_first_subproblem(self, cap, error, monkeypatch):
        import tvalm.ssn as ssn
        monkeypatch.setattr(ssn, cap, 1)
        cfg = AlmConfig(alpha=0.1, variant=ISO, inner="pdp")
        with pytest.raises(error) as info:
            alm_run(noisy_flat(8), None, cfg)
        assert (info.value.outer, info.value.sigma) == (1, 4.0)
        # The report of the outer iterations completed before: none.
        assert info.value.report.records == []
        assert not info.value.report.summary["converged"]

    def test_later_subproblem(self, monkeypatch):
        import tvalm.alm as alm
        real = alm.solve_subproblem
        calls = []

        def fail_second(u0, h0, ctx, method, delta):
            calls.append(ctx.sigma)
            if len(calls) == 2:
                raise LineSearchError("stub", phi0=1.0, phi_last=2.0, eta=0.5)
            return real(u0, h0, ctx, method, delta)

        cfg = AlmConfig(alpha=0.1, variant=ISO, inner="pt", outer_tol=1e-12, growth_c=4.0)
        with pytest.raises(MaxOuterError) as plain:
            alm_run(noisy_flat(8), None, replace(cfg, max_outer=1))
        monkeypatch.setattr(alm, "solve_subproblem", fail_second)
        with pytest.raises(LineSearchError) as info:
            alm_run(noisy_flat(8), None, cfg)
        assert (info.value.outer, info.value.sigma) == (2, 16.0) == (2, calls[1])
        # The completed first outer iteration's record survives the failure,
        # as an unpatched run records it, timing aside.
        (rec,) = info.value.report.records
        (want,) = plain.value.report.records
        assert rec.k == 1
        assert replace(rec, wall_ms=0.0) == replace(want, wall_ms=0.0)
        assert not info.value.report.summary["converged"]


class TestLocalLinearRate:
    def test_multiplier_distance_contracts(self):
        # Witness of the local linear rate: ||lam_k - lam*|| shrinks by at
        # least half per outer iteration near the end of a 32x32 aniso run.
        z = degrade(blocks_image(32, 32, seed=6), DegradeSpec(noise_std=0.1, seed=8))
        alpha = 0.1
        ref_cfg = AlmConfig(alpha=alpha, variant=ANISO, inner="pdp",
                            outer_tol=1e-10, sigma_max=65536.0, max_outer=40)
        ref_state, _ = alm_run(z, None, ref_cfg)
        lam_star = ref_state.lam

        # replay the outer loop manually to record the multiplier path
        lam = np.zeros_like(lam_star)
        h = np.zeros_like(lam_star)
        u = z.copy()
        sigma = 4.0
        dists = []
        for _ in range(7):
            ctx = AlmContext(lam, sigma, alpha, ANISO, DataTerm(z))
            res = solve_subproblem(u, h, ctx, "pdp", 1e-4)
            u, h = res.state.u, res.state.h
            lam = project_ball(lam + sigma * grad(u), alpha, ANISO)
            sigma = min(4.0 * sigma, 65536.0)
            dists.append(norm_y(lam - lam_star))
        tail = dists[-3:]
        assert tail[1] <= 0.5 * tail[0] + 1e-12
        assert tail[2] <= 0.5 * tail[1] + 1e-12


class TestExactInverseBuild:
    """H's eigenbases are built once per run, and only by a solver that
    reads them."""

    @pytest.mark.parametrize("inner, builds", [("pdp", 0), ("pt", 0), ("pdd", 1)])
    def test_built_only_for_nested_solves(self, inner, builds, monkeypatch):
        # Each build takes two eigendecompositions, one per axis.
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real(a))
        kernel = motion_kernel(3)
        z = degrade(blocks_image(8, 8, seed=3),
                    DegradeSpec(noise_std=0.01, blur=kernel, seed=21))
        cfg = AlmConfig(alpha=0.005, variant=ISO, mu=1e-6, inner=inner, outer_tol=1e-3,
                        max_outer=3)
        try:
            alm_run(z, blur_map(kernel), cfg)
        except SolverError:
            pass
        assert len(calls) == 2 * builds


class TestPddDeblur:
    """ALM-PDD on a motion-blur deblur converges or fails with a typed error,
    within seconds.  With a nested CG for each H^{-1}, the 16x16 solve ran
    for over five minutes; with the exact inverse its dual BiCGSTAB stalls
    and raises KrylovError."""

    @pytest.mark.parametrize("n, length", [
        (8, 3), pytest.param(16, 9, marks=pytest.mark.slow)])
    def test_converges_or_raises(self, n, length):
        clean = blocks_image(n, n, seed=3)
        kernel = motion_kernel(length)
        z = degrade(clean, DegradeSpec(noise_std=0.01, blur=kernel, seed=21))
        cfg = AlmConfig(alpha=0.005, variant=ISO, mu=1e-6, inner="pdd", outer_tol=1e-5)
        t0 = time.perf_counter()
        try:
            state, report = alm_run(z, blur_map(kernel), cfg, reference=clean)
        except SolverError:
            pass
        else:
            assert report.summary["converged"]
            assert report.records[-1].err <= cfg.outer_tol
        assert time.perf_counter() - t0 < 120.0


class TestPddIsoDenoise:
    """Iso ALM-PDD denoising at 32x32 converges in 7 outer iterations, tight
    re-solves included, and every BiCGSTAB solve of the run meets its
    tolerance.  The give-up exit that the method's name refers to is covered
    by ``TestPddGiveUp``."""

    def test_converges_through_a_stalled_tight_solve(self):
        clean = blocks_image(32, 32, seed=3)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        cfg = AlmConfig(alpha=0.1, variant=ISO, inner="pdd", outer_tol=1e-6)
        state, report = alm_run(z, None, cfg, reference=clean)
        assert report.summary["converged"]
        assert state.k == 7
        assert report.summary["psnr"] == pytest.approx(26.513614, abs=1e-4)


class TestPddGiveUp:
    """BiCGSTAB's give-up acceptance at the ALM level.  At Err 1e-7 the 24x24
    iso PDD denoise stalls in a dual solve of outer iteration 8, well below
    the 0.3 acceptance gate but above the tolerance it asked for.  The run
    converges through that exit, and a solver that raised on every stall
    fails it there."""

    @staticmethod
    def run():
        clean = blocks_image(24, 24, seed=3)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        cfg = AlmConfig(alpha=0.1, variant=ISO, inner="pdd", outer_tol=1e-7)
        return alm_run(z, None, cfg, reference=clean)

    def test_converges_through_the_give_up_exit(self):
        state, report = self.run()
        assert report.summary["converged"] and state.k == 8
        assert report.summary["psnr"] == pytest.approx(24.317801, abs=1e-5)

    def test_raises_there_without_the_acceptance(self, monkeypatch):
        monkeypatch.setattr(import_module("tvalm.linops"), "STALL_ACCEPT", 0.0)
        with pytest.raises(KrylovError, match="gave up") as info:
            self.run()
        assert info.value.outer == 8


class TestDenoise128:
    """Regression at the CLI's default denoise size: the 128x128 criterion-6
    scene (noise 0.1, seed 7, alpha 0.1) converges to Err 1e-6 with aniso
    PDD, whose steps are globalized by PT's Armijo search, and with iso PDP,
    whose tight re-solves ask for a hundredth of the forcing tolerance.
    Aniso PDD takes 64 Newton steps and 3,836 BiCGSTAB iterations, with 41
    backtracks and one tight re-solve, of its one direction that did not
    descend; in the tight mode alone it took 56 steps and 5,710 iterations
    (4 re-solves)."""

    @pytest.mark.slow
    @pytest.mark.parametrize("variant, inner, psnr", [
        (ANISO, "pdd", 35.583539), (ISO, "pdp", 34.083295)])
    def test_converges(self, variant, inner, psnr):
        clean = blocks_image(128, 128, seed=3)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        cfg = AlmConfig(alpha=0.1, variant=variant, inner=inner, outer_tol=1e-6)
        state, report = alm_run(z, None, cfg, reference=clean)
        assert report.summary["converged"]
        assert report.records[-1].err <= cfg.outer_tol
        tight = sum(rec.tight_resolves for rec in report.records)
        backtracks = sum(rec.backtracks for rec in report.records)
        if inner == "pdd":
            assert tight == 1 and backtracks > 0
        else:
            assert tight > 0
        assert sum(rec.f32_solves for rec in report.records) > 0
        assert report.summary["psnr"] == pytest.approx(psnr, abs=1e-5)

    @pytest.mark.slow
    @pytest.mark.parametrize("draw", [9, 10, 11, 12])
    def test_pdd_noise_draws(self, draw):
        """Aniso PDD on other noise draws of the same scene, at the 50-step
        Newton cap: all four converge.  The tight mode alone converged on
        draws 9 and 10 and raised InnerNewtonError on 11 and 12 (outer 4,
        sigma 256); the search without the tight mode for directions that
        do not descend converged on 9, 11 and 12 and raised at the cap on 10
        (outer 6, sigma 4096, residual 20.4 after 50 steps)."""
        clean = blocks_image(128, 128, seed=3)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=draw))
        cfg = AlmConfig(alpha=0.1, variant=ANISO, inner="pdd", outer_tol=1e-6)
        state, report = alm_run(z, None, cfg, reference=clean)
        assert report.summary["converged"]
        assert lambda_feasible(state.lam, cfg.alpha, ANISO)
        err = err_total(state.u, state.lam, z, h_map(0.0, None), cfg.alpha, 1.0, ANISO)
        assert err <= cfg.outer_tol

    @pytest.mark.slow
    def test_pt_converges_at_its_default_schedule(self):
        # Growth x2 (PT's default) takes about half the Krylov iterations of
        # x4.  Stepping along the carried dual takes 77 Newton steps and
        # 5,154 Krylov iterations (5,152 with float64 directions); the
        # generalized derivative at the projected dual took 149 and 7,727.
        clean = blocks_image(128, 128, seed=3)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        cfg = AlmConfig(alpha=0.1, variant=ANISO, inner="pt", outer_tol=1e-6)
        state, report = alm_run(z, None, cfg, reference=clean)
        assert report.summary["converged"] and report.config["growth_c"] == 2.0
        assert report.records[-1].err <= cfg.outer_tol
        krylov = sum(r.inner_newton * r.avg_krylov for r in report.records)
        assert krylov <= 6000
        assert sum(r.inner_newton for r in report.records) <= 100
        assert report.summary["psnr"] == pytest.approx(35.583538, abs=1e-5)


class TestAnisoPddSearch:
    """Aniso ALM-PDD denoising steps are Armijo-searched.  A direction that
    does not descend is not; it is kept while the residual stays below the
    subproblem's first, and past that the tight mode redoes it, as for PDP.
    PDD with mu > 0 takes the full step throughout."""

    @staticmethod
    def denoise(n, monkeypatch, mu=0.0):
        """The solve of the n x n criterion-6 denoise, checked, with each
        subproblem's steps: (state, request, searched, new residual)."""
        import tvalm.alm as alm
        import tvalm.ssn as ssn
        real_sub, real_step, subproblems = alm.solve_subproblem, ssn.ssnpdd_step, []

        def subproblem(*args):
            subproblems.append([])
            return real_sub(*args)

        def step(state, ctx, kcfg):
            cand, kit = real_step(state, ctx, kcfg)
            subproblems[-1].append((state, kcfg.rel_tol, cand.searched, cand.inner_residual))
            return cand, kit

        monkeypatch.setattr(alm, "solve_subproblem", subproblem)
        monkeypatch.setattr(ssn, "ssnpdd_step", step)
        clean = blocks_image(n, n, seed=3)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        cfg = AlmConfig(alpha=0.1, variant=ANISO, inner="pdd", mu=mu, outer_tol=1e-6)
        state, report = alm_run(z, None, cfg, reference=clean)
        assert report.summary["converged"]
        assert lambda_feasible(state.lam, cfg.alpha, ANISO)
        err = err_total(state.u, state.lam, z, h_map(mu, None), cfg.alpha, 1.0, ANISO)
        assert err <= cfg.outer_tol
        return report, subproblems

    @staticmethod
    def redone(steps):
        """The steps redone from the same iterate, and whether each was a
        direction that did not descend and raised the residual past the
        subproblem's first."""
        if not steps:
            return []
        res0 = steps[0][0].inner_residual
        return [(not a[2] and a[3] > res0 and b[1] < a[1])
                for a, b in zip(steps, steps[1:]) if b[0] is a[0]]

    def test_a_non_descent_step_below_the_start_is_kept(self, monkeypatch):
        # The 64x64 criterion-6 denoise (denoise-64/aniso-pdd) meets one
        # direction that does not descend; it raises the residual, but not
        # past the subproblem's first, and the step is kept.
        report, subproblems = self.denoise(64, monkeypatch)
        rises = [(residual, steps[0][0].inner_residual) for steps in subproblems
                 for state, _, searched, residual in steps
                 if not searched and residual > state.inner_residual]
        assert rises and all(residual <= res0 for residual, res0 in rises)
        assert not any(self.redone(steps) for steps in subproblems)
        assert sum(rec.tight_resolves for rec in report.records) == 0
        assert sum(rec.backtracks for rec in report.records) > 0

    def test_float64_directions_converge(self, monkeypatch):
        # Every direction solved in float64, as late in a subproblem: a
        # direction that does not descend throws the residual past the
        # subproblem's first, and is redone tight.  Keeping such steps, this
        # solve raised InnerNewtonError at the Newton cap (outer 6, sigma
        # 4096).
        import tvalm.ssn as ssn
        monkeypatch.setattr(ssn, "F32_MIN_TOL", 1.0)
        report, subproblems = self.denoise(64, monkeypatch)
        redone = [r for steps in subproblems for r in self.redone(steps)]
        assert redone and all(redone)
        assert sum(rec.tight_resolves for rec in report.records) == len(redone)
        assert sum(rec.f32_solves for rec in report.records) == 0

    def test_mu_takes_the_full_step(self, monkeypatch):
        # H = I - mu Laplacian: no step is searched, and the tight mode
        # safeguards them all, as for PDP.
        report, subproblems = self.denoise(32, monkeypatch, mu=0.01)
        assert not any(searched for steps in subproblems for _, _, searched, _ in steps)
        assert sum(rec.backtracks for rec in report.records) == 0
        assert sum(rec.tight_resolves for rec in report.records) > 0


class TestDenoise256:
    """Regression at a realistic size: the criterion-6 scene at 256x256
    (noise 0.1, seed 7, alpha 0.1) converges to Err 1e-6 with PT, whose
    loose Newton directions are float32 solves checked in float64."""

    @staticmethod
    def run(variant):
        clean = blocks_image(256, 256, seed=3)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        cfg = AlmConfig(alpha=0.1, variant=variant, inner="pt", outer_tol=1e-6)
        state, report = alm_run(z, None, cfg, reference=clean)
        assert report.summary["converged"]
        assert report.records[-1].err <= cfg.outer_tol
        assert sum(r.f32_solves for r in report.records) > 0
        return state, report

    @pytest.mark.slow
    def test_aniso(self):
        # 87 Newton steps, 6,108 Krylov iterations, one float32 correction.
        state, report = self.run(ANISO)
        assert report.records[-1].lambda_feasible
        assert sum(r.inner_newton * r.avg_krylov for r in report.records) <= 6500
        assert report.summary["psnr"] == pytest.approx(39.161885, abs=1e-5)

    @pytest.mark.slow
    def test_iso(self):
        # Feasibility is not asserted: PT's soft-threshold multiplier leaves
        # the dual ball by more than FEAS_SLACK on iso runs.
        _, report = self.run(ISO)
        assert report.summary["psnr"] == pytest.approx(37.132361, abs=1e-5)


class TestNoOverSolving:
    """Deterministic cost guards on two benchmark instances, read off the
    reports: no Newton step's Krylov solve asks for more accuracy than takes
    the subproblem's residual past its stopping threshold.  With the forcing
    rule alone, deblur-32 PDP took 4,120 iterations and the denoise-64
    aniso PT instance 6,266; the floored requests take about 2,500 and
    (PT stepping along its carried dual) 3,800."""

    @staticmethod
    def krylov(report):
        return sum(r.inner_newton * r.avg_krylov for r in report.records)

    def test_deblur_32_pdp(self):
        clean = blocks_image(32, 32, seed=3)
        kernel = motion_kernel(9)
        z = degrade(clean, DegradeSpec(noise_std=0.01, blur=kernel, seed=21))
        cfg = AlmConfig(alpha=0.005, variant=ISO, inner="pdp", mu=1e-6, outer_tol=1e-5)
        _, report = alm_run(z, blur_map(kernel), cfg, reference=clean)
        assert report.summary["converged"]
        assert self.krylov(report) <= 3000
        assert report.summary["psnr"] == pytest.approx(26.715382, abs=1e-5)

    def test_denoise_64_aniso_pt(self):
        clean = blocks_image(64, 64, seed=3)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        cfg = AlmConfig(alpha=0.1, variant=ANISO, inner="pt", outer_tol=1e-6)
        _, report = alm_run(z, None, cfg, reference=clean)
        assert report.summary["converged"]
        assert self.krylov(report) <= 4300
        assert report.summary["psnr"] == pytest.approx(32.019318, abs=1e-5)


class TestPtMotionDeblur:
    """ALM-PT on the benchmark's motion deblur (32x32, motion_kernel(9),
    mu 1e-6, iso) reaches its Err in a bounded number of Newton steps per
    outer iteration.  With the generalized derivative at the projected dual
    it raised InnerNewtonError at sigma 4, after 50 steps at residual 0.18."""

    @pytest.mark.parametrize("tol", [1e-5, 1e-6])
    def test_reaches_err(self, tol):
        clean = blocks_image(32, 32, seed=3)
        kernel = motion_kernel(9)
        z = degrade(clean, DegradeSpec(noise_std=0.01, blur=kernel, seed=21))
        cfg = AlmConfig(alpha=0.005, variant=ISO, inner="pt", mu=1e-6, outer_tol=tol)
        _, report = alm_run(z, blur_map(kernel), cfg, reference=clean)
        assert report.summary["converged"]
        assert report.records[-1].err <= tol
        assert max(rec.inner_newton for rec in report.records) <= 12


class TestDataOperatorChecks:
    """Settings without an exact H^{-1} end before the first outer iteration;
    the solvers that never invert H keep running with mu = 0."""

    @staticmethod
    def deblur_instance(n=8, length=5):
        clean = blocks_image(n, n, seed=3)
        kernel = motion_kernel(length)
        z = degrade(clean, DegradeSpec(noise_std=0.01, blur=kernel, seed=21))
        return clean, z, blur_map(kernel)

    @staticmethod
    def forbid(monkeypatch, module, name):
        def boom(*args, **kwargs):
            raise AssertionError(f"{name} ran")
        monkeypatch.setattr(import_module(module), name, boom)

    def test_pdd_mu_zero_rejected_before_iterating(self, monkeypatch):
        self.forbid(monkeypatch, "tvalm.alm", "solve_subproblem")
        _, z, K = self.deblur_instance()
        cfg = AlmConfig(alpha=0.005, variant=ISO, mu=0.0, inner="pdd", outer_tol=1e-5)
        with pytest.raises(ValueError, match="mu > 0"):
            alm_run(z, K, cfg)

    def test_kernel_less_data_operator_rejected(self, monkeypatch):
        self.forbid(monkeypatch, "tvalm.alm", "solve_subproblem")
        _, z, _ = self.deblur_instance()
        identity = LinearMap(lambda u: u.copy(), lambda u: u.copy(), self_adjoint=True)
        cfg = AlmConfig(alpha=0.005, variant=ISO, mu=1e-6, inner="pt", outer_tol=1e-5)
        with pytest.raises(ValueError, match="blur_map"):
            alm_run(z, identity, cfg)

    @pytest.mark.parametrize("blurred", [True, False])
    def test_pdd_runs_no_cg_on_h(self, blurred, monkeypatch):
        # The motion-blur path and the identity with a gradient penalty.
        self.forbid(monkeypatch, "tvalm.ssn", "cg_solve")
        clean, z, K = self.deblur_instance()
        if not blurred:
            z, K = degrade(clean, DegradeSpec(noise_std=0.05, seed=7)), None
        cfg = AlmConfig(alpha=0.005, variant=ISO, mu=1e-3, inner="pdd", outer_tol=1e-5)
        state, report = alm_run(z, K, cfg, reference=clean)
        assert report.summary["converged"]

    @pytest.mark.parametrize("inner", ["pdp", "pt"])
    def test_solvers_without_an_inverse_accept_mu_zero(self, inner):
        clean, z, K = self.deblur_instance(length=3)
        cfg = AlmConfig(alpha=0.005, variant=ISO, mu=0.0, inner=inner, outer_tol=1e-4)
        state, report = alm_run(z, K, cfg, reference=clean)
        assert report.summary["converged"]
        assert report.records[-1].err <= cfg.outer_tol


class TestPdpDeblurCost:
    """A deterministic cost guard: the Krylov iterations of ALM-PDP on a
    16x16 motion deblur (the benchmark's deblur setting at a quarter of its
    size), where CG on the symmetrized system with the Jacobi preconditioner
    takes about 2,000 and BiCGSTAB on the unsymmetrized one took 11,856."""

    def test_krylov_iterations_and_psnr(self):
        clean = blocks_image(16, 16, seed=3)
        kernel = motion_kernel(9)
        z = degrade(clean, DegradeSpec(noise_std=0.01, blur=kernel, seed=21))
        cfg = AlmConfig(alpha=0.005, variant=ISO, inner="pdp", mu=1e-6, outer_tol=1e-5)
        _, report = alm_run(z, blur_map(kernel), cfg, reference=clean)
        krylov = sum(r.inner_newton * r.avg_krylov for r in report.records)
        assert krylov <= 4000
        assert report.summary["psnr"] == pytest.approx(21.1939, abs=1e-3)

    def test_tight_resolves_do_not_over_solve(self):
        # The benchmark's deblur-32 instance, whose tight re-solves carry most
        # of its Krylov work: a fixed tight tolerance of 1e-10 takes 10,574
        # iterations, a hundredth of the forcing tolerance about 4,100.
        clean = blocks_image(32, 32, seed=3)
        kernel = motion_kernel(9)
        z = degrade(clean, DegradeSpec(noise_std=0.01, blur=kernel, seed=21))
        cfg = AlmConfig(alpha=0.005, variant=ISO, inner="pdp", mu=1e-6, outer_tol=1e-5)
        _, report = alm_run(z, blur_map(kernel), cfg, reference=clean)
        krylov = sum(r.inner_newton * r.avg_krylov for r in report.records)
        assert sum(r.tight_resolves for r in report.records) > 0
        assert krylov < 5000
        assert report.summary["psnr"] == pytest.approx(26.715382, abs=1e-5)
