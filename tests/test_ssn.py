"""Inner semismooth Newton solvers: formulas against independent oracles,
positive definiteness, derivative consistency, and cross-solver agreement."""

from dataclasses import replace

import numpy as np
import pytest

from tvalm.degrade import DegradeSpec, blocks_image, degrade
from tvalm.errors import InnerNewtonError, KrylovError, LineSearchError
from tvalm.grid import ANISO, ISO, div, grad, inner_x, norm_x, norm_y, pointwise_mag
from tvalm.linops import (DataTerm, KrylovConfig, LinearMap, bicgstab_solve, blur_map, cg_solve,
                          motion_kernel)
from tvalm.prox import project_ball, soft_threshold
from tvalm.ssn import (ARMIJO_MAX_BACKTRACKS, ARMIJO_THETA, ENOUGH, F32_MIN_TOL, FORCING_FLOOR,
                       KRYLOV_MAX_ITERS, TIGHT_FACTOR, AlmContext, _fields, _iterate,
                       _krylov_request, merit_phi, solve_subproblem, ssnpdd_step, ssnpdp_step,
                       ssnpt_step)

from test_linops import dense_from_map

RNG = np.random.default_rng(314159)
TIGHT = KrylovConfig(rel_tol=1e-12, max_iters=50000)


def denoise_ctx(z, lam, sigma, alpha, variant):
    return AlmContext(lam, sigma, alpha, variant, DataTerm(z))


def random_instance(n, sigma=4.0, alpha=0.1, variant=ISO, lam_scale=0.05, seed=None):
    rng = RNG if seed is None else np.random.default_rng(seed)
    z = np.clip(0.5 + 0.12 * rng.normal(size=(n, n)), 0.0, 1.0)
    lam = project_ball(lam_scale * rng.normal(size=(2, n, n)), alpha, variant)
    return z, denoise_ctx(z, lam, sigma, alpha, variant)


def pd_residual(u, h, ctx):
    """The primal-dual methods' inner residual at (u, h), as a subproblem's
    start state measures it."""
    return _iterate(u, h, ctx, "pdp").inner_residual


def pt_residual(u, ctx):
    """PT's inner residual at u, as a subproblem's start state measures it."""
    return _iterate(u, np.zeros((2,) + u.shape), ctx, "pt").inner_residual


def subproblem_oracle(ctx, tol=1e-10, max_iter=400000):
    """Plain gradient descent on the reduced augmented Lagrangian (denoising).

    Independent of the Newton machinery: the merit gradient is
    u - z + grad^*(P_alpha(lam + sigma grad u)), descended with a fixed
    1/(1 + 8 sigma) step until its norm drops below tol.
    """
    u = ctx.data.z.copy()
    step = 1.0 / (1.0 + 8.0 * ctx.sigma)
    for _ in range(max_iter):
        g = u - ctx.data.z - div(project_ball(ctx.lam + ctx.sigma * grad(u),
                                         ctx.alpha, ctx.variant))
        if norm_x(g) <= tol:
            return u
        u -= step * g
    raise AssertionError("oracle failed to converge")


class TestMerit:
    def test_tiny_alpha_reduces_to_data_term(self):
        z, _ = random_instance(3)
        u = z + 0.1 * RNG.normal(size=(3, 3))
        ctx = denoise_ctx(z, np.zeros((2, 3, 3)), 4.0, 1e-14, ISO)
        data = 0.5 * norm_x(u - z) ** 2
        assert merit_phi(u, ctx) == pytest.approx(data, rel=1e-8)

    def test_direct_evaluation_at_u_equals_z(self):
        # lam = 0, u = z: data term vanishes, the TV and penalty parts remain.
        z = np.array([[0.1, 0.5, 0.2], [0.9, 0.4, 0.7], [0.3, 0.8, 0.6]])
        sigma, alpha = 4.0, 0.1
        for variant in (ISO, ANISO):
            ctx = denoise_ctx(z, np.zeros((2, 3, 3)), sigma, alpha, variant)
            g = grad(z)
            s = soft_threshold(g, alpha / sigma, variant)
            mag = pointwise_mag(s) if variant == ISO else np.abs(s).sum(axis=0)
            expected = alpha * mag.sum() + 0.5 * sigma * norm_y(g - s) ** 2
            assert merit_phi(z, ctx) == pytest.approx(expected, rel=1e-12)

    def test_constant_shift_hits_only_data_term(self):
        z, ctx = random_instance(3)
        u = z + 0.05 * RNG.normal(size=(3, 3))
        c = 0.37
        # TV part is shift invariant; the data part changes by a known amount.
        expected_delta = c * (u - z).sum() + 0.5 * c * c * u.size
        delta = merit_phi(u + c, ctx) - merit_phi(u, ctx)
        assert delta == pytest.approx(expected_delta, rel=1e-9)

    def test_replaced_context_recomputes_multiplier_terms(self):
        # The multiplier terms are cached per context; a context made by
        # replace() must see its own lam and sigma, not the cached ones.
        z, ctx = random_instance(5, variant=ANISO, seed=3)
        u = z + 0.05 * RNG.normal(size=(5, 5))
        merit_phi(u, ctx)
        pt_residual(u, ctx)
        lam = project_ball(0.05 * RNG.normal(size=(2, 5, 5)), ctx.alpha, ANISO)
        moved = replace(ctx, lam=lam, sigma=2.0 * ctx.sigma)
        fresh = denoise_ctx(z, lam, 2.0 * ctx.sigma, ctx.alpha, ANISO)
        assert merit_phi(u, moved) == merit_phi(u, fresh)
        assert pt_residual(u, moved) == pt_residual(u, fresh)
        assert pt_residual(u, moved) == pytest.approx(residual_pt_reference(u, moved),
                                                      rel=1e-10)


def residual_pd_reference(u, h, ctx):
    """Duplicate-formula evaluation with explicit pixel loops."""
    m, n = u.shape
    g = grad(u)
    total = 0.0
    for i in range(m):
        for j in range(n):
            w1 = ctx.lam[0, i, j] + ctx.sigma * g[0, i, j]
            w2 = ctx.lam[1, i, j] + ctx.sigma * g[1, i, j]
            if ctx.variant == ISO:
                u_fac = max(1.0, np.hypot(w1, w2) / ctx.alpha)
                r1 = u_fac * h[0, i, j] - w1
                r2 = u_fac * h[1, i, j] - w2
            else:
                r1 = max(1.0, abs(w1) / ctx.alpha) * h[0, i, j] - w1
                r2 = max(1.0, abs(w2) / ctx.alpha) * h[1, i, j] - w2
            total += r1 * r1 + r2 * r2
    return np.sqrt(total)


def residual_pt_reference(u, ctx):
    """The primal residual through the soft threshold, with explicit pixel
    loops: H u - f - div lam - sigma div(grad u - S_tau(lam / sigma + grad u))."""
    m, n = u.shape
    g = grad(u)
    tau = ctx.alpha / ctx.sigma
    s = np.zeros_like(g)
    for i in range(m):
        for j in range(n):
            q1 = ctx.lam[0, i, j] / ctx.sigma + g[0, i, j]
            q2 = ctx.lam[1, i, j] / ctx.sigma + g[1, i, j]
            if ctx.variant == ISO:
                mag = np.hypot(q1, q2)
                scale = max(0.0, 1.0 - tau / mag) if mag > 0 else 0.0
                s[0, i, j], s[1, i, j] = scale * q1, scale * q2
            else:
                s[0, i, j] = np.sign(q1) * max(0.0, abs(q1) - tau)
                s[1, i, j] = np.sign(q2) * max(0.0, abs(q2) - tau)
    field = (ctx.data.H.apply(u) - ctx.data.f - div(ctx.lam) - ctx.sigma * div(g)
             + ctx.sigma * div(s))
    return norm_x(field)


class TestResiduals:
    def test_pd_zero_when_h_is_projection(self):
        for variant in (ISO, ANISO):
            z, ctx = random_instance(4, variant=variant)
            u = z + 0.1 * RNG.normal(size=(4, 4))
            w = ctx.lam + ctx.sigma * grad(u)
            if variant == ISO:
                h = w / np.maximum(1.0, pointwise_mag(w) / ctx.alpha)
            else:
                h = w / np.maximum(1.0, np.abs(w) / ctx.alpha)
            assert pd_residual(u, h, ctx) <= 1e-13

    def test_pd_duplicate_formula(self):
        for variant in (ISO, ANISO):
            z, ctx = random_instance(2, variant=variant)
            u = RNG.normal(size=(2, 2))
            h = RNG.normal(size=(2, 2, 2))
            assert pd_residual(u, h, ctx) == pytest.approx(
                residual_pd_reference(u, h, ctx), abs=1e-14, rel=1e-13)

    def test_pt_duplicate_formula(self):
        for variant in (ISO, ANISO):
            z, ctx = random_instance(2, variant=variant)
            u = RNG.normal(size=(2, 2))
            assert pt_residual(u, ctx) == pytest.approx(
                residual_pt_reference(u, ctx), abs=1e-14, rel=1e-13)

    def test_pt_all_threshold_regime(self):
        # alpha so large that the shrinkage zeroes every pixel: residual is
        # the norm of sigma grad^* grad u at u = f.
        z, _ = random_instance(4)
        sigma = 2.0
        ctx = denoise_ctx(z, np.zeros((2, 4, 4)), sigma, 1e6, ISO)
        u = z.copy()  # H = I, f = z
        assert pt_residual(u, ctx) == pytest.approx(
            sigma * norm_x(div(grad(u))), rel=1e-12)


class TestActiveMask:
    """The Newton-derivative weight of the max term is nonzero exactly on the
    active set |lam + sigma grad u| >= alpha (tie convention s = 1)."""

    def test_tie_counts_as_active(self):
        z = np.zeros((2, 2))
        alpha, sigma = 0.5, 1.0
        lam = np.zeros((2, 2, 2))
        lam[0, 0, 0] = alpha  # |w| == alpha exactly at this pixel
        ctx = denoise_ctx(z, lam, sigma, alpha, ISO)
        coef = _fields(z, ctx).coef
        assert np.any(coef[:, 0, 0] != 0.0)
        assert np.all(coef[:, 1, 1] == 0.0)

    def test_aniso_mask_per_channel(self):
        z = np.zeros((2, 2))
        lam = np.zeros((2, 2, 2))
        lam[0, 0, 0] = 0.5  # |w| == alpha exactly in this channel
        lam[1, 0, 0] = 0.1
        ctx = denoise_ctx(z, lam, 1.0, 0.5, ANISO)
        coef = _fields(z, ctx).coef
        assert coef[0, 0, 0] != 0.0 and coef[1, 0, 0] == 0.0


class TestSsnpdpStep:
    def test_single_pixel_grid(self):
        z = np.array([[0.8]])
        ctx = denoise_ctx(z, np.zeros((2, 1, 1)), 4.0, 0.1, ISO)
        st = _iterate(np.array([[0.2]]), np.zeros((2, 1, 1)), ctx, "pdp")
        out, _ = ssnpdp_step(st, ctx, TIGHT)
        assert out.u == pytest.approx(0.8)  # H = I so u = f
        assert np.all(out.h == 0.0)

    def test_fixed_point_at_solution(self):
        z, ctx = random_instance(4, variant=ANISO)
        res = solve_subproblem(z, np.zeros((2, 4, 4)), ctx, "pdp", 1e-10)
        moved, _ = ssnpdp_step(_iterate(res.state.u, res.state.h, ctx, "pdp"), ctx, TIGHT)
        assert norm_x(moved.u - res.state.u) <= 1e-9

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_converges_to_gradient_descent_oracle(self, variant):
        z, ctx = random_instance(3, variant=variant, seed=77)
        res = solve_subproblem(z, np.zeros((2, 3, 3)), ctx, "pdp", 1e-9)
        u_star = subproblem_oracle(ctx)
        assert np.max(np.abs(res.state.u - u_star)) <= 1e-7

    def test_h_feasible_after_step(self):
        for variant in (ISO, ANISO):
            z, ctx = random_instance(5, sigma=16.0, variant=variant)
            st = _iterate(z.copy(), np.zeros((2, 5, 5)), ctx, "pdp")
            st, _ = ssnpdp_step(st, ctx, TIGHT)
            if variant == ISO:
                assert np.all(pointwise_mag(st.h) <= ctx.alpha * (1 + 1e-12))
            else:
                assert np.all(np.abs(st.h) <= ctx.alpha * (1 + 1e-12))


def dense_grad_matrix(m, n):
    """Loop-assembled forward-difference matrix, (2mn) x (mn)."""
    G = np.zeros((2 * m * n, m * n))
    def idx(i, j):
        return i * n + j
    for i in range(m):
        for j in range(n):
            if i < m - 1:
                G[idx(i, j), idx(i + 1, j)] += 1.0
                G[idx(i, j), idx(i, j)] -= 1.0
            if j < n - 1:
                G[m * n + idx(i, j), idx(i, j + 1)] += 1.0
                G[m * n + idx(i, j), idx(i, j)] -= 1.0
    return G


class TestSsnpddStep:
    def test_single_pixel_grid(self):
        z = np.array([[0.3]])
        ctx = denoise_ctx(z, np.zeros((2, 1, 1)), 4.0, 0.1, ISO)
        st = _iterate(np.array([[0.9]]), np.zeros((2, 1, 1)), ctx, "pdd")
        out, _ = ssnpdd_step(st, ctx, TIGHT)
        assert out.u == pytest.approx(0.3)
        assert np.all(out.h == 0.0)

    def test_system_operator_matches_dense_assembly(self):
        # K = I, mu = 0, 2x2: the h-system operator against a dense matrix
        # assembled from loop-built pieces.
        m = n = 2
        z, ctx = random_instance(2, sigma=3.0, variant=ISO, seed=5)
        u = z + 0.2 * RNG.normal(size=(2, 2))
        h = project_ball(RNG.normal(size=(2, 2, 2)), ctx.alpha, ISO)
        w = ctx.lam + ctx.sigma * grad(u)
        mag = pointwise_mag(w)
        U = np.maximum(1.0, mag / ctx.alpha)
        chi = (mag >= ctx.alpha).astype(float)
        G = dense_grad_matrix(m, n)
        Dv = -G.T  # divergence
        B = np.zeros((2 * m * n, m * n))
        for i in range(m):
            for j in range(n):
                p = i * n + j
                if chi[i, j] == 0.0 or mag[i, j] == 0.0:
                    continue
                coef = ctx.sigma / (ctx.alpha * mag[i, j])
                row = w[0, i, j] * G[p] + w[1, i, j] * G[m * n + p]
                B[p] += coef * h[0, i, j] * row
                B[m * n + p] += coef * h[1, i, j] * row
        U_ext = np.concatenate([U.ravel(), U.ravel()])
        dense = np.diag(U_ext) - ctx.sigma * (G @ Dv) + B @ Dv

        from tvalm.ssn import _pdd_system
        _, U, coef, _ = _fields(u, ctx)
        system = _pdd_system(U, coef, h, ctx)
        q = RNG.normal(size=(2, 2, 2))
        got = system(q).ravel()
        want = dense @ q.ravel()
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_denoise_step_leaves_inputs_unmodified(self, variant):
        # With H = I, DataTerm.solve returns its argument itself, so nothing on the
        # PDD path may write into what it returns.
        z, ctx = random_instance(6, variant=variant, seed=11)
        h = project_ball(0.1 * RNG.normal(size=(2, 6, 6)), ctx.alpha, variant)
        st = _iterate(z + 0.1 * RNG.normal(size=(6, 6)), h, ctx, "pdd")
        f0, z0, lam0, u0, h0 = (ctx.data.f.copy(), ctx.data.z.copy(), ctx.lam.copy(),
                                st.u.copy(), st.h.copy())
        ssnpdd_step(st, ctx, TIGHT)
        for got, want in ((ctx.data.f, f0), (ctx.data.z, z0), (ctx.lam, lam0), (st.u, u0),
                          (st.h, h0)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [3, 16])
    def test_agrees_with_pdp(self, n):
        z, ctx = random_instance(n, variant=ISO, seed=n)
        h0 = np.zeros((2, n, n))
        r1 = solve_subproblem(z, h0, ctx, "pdp", 1e-10)
        r2 = solve_subproblem(z, h0, ctx, "pdd", 1e-10)
        assert norm_x(r1.state.u - r2.state.u) <= 1e-6
        assert norm_y(r1.state.h - r2.state.h) <= 1e-6


class TestSsnptStep:
    def test_fixed_point_at_minimizer(self):
        z, ctx = random_instance(4, seed=8)
        res = solve_subproblem(z, np.zeros((2, 4, 4)), ctx, "pt", 1e-11)
        moved, _ = ssnpt_step(_iterate(res.state.u, res.state.h, ctx, "pt"), ctx, TIGHT)
        assert norm_x(moved.u - res.state.u) <= 1e-9

    def test_quadratic_regime_single_step(self):
        # alpha so large that shrinkage is identically zero: one Newton step
        # solves (H + sigma grad^* grad) u = f - grad^* lam exactly.
        n, sigma = 4, 2.0
        z, _ = random_instance(n, seed=12)
        lam = 0.01 * RNG.normal(size=(2, n, n))
        ctx = denoise_ctx(z, lam, sigma, 1e6, ISO)
        st = _iterate(z.copy(), np.zeros((2, n, n)), ctx, "pt")
        out, _ = ssnpt_step(st, ctx, TIGHT)

        def fixed_system(v):
            return v - sigma * div(grad(v))
        A = LinearMap(fixed_system, fixed_system, self_adjoint=True)
        want, _ = cg_solve(A, z + div(lam), TIGHT)
        assert np.max(np.abs(out.u - want)) <= 1e-9
        assert out.inner_residual <= 1e-9

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_agrees_with_pdp_on_3x3(self, variant):
        z, ctx = random_instance(3, variant=variant, seed=21)
        r_pt = solve_subproblem(z, np.zeros((2, 3, 3)), ctx, "pt", 1e-10)
        r_pd = solve_subproblem(z, np.zeros((2, 3, 3)), ctx, "pdp", 1e-10)
        assert norm_x(r_pt.state.u - r_pd.state.u) <= 1e-6

    def test_accepted_step_satisfies_armijo(self):
        z, ctx = random_instance(5, sigma=16.0, seed=33)
        u0 = z + 0.05 * RNG.normal(size=(5, 5))
        st = _iterate(u0, np.zeros((2, 5, 5)), ctx, "pt")
        out, _ = ssnpt_step(st, ctx, TIGHT)
        # Recheck the inequality post hoc with the actual step taken.
        delta = out.u - u0
        phi0 = merit_phi(u0, ctx)
        assert merit_phi(out.u, ctx) <= phi0 + 1e-12 * max(1.0, abs(phi0))


class TestPositiveDefiniteness:
    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_pdp_schur_dominates_h(self, variant):
        # With feasible h the Schur complement is bounded below by H.
        for trial in range(25):
            n = int(RNG.integers(2, 7))
            z = RNG.normal(size=(n, n))
            alpha = float(RNG.uniform(0.05, 0.5))
            sigma = float(RNG.uniform(0.5, 64.0))
            lam = project_ball(RNG.normal(size=(2, n, n)), alpha, variant)
            ctx = denoise_ctx(z, lam, sigma, alpha, variant)
            u0 = RNG.normal(size=(n, n))
            h = project_ball(RNG.normal(size=(2, n, n)), alpha, variant)
            schur, _ = newton_system(u0, h, ctx)
            probe = RNG.normal(size=(n, n))
            lhs = inner_x(schur.apply(probe), probe)
            rhs = inner_x(ctx.data.H.apply(probe), probe)
            assert lhs >= rhs - 1e-10

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_pt_operator_dominates_h(self, variant):
        # PT's generalized derivative, the operator at h = w / U.
        for trial in range(25):
            n = int(RNG.integers(2, 7))
            z = RNG.normal(size=(n, n))
            alpha = float(RNG.uniform(0.05, 0.5))
            sigma = float(RNG.uniform(0.5, 64.0))
            lam = project_ball(RNG.normal(size=(2, n, n)), alpha, variant)
            ctx = denoise_ctx(z, lam, sigma, alpha, variant)
            u0 = RNG.normal(size=(n, n))
            system, _ = newton_system(u0, projected_dual(u0, ctx), ctx)
            probe = RNG.normal(size=(n, n))
            lhs = inner_x(system.apply(probe), probe)
            rhs = inner_x(ctx.data.H.apply(probe), probe)
            assert lhs >= rhs - 1e-10


class TestDerivativeConsistency:
    def test_pdp_jacobian_matches_finite_differences(self):
        # Full two-row Newton derivative against central differences of the
        # nonlinear map, at a point with no active-set ties.
        from tvalm.ssn import _b_of_grad
        n, sigma, alpha = 4, 3.0, 0.2
        z = RNG.normal(size=(n, n))
        lam = project_ball(0.15 * RNG.normal(size=(2, n, n)), alpha, ISO)
        ctx = denoise_ctx(z, lam, sigma, alpha, ISO)
        u0 = RNG.normal(size=(n, n))
        h0 = project_ball(RNG.normal(size=(2, n, n)), alpha, ISO)
        w, U, coef, _ = _fields(u0, ctx)
        assert np.min(np.abs(pointwise_mag(w) - alpha)) > 1e-3  # no ties

        def F(u, h):
            wq = ctx.lam + sigma * grad(u)
            Uq = np.maximum(1.0, pointwise_mag(wq) / alpha)
            f1 = u - ctx.data.f - div(h)
            f2 = Uq * h - wq
            return f1, f2

        checked = 0
        for _ in range(10):
            du = RNG.normal(size=(n, n))
            dh = RNG.normal(size=(2, n, n))
            v1 = du - div(dh)
            v2 = -sigma * grad(du) + _b_of_grad(grad(du), coef, h0, ISO) + U * dh
            t = 1e-6
            f1p, f2p = F(u0 + t * du, h0 + t * dh)
            f1m, f2m = F(u0 - t * du, h0 - t * dh)
            fd1 = (f1p - f1m) / (2 * t)
            fd2 = (f2p - f2m) / (2 * t)
            scale = max(norm_x(v1) + norm_y(v2), 1.0)
            err = norm_x(v1 - fd1) + norm_y(v2 - fd2)
            assert err <= 1e-5 * scale
            checked += 1
        assert checked == 10


def b_action_oracle(w, h, ctx):
    """The derivative piece B of the primal-dual systems, one grad per call,
    with its weight taken from w itself: (sigma / alpha) / |w| times w . g
    (iso) or (sigma / alpha) sign(w) g per channel (aniso), on the active set
    |w| >= alpha."""
    scale = ctx.sigma / ctx.alpha
    if ctx.variant == ISO:
        mag = pointwise_mag(w)
        weight = np.where(mag >= ctx.alpha, scale / np.where(mag > 0.0, mag, 1.0), 0.0)

        def b_action(v):
            g = grad(v)
            return (weight * (w[0] * g[0] + w[1] * g[1])) * h
        return b_action
    weight = np.where(np.abs(w) >= ctx.alpha, scale * np.sign(w), 0.0)
    return lambda v: weight * grad(v) * h


def pdp_system_oracle(u, h, ctx):
    w, U = _fields(u, ctx)[:2]
    b_action = b_action_oracle(w, h, ctx)
    return lambda v: ctx.data.H.apply(v) - div((ctx.sigma * grad(v) - b_action(v)) / U)


def pdd_system_oracle(u, h, ctx):
    w, U = _fields(u, ctx)[:2]
    b_action = b_action_oracle(w, h, ctx)

    def system(q):
        t = ctx.data.solve(div(q))
        return U * q - ctx.sigma * grad(t) + b_action(t)
    return system


def pt_system_oracle(u, ctx):
    tau = ctx.alpha / ctx.sigma
    q = ctx.lam / ctx.sigma + grad(u)
    if ctx.variant == ISO:
        mag = pointwise_mag(q)
        chi = mag >= tau
        safe = np.where(chi, np.where(mag > 0.0, mag, 1.0), 1.0)

        def system(v):
            gd = grad(v)
            dot = q[0] * gd[0] + q[1] * gd[1]
            a_gd = np.where(chi, 1.0 - tau / safe, 0.0) * gd \
                + np.where(chi, tau / safe ** 3, 0.0) * dot * q
            return ctx.data.H.apply(v) - ctx.sigma * div(gd - a_gd)
    else:
        chi = (np.abs(q) >= tau).astype(np.float64)

        def system(v):
            return ctx.data.H.apply(v) - ctx.sigma * div((1.0 - chi) * grad(v))
    return system


def projected_dual(u, ctx):
    """P_alpha(w) = w / U at u."""
    w, U = _fields(u, ctx)[:2]
    return w / U


def newton_flux(u, h, ctx):
    """The pointwise tensor (a, off) of the CG operator that ssnpdp_step and
    ssnpt_step build at (u, h); at h = w / U it is PT's generalized
    derivative."""
    from tvalm.ssn import _pdp_flux
    w, U, coef, _ = _fields(u, ctx)
    return _pdp_flux(U, coef, h, ctx)


def newton_system(u, h, ctx):
    """The steps' CG operator at (u, h) and its Jacobi diagonal, as the step
    builds them."""
    from tvalm.ssn import _image_system
    return _image_system(ctx, *newton_flux(u, h, ctx))


OPERATOR_SETUPS = {
    "identity": (None, 0.0),
    "motion3-mu1e-6": (motion_kernel(3), 1e-6),
    "identity-mu0.01": (None, 0.01),
}
JACOBI_SETUPS = {
    "identity": (None, 0.0),
    "motion3-mu1e-3": (motion_kernel(3), 1e-3),
}


def dense_matrix(op, shape):
    """The matrix of a linear map on images."""
    return dense_from_map(LinearMap(op, op), shape)


class TestAssembledOperators:
    """The assembled Newton operators against the per-term closures they
    replace (two grads and an H application per call)."""

    @staticmethod
    def instance(setup, variant, seed=2718, setups=OPERATOR_SETUPS):
        kernel, mu = setups[setup]
        rng = np.random.default_rng(seed)
        n, sigma, alpha = 8, 4.0, 0.1
        z = np.clip(0.5 + 0.12 * rng.normal(size=(n, n)), 0.0, 1.0)
        lam = project_ball(0.05 * rng.normal(size=(2, n, n)), alpha, variant)
        K = None if kernel is None else blur_map(kernel)
        ctx = AlmContext(lam, sigma, alpha, variant, DataTerm(z, K, mu))
        u = 0.5 + 0.03 * rng.normal(size=(n, n))
        h = project_ball(rng.normal(size=(2, n, n)), alpha, variant)
        return ctx, u, h, rng

    @staticmethod
    def assert_matches(got, want):
        assert norm_y(got - want) <= 1e-12 * norm_y(want)

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    @pytest.mark.parametrize("setup", sorted(OPERATOR_SETUPS))
    def test_pdp(self, setup, variant):
        # PDP solves the symmetric part (A + A^T) / 2 of the Schur operator A.
        ctx, u, h, _ = self.instance(setup, variant)
        coef = _fields(u, ctx).coef
        # Both branches of the max term are exercised.
        assert 0.0 < np.mean(coef != 0.0) < 1.0
        system, _ = newton_system(u, h, ctx)
        A = dense_matrix(pdp_system_oracle(u, h, ctx), u.shape)
        if variant == ISO:
            # Here A is not symmetric, so the symmetric part is a new operator.
            assert np.linalg.norm(A - A.T) > 1e-3 * np.linalg.norm(A)
        want = 0.5 * (A + A.T)
        got = dense_from_map(system, u.shape)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    @pytest.mark.parametrize("setup", sorted(OPERATOR_SETUPS))
    def test_pdp_is_self_adjoint(self, setup, variant):
        # At the carried dual h and at the projected one w / U.
        ctx, u, h, rng = self.instance(setup, variant)
        for dual in (h, projected_dual(u, ctx)):
            system, _ = newton_system(u, dual, ctx)
            assert system.self_adjoint
            for _ in range(3):
                v, x = rng.normal(size=u.shape), rng.normal(size=u.shape)
                Av = system.apply(v)
                lhs, rhs = inner_x(Av, x), inner_x(v, system.apply(x))
                assert abs(lhs - rhs) <= 1e-12 * norm_x(Av) * norm_x(x)

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    @pytest.mark.parametrize("setup", sorted(JACOBI_SETUPS))
    def test_pdp_jacobi_is_the_diagonal(self, setup, variant):
        # At the carried dual h and at the projected one w / U.
        from tvalm.ssn import _jacobi
        ctx, u, h, _ = self.instance(setup, variant, setups=JACOBI_SETUPS)
        for dual in (h, projected_dual(u, ctx)):
            system, jacobi = newton_system(u, dual, ctx)
            want = np.diag(dense_from_map(system, u.shape)).reshape(u.shape)
            a, off = newton_flux(u, dual, ctx)
            got = _jacobi(ctx.data, a + ctx.data.mu, off)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            # Only a blur gets the preconditioner.
            if ctx.data.K is None:
                assert jacobi is None
            else:
                assert np.array_equal(jacobi, got)

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    @pytest.mark.parametrize("setup", sorted(OPERATOR_SETUPS))
    def test_pdp_right_hand_side(self, setup, variant, monkeypatch):
        # The step's Krylov right-hand side f - H u + div(w / U) is the
        # increment form rhs - A u of the unsymmetrized Schur system.
        import tvalm.ssn as ssn
        ctx, u, h, _ = self.instance(setup, variant)
        seen = []

        def capture(A, b, cfg, diag=None):
            seen.append(b.copy())
            return np.zeros_like(b), 0

        monkeypatch.setattr(ssn, "cg_solve", capture)
        ssnpdp_step(_iterate(u, h, ctx, "pdp"), ctx, TIGHT)
        w, U = _fields(u, ctx)[:2]
        b_u = b_action_oracle(w, h, ctx)(u)
        rhs = ctx.data.f + div((ctx.lam + b_u) / U)
        A_u = pdp_system_oracle(u, h, ctx)(u)
        (got,) = seen
        assert norm_x(got - (rhs - A_u)) <= 1e-12 * (norm_x(rhs) + norm_x(A_u))

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    @pytest.mark.parametrize("setup", sorted(OPERATOR_SETUPS))
    def test_pdd(self, setup, variant):
        from tvalm.ssn import _pdd_system
        ctx, u, h, rng = self.instance(setup, variant)
        _, U, coef, _ = _fields(u, ctx)
        assert 0.0 < np.mean(coef != 0.0) < 1.0
        system = _pdd_system(U, coef, h, ctx)
        oracle = pdd_system_oracle(u, h, ctx)
        for _ in range(3):
            q = rng.normal(size=h.shape)
            self.assert_matches(system(q), oracle(q))

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    @pytest.mark.parametrize("setup", sorted(OPERATOR_SETUPS))
    def test_pt(self, setup, variant):
        # PT's generalized derivative is the steps' operator at h = w / U.
        ctx, u, _, rng = self.instance(setup, variant)
        q = ctx.lam / ctx.sigma + grad(u)
        mag = pointwise_mag(q) if variant == ISO else np.abs(q)
        assert 0.0 < np.mean(mag >= ctx.alpha / ctx.sigma) < 1.0
        system, _ = newton_system(u, projected_dual(u, ctx), ctx)
        oracle = pt_system_oracle(u, ctx)
        for _ in range(3):
            v = rng.normal(size=u.shape)
            self.assert_matches(system.apply(v), oracle(v))

    def test_identity_data_operator_leaves_argument_untouched(self):
        ctx, u, _, rng = self.instance("identity", ISO)
        v = rng.normal(size=u.shape)
        v_before = v.copy()
        out = newton_system(u, projected_dual(u, ctx), ctx)[0].apply(v)
        assert out is not v
        assert np.array_equal(v, v_before)


def forcing_oracle(res_k, res_0):
    """The forcing tolerance 0.1 * min((r_k/r_0)^1.5, r_k/r_0) on its own,
    floored at FORCING_FLOOR, and the floor itself at r_0 = 0."""
    if res_0 <= 0.0:
        return FORCING_FLOOR
    ratio = res_k / res_0
    return max(FORCING_FLOOR, 0.1 * min(ratio ** 1.5, ratio))


def request_oracle(res, res0, target, tight):
    """A Newton step's relative Krylov tolerance, composed another way: from
    the forcing tolerance (capped at 0.1) and the ENOUGH floor (capped at
    0.1), their maximum in the loose mode; in the tight mode TIGHT_FACTOR
    times the forcing tolerance, floored at FORCING_FLOOR and at the ENOUGH
    floor."""
    forcing = min(0.1, forcing_oracle(res, res0))
    enough = min(0.1, ENOUGH * target / res)
    if tight:
        return max(FORCING_FLOOR, TIGHT_FACTOR * forcing, enough)
    return max(forcing, enough)


class TestKrylovRequest:
    # A target of 0 takes the ENOUGH floor out of a request.

    def test_ratio_one(self):
        assert _krylov_request(1.0, 1.0, 0.0, False).rel_tol == pytest.approx(0.1)

    def test_small_ratio_uses_power(self):
        assert _krylov_request(0.01, 1.0, 0.0, False).rel_tol == pytest.approx(1e-4)

    def test_zero_residual_floor(self):
        # The least positive residual asks for the floor.  A subproblem that
        # starts at residual 0 (u constant, lam = h = 0) asks for nothing.
        assert _krylov_request(5e-324, 1.0, 0.0, False).rel_tol == 1e-13
        z = np.full((4, 4), 0.5)
        ctx = denoise_ctx(z, np.zeros((2, 4, 4)), 4.0, 0.1, ISO)
        res = solve_subproblem(z, np.zeros((2, 4, 4)), ctx, "pdp", 1e-4)
        assert res.residuals == [0.0] and res.newton_steps == res.krylov_iters == 0

    def test_floor_clamps(self):
        assert _krylov_request(1e-20, 1.0, 0.0, False).rel_tol == 1e-13

    @pytest.mark.parametrize("tight", [False, True])
    def test_matches_the_composed_rule(self, tight):
        # Bit for bit, on a grid where each term binds: the 0.1 cap, the
        # forcing term, FORCING_FLOOR and the ENOUGH floor, with residuals
        # above the first one among them.
        bound = set()
        for res0 in (1.0, 3.7):
            for res in (5.0, 1.0 + 2.0 ** -52, 1.0, 0.5, 0.3, 1e-2, 1e-4, 1e-7, 1e-9, 1e-12,
                        1e-20):
                for target in (0.0, 1e-300, 1e-15, 1e-9, 1e-6, 1e-3, 0.1, 10.0):
                    kcfg = _krylov_request(res, res0, target, tight)
                    assert kcfg.rel_tol == request_oracle(res, res0, target, tight)
                    assert kcfg.max_iters == KRYLOV_MAX_ITERS
                    forcing = 0.1 * min(1.0, res / res0) ** 1.5
                    terms = {"floor": FORCING_FLOOR,
                             "forcing": TIGHT_FACTOR * forcing if tight else forcing,
                             "enough": ENOUGH * target / res}
                    if max(terms.values()) >= 0.1:
                        bound.add("cap" if res <= res0 else "cap, res > res0")
                    else:
                        bound.add(max(terms, key=terms.get))
        assert bound == {"cap", "cap, res > res0", "forcing", "floor", "enough"}


# The methods whose steps the tight mode guards: PDP, none of whose steps
# is searched, and PDD, whose directions that do not descend are not.
TIGHT_METHODS = [pytest.param("pdp", ANISO, id="pdp"), pytest.param("pdd", ISO, id="pdd")]


class TestSolveSubproblem:
    def test_cap_raises(self, monkeypatch):
        import tvalm.ssn as ssn
        monkeypatch.setattr(ssn, "MAX_NEWTON_STEPS", 1)
        z, ctx = random_instance(6, sigma=64.0, seed=3)
        with pytest.raises(InnerNewtonError) as info:
            solve_subproblem(z, np.zeros((2, 6, 6)), ctx, "pdp", 1e-12)
        # The error carries the subproblem's sigma and residual history.
        exc = info.value
        assert exc.sigma == 64.0 and exc.iterations == 1
        assert len(exc.residuals) == 2 and exc.residuals[-1] == exc.residual
        assert exc.residuals[0] == pd_residual(z, np.zeros((2, 6, 6)), ctx)

    @staticmethod
    def tight_instance(variant=ANISO):
        """An instance where one loose PDP step raises the residual: solved
        to 1e-6, where its tight request is tighter than its loose one, and
        solved to 1e-4, where the ENOUGH floor binds at both.  Iso PDD raises
        its residual once when solved to 1e-4, below the subproblem's first,
        so it keeps the step and never enters the tight mode."""
        clean = blocks_image(8, 8, seed=2)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        lam = project_ball(0.1 * np.random.default_rng(2).normal(size=(2, 8, 8)), 0.1, variant)
        return z, AlmContext(lam, 1024.0, 0.1, variant, DataTerm(z))

    def test_counts_include_the_tight_resolve(self, monkeypatch):
        # At this instance, solved to 1e-6, one loose PDP step raises the
        # residual and is redone tight: the discarded solve is no Newton
        # step, but its Krylov iterations count, and so does the re-solve.
        # The re-solve and every later step ask for TIGHT_FACTOR times the
        # step's forcing tolerance, floored at FORCING_FLOOR; the steps before
        # the discarded one ask for the forcing tolerance itself.  No request
        # goes below the floor ENOUGH * threshold / residual (capped at 0.1):
        # past it a solve only takes the residual further below the threshold.
        import tvalm.ssn as ssn
        calls, krylov, f32 = [], [], []

        def counted(state, ctx, kcfg):
            residual = state.inner_residual
            out, kit = ssnpdp_step(state, ctx, kcfg)
            calls.append((state, residual, kcfg.rel_tol))
            krylov.append(kit)
            f32.append((out.f32_solves, out.f32_corrections))
            return out, kit

        monkeypatch.setattr(ssn, "ssnpdp_step", counted)
        z, ctx = self.tight_instance()
        res = solve_subproblem(z, np.zeros((2, 8, 8)), ctx, "pdp", 1e-6)
        assert res.newton_steps == len(res.residuals) - 1 == len(calls) - 1
        assert res.tight_resolves == len(calls) - res.newton_steps == 1
        assert res.krylov_iters == sum(krylov)
        # The re-solve is the call from the discarded call's state.
        (resolve,) = [i for i in range(1, len(calls)) if calls[i][0] is calls[i - 1][0]]
        # Float32 solves are counted like Krylov iterations (the discarded
        # step's: test_a_discarded_float32_solve_counts).
        assert (res.f32_solves, res.f32_corrections) == tuple(map(sum, zip(*f32)))
        assert res.f32_solves > 0
        assert len(calls) - resolve >= 2  # the re-solve and a step after it
        res0 = res.residuals[0]
        unfloored_tight = 0
        for i, (_, residual, rel_tol) in enumerate(calls):
            forcing = min(0.1, forcing_oracle(residual, res0))
            enough = min(0.1, ENOUGH * res.threshold / residual)
            if i < resolve:
                assert rel_tol == max(forcing, enough)
            else:
                assert rel_tol == max(FORCING_FLOOR, TIGHT_FACTOR * forcing, enough)
                if enough < forcing:
                    assert rel_tol < forcing
                    unfloored_tight += 1
        assert unfloored_tight > 0

    def test_a_discarded_float32_solve_counts(self, monkeypatch):
        # With float32 allowed down to 1e-8, the discarded loose step of this
        # instance (a request of 1.8e-8) solves in float32, and its tight
        # re-solve (6.2e-9) in float64; the subproblem counts both steps.
        import tvalm.ssn as ssn
        monkeypatch.setattr(ssn, "F32_MIN_TOL", 1e-8)
        calls = []

        def counted(state, ctx, kcfg):
            out, kit = ssnpdp_step(state, ctx, kcfg)
            calls.append((state, out.f32_solves, out.f32_corrections))
            return out, kit

        monkeypatch.setattr(ssn, "ssnpdp_step", counted)
        z, ctx = self.tight_instance()
        res = solve_subproblem(z, np.zeros((2, 8, 8)), ctx, "pdp", 1e-6)
        (resolve,) = [i for i in range(1, len(calls)) if calls[i][0] is calls[i - 1][0]]
        assert (calls[resolve - 1][1], calls[resolve][1]) == (1, 0)
        assert res.f32_solves == sum(c[1] for c in calls)
        assert res.f32_corrections == sum(c[2] for c in calls)

    @pytest.mark.parametrize("method, variant", TIGHT_METHODS)
    def test_no_step_repeats_a_solve(self, method, variant, monkeypatch):
        # At this instance, solved to 1e-4, a loose step raises the residual
        # where the ENOUGH floor binds at both the loose and the tight
        # request.  A redo would repeat the same solve, so the candidate is
        # kept and the later steps ask for the tight request.  Iso PDD keeps
        # its candidate in any case, as its rise stays below the
        # subproblem's first residual (``tight_instance``).
        import tvalm.ssn as ssn
        step = STEPS[method]
        calls = []

        def recorded(state, ctx, kcfg):
            residual = state.inner_residual
            out, kit = step(state, ctx, kcfg)
            calls.append((state, residual, kcfg.rel_tol, out.inner_residual))
            return out, kit

        monkeypatch.setattr(ssn, f"ssn{method}_step", recorded)
        z, ctx = self.tight_instance(variant)
        res = solve_subproblem(z, np.zeros((2, 8, 8)), ctx, method, 1e-4)
        for before, after in zip(calls, calls[1:]):
            assert not (after[0] is before[0] and after[2] == before[2])
        (raised,) = [i for i, c in enumerate(calls) if c[3] > c[1]]
        assert res.tight_resolves == 0 and res.newton_steps == len(calls)
        res0 = res.residuals[0]
        for i, (_, residual, rel_tol, _) in enumerate(calls):
            assert rel_tol == _krylov_request(residual, res0, res.threshold, i > raised).rel_tol
        # The raised step's loose request is its tight one.
        assert calls[raised][2] == _krylov_request(calls[raised][1], res0, res.threshold,
                                                   True).rel_tol

    @pytest.mark.parametrize("need", [None, 1e-9])
    @pytest.mark.parametrize("method", ["pdp", "pdd", "pt"])
    def test_last_request_is_the_floor(self, method, need, monkeypatch):
        # The forcing rule would have the last step solve far past the
        # stopping threshold; its request is ENOUGH times the target over the
        # residual, the target being the threshold or, when smaller, the
        # residual the outer test needs.  need None leaves the context's
        # default, inf.
        import tvalm.ssn as ssn
        step = STEPS[method]
        calls = []

        def recorded(state, ctx, kcfg):
            calls.append((state.inner_residual, kcfg.rel_tol))
            return step(state, ctx, kcfg)

        monkeypatch.setattr(ssn, f"ssn{method}_step", recorded)
        z, ctx = random_instance(8, sigma=64.0, seed=3)
        if need is not None:
            ctx = replace(ctx, need=need)
        res = solve_subproblem(z, np.zeros((2, 8, 8)), ctx, method, 1e-4)
        target = min(res.threshold, ctx.need)
        assert target == (1e-4 / 64.0 if need is None else 1e-9)
        residual, rel_tol = calls[-1]
        assert rel_tol == min(0.1, ENOUGH * target / residual)
        assert rel_tol > min(0.1, forcing_oracle(residual, res.residuals[0]))
        assert res.residuals[-1] <= res.threshold

    @staticmethod
    def resolve_instance(method, variant):
        """A subproblem with one tight re-solve when solved to 1e-6, and its
        start (u, h).  PDP's is ``tight_instance``; PDD keeps its rise there,
        but the 16x16 ``motion_kernel(3)`` deblur with mu 1e-3 from a random
        feasible dual redoes one non-descent step past the first residual."""
        if method == "pdp":
            z, ctx = TestSolveSubproblem.tight_instance(variant)
            return ctx, z, np.zeros((2, 8, 8))
        ctx, start = step_instance(method, variant, "motion3-mu1e-3", random_dual=True)
        return ctx, start.u, start.h

    @pytest.mark.parametrize("method, variant", TIGHT_METHODS)
    def test_tight_resolve_is_a_step_from_a_fresh_state(self, method, variant, monkeypatch):
        # The discarded step took the iterate's fields; the re-solve from the
        # fields evaluated again is the step from a freshly built state.  PDD's
        # re-solves are checked the same way on whole solves in
        # tests/test_alm.py::TestAnisoPddSearch.
        import tvalm.ssn as ssn
        step = STEPS[method]
        calls = []

        def recorded(state, ctx, kcfg):
            start = (state.u.copy(), state.h.copy())
            out, kit = step(state, ctx, kcfg)
            got = (out.u.copy(), out.h.copy(), *(f.copy() for f in out.fields))
            calls.append((state, start, kcfg, got, out.inner_residual, kit))
            return out, kit

        monkeypatch.setattr(ssn, f"ssn{method}_step", recorded)
        ctx, u0, h0 = self.resolve_instance(method, variant)
        res = solve_subproblem(u0, h0, ctx, method, 1e-6)
        assert res.tight_resolves == 1
        (i,) = [i for i in range(1, len(calls)) if calls[i][0] is calls[i - 1][0]]
        _, (u, h), kcfg, got, residual, kit = calls[i]
        fresh, fresh_kit = step(_iterate(u, h, ctx, method), ctx, kcfg)
        assert kit == fresh_kit and residual == fresh.inner_residual
        for g, want in zip(got, (fresh.u, fresh.h, *fresh.fields), strict=True):
            assert_same_bits(g, want)

    def test_unknown_method(self):
        z, ctx = random_instance(2)
        with pytest.raises(ValueError):
            solve_subproblem(z, np.zeros((2, 2, 2)), ctx, "newton", 1e-4)

    def test_superlinear_tail_16x16(self):
        # Late-iteration contraction of the inner residual at sigma = 64.
        z, ctx = random_instance(16, sigma=64.0, variant=ANISO, seed=1)
        res = solve_subproblem(z, np.zeros((2, 16, 16)), ctx, "pdp", 1e-8)
        seq = [r for r in res.residuals if r > 0]
        assert seq[-1] / seq[-2] <= 0.1


ETAS = (1.0, 2.0 ** -4, 2.0 ** -12)


def pt_line_instance(variant, kernel, mu, seed=4242, n=16):
    """A PT merit line through u along a random direction whose active set
    |q| >= tau (q = lam / sigma + grad u) changes along the line."""
    rng = np.random.default_rng(seed)
    sigma, alpha = 4.0, 0.1
    z = np.clip(0.5 + 0.12 * rng.normal(size=(n, n)), 0.0, 1.0)
    lam = project_ball(0.05 * rng.normal(size=(2, n, n)), alpha, variant)
    u = 0.5 + 0.03 * rng.normal(size=(n, n))
    delta = rng.normal(size=(n, n))
    # One group of q sits just inside the threshold, where even the shortest
    # trial step of ETAS crosses it.
    g = grad(delta)
    if variant == ISO:
        sel = (slice(None), *np.unravel_index(np.argmax(pointwise_mag(g)), (n, n)))
    else:
        sel = np.unravel_index(np.argmax(np.abs(g)), g.shape)
    tau, gs = alpha / sigma, g[sel]
    target = tau * gs / np.sqrt(np.sum(gs * gs)) - 0.5 * min(ETAS) * gs
    lam[sel] = sigma * (target - grad(u)[sel])
    K = None if kernel is None else blur_map(kernel)
    return AlmContext(lam, sigma, alpha, variant, DataTerm(z, K, mu)), u, delta


def active_set(q, ctx):
    mag = pointwise_mag(q) if ctx.variant == ISO else np.abs(q)
    return mag >= ctx.alpha / ctx.sigma


LINE_SETUPS = {"identity": None, "motion3": motion_kernel(3)}


class TestMeritLine:
    """PT's line search evaluates the merit's change along u + eta delta from
    terms taken once per step; it must agree with merit_phi at every trial."""

    @pytest.mark.parametrize("mu", [0.0, 1e-3])
    @pytest.mark.parametrize("setup", sorted(LINE_SETUPS))
    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_change_matches_merit_differences(self, variant, setup, mu):
        from tvalm.ssn import _merit_line
        ctx, u, delta = pt_line_instance(variant, LINE_SETUPS[setup], mu)
        phi0, change = _merit_line(u, delta, ctx)
        assert phi0 == pytest.approx(merit_phi(u, ctx), rel=1e-12)
        q0 = ctx.lam_over_sigma + grad(u)
        for eta in ETAS:
            # Pixels enter and leave the active set between u and the trial.
            moved = active_set(q0 + eta * grad(delta), ctx) != active_set(q0, ctx)
            assert np.any(moved), eta
            want = merit_phi(u + eta * delta, ctx) - merit_phi(u, ctx)
            assert change(eta) == pytest.approx(want, rel=1e-9), eta


def image_system_oracle(ctx, a, off=None):
    """The image-space Newton operator through grid.grad and grid.div, as
    ``_image_system`` applied it before it became one flat stencil."""
    data = ctx.data
    if data.mu > 0.0:
        a = a + data.mu

    def system(v):
        g = grad(v)
        if off is None:
            flux = np.multiply(a, g, out=g)
        else:
            cross = off * g[::-1]
            flux = np.multiply(a, g, out=g)
            flux += cross
        out = div(flux)
        return np.subtract(data.gram(v), out, out=out)
    return system


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros too


class TestFlatStencil:
    """``_image_system``'s flat 5-point stencil is bit-identical to the
    grad -> flux -> div closure, boundaries, iso cross terms and signed zeros
    included."""

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (2, 2), (7, 4), (16, 16)])
    @pytest.mark.parametrize("mu", [0.0, 1e-3])
    @pytest.mark.parametrize("blur", [False, True])
    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_matches_grad_flux_div(self, variant, blur, mu, shape):
        from tvalm.ssn import _image_system
        rng = np.random.default_rng(1729)
        m, n = shape
        # The widest odd motion blur that fits the image's rows.
        K = blur_map(motion_kernel(3 if n >= 3 else 1)) if blur else None
        z = rng.uniform(size=shape)
        ctx = AlmContext(np.zeros((2, m, n)), 4.0, 0.1, variant, DataTerm(z, K, mu))
        # Probes with signed zeros, whose differences and fluxes are -0.0 or
        # 0.0 depending on the operation order.
        probes = [rng.normal(size=shape), np.zeros(shape), -np.zeros(shape)]
        probes += [rng.choice([-0.0, 0.0, -1.0, 1.0], size=shape) for _ in range(8)]
        # Coefficients with exact zeros, as on the active set at h = w / U,
        # few or many of them.
        for density in (0.7, 0.2):
            a = rng.uniform(size=(2, m, n)) * (rng.uniform(size=(2, m, n)) < density)
            off = (None if variant == ANISO
                   else rng.normal(size=shape) * (rng.uniform(size=shape) < density))
            system, _ = _image_system(ctx, a, off)
            oracle = image_system_oracle(ctx, a, off)
            for v in probes:
                v_before = v.copy()
                assert_same_bits(system.apply(v), oracle(v))
                assert_same_bits(v, v_before)

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_newton_operator_matches_on_a_step(self, variant):
        # At PT's generalized derivative (h = w / U), whose coefficients are
        # exact zeros where a pixel is active.
        from tvalm.ssn import _image_system, _pdp_flux
        ctx, u, _ = pt_line_instance(variant, motion_kernel(3), 1e-3)
        w, U, coef, _ = _fields(u, ctx)
        flux = _pdp_flux(U, coef, w / U, ctx)
        system, _ = _image_system(ctx, *flux)
        oracle = image_system_oracle(ctx, *flux)
        v = np.random.default_rng(5).normal(size=u.shape)
        for _ in range(5):
            got, want = system.apply(v), oracle(v)
            assert_same_bits(got, want)
            v = got / norm_x(got)


def armijo_oracle(u, delta_u, slope, ctx):
    """The Armijo step length along delta_u and its backtracks, with the
    merit evaluated by merit_phi at every trial point."""
    import tvalm.ssn as ssn
    phi0 = merit_phi(u, ctx)
    eta, backtracks = 1.0, 0
    if abs(ssn.ARMIJO_MU * slope) > 64.0 * np.finfo(np.float64).eps * max(1.0, abs(phi0)):
        while merit_phi(u + eta * delta_u, ctx) > phi0 + ssn.ARMIJO_MU * eta * slope:
            backtracks += 1
            eta *= ssn.ARMIJO_THETA
    return eta, backtracks


def ssnpt_step_oracle(state, ctx, kcfg):
    """PT's Newton step with the merit evaluated by merit_phi at every trial
    point: PDP's system at the carried dual, an Armijo search, then PDP's
    dual recovered on the step taken.  The direction comes from the step's
    own ``_newton_direction`` (float32 for loose denoising requests), whose
    operator TestFlatStencil and whose float32 path TestFloat32Direction pin.
    Returns (u_new, h_new, eta, backtracks), h_new the projected recovered
    dual."""
    import tvalm.ssn as ssn
    u, h = state.u, state.h
    w, U, coef, _ = _fields(u, ctx)
    rhs = ssn._primal_rhs(u, w / U, ctx)
    delta_u = ssn._newton_direction(ctx, *ssn._pdp_flux(U, coef, h, ctx), rhs, kcfg)[0]
    eta, backtracks = armijo_oracle(u, delta_u, -inner_x(rhs, delta_u), ctx)
    step = delta_u if eta == 1.0 else eta * delta_u
    g = grad(step)
    h_pre = (w + ctx.sigma * g - ssn._b_of_grad(g, coef, h, ctx.variant)) / U
    return u + step, project_ball(h_pre, ctx.alpha, ctx.variant), eta, backtracks


STEP_SETUPS = {"identity": (None, 0.0), "motion3-mu1e-3": (motion_kernel(3), 1e-3)}
STEPS = {"pdp": ssnpdp_step, "pdd": ssnpdd_step, "pt": ssnpt_step}
# A loose forcing tolerance, as early in a subproblem.
LOOSE = KrylovConfig(rel_tol=0.1, max_iters=1000)
# A request too tight for a float32 solve.
FLOAT64_ONLY = KrylovConfig(rel_tol=F32_MIN_TOL / 2, max_iters=1000)


def step_instance(method, variant, setup, sigma=16.0, random_dual=False):
    """A 16x16 subproblem at ``sigma``, and its start state at u = z with the
    dual at zero or, if ``random_dual``, at a random feasible field."""
    kernel, mu = STEP_SETUPS[setup]
    clean = blocks_image(16, 16, seed=3)
    z = degrade(clean, DegradeSpec(noise_std=0.1, blur=kernel, seed=7))
    lam = project_ball(0.05 * np.random.default_rng(9).normal(size=(2, 16, 16)),
                       0.1, variant)
    K = None if kernel is None else blur_map(kernel)
    ctx = AlmContext(lam, sigma, 0.1, variant, DataTerm(z, K, mu))
    h0 = np.zeros((2, 16, 16))
    if random_dual:
        h0 = project_ball(0.1 * np.random.default_rng(11).normal(size=h0.shape), 0.1, variant)
    return ctx, _iterate(z.copy(), h0, ctx, method)


def backtracking_instance(variant, setup):
    """A PT subproblem whose steps backtrack: at sigma 256, from a random
    feasible dual (from u = z and a zero dual at sigma 16 they all take the
    full step)."""
    return step_instance("pt", variant, setup, sigma=256.0, random_dual=True)


def check_carried_fields(method, variant, setup, monkeypatch, steps=4):
    """Step by step: each step takes the fields off the state it is given,
    and the new iterate carries fields bit-identical to fresh ones and the
    residual of the reference oracle."""
    import tvalm.ssn as ssn
    # The pre-projection duals, whose residual a primal-dual step reports.
    pre = []

    def recorded(h, alpha, variant):
        pre.append(h)
        return project_ball(h, alpha, variant)

    monkeypatch.setattr(ssn, "project_ball", recorded)
    ctx, state = step_instance(method, variant, setup)
    for _ in range(steps):
        out, _ = STEPS[method](state, ctx, LOOSE)
        assert state.fields is None
        for got, want in zip(out.fields, _fields(out.u, ctx), strict=True):
            assert_same_bits(got, want)
        if method == "pt":
            want = residual_pt_reference(out.u, ctx)
        else:
            want = residual_pd_reference(out.u, pre[-1], ctx)
        assert out.inner_residual == pytest.approx(want, rel=1e-10)
        state = out


class TestPtStepLineSearch:
    """Step by step along a PT subproblem: the same step length, the same
    bits and the same projected dual as the trial-by-trial line search, and
    carried fields equal to fresh ones."""

    # Steps along the backtracking instance: its first backtrack comes at
    # step 7 to 9 (iso denoising with float32 directions: step 9).
    PT_STEPS = 12

    @pytest.mark.parametrize("setup", sorted(STEP_SETUPS))
    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_same_step_length_and_bits_as_merit_trials(self, variant, setup):
        ctx, state = backtracking_instance(variant, setup)
        total = 0
        for _ in range(self.PT_STEPS):
            want_u, _, want_eta, want_backtracks = ssnpt_step_oracle(state, ctx, LOOSE)
            state, _ = ssnpt_step(state, ctx, LOOSE)
            assert state.backtracks == want_backtracks
            assert ARMIJO_THETA ** state.backtracks == want_eta
            assert_same_bits(state.u, want_u)
            total += state.backtracks
        assert total > 0  # the line search backtracked somewhere

    @pytest.mark.parametrize("setup", sorted(STEP_SETUPS))
    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_carried_dual_is_the_oracle_s_projected_dual(self, variant, setup):
        # The dual is recovered on the step taken, damped ones included.
        ctx, state = backtracking_instance(variant, setup)
        total = 0
        for _ in range(self.PT_STEPS):
            _, want_h, _, _ = ssnpt_step_oracle(state, ctx, LOOSE)
            state, _ = ssnpt_step(state, ctx, LOOSE)
            assert_same_bits(state.h, want_h)
            mag = pointwise_mag(state.h) if variant == ISO else np.abs(state.h)
            assert np.all(mag <= ctx.alpha * (1 + 1e-12))
            total += state.backtracks
        assert total > 0

    @pytest.mark.parametrize("setup", sorted(STEP_SETUPS))
    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_carried_fields_equal_fresh_ones(self, variant, setup, monkeypatch):
        check_carried_fields("pt", variant, setup, monkeypatch)

    def test_subproblem_sums_the_backtracks(self, monkeypatch):
        import tvalm.ssn as ssn
        seen = []

        def counted(state, ctx, kcfg):
            out, kit = ssnpt_step(state, ctx, kcfg)
            seen.append(out.backtracks)
            return out, kit

        monkeypatch.setattr(ssn, "ssnpt_step", counted)
        clean = blocks_image(16, 16, seed=3)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        # At sigma 4 every step of this subproblem takes the full step.
        ctx = AlmContext(np.zeros((2, 16, 16)), 64.0, 0.1, ANISO, DataTerm(z))
        res = solve_subproblem(z, np.zeros((2, 16, 16)), ctx, "pt", 1e-4)
        assert res.backtracks == sum(seen) > 0
        assert res.tight_resolves == 0
        assert solve_subproblem(z, np.zeros((2, 16, 16)), ctx, "pdp", 1e-4).backtracks == 0

    def test_failure_reports_the_last_trial(self, monkeypatch):
        # A merit that never falls: every trial fails, and the error names
        # the last length tried and the merit there.
        import tvalm.ssn as ssn
        phi0, etas = 3.0, []

        def never_falls(eta):
            etas.append(eta)
            return 1.0

        monkeypatch.setattr(ssn, "_merit_line", lambda u, delta_u, ctx: (phi0, never_falls))
        with pytest.raises(LineSearchError) as info:
            ssn._armijo(None, None, -1.0, None)
        assert etas == [ARMIJO_THETA ** b for b in range(ARMIJO_MAX_BACKTRACKS)]
        assert info.value.eta == ARMIJO_THETA ** (ARMIJO_MAX_BACKTRACKS - 1)
        assert (info.value.phi0, info.value.phi_last) == (phi0, phi0 + 1.0)


class TestPrimalDualCarriedFields:
    """PDP and PDD carry their iterates' fields as PT does."""

    @pytest.mark.parametrize("setup", sorted(STEP_SETUPS))
    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_pdp(self, variant, setup, monkeypatch):
        check_carried_fields("pdp", variant, setup, monkeypatch)

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_pdd(self, variant, monkeypatch):
        check_carried_fields("pdd", variant, "identity", monkeypatch)


def ssnpdp_step_reference(state, ctx, kcfg):
    """ssnpdp_step as written before PDP and PT shared one image-space
    step."""
    import tvalm.ssn as ssn
    u, h = state.u, state.h
    w, U, coef, _ = ssn._take_fields(state)
    rhs = ssn._primal_rhs(u, w / U, ctx)
    system, jacobi = ssn._image_system(ctx, *ssn._pdp_flux(U, coef, h, ctx))
    delta_u, kit = cg_solve(system, rhs, kcfg, jacobi)
    u_new = u + delta_u
    g = grad(delta_u)
    h_pre = (w + ctx.sigma * g - ssn._b_of_grad(g, coef, h, ctx.variant)) / U
    h_new = project_ball(h_pre, ctx.alpha, ctx.variant)
    return _iterate(u_new, h_new, ctx, "pdp", h_pre), kit


class TestPdpSharedStep:
    """PDP's step through the shared image-space step is, bit for bit, the
    step it was before wherever it solves in float64: at every request when
    deblurring, and at requests below F32_MIN_TOL when denoising."""

    @pytest.mark.parametrize("setup", sorted(STEP_SETUPS))
    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_bit_identical_to_the_former_step(self, variant, setup):
        requests = [FLOAT64_ONLY] if setup == "identity" else [LOOSE, FLOAT64_ONLY]
        for kcfg in requests:
            self.check(variant, setup, kcfg)

    @staticmethod
    def check(variant, setup, kcfg):
        ctx, state = step_instance("pdp", variant, setup)
        ref = _iterate(state.u.copy(), state.h.copy(), ctx, "pdp")
        for _ in range(8):
            state, kit = ssnpdp_step(state, ctx, kcfg)
            ref, want_kit = ssnpdp_step_reference(ref, ctx, kcfg)
            assert state.f32_solves == state.f32_corrections == 0
            assert kit == want_kit
            assert state.backtracks == ref.backtracks == 0
            assert state.inner_residual == ref.inner_residual
            assert_same_bits(state.u, ref.u)
            assert_same_bits(state.h, ref.h)
            for got, want in zip(state.fields[:3], ref.fields[:3]):
                assert_same_bits(got, want)


def ssnpdd_step_reference(state, ctx, kcfg):
    """ssnpdd_step as written before its steps were line-searched: the full
    step, with the dual increment delta_h its solve returned."""
    import tvalm.ssn as ssn
    u, h = state.u, state.h
    _, U, coef, _ = ssn._take_fields(state)
    b2 = ctx.lam + ssn._b_of_grad(grad(u), coef, h, ctx.variant)
    g_inv = grad(ctx.data.solve(ctx.data.f))
    rhs = b2 + ctx.sigma * g_inv - ssn._b_of_grad(g_inv, coef, h, ctx.variant)
    rhs -= ssn._pdd_system(U, coef, h, ctx)(h)

    def build(dtype):
        system = ssn._pdd_system(U.astype(dtype, copy=False), coef.astype(dtype, copy=False),
                                 h.astype(dtype, copy=False), ctx)
        return LinearMap(system, system)
    delta_h, kit, *f32 = ssn._mixed_solve(build, bicgstab_solve, rhs, kcfg, ctx.data.identity)
    h_pre = h + delta_h
    u_new = ctx.data.solve(ctx.data.f + div(h_pre))
    h_new = project_ball(h_pre, ctx.alpha, ctx.variant)
    return _iterate(u_new, h_new, ctx, "pdd", h_pre, 0, *f32), kit, delta_h


def ssnpdd_step_oracle(state, ctx, kcfg):
    """PDD's line-searched step, from the full step of
    ``ssnpdd_step_reference``: along delta_u = u_full - u, a descent
    direction for the merit is backtracked by ``armijo_oracle``, and u and h
    both move by that length.  Returns the new iterate, marked ``searched``
    if its direction descends, and the length."""
    import tvalm.ssn as ssn
    u, h = state.u, state.h
    full, _, delta_h = ssnpdd_step_reference(_iterate(u, h, ctx, "pdd"), ctx, kcfg)
    delta_u = full.u - u
    w, U, _, _ = _fields(u, ctx)
    slope = -inner_x(ssn._primal_rhs(u, w / U, ctx), delta_u)
    eta, backtracks = armijo_oracle(u, delta_u, slope, ctx) if slope < 0.0 else (1.0, 0)
    if eta == 1.0:
        full.searched = slope < 0.0
        return full, eta
    h_pre = h + eta * delta_h
    h_new = project_ball(h_pre, ctx.alpha, ctx.variant)
    return _iterate(u + eta * delta_u, h_new, ctx, "pdd", h_pre, backtracks,
                    searched=True), eta


class TestPddLineSearch:
    """PDD steps are line-searched as PT's are, iso or aniso, with mu > 0 or
    a blur: both fields move by the Armijo length of the merit along the
    image update, and a direction that does not descend takes the full
    step, not searched."""

    # Steps along a 16x16 aniso subproblem at sigma 256 from a random
    # feasible dual: the eighth backtracks four times.
    STEPS = 12

    @staticmethod
    def instance():
        return step_instance("pdd", ANISO, "identity", sigma=256.0, random_dual=True)

    def test_both_fields_move_by_the_oracle_s_length(self):
        ctx, state = self.instance()
        damped = 0
        for _ in range(self.STEPS):
            want, eta = ssnpdd_step_oracle(state, ctx, LOOSE)
            state, _ = ssnpdd_step(state, ctx, LOOSE)
            assert (state.backtracks, state.searched) == (want.backtracks, want.searched)
            assert ARMIJO_THETA ** state.backtracks == eta
            assert state.inner_residual == want.inner_residual
            assert_same_bits(state.u, want.u)
            assert_same_bits(state.h, want.h)
            damped += eta < 1.0
        assert damped > 0

    def test_a_non_descent_direction_takes_the_full_step(self, monkeypatch):
        # From the state whose step backtracks, a carried residual field
        # stubbed to its negative makes the same direction ascend: the step
        # then takes the full step, bit for bit the step without the line
        # search.
        import tvalm.ssn as ssn
        ctx, state = self.instance()
        for _ in range(self.STEPS):
            u, h = state.u.copy(), state.h.copy()
            state, _ = ssnpdd_step(state, ctx, LOOSE)
            if state.backtracks > 0:
                break
        assert state.backtracks > 0
        want, want_kit, _ = ssnpdd_step_reference(_iterate(u, h, ctx, "pdd"), ctx, LOOSE)

        def no_search(*args):
            raise AssertionError("an ascent direction was line-searched")

        monkeypatch.setattr(ssn, "_armijo", no_search)
        start = _iterate(u, h, ctx, "pdd")
        start.fields = start.fields._replace(rhs=-start.fields.rhs)
        out, kit = ssnpdd_step(start, ctx, LOOSE)
        assert kit == want_kit and out.backtracks == 0 and not out.searched
        assert (out.f32_solves, out.f32_corrections) == (want.f32_solves, want.f32_corrections)
        assert out.inner_residual == want.inner_residual
        assert_same_bits(out.u, want.u)
        assert_same_bits(out.h, want.h)

    @pytest.mark.parametrize("setup", ["identity-mu1e-3", "motion3-mu1e-3"])
    def test_mu_or_a_blur_is_searched(self, setup):
        # The steps of the backtracking instance with H = I - mu Laplacian
        # or a blur: the oracle's length, bit for bit.  With mu the eighth
        # and ninth steps backtrack, with the blur the first four do; each
        # instance meets a direction that does not descend.
        ctx, state = step_instance("pdd", ANISO, setup.replace("identity-mu1e-3", "identity"),
                                   sigma=256.0, random_dual=True)
        if setup == "identity-mu1e-3":
            ctx = replace(ctx, data=DataTerm(ctx.data.z, None, 1e-3))
            state = _iterate(state.u, state.h, ctx, "pdd")
        damped = ascents = 0
        for _ in range(self.STEPS):
            want, eta = ssnpdd_step_oracle(state, ctx, LOOSE)
            state, _ = ssnpdd_step(state, ctx, LOOSE)
            assert (state.backtracks, state.searched) == (want.backtracks, want.searched)
            assert state.inner_residual == want.inner_residual
            assert_same_bits(state.u, want.u)
            assert_same_bits(state.h, want.h)
            damped += eta < 1.0
            ascents += not state.searched
        assert damped > 0 and ascents > 0

    def test_a_subproblem_of_descent_steps_never_re_solves(self, monkeypatch):
        # The instance on which one loose PDP step raises the residual and
        # is redone tight: aniso PDD's directions all descend, every step is
        # taken from a new iterate at its loose request, and the search
        # backtracks instead.
        import tvalm.ssn as ssn
        calls = []

        def recorded(state, ctx, kcfg):
            cand, kit = ssnpdd_step(state, ctx, kcfg)
            calls.append((state, kcfg.rel_tol, cand.searched))
            return cand, kit

        monkeypatch.setattr(ssn, "ssnpdd_step", recorded)
        z, ctx = TestSolveSubproblem.tight_instance(ANISO)
        res = solve_subproblem(z, np.zeros((2, 8, 8)), ctx, "pdd", 1e-6)
        assert res.tight_resolves == 0 and res.backtracks > 0
        assert all(searched for _, _, searched in calls)
        assert res.newton_steps == len(calls) == len({id(c[0]) for c in calls})
        res0 = res.residuals[0]
        for (_, rel_tol, _), residual in zip(calls, res.residuals):
            assert rel_tol == _krylov_request(residual, res0, res.threshold, False).rel_tol


def next_multiplier_oracle(u, ctx, method):
    """The outer loop's multiplier update at u, in the two forms it had
    before the subproblem solve returned it: the soft-threshold update for
    PT, the projection of lam + sigma grad u for PDP and PDD."""
    gu = grad(u)
    if method == "pt":
        p = soft_threshold(ctx.lam / ctx.sigma + gu, ctx.alpha / ctx.sigma, ctx.variant)
        return ctx.lam + ctx.sigma * (gu - p)
    return project_ball(ctx.lam + ctx.sigma * gu, ctx.alpha, ctx.variant)


class TestNextMultiplier:
    """The multiplier a subproblem solve returns is, bit for bit, the update
    at its final iterate; PDP and PDD read it off that iterate's fields."""

    @staticmethod
    def check(method, variant, setup, delta=1e-4):
        ctx, start = step_instance(method, variant, setup)
        res = solve_subproblem(start.u, start.h, ctx, method, delta)
        assert_same_bits(res.lam, next_multiplier_oracle(res.state.u, ctx, method))
        assert res.state.fields is None
        return res

    @pytest.mark.parametrize("setup", sorted(STEP_SETUPS))
    @pytest.mark.parametrize("variant", [ISO, ANISO])
    @pytest.mark.parametrize("method", ["pdp", "pt"])
    def test_pdp_and_pt(self, method, variant, setup):
        assert self.check(method, variant, setup).newton_steps > 0

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_pdd(self, variant):
        assert self.check("pdd", variant, "identity").newton_steps > 0

    @pytest.mark.parametrize("method", ["pdp", "pdd", "pt"])
    def test_no_newton_step(self, method):
        # A start state already below the threshold: the update at u0.
        assert self.check(method, ANISO, "identity", delta=1e6).newton_steps == 0


def direction_instance(variant, mu=0.0):
    """A 16x16 denoising Newton system: ``_pdp_flux`` at a random feasible
    dual and the primal residual at u = z, with mu folded in if positive."""
    import tvalm.ssn as ssn
    ctx, state = step_instance("pdp", variant, "identity", random_dual=True)
    if mu > 0.0:
        ctx = replace(ctx, data=DataTerm(ctx.data.z, None, mu))
    w, U, coef, _ = _fields(state.u, ctx)
    rhs = ssn._primal_rhs(state.u, w / U, ctx)
    return ctx, ssn._pdp_flux(U, coef, state.h, ctx), rhs


def float64_residual(ctx, flux, rhs, delta_u):
    """||rhs - A delta_u|| with the float64 operator through grad and div."""
    return norm_x(rhs - image_system_oracle(ctx, *flux)(delta_u))


class TestFloat32Direction:
    """Loose denoising requests are solved in float32, then checked, and
    refined if they miss, in float64 (``_newton_direction``)."""

    @pytest.mark.parametrize("mu", [0.0, 1e-3])
    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_float32_operator(self, variant, mu):
        # Built from float32 coefficients, the operator maps float32 to
        # float32, and agrees with the float64 one to float32 rounding.
        from tvalm.ssn import _image_system
        ctx, (a, off), rhs = direction_instance(variant, mu)
        f32 = np.float32
        off32 = None if off is None else off.astype(f32)
        system, jacobi = _image_system(ctx, a.astype(f32), off32)
        assert jacobi is None
        v = np.random.default_rng(7).normal(size=rhs.shape)
        v32 = v.astype(f32)
        v_before = v32.copy()
        got = system.apply(v32)
        assert got.dtype == np.float32 and got.shape == v.shape
        assert_same_bits(v32, v_before)
        want = image_system_oracle(ctx, a, off)(v)
        assert norm_x(got - want) <= 8 * np.finfo(f32).eps * norm_x(want)

    @pytest.mark.parametrize("rel_tol", [0.1, F32_MIN_TOL])
    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_meets_the_request_in_float64(self, variant, rel_tol, monkeypatch):
        import tvalm.ssn as ssn
        dtypes = []

        def recorded(A, b, cfg, diag=None):
            dtypes.append(b.dtype)
            return cg_solve(A, b, cfg, diag)

        monkeypatch.setattr(ssn, "cg_solve", recorded)
        ctx, flux, rhs = direction_instance(variant)
        kcfg = KrylovConfig(rel_tol=rel_tol, max_iters=1000)
        delta_u, kit, solves, corrections = ssn._newton_direction(ctx, *flux, rhs, kcfg)
        assert delta_u.dtype == np.float64 and kit > 0
        assert (solves, len(dtypes)) == (1, 1 + corrections)
        assert dtypes == [np.float32] + [np.float64] * corrections
        assert float64_residual(ctx, flux, rhs, delta_u) <= rel_tol * norm_x(rhs)

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_a_missed_solve_is_corrected(self, variant, monkeypatch):
        # A float32 solve forced to miss (its direction halved, so that its
        # residual is about half of rhs) is corrected by one float64 solve
        # against its residual, to the request's share of it.
        import tvalm.ssn as ssn
        calls = []

        def truncated(A, b, cfg, diag=None):
            x, it = cg_solve(A, b, cfg, diag)
            calls.append((b, cfg.rel_tol, it))
            return (0.5 * x if b.dtype == np.float32 else x), it

        monkeypatch.setattr(ssn, "cg_solve", truncated)
        ctx, flux, rhs = direction_instance(variant)
        delta_u, kit, solves, corrections = ssn._newton_direction(ctx, *flux, rhs, LOOSE)
        assert (solves, corrections) == (1, 1)
        (b32, _, it32), (r, tol, it64) = calls
        assert b32.dtype == np.float32 and r.dtype == np.float64
        assert kit == it32 + it64
        assert tol == pytest.approx(LOOSE.rel_tol * norm_x(rhs) / norm_x(r), rel=1e-12)
        assert float64_residual(ctx, flux, rhs, delta_u) <= LOOSE.rel_tol * norm_x(rhs)
        # A step records the correction, and a subproblem sums the records.
        ctx, state = step_instance("pdp", variant, "identity")
        out, _ = ssnpdp_step(state, ctx, LOOSE)
        assert (out.f32_solves, out.f32_corrections) == (1, 1)
        ctx, start = step_instance("pt", variant, "identity")
        res = solve_subproblem(start.u, start.h, ctx, "pt", 1e-4)
        assert res.f32_solves == res.f32_corrections > 0


def mixed_solves(monkeypatch):
    """Record each ``_mixed_solve`` call of ssn as (b, answer)."""
    import tvalm.ssn as ssn
    real, calls = ssn._mixed_solve, []

    def recorded(build, krylov, b, kcfg, allow_f32):
        out = real(build, krylov, b, kcfg, allow_f32)
        calls.append((b, out[0]))
        return out

    monkeypatch.setattr(ssn, "_mixed_solve", recorded)
    return calls


def bicgstab_dtypes(monkeypatch):
    """Record the dtype of each right-hand side ssn hands BiCGSTAB."""
    import tvalm.ssn as ssn
    dtypes = []

    def recorded(A, b, cfg):
        dtypes.append(b.dtype)
        return bicgstab_solve(A, b, cfg)

    monkeypatch.setattr(ssn, "bicgstab_solve", recorded)
    return dtypes


def dual_residual(state, ctx, b, x):
    """||b - A x|| with the float64 dual operator of a PDD step from state."""
    from tvalm.ssn import _pdd_system
    _, U, coef, _ = _fields(state.u, ctx)
    return norm_y(b - _pdd_system(U, coef, state.h, ctx)(x))


class TestFloat32DualSolve:
    """PDD's BiCGSTAB solves loose requests with H = I in float32, then
    checks, and refines if they miss, in float64 (``_mixed_solve``, which
    ``_newton_direction``'s CG shares)."""

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_float32_operator(self, variant):
        # Built from float32 coefficients, the dual operator maps float32 to
        # float32, and agrees with the float64 one to float32 rounding.
        from tvalm.ssn import _pdd_system
        ctx, state = step_instance("pdd", variant, "identity", random_dual=True)
        _, U, coef, _ = _fields(state.u, ctx)
        f32 = np.float32
        system = _pdd_system(U.astype(f32), coef.astype(f32), state.h.astype(f32), ctx)
        q = np.random.default_rng(7).normal(size=state.h.shape)
        got = system(q.astype(f32))
        assert got.dtype == np.float32 and got.shape == q.shape
        want = _pdd_system(U, coef, state.h, ctx)(q)
        assert norm_y(got - want) <= 8 * np.finfo(f32).eps * norm_y(want)

    @pytest.mark.parametrize("rel_tol", [0.1, F32_MIN_TOL])
    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_meets_the_request_in_float64(self, variant, rel_tol, monkeypatch):
        dtypes = bicgstab_dtypes(monkeypatch)
        solves = mixed_solves(monkeypatch)
        ctx, state = step_instance("pdd", variant, "identity", random_dual=True)
        kcfg = KrylovConfig(rel_tol=rel_tol, max_iters=KRYLOV_MAX_ITERS)
        out, kit = ssnpdd_step(state, ctx, kcfg)
        assert kit > 0 and out.f32_solves == 1
        assert dtypes == [np.float32] + [np.float64] * out.f32_corrections
        ((b, delta_h),) = solves
        assert delta_h.dtype == np.float64
        assert dual_residual(state, ctx, b, delta_h) <= rel_tol * norm_y(b)

    @pytest.mark.parametrize("setup, mu", [("identity", 1e-3), ("motion3-mu1e-3", None),
                                           ("identity", None)])
    def test_float64_unless_the_data_term_is_the_identity(self, setup, mu, monkeypatch):
        # H^{-1} is a float64 solve unless H = I; and a request below
        # F32_MIN_TOL stays in float64 there too.
        dtypes = bicgstab_dtypes(monkeypatch)
        ctx, state = step_instance("pdd", ISO, setup)
        if mu is not None:
            ctx = replace(ctx, data=DataTerm(ctx.data.z, None, mu))
            state = _iterate(state.u, state.h, ctx, "pdd")
        kcfg = FLOAT64_ONLY if ctx.data.identity else LOOSE
        out, _ = ssnpdd_step(state, ctx, kcfg)
        assert dtypes == [np.float64]
        assert (out.f32_solves, out.f32_corrections) == (0, 0)

    @pytest.mark.parametrize("variant", [ISO, ANISO])
    def test_a_missed_solve_is_corrected(self, variant, monkeypatch):
        # A float32 solve forced to miss (its answer halved) is corrected by
        # one float64 solve against its residual, to the request's share of
        # it.
        import tvalm.ssn as ssn
        calls = []

        def truncated(A, b, cfg):
            x, it = bicgstab_solve(A, b, cfg)
            calls.append((b, cfg.rel_tol, it))
            return (0.5 * x if b.dtype == np.float32 else x), it

        monkeypatch.setattr(ssn, "bicgstab_solve", truncated)
        solves = mixed_solves(monkeypatch)
        ctx, state = step_instance("pdd", variant, "identity", random_dual=True)
        out, kit = ssnpdd_step(state, ctx, LOOSE)
        assert (out.f32_solves, out.f32_corrections) == (1, 1)
        (b32, _, it32), (r, tol, it64) = calls
        assert b32.dtype == np.float32 and r.dtype == np.float64
        assert kit == it32 + it64
        ((b, delta_h),) = solves
        assert tol == pytest.approx(LOOSE.rel_tol * norm_y(b) / norm_y(r), rel=1e-12)
        assert dual_residual(state, ctx, b, delta_h) <= LOOSE.rel_tol * norm_y(b)
        # A subproblem sums the steps' records.
        ctx, start = step_instance("pdd", variant, "identity")
        res = solve_subproblem(start.u, start.h, ctx, "pdd", 1e-4)
        assert res.f32_solves == res.f32_corrections > 0

    @pytest.mark.parametrize("method, solver", [("pdd", "bicgstab_solve"), ("pdp", "cg_solve")])
    def test_a_float32_give_up_falls_back_to_float64(self, method, solver, monkeypatch):
        # A float32 solve that raises KrylovError is no failure: the step
        # solves in float64 from zero at its request, as a float64-only
        # step does, bit for bit, and counts a correction and the failed
        # solve's iterations.
        import tvalm.ssn as ssn
        real, calls = getattr(ssn, solver), []

        def give_up(A, b, cfg, *rest):
            calls.append((b, cfg))
            if b.dtype == np.float32:
                raise KrylovError("gave up", method=solver, residual=0.5, iterations=7)
            return real(A, b, cfg, *rest)

        ctx, state = step_instance(method, ANISO, "identity", random_dual=True)
        monkeypatch.setattr(ssn, "F32_MIN_TOL", 1.0)
        want, want_kit = STEPS[method](state, ctx, LOOSE)
        ctx, state = step_instance(method, ANISO, "identity", random_dual=True)
        monkeypatch.setattr(ssn, "F32_MIN_TOL", F32_MIN_TOL)
        monkeypatch.setattr(ssn, solver, give_up)
        out, kit = STEPS[method](state, ctx, LOOSE)
        (b32, cfg32), (b, cfg) = calls
        assert b32.dtype == np.float32 and b.dtype == np.float64
        assert cfg32 is cfg is LOOSE
        assert (out.f32_solves, out.f32_corrections) == (1, 1)
        assert kit == 7 + want_kit
        assert_same_bits(out.u, want.u)
        assert_same_bits(out.h, want.h)
