"""The TV-variant seam: ``grid.magnitude`` and ``grid.direction`` against the
per-variant formulas that the projection, the shrinkage, the TV value, the
residuals and PT's residual field were written with before they went through
the seam.  Those formulas are kept here as oracles.

Where the arithmetic is unchanged the results must be bit-identical, signed
zeros included; the iso shrinkage and PT's residual field changed their
rounding only, and are held to a relative bound.
"""

import numpy as np
import pytest

from tvalm.grid import (ANISO, ISO, direction, div, grad, magnitude, norm_x, norm_y,
                        pointwise_mag, tv_norm)
from tvalm.linops import DataTerm, KrylovConfig, blur_map, motion_kernel
from tvalm.metrics import _res1, _res2, lambda_feasible
from tvalm.prox import project_ball, soft_threshold
from tvalm.ssn import AlmContext, _iterate, ssnpt_step

from test_grid import assert_same_bits

ALPHA = 0.1
VARIANTS = [ISO, ANISO]


def project_ball_oracle(lam, alpha, variant):
    if variant == ISO:
        return lam / np.maximum(1.0, pointwise_mag(lam) / alpha)
    return lam / np.maximum(1.0, np.abs(lam) / alpha)


def soft_threshold_oracle(v, tau, variant):
    """iso: v * max(0, 1 - tau/|v|), 0 where |v| = 0; aniso: the scalar
    three-branch shrinkage per channel."""
    if variant == ISO:
        mag = pointwise_mag(v)
        safe = np.where(mag > 0.0, mag, 1.0)
        return v * np.where(mag > 0.0, np.maximum(0.0, 1.0 - tau / safe), 0.0)
    return np.sign(v) * np.maximum(0.0, np.abs(v) - tau)


def tv_norm_oracle(p, variant):
    if variant == ISO:
        return float(np.sum(pointwise_mag(p)))
    return float(np.sum(np.abs(p)))


def lambda_feasible_oracle(lam, alpha, variant, slack=1e-12):
    bound = alpha * (1.0 + slack)
    if variant == ISO:
        return bool(np.all(pointwise_mag(lam) <= bound))
    return bool(np.all(np.abs(lam) <= bound))


def res1_oracle(g, lam, alpha, variant):
    dot = lam[0] * g[0] + lam[1] * g[1]
    if variant == ISO:
        return norm_x(alpha * pointwise_mag(g) - dot)
    return norm_x(alpha * (np.abs(g[0]) + np.abs(g[1])) - dot)


def res2_oracle(g, lam, alpha, variant):
    if variant == ISO:
        return norm_y(alpha * g - pointwise_mag(g) * lam)
    return norm_y(alpha * g - np.abs(g) * lam)


# Pixels with |v| = alpha exactly in either grouping, zeros and signed zeros.
SPECIAL_PIXELS = [(ALPHA, 0.0), (0.0, -ALPHA), (-ALPHA, -0.0), (ALPHA, ALPHA),
                  (-ALPHA, 0.5 * ALPHA), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0),
                  (-0.0, -0.0), (1e-300, -0.0)]


def field(seed, n=6, scale=ALPHA):
    """A random (2, n, n) field around the ball's radius, with the special
    pixels in its first rows."""
    v = np.random.default_rng(seed).normal(scale=scale, size=(2, n, n))
    for k, pix in enumerate(SPECIAL_PIXELS):
        v[:, k // n, k % n] = pix
    return v


@pytest.fixture(params=range(4))
def v(request):
    return field(request.param, scale=ALPHA * (0.5, 1.0, 2.0, 10.0)[request.param])


class TestSeam:
    def test_magnitude_and_direction(self):
        v = field(0)
        assert_same_bits(magnitude(v, ISO), pointwise_mag(v)[None])
        assert_same_bits(magnitude(v, ANISO), np.abs(v))
        assert_same_bits(direction(v, ANISO), np.sign(v))
        mag = pointwise_mag(v)
        assert_same_bits(direction(v, ISO), v / np.where(mag > 0.0, mag, 1.0))
        # Unit vectors, and zero (keeping its sign) where the pixel is zero.
        unit = pointwise_mag(direction(v, ISO))
        assert np.all((np.abs(unit - 1.0) <= 1e-15) | (mag == 0.0))
        assert np.all(unit[mag == 0.0] == 0.0)

    def test_unknown_variant_rejected(self):
        v = field(0)
        for fn in (magnitude, direction):
            with pytest.raises(ValueError):
                fn(v, "l1")


@pytest.mark.parametrize("variant", VARIANTS)
class TestBitIdentical:
    def test_project_ball(self, v, variant):
        assert_same_bits(project_ball(v, ALPHA, variant),
                         project_ball_oracle(v, ALPHA, variant))

    def test_tv_norm(self, v, variant):
        assert tv_norm(v, variant) == tv_norm_oracle(v, variant)

    def test_lambda_feasible(self, v, variant):
        # On the ball's boundary in both groupings, and just outside it.
        ties = np.zeros_like(v)
        for k, pix in enumerate([(ALPHA, 0.0), (0.0, -ALPHA), (-ALPHA, -0.0), (-0.0, 0.0)]):
            ties[:, 0, k] = pix
        over = ties.copy()
        over[0, 1, 1] = ALPHA * (1.0 + 4e-12)
        for lam in (v, project_ball(v, ALPHA, variant), ties, over):
            assert (lambda_feasible(lam, ALPHA, variant)
                    == lambda_feasible_oracle(lam, ALPHA, variant))
        assert lambda_feasible(ties, ALPHA, variant)
        assert not lambda_feasible(over, ALPHA, variant)

    def test_res1_res2(self, v, variant):
        lam = project_ball(field(9), ALPHA, variant)
        assert _res1(v, lam, ALPHA, variant) == res1_oracle(v, lam, ALPHA, variant)
        assert _res2(v, lam, ALPHA, variant) == res2_oracle(v, lam, ALPHA, variant)


class TestSoftThreshold:
    @pytest.mark.parametrize("tau", [ALPHA, 0.37 * ALPHA])
    def test_aniso_bit_identical(self, v, tau):
        assert_same_bits(soft_threshold(v, tau, ANISO), soft_threshold_oracle(v, tau, ANISO))

    @pytest.mark.parametrize("tau", [ALPHA, 0.37 * ALPHA])
    def test_iso_within_rounding(self, v, tau):
        # direction(v) max(0, |v| - tau) and v max(0, 1 - tau / |v|) each
        # round three times; relative to |v| they differ by under 1e-15.
        got = soft_threshold(v, tau, ISO)
        want = soft_threshold_oracle(v, tau, ISO)
        assert np.all(np.abs(got - want) <= 1e-15 * pointwise_mag(v))
        # Zeros stay zeros, with the sign of the input.
        zero = pointwise_mag(v) <= tau
        assert_same_bits(got[:, zero], want[:, zero])


SETUPS = {"identity": (None, 0.0), "motion3": (motion_kernel(3), 1e-6)}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_pt_residual_field_is_the_shrinkage_form(setup, variant, monkeypatch):
    # PT's residual field H u - f - div P_alpha(lam + sigma grad u), as
    # ssnpt_step hands it (negated) to CG and its start state measures it,
    # against H u - f - div lam - sigma div(grad u - S_tau(lam / sigma + grad u)).
    import tvalm.ssn as ssn
    kernel, mu = SETUPS[setup]
    rng = np.random.default_rng(1618)
    n, sigma = 8, 4.0
    z = np.clip(0.5 + 0.12 * rng.normal(size=(n, n)), 0.0, 1.0)
    lam = project_ball(0.05 * rng.normal(size=(2, n, n)), ALPHA, variant)
    K = None if kernel is None else blur_map(kernel)
    ctx = AlmContext(lam, sigma, ALPHA, variant, DataTerm(z, K, mu))
    u = 0.5 + 0.03 * rng.normal(size=(n, n))
    g = grad(u)
    s = soft_threshold_oracle(lam / sigma + g, ALPHA / sigma, variant)
    # Both branches of the shrinkage are exercised.
    assert 0.0 < np.mean(s != 0.0) < 1.0
    want = ctx.data.H.apply(u) - ctx.data.f - div(lam) - sigma * div(g - s)

    seen = []

    def capture(A, b, cfg, diag=None):
        seen.append(b.copy())
        return np.zeros_like(b), 0

    monkeypatch.setattr(ssn, "cg_solve", capture)
    state = _iterate(u, np.zeros_like(lam), ctx, "pt")
    assert state.inner_residual == pytest.approx(norm_x(want), rel=1e-12)
    ssnpt_step(state, ctx, KrylovConfig(rel_tol=1e-12, max_iters=100))
    (rhs,) = seen
    assert norm_x(-rhs - want) <= 1e-12 * norm_x(want)
