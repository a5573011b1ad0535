"""Projection and soft-thresholding operators, with the grid-search prox oracle."""

import numpy as np
import pytest

from tvalm.grid import ANISO, ISO, norm_y, pointwise_mag
from tvalm.prox import project_ball, soft_threshold

RNG = np.random.default_rng(991)


def moreau_check(v, sigma, alpha, variant=ISO):
    """Residual norm of the Moreau decomposition of ``v``,
    v = project_ball(v, alpha) + sigma soft_threshold(v / sigma, alpha / sigma);
    zero up to rounding."""
    recomposed = project_ball(v, alpha, variant) + sigma * soft_threshold(
        v / sigma, alpha / sigma, variant)
    return norm_y(v - recomposed)


def pixel(a, b):
    return np.array([[[a]], [[b]]])


def prox_oracle_iso(v1, v2, tau):
    """Two-stage dense grid search for argmin 0.5|x - v|^2 + tau |x|_2.

    Coarse pass over the box spanned by 0 and v, then a fine pass at step
    1e-4 around the coarse minimizer.
    """
    lo1, hi1 = sorted((0.0, v1))
    lo2, hi2 = sorted((0.0, v2))
    pad = 0.05
    xs = np.arange(lo1 - pad, hi1 + pad, 5e-3)
    ys = np.arange(lo2 - pad, hi2 + pad, 5e-3)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    obj = 0.5 * ((X - v1) ** 2 + (Y - v2) ** 2) + tau * np.sqrt(X ** 2 + Y ** 2)
    i, j = np.unravel_index(np.argmin(obj), obj.shape)
    cx, cy = xs[i], ys[j]
    xs = np.arange(cx - 6e-3, cx + 6e-3, 1e-4)
    ys = np.arange(cy - 6e-3, cy + 6e-3, 1e-4)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    obj = 0.5 * ((X - v1) ** 2 + (Y - v2) ** 2) + tau * np.sqrt(X ** 2 + Y ** 2)
    i, j = np.unravel_index(np.argmin(obj), obj.shape)
    return xs[i], ys[j]


def prox_oracle_1d(v, tau):
    """Dense 1-D grid search for argmin 0.5 (x - v)^2 + tau |x|."""
    xs = np.arange(min(0.0, v) - 0.05, max(0.0, v) + 0.05, 1e-4)
    obj = 0.5 * (xs - v) ** 2 + tau * np.abs(xs)
    return xs[np.argmin(obj)]


class TestProjectBall:
    def test_pixel_3_4_iso(self):
        out = project_ball(pixel(3.0, 4.0), 1.0, ISO)
        assert np.allclose(out.ravel(), [0.6, 0.8])

    def test_inside_ball_unchanged(self):
        lam = pixel(0.3, -0.4)
        assert np.array_equal(project_ball(lam, 1.0, ISO), lam)

    def test_aniso_clamps_single_channel(self):
        out = project_ball(pixel(3.0, -0.5), 1.0, ANISO)
        assert np.allclose(out.ravel(), [1.0, -0.5])

    def test_alpha_nonpositive_raises(self):
        with pytest.raises(ValueError):
            project_ball(pixel(1.0, 1.0), 0.0, ISO)

    def test_idempotent(self):
        lam = RNG.normal(size=(2, 6, 6))
        once = project_ball(lam, 0.3, ISO)
        assert np.allclose(project_ball(once, 0.3, ISO), once, atol=1e-15)

    def test_nonexpansive(self):
        for variant in (ISO, ANISO):
            for _ in range(20):
                v = RNG.normal(size=(2, 5, 5))
                w = RNG.normal(size=(2, 5, 5))
                dv = norm_y(project_ball(v, 0.4, variant)
                            - project_ball(w, 0.4, variant))
                assert dv <= norm_y(v - w) + 1e-14

    def test_feasibility(self):
        v = 3.0 * RNG.normal(size=(2, 8, 8))
        alpha = 0.25
        assert np.all(pointwise_mag(project_ball(v, alpha, ISO)) <= alpha + 1e-14)
        assert np.all(np.abs(project_ball(v, alpha, ANISO)) <= alpha + 1e-14)


class TestSoftThreshold:
    def test_pixel_3_4_iso(self):
        out = soft_threshold(pixel(3.0, 4.0), 1.0, ISO)
        assert np.allclose(out.ravel(), [2.4, 3.2])

    def test_inside_threshold_zeroed(self):
        out = soft_threshold(pixel(0.5, -0.4), 1.0, ISO)
        assert np.all(out == 0.0)

    def test_aniso_branches(self):
        out = soft_threshold(pixel(1.5, -0.2), 1.0, ANISO)
        assert np.allclose(out.ravel(), [0.5, 0.0])

    def test_zero_magnitude_maps_to_zero(self):
        assert np.all(soft_threshold(np.zeros((2, 3, 3)), 0.7, ISO) == 0.0)

    def test_tau_nonpositive_raises(self):
        with pytest.raises(ValueError):
            soft_threshold(pixel(1.0, 1.0), -1.0, ANISO)

    def test_matches_grid_search_oracle_iso(self):
        for _ in range(12):
            v1, v2 = RNG.uniform(-1.0, 1.0, size=2)
            tau = RNG.uniform(0.05, 0.6)
            got = soft_threshold(pixel(v1, v2), tau, ISO).ravel()
            want = prox_oracle_iso(v1, v2, tau)
            assert np.allclose(got, want, atol=1e-3)

    def test_matches_grid_search_oracle_aniso(self):
        for _ in range(12):
            v = RNG.uniform(-1.0, 1.0)
            tau = RNG.uniform(0.05, 0.6)
            got = soft_threshold(pixel(v, 0.0), tau, ANISO).ravel()[0]
            assert abs(got - prox_oracle_1d(v, tau)) <= 1e-3


class TestMoreau:
    def test_random_iso(self):
        v = RNG.normal(size=(2, 6, 6))
        assert moreau_check(v, 4.0, 0.1, ISO) <= 1e-12 * max(norm_y(v), 1.0)

    def test_zero_input(self):
        assert moreau_check(np.zeros((2, 3, 3)), 2.0, 0.5, ISO) == 0.0

    def test_random_aniso(self):
        v = RNG.normal(size=(2, 5, 7))
        assert moreau_check(v, 1.0, 0.1, ANISO) <= 1e-12 * max(norm_y(v), 1.0)

    def test_many_random_triples(self):
        for variant in (ISO, ANISO):
            for _ in range(50):
                v = RNG.normal(size=(2, 4, 4)) * RNG.uniform(0.1, 10)
                sigma = RNG.uniform(0.1, 100.0)
                alpha = RNG.uniform(0.01, 2.0)
                assert moreau_check(v, sigma, alpha, variant) <= 1e-12 * max(
                    norm_y(v), 1.0)
