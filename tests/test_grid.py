"""Grid calculus: gradient/divergence adjointness, inner products, norms."""

import numpy as np
import pytest

from tvalm.grid import (ANISO, ISO, div, grad, image, inner_x, inner_y, norm_x, norm_y,
                        pointwise_mag, tv_norm)

RNG = np.random.default_rng(20240817)


def random_pair(rows, cols):
    u = RNG.normal(size=(rows, cols))
    p = RNG.normal(size=(2, rows, cols))
    return u, p


class TestTypes:
    def test_image_rejects_nan(self):
        with pytest.raises(ValueError):
            image([[1.0, np.nan], [0.0, 2.0]])

    def test_image_rejects_inf_and_wrong_ndim(self):
        with pytest.raises(ValueError):
            image(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            image(np.ones((2, 2, 2)))


class TestGrad:
    def test_constant_image_zero_gradient(self):
        g = grad(np.full((5, 7), 3.25))
        assert np.all(g == 0.0)

    def test_hand_evaluated_2x2(self):
        # u[i,j] with row index i: forward differences then zero boundary.
        u = image([[1.0, 2.0], [3.0, 4.0]])
        g = grad(u)
        assert np.array_equal(g[0], [[2.0, 2.0], [0.0, 0.0]])
        assert np.array_equal(g[1], [[1.0, 0.0], [1.0, 0.0]])

    def test_single_pixel(self):
        g = grad(np.array([[7.0]]))
        assert np.all(g == 0.0)


class TestDiv:
    def test_zero_field(self):
        assert np.all(div(np.zeros((2, 4, 4))) == 0.0)

    def test_adjoint_identity_random(self):
        for rows, cols in [(1, 1), (2, 2), (3, 5), (16, 16)]:
            for _ in range(25):
                u, p = random_pair(rows, cols)
                lhs = inner_y(grad(u), p)
                rhs = -inner_x(u, div(p))
                scale = max(norm_x(u) * norm_y(p), 1e-30)
                assert abs(lhs - rhs) <= 1e-12 * scale

    def test_grad_then_div_is_neumann_laplacian_of_delta(self):
        # Composition on a 3x3 delta: the 5-point Laplacian with Neumann walls.
        delta = np.zeros((3, 3))
        delta[1, 1] = 1.0
        expected = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])
        assert np.allclose(div(grad(delta)), expected, atol=1e-14)

    def test_linearity(self):
        p = RNG.normal(size=(2, 6, 5))
        q = RNG.normal(size=(2, 6, 5))
        a, b = 2.5, -1.25
        combined = div(a * p + b * q)
        separate = a * div(p) + b * div(q)
        assert np.max(np.abs(combined - separate)) <= 1e-13 * max(
            1.0, np.max(np.abs(separate)))


class TestInnerProducts:
    def test_inner_x_with_zero(self):
        u = RNG.normal(size=(4, 4))
        assert inner_x(u, np.zeros((4, 4))) == 0.0

    def test_inner_x_hand_sum(self):
        assert inner_x(image([[1, 2], [3, 4]]), np.ones((2, 2))) == 10.0

    def test_inner_y_symmetric(self):
        p = RNG.normal(size=(2, 5, 3))
        q = RNG.normal(size=(2, 5, 3))
        assert inner_y(p, q) == pytest.approx(inner_y(q, p), rel=1e-15)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            inner_x(np.ones((2, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError):
            inner_y(np.ones((2, 2, 2)), np.ones((2, 3, 3)))


class TestMagnitudeAndTv:
    def test_three_four_five(self):
        p = np.stack((np.full((3, 3), 3.0), np.full((3, 3), 4.0)))
        assert np.allclose(pointwise_mag(p), 5.0)

    def test_zero_field(self):
        assert np.all(pointwise_mag(np.zeros((2, 2, 2))) == 0.0)

    def test_nonnegative(self):
        p = RNG.normal(size=(2, 8, 8))
        assert np.all(pointwise_mag(p) >= 0.0)

    def test_tv_single_pixel(self):
        p = np.array([[[3.0]], [[4.0]]])
        assert tv_norm(p, ISO) == pytest.approx(5.0)
        assert tv_norm(p, ANISO) == pytest.approx(7.0)

    def test_tv_zero_field(self):
        z = np.zeros((2, 4, 4))
        assert tv_norm(z, ISO) == 0.0
        assert tv_norm(z, ANISO) == 0.0

    def test_aniso_dominates_iso(self):
        for _ in range(10):
            p = RNG.normal(size=(2, 6, 6))
            assert tv_norm(p, ANISO) >= tv_norm(p, ISO) - 1e-12

    def test_operator_norm_bound(self):
        # ||grad u||^2 <= 8 ||u||^2 for this stencil.
        for _ in range(20):
            u = RNG.normal(size=(12, 9))
            assert norm_y(grad(u)) ** 2 <= 8.0 * norm_x(u) ** 2
