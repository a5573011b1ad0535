"""Grid calculus: gradient/divergence adjointness, inner products, norms."""

import sys

import numpy as np
import pytest

import tvalm.grid
from tvalm.alm import AlmConfig, alm_run
from tvalm.degrade import DegradeSpec, blocks_image, degrade
from tvalm.grid import (ANISO, ISO, div, grad, image, inner_x, norm_x, norm_y, pointwise_mag,
                        tv_norm)
from tvalm.report import strip_timing_columns

RNG = np.random.default_rng(20240817)


def inner_y(p, q):
    """Plain pixel-sum inner product on two-channel fields."""
    assert p.shape == q.shape
    return float(np.sum(p * q))


def grad_2d(u):
    """The 2-D definition of grad, the oracle for the flat-slice one, in
    u's dtype."""
    g = np.empty((2,) + u.shape, u.dtype)
    np.subtract(u[1:, :], u[:-1, :], out=g[0, :-1, :])
    g[0, -1, :] = 0.0
    np.subtract(u[:, 1:], u[:, :-1], out=g[1, :, :-1])
    g[1, :, -1] = 0.0
    return g


def div_2d(p):
    """The 2-D definition of div, the oracle for the flat-slice one, in
    p's dtype."""
    p1, p2 = p[0], p[1]
    out = np.zeros(p1.shape, p.dtype)
    out[:-1, :] += p1[:-1, :]
    out[1:, :] -= p1[:-1, :]
    out[:, :-1] += p2[:, :-1]
    out[:, 1:] -= p2[:, :-1]
    return out


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def signed_zero_field(shape):
    """Random entries drawn from {0.0, -0.0, 1.0, -1.0, 0.5}, so that the
    stencils meet every signed-zero sum and difference."""
    return RNG.choice(np.array([0.0, -0.0, 1.0, -1.0, 0.5]), size=shape)


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


SHAPES = [(1, 1), (1, 6), (6, 1), (2, 3), (64, 64)]


class TestFlatStencilsMatch2d:
    """grad and div work on the flattened image; they must give the same bits
    as the 2-D definitions, signed zeros included."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_grad_bits(self, shape):
        # In float32 too: the result takes the argument's dtype.
        for u in (RNG.normal(size=shape), signed_zero_field(shape)):
            for dtype in (np.float64, np.float32):
                g = grad(u.astype(dtype))
                assert g.dtype == dtype
                assert_same_bits(g, grad_2d(u.astype(dtype)))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_div_bits(self, shape):
        for p in (RNG.normal(size=(2,) + shape), signed_zero_field((2,) + shape)):
            for dtype in (np.float64, np.float32):
                d = div(p.astype(dtype))
                assert d.dtype == dtype
                assert_same_bits(d, div_2d(p.astype(dtype)))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (7, 5), (64, 64)])
    def test_non_contiguous_inputs(self, shape):
        m, n = shape
        transposed = signed_zero_field((n, m)).T
        strided = signed_zero_field((2 * m, 3 * n))[::2, ::3]
        channel = signed_zero_field((2, m, n))[1]
        for u in (transposed, strided, channel):
            assert_same_bits(grad(u), grad_2d(u))
        p_transposed = signed_zero_field((2, n, m)).transpose(0, 2, 1)
        p_strided = signed_zero_field((2, 2 * m, 3 * n))[:, ::2, ::3]
        p_channels = signed_zero_field((m, n, 2)).transpose(2, 0, 1)
        for p in (p_transposed, p_strided, p_channels):
            assert_same_bits(div(p), div_2d(p))

    def test_inputs_untouched(self):
        u = RNG.normal(size=(5, 4))
        p = RNG.normal(size=(2, 5, 4))
        u0, p0 = u.copy(), p.copy()
        grad(u)
        div(p)
        assert_same_bits(u, u0)
        assert_same_bits(p, p0)

    @pytest.mark.parametrize("inner", ["pdp", "pdd", "pt"])
    def test_run_csv_identical_with_2d_oracles(self, inner, monkeypatch):
        """A whole ALM run gives the same CSV, timing aside, when every module
        that imports grad/div by name gets the 2-D definitions instead."""
        clean = blocks_image(16, 16, seed=3)
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        cfg = AlmConfig(alpha=0.1, variant=ISO, inner=inner)

        def run_csv():
            _, report = alm_run(z, None, cfg, reference=clean)
            return strip_timing_columns(report.to_csv())

        flat = run_csv()
        oracles = {tvalm.grid.grad: grad_2d, tvalm.grid.div: div_2d}
        patched = set()
        for name, module in list(sys.modules.items()):
            if name != "tvalm" and not name.startswith("tvalm."):
                continue
            for attr in ("grad", "div"):
                oracle = oracles.get(getattr(module, attr, None))
                if oracle is not None:
                    monkeypatch.setattr(module, attr, oracle)
                    patched.add(f"{name}.{attr}")
        assert {"tvalm.ssn.grad", "tvalm.ssn.div",
                "tvalm.metrics.grad", "tvalm.metrics.div"} <= patched
        assert run_csv() == flat


class TestInnerProducts:
    def test_inner_x_with_zero(self):
        u = RNG.normal(size=(4, 4))
        assert inner_x(u, np.zeros((4, 4))) == 0.0

    def test_inner_x_hand_sum(self):
        assert inner_x(image([[1, 2], [3, 4]]), np.ones((2, 2))) == 10.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            inner_x(np.ones((2, 2)), np.ones((3, 3)))


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
