import math

import numpy as np
import pytest

from flexdog.dog import (
    DogImage,
    GaussianKernel,
    IntensityImage,
    convolve_valid,
    correlate_valid,
    dog,
    make_gaussian_kernel,
    op_count,
)
from flexdog.errors import ConfigurationError, DimensionError, InvalidParameterError


def brute_force_dog(pixels, sigma1, sigma2, p):
    """Independent oracle: evaluate the Gaussian sums pixel by pixel."""
    h, w = pixels.shape

    def blurred(sigma, y, x):
        acc = 0.0
        for dy in range(-p, p + 1):
            for dx in range(-p, p + 1):
                g = math.exp(-(dx * dx + dy * dy) / (2 * sigma * sigma)) / (
                    2 * math.pi * sigma * sigma
                )
                acc += pixels[y + dy, x + dx] * g
        return acc

    # normalized kernels
    def norm(sigma):
        return sum(
            math.exp(-(dx * dx + dy * dy) / (2 * sigma * sigma)) / (2 * math.pi * sigma * sigma)
            for dy in range(-p, p + 1)
            for dx in range(-p, p + 1)
        )

    n1, n2 = norm(sigma1), norm(sigma2)
    out = np.zeros((h - 2 * p, w - 2 * p))
    for y in range(p, h - p):
        for x in range(p, w - p):
            out[y - p, x - p] = blurred(sigma1, y, x) / n1 - blurred(sigma2, y, x) / n2
    return out


class TestMakeGaussianKernel:
    def test_center_weight_unnormalized(self):
        k = make_gaussian_kernel(0.85, 1)
        expected = 1.0 / (2 * math.pi * 0.7225)
        assert k.weights[1, 1] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.22027, abs=1e-4)

    @pytest.mark.parametrize("sigma", [0.3, 0.85, 2.0, 17.0, 100.0])
    @pytest.mark.parametrize("p", [1, 3, 7])
    def test_normalized_sums_to_one(self, sigma, p):
        k = make_gaussian_kernel(sigma, p, normalize=True)
        assert abs(k.weights.sum() - 1.0) < 1e-12

    def test_flat_kernel_limit(self):
        k = make_gaussian_kernel(1e6, 1, normalize=True)
        assert np.allclose(k.weights, 1.0 / 9.0, atol=1e-9)

    def test_symmetry_exact(self):
        k = make_gaussian_kernel(1.3, 3)
        w = k.weights
        assert np.array_equal(w, w[::-1, :])
        assert np.array_equal(w, w[:, ::-1])
        assert np.array_equal(w, w.T)

    def test_center_is_max(self):
        k = make_gaussian_kernel(0.6, 2)
        assert k.weights[2, 2] == k.weights.max()
        assert np.all(k.weights > 0)

    @pytest.mark.parametrize("sigma,p", [(0.0, 1), (-1.0, 1), (1.0, 0), (1.0, -2),
                                         (float("nan"), 1), (float("inf"), 1)])
    def test_invalid_parameters(self, sigma, p):
        with pytest.raises(InvalidParameterError):
            make_gaussian_kernel(sigma, p)


class TestConvolveValid:
    def test_constant_preservation(self):
        img = IntensityImage(np.full((10, 12), 0.5))
        k = make_gaussian_kernel(0.85, 1, normalize=True)
        out = convolve_valid(img, k)
        assert out.values.shape == (8, 10)
        assert np.allclose(out.values, 0.5, atol=1e-12)

    def test_delta_kernel_crops_input(self):
        rng = np.random.default_rng(5)
        img = IntensityImage(rng.random((9, 7)))
        w = np.zeros((3, 3))
        w[1, 1] = 1.0
        k = GaussianKernel(sigma=1.0, half_width=1, weights=w)  # test-only kernel
        out = convolve_valid(img, k)
        assert np.array_equal(out.values, img.pixels[1:-1, 1:-1])

    def test_flat_kernel_mean(self):
        img = IntensityImage(np.arange(9, dtype=float).reshape(3, 3) / 8.0)
        k = GaussianKernel(sigma=1.0, half_width=1, weights=np.full((3, 3), 1 / 9))
        out = convolve_valid(img, k)
        assert out.values.shape == (1, 1)
        assert out.values[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_image_smaller_than_kernel(self):
        img = IntensityImage(np.zeros((2, 2)))
        k = make_gaussian_kernel(1.0, 1)
        with pytest.raises(DimensionError):
            convolve_valid(img, k)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        i1, i2 = rng.random((14, 14)), rng.random((14, 14))
        k = make_gaussian_kernel(1.2, 2, normalize=True)
        a, b = 3.5, -1.25  # leaves [0,1]; exercised through the unclamped core
        lhs = correlate_valid(a * i1 + b * i2, k.weights)
        rhs = a * correlate_valid(i1, k.weights) + b * correlate_valid(i2, k.weights)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_correlation_equals_convolution_for_symmetric_kernel(self):
        rng = np.random.default_rng(3)
        img = rng.random((12, 15))
        k = make_gaussian_kernel(0.9, 2)
        flipped = k.weights[::-1, ::-1]
        assert np.array_equal(
            correlate_valid(img, k.weights), correlate_valid(img, flipped)
        )


class TestDog:
    def test_constant_image_is_zero(self):
        img = IntensityImage(np.full((9, 9), 0.7))
        k1 = make_gaussian_kernel(0.85, 1, normalize=True)
        k2 = make_gaussian_kernel(1.2, 1, normalize=True)
        d = dog(img, k1, k2)
        assert np.allclose(d.values, 0.0, atol=1e-12)

    def test_equal_kernels_give_zero(self):
        rng = np.random.default_rng(1)
        img = IntensityImage(rng.random((8, 8)))
        k = make_gaussian_kernel(0.85, 1, normalize=True)
        m = convolve_valid(img, k)
        d = DogImage(values=m.values - m.values, sigma1=k.sigma, sigma2=k.sigma)
        assert np.all(d.values == 0.0)

    def test_step_edge_sign_change(self):
        pixels = np.zeros((12, 12))
        pixels[:, 6:] = 1.0
        img = IntensityImage(pixels)
        sigma1 = 0.85
        sigma2 = sigma1 * math.sqrt(2)
        k1 = make_gaussian_kernel(sigma1, 1, normalize=True)
        k2 = make_gaussian_kernel(sigma2, 1, normalize=True)
        d = dog(img, k1, k2)
        expected = brute_force_dog(pixels, sigma1, sigma2, 1)
        assert np.allclose(d.values, expected, atol=1e-12)
        # dark side of the edge dips negative, bright side overshoots positive
        assert np.all(d.values[:, 4] < 0)
        assert np.all(d.values[:, 5] > 0)
        assert np.allclose(d.values[:, 0], 0.0, atol=1e-12)
        assert np.allclose(d.values[:, -1], 0.0, atol=1e-12)

    def test_mismatched_half_widths_rejected(self):
        img = IntensityImage(np.zeros((9, 9)))
        with pytest.raises(ConfigurationError):
            dog(img, make_gaussian_kernel(0.85, 1), make_gaussian_kernel(1.2, 2))

    def test_sigma_order_enforced(self):
        img = IntensityImage(np.zeros((9, 9)))
        with pytest.raises(ConfigurationError):
            dog(img, make_gaussian_kernel(1.2, 1), make_gaussian_kernel(0.85, 1))


def instrumented_convolve(pixels, weights):
    """Naive convolution that literally counts multiply and add events."""
    kh, kw = weights.shape
    oh, ow = pixels.shape[0] - kh + 1, pixels.shape[1] - kw + 1
    out = np.zeros((oh, ow))
    mults = adds = 0
    for y in range(oh):
        for x in range(ow):
            acc = 0.0
            first = True
            for i in range(kh):
                for j in range(kw):
                    prod = weights[i, j] * pixels[y + i, x + j]
                    mults += 1
                    if first:
                        acc = prod
                        first = False
                    else:
                        acc = acc + prod
                        adds += 1
            out[y, x] = acc
    return out, mults, adds


class TestOpCount:
    def test_paper_example_28x28(self):
        oc = op_count(28, 28, 1)
        assert oc.multiplications == 26 * 26 * 9 == 6084
        assert oc.additions == 26 * 26 * 8 == 5408

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_single_output_pixel(self, p):
        oc = op_count(2 * p + 1, 2 * p + 1, p)
        assert oc.multiplications == (2 * p + 1) ** 2
        assert oc.additions == (2 * p + 1) ** 2 - 1

    def test_large_case_bounded_by_complexity_model(self):
        oc = op_count(100, 100, 5)
        assert oc.multiplications == 90 * 90 * 121 == 980100
        assert oc.multiplications <= 8 * 100 * 100 * 25

    def test_kernel_larger_than_image(self):
        with pytest.raises(DimensionError):
            op_count(5, 5, 3)

    def test_matches_instrumented_convolution(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            p = int(rng.integers(1, 6))
            m = int(rng.integers(2 * p + 1, 40))
            n = int(rng.integers(2 * p + 1, 40))
            pixels = rng.random((m, n))
            weights = rng.random((2 * p + 1, 2 * p + 1))
            ref, mults, adds = instrumented_convolve(pixels, weights)
            oc = op_count(m, n, p)
            assert (oc.multiplications, oc.additions) == (mults, adds)
            assert np.allclose(ref, correlate_valid(pixels, weights), atol=1e-12)

    def test_complexity_ratio_converges_below_one(self):
        p = 5
        ratios = []
        for m in (50, 100, 200):
            oc = op_count(m, m, p)
            ratios.append(oc.multiplications / (8 * m * m * p * p))
        limit = (2 * p + 1) ** 2 / (8 * p * p)
        assert all(r <= 1.0 for r in ratios)
        assert ratios == sorted(ratios)  # approaches the limit from below
        assert ratios[-1] == pytest.approx(limit, rel=0.11)


class TestTypes:
    @pytest.mark.parametrize("bad", [1.5, -0.5, float("nan")])
    def test_intensity_image_range_checked(self, bad):
        with pytest.raises(InvalidParameterError):
            IntensityImage(np.array([[0.0, bad]]))

    def test_intensity_image_shape_checked(self):
        with pytest.raises(DimensionError):
            IntensityImage(np.zeros(5))

    def test_kernel_shape_checked(self):
        with pytest.raises(DimensionError):
            GaussianKernel(sigma=1.0, half_width=2, weights=np.ones((3, 3)))

    def test_op_count_nonnegative(self):
        with pytest.raises(InvalidParameterError):
            from flexdog.dog import OpCount

            OpCount(multiplications=-1, additions=0)
