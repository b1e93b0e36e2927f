"""Digital Difference-of-Gaussian reference pipeline.

Bit-exact floating-point Gaussian filtering used as the oracle the analog
simulation is checked against, plus the operation-count model for the naive
digital implementation it replaces.

All functions here are pure; nothing mutates its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, InvalidParameterError, check_range

DEFAULT_SIGMA1 = 0.85
DEFAULT_SIGMA_RATIO = math.sqrt(2.0)


@dataclass(frozen=True)
class IntensityImage:
    """2-D grid of normalized pixel intensities in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=np.float64)
        object.__setattr__(self, "pixels", pixels)
        if pixels.ndim != 2 or pixels.shape[0] < 1 or pixels.shape[1] < 1:
            raise DimensionError(f"image must be a non-empty 2-D grid, got shape {pixels.shape}")
        if np.any(pixels < 0.0) or np.any(pixels > 1.0) or np.any(np.isnan(pixels)):
            raise InvalidParameterError("pixel intensities must lie in [0, 1]")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class GaussianKernel:
    """sigma plus a (2P+1) x (2P+1) weight grid.

    make_gaussian_kernel keeps weights raw (unnormalized) by default so the
    analog programming path can use pure weight ratios; normalizing is its
    option.
    """

    sigma: float
    half_width: int
    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", weights)
        side = 2 * self.half_width + 1
        if weights.shape != (side, side):
            raise DimensionError(
                f"kernel weights must be {side}x{side} for half_width={self.half_width}"
            )


@dataclass(frozen=True)
class FilteredImage:
    """Valid-mode Gaussian-filtered image; values are not clamped to [0, 1]."""

    values: np.ndarray
    sigma: float


@dataclass(frozen=True)
class DogImage:
    """Signed difference of two Gaussian-filtered images (sigma1 < sigma2)."""

    values: np.ndarray
    sigma1: float
    sigma2: float


@dataclass(frozen=True)
class OpCount:
    multiplications: int
    additions: int

    def __post_init__(self):
        if self.multiplications < 0 or self.additions < 0:
            raise InvalidParameterError("operation counts must be nonnegative")


def make_gaussian_kernel(sigma: float, half_width: int, normalize: bool = False) -> GaussianKernel:
    """Sample the 2-D Gaussian (2*pi*sigma^2)^-1 exp(-(x^2+y^2)/(2 sigma^2)).

    The grid spans offsets -half_width..+half_width in both axes.  Symmetry
    under x -> -x, y -> -y and x <-> y is exact because the weight depends on
    x^2 + y^2 only.
    """
    check_range("sigma", sigma, above=0)
    check_range("half_width", half_width, at_least=1)
    offsets = np.arange(-half_width, half_width + 1, dtype=np.float64)
    sq = offsets[:, None] ** 2 + offsets[None, :] ** 2
    weights = np.exp(-sq / (2.0 * sigma * sigma)) / (2.0 * math.pi * sigma * sigma)
    if normalize:
        weights = weights / weights.sum()
    return GaussianKernel(sigma=sigma, half_width=half_width, weights=weights)


def correlate_valid(pixels: np.ndarray, *factors: np.ndarray) -> np.ndarray:
    """Valid-mode cross-correlation with a fixed row-major accumulation order.

    The oracle passes its kernel weights as the one factor grid; the analog
    cell array passes each cell's factors.  Each tap's window is multiplied by
    every factor grid in turn, left to right, and added in the kernel's
    row-major order, so results do not depend on caller parallelism.  Pixels
    may carry leading trial axes (..., H, W), factors (..., kh, kw).
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    factors = np.broadcast_arrays(*factors)
    kh, kw = factors[0].shape[-2:]
    h, w = pixels.shape[-2:]
    if h < kh or w < kw:
        raise DimensionError(f"image {h}x{w} smaller than kernel {kh}x{kw}")
    oh, ow = h - kh + 1, w - kw + 1
    lead = np.broadcast_shapes(pixels.shape[:-2], factors[0].shape[:-2])
    out = np.zeros((*lead, oh, ow), dtype=np.float64)
    tap = np.empty_like(out)  # one scratch buffer for every tap
    for i in range(kh):
        for j in range(kw):
            np.multiply(pixels[..., i : i + oh, j : j + ow], factors[0][..., i, j, None, None],
                        out=tap)
            for f in factors[1:]:
                np.multiply(tap, f[..., i, j, None, None], out=tap)
            out += tap
    return out


def convolve_valid(image: IntensityImage, kernel: GaussianKernel) -> FilteredImage:
    """Valid-mode Gaussian filtering of an intensity image.

    Implemented as correlation; identical to convolution here because the
    kernel is centrally symmetric (asserted by tests, not at runtime).
    """
    values = correlate_valid(image.pixels, kernel.weights)
    return FilteredImage(values=values, sigma=kernel.sigma)


def dog(image: IntensityImage, k1: GaussianKernel, k2: GaussianKernel) -> DogImage:
    """D = M(sigma1) - M(sigma2), elementwise on the valid convolutions."""
    if k1.half_width != k2.half_width:
        raise ConfigurationError(
            f"kernel half_widths differ: {k1.half_width} vs {k2.half_width}"
        )
    if k1.sigma >= k2.sigma:
        raise ConfigurationError(f"need sigma1 < sigma2, got {k1.sigma} >= {k2.sigma}")
    m1 = convolve_valid(image, k1)
    m2 = convolve_valid(image, k2)
    return DogImage(values=m1.values - m2.values, sigma1=k1.sigma, sigma2=k2.sigma)


def op_count(m: int, n: int, p: int) -> OpCount:
    """Multiply/add counts of one naive valid Gaussian convolution.

    (M-2P)(N-2P) output pixels, each costing (2P+1)^2 multiplies and
    (2P+1)^2 - 1 additions.
    """
    check_range("half_width", p, at_least=1)
    if m <= 2 * p or n <= 2 * p:
        raise DimensionError(f"kernel (P={p}) does not fit inside a {m}x{n} image")
    outputs = (m - 2 * p) * (n - 2 * p)
    taps = (2 * p + 1) ** 2
    return OpCount(multiplications=outputs * taps, additions=outputs * (taps - 1))
