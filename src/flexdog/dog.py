"""Digital Difference-of-Gaussian reference pipeline.

Bit-exact floating-point Gaussian filtering used as the oracle the analog
simulation is checked against, plus the operation-count model for the naive
digital implementation it replaces.  The DoG is one linear filter,
M(sigma1) - M(sigma2) = correlate(x, w1 - w2), and the oracle computes it as
that one correlation.

All functions here are pure; nothing mutates its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, InvalidParameterError, check_range

DEFAULT_SIGMA1 = 0.85
DEFAULT_SIGMA_RATIO = math.sqrt(2.0)

# Rows are scanned in strips of about this many values, trial axes included, so
# each stage's temporaries stay in cache; 2**14-2**16 ran equally fast at 1024^2.
STRIP_VALUES = 2**15


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
        if not np.all(np.isfinite(weights)):
            raise InvalidParameterError("kernel weights must be finite")
        check_range("kernel sigma", self.sigma, above=0)


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
    # 2 pi sigma^2, which divides every weight, neither overflows (the weights would be 0
    # and normalize to nan) nor is subnormal (the peak weight would overflow)
    check_range(f"2 pi sigma^2 at sigma {sigma}", 2.0 * math.pi * sigma * sigma,
                at_least=np.finfo(float).tiny)
    check_range("half_width", half_width, at_least=1)
    offsets = np.arange(-half_width, half_width + 1, dtype=np.float64)
    sq = offsets[:, None] ** 2 + offsets[None, :] ** 2
    with np.errstate(over="ignore"):  # a tap's exponent overflowing to -inf: exp's limit is 0
        weights = np.exp(-sq / (2.0 * sigma * sigma)) / (2.0 * math.pi * sigma * sigma)
    if normalize:
        weights = weights / weights.sum()
    return GaussianKernel(sigma=sigma, half_width=half_width, weights=weights)


def strip_rows(width: int, lead: tuple[int, ...] = ()) -> int:
    return max(1, STRIP_VALUES // max(1, width * math.prod(lead)))  # at least one row


def correlate_valid(pixels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Valid-mode cross-correlation with a fixed row-major accumulation order.

    The oracle passes its kernel weights, the analog cell array each cell's
    effective weight.  Each tap's window is multiplied by its weight and added
    in the kernel's row-major order, so results do not depend on caller
    parallelism.  Pixels may carry leading trial axes (..., H, W), weights
    (..., kh, kw).  Output rows are scanned in strips through one tap buffer:
    memory beyond the output is O(strip).
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    kh, kw = weights.shape[-2:]
    h, w = pixels.shape[-2:]
    if h < kh or w < kw:
        raise DimensionError(f"image {h}x{w} smaller than kernel {kh}x{kw}")
    oh, ow = h - kh + 1, w - kw + 1
    lead = np.broadcast_shapes(pixels.shape[:-2], weights.shape[:-2])
    out = np.empty((*lead, oh, ow), dtype=np.float64)
    rows = strip_rows(ow, lead)
    buffer = np.empty((*lead, min(rows, oh), ow), dtype=np.float64)  # one for every tap
    for r0 in range(0, oh, rows):
        acc = out[..., r0 : r0 + rows, :]
        tap = buffer[..., : acc.shape[-2], :]
        window = pixels[..., r0 : r0 + tap.shape[-2] + kh - 1, :]
        for i in range(kh):
            for j in range(kw):
                np.multiply(window[..., i : i + tap.shape[-2], j : j + ow],
                            weights[..., i, j, None, None], out=tap)
                np.add(acc if i or j else 0.0, tap, out=acc)  # 0.0 + the first tap: no zero fill
    return out


def convolve_valid(image: IntensityImage, kernel: GaussianKernel) -> FilteredImage:
    """Valid-mode Gaussian filtering of an intensity image.

    Implemented as correlation; identical to convolution here because the
    kernel is centrally symmetric (asserted by tests, not at runtime).
    """
    with np.errstate(over="ignore"):  # pixels lie in [0, 1], so this bounds every output
        check_range("sum |w|", float(np.abs(kernel.weights).sum()))
    values = correlate_valid(image.pixels, kernel.weights)
    return FilteredImage(values=values, sigma=kernel.sigma)


def dog(image: IntensityImage, k1: GaussianKernel, k2: GaussianKernel) -> DogImage:
    """D = M(sigma1) - M(sigma2), as one correlation with the difference grid.

    Correlation is linear in its weights, so correlating once with w1 - w2
    equals the difference of the two valid convolutions up to rounding: half
    the taps and no second frame.  On a flat image each output is the image
    value times sum(w1 - w2), which rounds differently from sum(w1) - sum(w2):
    the residual is of the order of 1e-16 times the image value, not exactly 0.
    """
    if k1.half_width != k2.half_width:
        raise ConfigurationError(
            f"kernel half_widths differ: {k1.half_width} vs {k2.half_width}"
        )
    if k1.sigma >= k2.sigma:
        raise ConfigurationError(f"need sigma1 < sigma2, got {k1.sigma} >= {k2.sigma}")
    with np.errstate(over="ignore"):  # an overflowing difference or sum fails the check
        weights = k1.weights - k2.weights
        # pixels lie in [0, 1], so this bounds every output and partial sum
        check_range("sum |w1 - w2|", float(np.abs(weights).sum()))
    values = correlate_valid(image.pixels, weights)
    return DogImage(values=values, sigma1=k1.sigma, sigma2=k2.sigma)


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
