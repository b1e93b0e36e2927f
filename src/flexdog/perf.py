"""Power, runtime and energy model of the analog filter array.

Accounting follows the architecture's own arithmetic: one filter block of
(2P+1)^2 nodes at the supply voltage and nominal node current, one settling
period per processed pixel, ADC conversion folded into settling unless
explicitly split out.  With all defaults and a 28x28 image this yields
2.97 uW, 392 us and 1.16424 nJ per convolution.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, asdict

from .errors import DimensionError, InvalidParameterError, check_range

REALTIME_LIMIT_S = 42e-3

PIXELS_FULL = "full-MN"
PIXELS_VALID = "valid-only"


@dataclass(frozen=True)
class PerfSpec:
    supply_v: float = 3.3
    node_current: float = 100e-9
    node_count: int = 9
    settle_time: float = 0.5e-6
    adc_time: float = 5e-9
    parallelism: int = 1
    pixel_count_mode: str = PIXELS_FULL
    half_width: int = 1  # used only in valid-only pixel counting
    adc_separate: bool = False  # bill ADC conversions on top of settling

    def __post_init__(self):
        for name in ("supply_v", "node_current", "settle_time", "adc_time"):
            check_range(name, getattr(self, name), above=0)
        for name in ("node_count", "parallelism", "half_width"):
            check_range(name, getattr(self, name), at_least=1)
        if self.node_count > sys.float_info.max:  # power would raise OverflowError
            raise InvalidParameterError("node_count exceeds the float range")
        if self.pixel_count_mode not in (PIXELS_FULL, PIXELS_VALID):
            raise InvalidParameterError(f"unknown pixel count mode {self.pixel_count_mode!r}")


def power(spec: PerfSpec) -> float:
    """P = U * I * n for one filter block."""
    # each factor is finite, but the product may overflow
    return check_range("power_w", spec.supply_v * spec.node_current * spec.node_count)


def _pixel_count(m: int, n: int, spec: PerfSpec) -> int:
    if m < 1 or n < 1:
        raise DimensionError(f"image dimensions must be positive, got {m}x{n}")
    if spec.pixel_count_mode == PIXELS_VALID:
        p = spec.half_width
        if m <= 2 * p or n <= 2 * p:
            raise DimensionError(f"no valid outputs for {m}x{n} with P={p}")
        return (m - 2 * p) * (n - 2 * p)
    return m * n


def runtime(m: int, n: int, spec: PerfSpec) -> float:
    """Wall time of one Gaussian convolution over an m x n image."""
    pixels = _pixel_count(m, n, spec)
    if pixels > sys.float_info.max:  # pixels / parallelism would raise OverflowError
        raise InvalidParameterError(f"pixel count of a {m}x{n} image exceeds the float range")
    periods = math.ceil(pixels / spec.parallelism)
    t = periods * spec.settle_time
    if spec.adc_separate:
        t += periods * spec.adc_time
    return check_range("runtime_s", t)


def energy(m: int, n: int, spec: PerfSpec) -> float:
    """Per-convolution energy; the full DoG (two scales) costs twice this."""
    return check_range("energy_j", power(spec) * runtime(m, n, spec))


def realtime_check(runtime_s: float) -> bool:
    """True iff strictly faster than the 24 fps human-perception bound."""
    check_range("runtime", runtime_s, at_least=0)
    return runtime_s < REALTIME_LIMIT_S


@dataclass(frozen=True)
class SimReport:
    """Figures attached to one analog pipeline run."""

    power_w: float
    runtime_s: float  # per convolution
    energy_j: float  # per convolution
    dog_runtime_s: float  # both scales, serial (extrapolation)
    dog_energy_j: float
    realtime: bool
    mean_abs_error_code: float  # vs digital oracle, in code units
    max_abs_error_code: float
    saturation_count: int
    scale_1: float
    scale_2: float
    compensation_1: float
    compensation_2: float
    vref: float
    seed: int
    pixel_count_mode: str
    accounting: str = "single filter block, serial pixel scan"

    def to_dict(self) -> dict:
        return asdict(self)


def perf_figures(m: int, n: int, spec: PerfSpec) -> dict:
    """Power, per-convolution runtime and energy, their 2x full-DoG
    extrapolation and the real-time verdict, keyed as in SimReport."""
    p = power(spec)
    t = runtime(m, n, spec)
    figures = dict(power_w=p, runtime_s=t, energy_j=p * t, dog_runtime_s=2.0 * t,
                   dog_energy_j=2.0 * p * t)
    for name, value in figures.items():  # each factor is finite, but a product may overflow
        check_range(name, value)
    return dict(figures, realtime=realtime_check(t))


def build_report(m: int, n: int, spec: PerfSpec, **metrics) -> SimReport:
    return SimReport(**perf_figures(m, n, spec), pixel_count_mode=spec.pixel_count_mode, **metrics)
