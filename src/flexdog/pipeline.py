"""Analog signal-chain simulation.

Sensor photocurrents -> programmed Gilbert-cell array (with per-device
process variation) -> Kirchhoff current summation -> transimpedance stage ->
ADC -> digital subtraction of the two Gaussian scales.  The digital
subtraction compensates the differing global programming scales of the two
kernels before differencing, and every run is reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dog import GaussianKernel, IntensityImage, dog as reference_dog
from .cell import (
    MODEL_IDEAL,
    CellParams,
    ProgrammedKernel,
    cell_response,
    program_kernel,
)
from .errors import ConfigurationError, DimensionError, InvalidParameterError
from .perf import PerfSpec, SimReport, build_report

DIST_TRUNCNORM = "normal-truncated"
DIST_LOGNORMAL = "lognormal"

TRUNCATION_SIGMAS = 4.0

# |code| at or above this marks an edge pixel; 2 LSB sits above the
# quantization noise floor.
EDGE_THRESHOLD_CODES = 2.0


@dataclass(frozen=True)
class VariationModel:
    """Relative std-devs of per-cell gamma and gain and per-pixel sensor gain."""

    gamma_rel_sigma: float = 0.0
    gain_rel_sigma: float = 0.0
    sensor_rel_sigma: float = 0.0
    distribution: str = DIST_TRUNCNORM

    def __post_init__(self):
        if min(self.gamma_rel_sigma, self.gain_rel_sigma, self.sensor_rel_sigma) < 0:
            raise InvalidParameterError("variation sigmas must be nonnegative")
        if self.distribution not in (DIST_TRUNCNORM, DIST_LOGNORMAL):
            raise InvalidParameterError(f"unknown distribution {self.distribution!r}")


@dataclass(frozen=True)
class VariationSample:
    """One concrete draw of multiplicative device perturbations."""

    seed: int
    gamma_mult: np.ndarray  # kernel-shaped
    gain_mult: np.ndarray  # kernel-shaped
    sensor_mult: np.ndarray  # image-shaped


@dataclass(frozen=True)
class AdcSpec:
    bits: int = 8
    vref: float | None = None  # None: derived from the pipeline's full-scale output
    t_conv: float = 5e-9

    def __post_init__(self):
        if self.bits < 1:
            raise InvalidParameterError("ADC needs at least 1 bit")
        if self.vref is not None and self.vref <= 0:
            raise InvalidParameterError("vref must be positive")
        if self.t_conv <= 0:
            raise InvalidParameterError("conversion time must be positive")

    @property
    def levels(self) -> int:
        return 2**self.bits - 1


@dataclass(frozen=True)
class AnalogConfig:
    cell_params: CellParams = CellParams()
    variation: VariationModel = VariationModel()
    adc: AdcSpec = AdcSpec()
    transimpedance: float = 10e6  # ohms
    settle_time: float = 0.5e-6
    adc_bypass: bool = False  # infinite-resolution mode for oracle comparisons
    shared_array: bool = True  # one physical array reprogrammed per scale
    settling_error: bool = False  # first-order incomplete-settling amplitude loss

    def __post_init__(self):
        if self.transimpedance <= 0 or self.settle_time <= 0:
            raise InvalidParameterError("transimpedance and settle time must be positive")


@dataclass(frozen=True)
class CurrentFrame:
    currents: np.ndarray

    def __post_init__(self):
        currents = np.asarray(self.currents, dtype=np.float64)
        object.__setattr__(self, "currents", currents)
        if np.any(currents < 0):
            raise InvalidParameterError("currents must be nonnegative")


@dataclass(frozen=True)
class CodeFrame:
    """ADC codes; signed after digital subtraction, float in bypass mode.
    ``oracle`` is the digital DoG oracle in the same code units (float)."""

    codes: np.ndarray
    oracle: np.ndarray


def _multipliers(rng, sigma, shape, distribution):
    z = rng.standard_normal(shape)
    # redraw tails so the multiplier stays within +-4 sigma
    mask = np.abs(z) > TRUNCATION_SIGMAS
    while np.any(mask):
        z[mask] = rng.standard_normal(int(mask.sum()))
        mask = np.abs(z) > TRUNCATION_SIGMAS
    if distribution == DIST_LOGNORMAL:
        return np.exp(sigma * z)  # median-1 multiplier
    return 1.0 + sigma * z


def draw_variation(
    model: VariationModel,
    kernel_shape: tuple[int, int],
    image_shape: tuple[int, int],
    seed: int,
) -> VariationSample:
    """Seeded draw of all multipliers (numpy PCG64; draw order is fixed:
    gamma, gain, sensor)."""
    rng = np.random.default_rng(seed)
    return VariationSample(
        seed=seed,
        gamma_mult=_multipliers(rng, model.gamma_rel_sigma, kernel_shape, model.distribution),
        gain_mult=_multipliers(rng, model.gain_rel_sigma, kernel_shape, model.distribution),
        sensor_mult=_multipliers(rng, model.sensor_rel_sigma, image_shape, model.distribution),
    )


def sense(image: IntensityImage, i_in_nominal: float, sample: VariationSample) -> CurrentFrame:
    """Photodetector stage: intensity -> current, with per-pixel mismatch."""
    if sample.sensor_mult.shape != image.pixels.shape:
        raise DimensionError(
            f"variation sample shape {sample.sensor_mult.shape} does not match "
            f"image shape {image.pixels.shape}"
        )
    return CurrentFrame(currents=image.pixels * i_in_nominal * sample.sensor_mult)


def _perturbed_cell(params: CellParams, gamma_mult: float) -> CellParams:
    if params.model_kind == MODEL_IDEAL:
        return replace(params, gamma=params.gamma * gamma_mult)
    # sigmoid mode has no gamma; the curvature near dV=0 scales with the
    # squared slope, so map the gamma multiplier onto the steepness
    sig = replace(params.sigmoid, steepness=params.sigmoid.steepness * math.sqrt(gamma_mult))
    return replace(params, sigmoid=sig)


def analog_convolve(frame: CurrentFrame, pk: ProgrammedKernel, sample: VariationSample) -> CurrentFrame:
    """Kirchhoff summation of the per-cell output currents.

    Accumulation is row-major over the cell grid so results are deterministic
    regardless of how callers parallelize.
    """
    kh, kw = pk.dv_grid.shape
    h, w = frame.currents.shape
    if h < kh or w < kw:
        raise DimensionError(f"frame {h}x{w} smaller than kernel {kh}x{kw}")
    oh, ow = h - kh + 1, w - kw + 1
    out = np.zeros((oh, ow), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            params = _perturbed_cell(pk.params, float(sample.gamma_mult[i, j]))
            resp = cell_response(frame.currents[i : i + oh, j : j + ow], pk.dv_grid[i, j], params)
            out += sample.gain_mult[i, j] * resp
    return CurrentFrame(currents=out)


def to_voltage(frame: CurrentFrame, transimpedance: float) -> np.ndarray:
    if transimpedance <= 0:
        raise InvalidParameterError("transimpedance must be positive")
    return frame.currents * transimpedance


def quantize(v: np.ndarray, adc: AdcSpec) -> np.ndarray:
    """Mid-tread ADC transfer: round(v / vref * levels), half away from zero,
    clamped to [0, levels].  Requires a concrete vref."""
    if adc.vref is None:
        raise ConfigurationError("AdcSpec.vref unresolved; quantize needs a concrete vref")
    v = np.asarray(v, dtype=np.float64)
    x = v / adc.vref * adc.levels
    codes = np.sign(x) * np.floor(np.abs(x) + 0.5)
    return np.clip(codes, 0, adc.levels).astype(np.int64)


def saturation_count(v: np.ndarray, vref: float) -> int:
    v = np.asarray(v)
    return int(np.count_nonzero((v < 0.0) | (v > vref)))


def default_vref(pk_wide: ProgrammedKernel, i_in_nominal: float, transimpedance: float) -> float:
    """Full-scale output of the wider-kernel array under an all-bright patch."""
    return pk_wide.gain_sum * i_in_nominal * transimpedance


def block_perf_spec(half_width: int, i_in: float, settle_time: float,
                    adc: AdcSpec = AdcSpec(), **accounting) -> PerfSpec:
    """PerfSpec of one (2P+1)^2 filter block; ``accounting`` sets the other
    fields (supply, parallelism, pixel mode, ADC billing)."""
    return PerfSpec(node_current=i_in, node_count=(2 * half_width + 1) ** 2,
                    settle_time=settle_time, adc_time=adc.t_conv, half_width=half_width,
                    **accounting)


def edge_map(codes: np.ndarray, threshold: float = EDGE_THRESHOLD_CODES) -> np.ndarray:
    return np.abs(np.asarray(codes, dtype=np.float64)) >= threshold


def run_dog_pipeline(
    image: IntensityImage,
    k1: GaussianKernel,
    k2: GaussianKernel,
    cfg: AnalogConfig,
    seed: int,
    perf_spec: PerfSpec | None = None,
) -> tuple[CodeFrame, SimReport]:
    """One full analog DoG pass plus oracle error metrics.

    Both scales share one VariationSample (one physical array, reprogrammed)
    unless cfg.shared_array is off.  Code streams from the two scales are
    rescaled to the smaller programming scale before the signed subtraction;
    the compensation factors are carried in the report.
    """
    if k1.half_width != k2.half_width:
        raise ConfigurationError("kernel half_widths must match")
    if k1.sigma >= k2.sigma:
        raise ConfigurationError(f"need sigma1 < sigma2, got {k1.sigma} >= {k2.sigma}")
    pk1 = program_kernel(k1, cfg.cell_params)
    pk2 = program_kernel(k2, cfg.cell_params)
    kshape = pk1.dv_grid.shape
    ishape = image.pixels.shape

    sample1 = draw_variation(cfg.variation, kshape, ishape, seed)
    if cfg.shared_array:
        sample2 = sample1
    else:
        rng_seed2 = np.random.SeedSequence([seed, 1]).generate_state(1)[0]
        sample2 = draw_variation(cfg.variation, kshape, ishape, int(rng_seed2))

    i_in = cfg.cell_params.i_in_nominal
    frame = sense(image, i_in, sample1)
    c1 = analog_convolve(frame, pk1, sample1)
    c2 = analog_convolve(frame, pk2, sample2)
    if cfg.settling_error:
        # first-order settling to within exp(-7) of final value
        gain = 1.0 - math.exp(-cfg.settle_time / (cfg.settle_time / 7.0))
        c1 = CurrentFrame(c1.currents * gain)
        c2 = CurrentFrame(c2.currents * gain)

    v1 = to_voltage(c1, cfg.transimpedance)
    v2 = to_voltage(c2, cfg.transimpedance)

    adc = cfg.adc
    if adc.vref is None:
        wide = pk2 if pk2.gain_sum >= pk1.gain_sum else pk1
        adc = replace(adc, vref=default_vref(wide, i_in, cfg.transimpedance))
    sat = saturation_count(v1, adc.vref) + saturation_count(v2, adc.vref)

    s_ref = min(pk1.scale, pk2.scale)
    comp1 = s_ref / pk1.scale
    comp2 = s_ref / pk2.scale
    if cfg.adc_bypass:
        codes1 = v1 / adc.vref * adc.levels
        codes2 = v2 / adc.vref * adc.levels
        diff = codes1 * comp1 - codes2 * comp2
    else:
        codes1 = quantize(v1, adc)
        codes2 = quantize(v2, adc)
        diff = np.rint(codes1 * comp1 - codes2 * comp2).astype(np.int64)

    oracle = reference_dog(image, k1, k2)
    oracle_codes = oracle.values * (s_ref * i_in * cfg.transimpedance / adc.vref) * adc.levels
    err = np.abs(np.asarray(diff, dtype=np.float64) - oracle_codes)

    if perf_spec is None:
        perf_spec = block_perf_spec(k1.half_width, i_in, cfg.settle_time, adc)
    report = build_report(
        image.height,
        image.width,
        perf_spec,
        mean_abs_error_code=float(err.mean()),
        max_abs_error_code=float(err.max()),
        saturation_count=sat,
        scale_1=pk1.scale,
        scale_2=pk2.scale,
        compensation_1=comp1,
        compensation_2=comp2,
        vref=float(adc.vref),
        seed=seed,
    )
    return CodeFrame(codes=diff, oracle=oracle_codes), report


@dataclass(frozen=True)
class MonteCarloSummary:
    n_trials: int
    base_seed: int
    per_trial_mae: np.ndarray
    per_trial_flip_rate: np.ndarray
    mean_mae: float
    std_mae: float
    max_mae: float
    mean_flip_rate: float


def monte_carlo(
    image: IntensityImage,
    k1: GaussianKernel,
    k2: GaussianKernel,
    cfg: AnalogConfig,
    n_trials: int,
    base_seed: int,
) -> MonteCarloSummary:
    """Repeat run_dog_pipeline over seeds base_seed..base_seed+n_trials-1.

    Trials are independent; the flip rate compares thresholded edge maps
    against the oracle's.  Aggregates are order-independent.
    """
    if n_trials < 1:
        raise InvalidParameterError("need at least one trial")
    # oracle edge map in compensated code units, shared across trials
    zero_var = replace(cfg, variation=VariationModel(), adc_bypass=True)
    oracle_frame, _ = run_dog_pipeline(image, k1, k2, zero_var, seed=0)
    oracle_edges = edge_map(oracle_frame.codes)

    maes = np.empty(n_trials)
    flips = np.empty(n_trials)
    for t in range(n_trials):
        codes, report = run_dog_pipeline(image, k1, k2, cfg, seed=base_seed + t)
        maes[t] = report.mean_abs_error_code
        flips[t] = float(np.mean(edge_map(codes.codes) != oracle_edges))
    return MonteCarloSummary(
        n_trials=n_trials,
        base_seed=base_seed,
        per_trial_mae=maes,
        per_trial_flip_rate=flips,
        mean_mae=float(maes.mean()),
        std_mae=float(maes.std(ddof=1)) if n_trials > 1 else 0.0,
        max_mae=float(maes.max()),
        mean_flip_rate=float(flips.mean()),
    )
