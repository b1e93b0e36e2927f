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
from typing import NamedTuple

import numpy as np

# correlate_valid is bound by name: the benchmark's tracer patches dog.correlate_valid,
# so the cell array's correlations are timed under pipeline.analog_convolve.
from .dog import GaussianKernel, IntensityImage, correlate_valid, dog as reference_dog
from .cell import CellParams, ProgrammedKernel, cell_factors, program_kernel
# Not called here; kept importable from this module because the benchmark's
# tracer binds flexdog.pipeline.cell_response as a boundary.
from .cell import cell_response  # noqa: F401
from .errors import ConfigurationError, DimensionError, InvalidParameterError, check_range
from .perf import PerfSpec, SimReport, build_report

DIST_TRUNCNORM = "normal-truncated"
DIST_LOGNORMAL = "lognormal"

TRUNCATION_SIGMAS = 4.0

# |code| at or above this marks an edge pixel; 2 LSB sits above the
# quantization noise floor.
EDGE_THRESHOLD_CODES = 2.0

# monte_carlo stacks max(1, MC_BATCH_PIXELS // (H * W)) trials per batch:
# enough to share the per-call overhead at small frames, small enough that a
# batch of large frames costs no more memory than one trial.
MC_BATCH_PIXELS = 2**14

# First-order settling with time constant settle_time / 7 ends within exp(-7) of
# the final value.  settle_time cancels out and does not enter this gain.
SETTLING_GAIN = 1.0 - math.exp(-7.0)


@dataclass(frozen=True)
class VariationModel:
    """Relative std-devs of per-cell gamma and gain and per-pixel sensor gain."""

    gamma_rel_sigma: float = 0.0
    gain_rel_sigma: float = 0.0
    sensor_rel_sigma: float = 0.0
    distribution: str = DIST_TRUNCNORM

    def __post_init__(self):
        for name in ("gamma_rel_sigma", "gain_rel_sigma", "sensor_rel_sigma"):
            check_range(name, getattr(self, name), at_least=0)
        if self.distribution not in (DIST_TRUNCNORM, DIST_LOGNORMAL):
            raise InvalidParameterError(f"unknown distribution {self.distribution!r}")


@dataclass(frozen=True)
class VariationSample:
    """One concrete draw of multiplicative device perturbations; monte_carlo
    stacks trials' draws along a leading axis."""

    gamma_mult: np.ndarray  # kernel-shaped
    gain_mult: np.ndarray  # kernel-shaped
    sensor_mult: np.ndarray  # image-shaped


@dataclass(frozen=True)
class AdcSpec:
    bits: int = 8
    vref: float | None = None  # None: derived from the pipeline's full-scale output
    t_conv: float = 5e-9

    def __post_init__(self):
        # codes are float64 before rounding, which holds 2**53 - 1 levels exactly
        check_range("ADC bits", self.bits, at_least=1, at_most=53)
        if self.vref is not None:
            check_range("vref", self.vref, above=0)
        check_range("t_conv", self.t_conv, above=0)

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
        check_range("transimpedance", self.transimpedance, above=0)
        check_range("settle_time", self.settle_time, above=0)


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
        gamma_mult=_multipliers(rng, model.gamma_rel_sigma, kernel_shape, model.distribution),
        gain_mult=_multipliers(rng, model.gain_rel_sigma, kernel_shape, model.distribution),
        sensor_mult=_multipliers(rng, model.sensor_rel_sigma, image_shape, model.distribution),
    )


def sense(image: IntensityImage, i_in_nominal: float, sample: VariationSample) -> np.ndarray:
    """Photodetector stage: intensity -> current, with per-pixel mismatch."""
    check_range("i_in_nominal", i_in_nominal, above=0)
    if sample.sensor_mult.shape[-2:] != image.pixels.shape:
        raise DimensionError(
            f"variation sample shape {sample.sensor_mult.shape} does not match "
            f"image shape {image.pixels.shape}"
        )
    if np.any(sample.sensor_mult < 0):
        raise InvalidParameterError(
            f"sensor multipliers must be nonnegative, got {float(sample.sensor_mult.min())}")
    return image.pixels * i_in_nominal * sample.sensor_mult


def analog_convolve(currents: np.ndarray, pk: ProgrammedKernel, sample: VariationSample) -> np.ndarray:
    """Kirchhoff summation of the per-cell output currents.

    Each cell multiplies its input current by its two cell factors and then by
    its gain multiplier, and the products are summed in the cell grid's
    row-major order, so results are deterministic regardless of how callers
    parallelize.  Currents may carry leading trial axes (..., H, W), with the
    sample's multipliers shaped (..., kh, kw).
    """
    if np.any(sample.gain_mult < 0):
        raise InvalidParameterError(
            f"gain multipliers must be nonnegative, got {float(sample.gain_mult.min())}")
    a, b = cell_factors(pk.dv_grid, pk.params, sample.gamma_mult)
    return correlate_valid(currents, a, b, sample.gain_mult)


def to_voltage(currents: np.ndarray, transimpedance: float) -> np.ndarray:
    check_range("transimpedance", transimpedance, above=0)
    return currents * transimpedance


def quantize(v: np.ndarray, adc: AdcSpec) -> np.ndarray:
    """Mid-tread ADC transfer: round(v / vref * levels), half up, clamped to
    [0, levels].  Requires a concrete vref."""
    if adc.vref is None:
        raise ConfigurationError("AdcSpec.vref unresolved; quantize needs a concrete vref")
    v = np.asarray(v, dtype=np.float64)
    x = v / adc.vref * adc.levels
    return np.clip(np.floor(x + 0.5), 0, adc.levels).astype(np.int64)


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


class _Chain(NamedTuple):
    """What every trial of one configuration shares."""

    pk1: ProgrammedKernel
    pk2: ProgrammedKernel
    adc: AdcSpec  # vref resolved
    comp1: float
    comp2: float
    oracle_codes: np.ndarray


def _program_chain(image: IntensityImage, k1: GaussianKernel, k2: GaussianKernel,
                   cfg: AnalogConfig) -> _Chain:
    """Program both kernels, resolve vref and put the oracle DoG in code units.

    Code streams from the two scales are rescaled to the smaller programming
    scale before the signed subtraction; comp1 and comp2 are those factors.
    """
    oracle = reference_dog(image, k1, k2)  # first: dog() checks the kernel pairing
    pk1 = program_kernel(k1, cfg.cell_params)
    pk2 = program_kernel(k2, cfg.cell_params)
    i_in = cfg.cell_params.i_in_nominal
    adc = cfg.adc
    if adc.vref is None:
        wide = pk2 if pk2.gain_sum >= pk1.gain_sum else pk1
        adc = replace(adc, vref=default_vref(wide, i_in, cfg.transimpedance))
    s_ref = min(pk1.scale, pk2.scale)
    oracle_codes = oracle.values * (s_ref * i_in * cfg.transimpedance / adc.vref) * adc.levels
    return _Chain(pk1, pk2, adc, s_ref / pk1.scale, s_ref / pk2.scale, oracle_codes)


def _draw_samples(cfg: AnalogConfig, kernel_shape, image_shape, seed: int):
    """The two scales' VariationSamples: one physical array, reprogrammed,
    unless cfg.shared_array is off."""
    sample1 = draw_variation(cfg.variation, kernel_shape, image_shape, seed)
    if cfg.shared_array:
        return sample1, sample1
    seed2 = np.random.SeedSequence([seed, 1]).generate_state(1)[0]
    return sample1, draw_variation(cfg.variation, kernel_shape, image_shape, int(seed2))


def _analog_codes(image: IntensityImage, chain: _Chain, cfg: AnalogConfig,
                  sample1: VariationSample, sample2: VariationSample):
    """Sensor to signed code difference; samples may carry leading trial axes.
    Returns the codes and both scales' voltages."""
    currents = sense(image, cfg.cell_params.i_in_nominal, sample1)
    c1 = analog_convolve(currents, chain.pk1, sample1)
    c2 = analog_convolve(currents, chain.pk2, sample2)
    if cfg.settling_error:
        c1 *= SETTLING_GAIN
        c2 *= SETTLING_GAIN

    v1 = to_voltage(c1, cfg.transimpedance)
    v2 = to_voltage(c2, cfg.transimpedance)
    adc = chain.adc
    if cfg.adc_bypass:
        codes1 = v1 / adc.vref * adc.levels
        codes2 = v2 / adc.vref * adc.levels
        diff = codes1 * chain.comp1 - codes2 * chain.comp2
    else:
        codes1 = quantize(v1, adc)
        codes2 = quantize(v2, adc)
        diff = np.rint(codes1 * chain.comp1 - codes2 * chain.comp2).astype(np.int64)
    return diff, v1, v2


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
    chain = _program_chain(image, k1, k2, cfg)
    sample1, sample2 = _draw_samples(cfg, chain.pk1.dv_grid.shape, image.pixels.shape, seed)
    diff, v1, v2 = _analog_codes(image, chain, cfg, sample1, sample2)
    adc = chain.adc
    sat = saturation_count(v1, adc.vref) + saturation_count(v2, adc.vref)
    err = np.abs(np.asarray(diff, dtype=np.float64) - chain.oracle_codes)

    i_in = cfg.cell_params.i_in_nominal
    if perf_spec is None:
        perf_spec = block_perf_spec(k1.half_width, i_in, cfg.settle_time, adc)
    report = build_report(
        image.height,
        image.width,
        perf_spec,
        mean_abs_error_code=float(err.mean()),
        max_abs_error_code=float(err.max()),
        saturation_count=sat,
        scale_1=chain.pk1.scale,
        scale_2=chain.pk2.scale,
        compensation_1=chain.comp1,
        compensation_2=chain.comp2,
        vref=float(adc.vref),
        seed=seed,
    )
    return CodeFrame(codes=diff, oracle=chain.oracle_codes), report


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


def _stack(samples: list[VariationSample]) -> VariationSample:
    """Trials' samples along a leading trial axis."""
    return VariationSample(
        gamma_mult=np.stack([s.gamma_mult for s in samples]),
        gain_mult=np.stack([s.gain_mult for s in samples]),
        sensor_mult=np.stack([s.sensor_mult for s in samples]),
    )


def monte_carlo(
    image: IntensityImage,
    k1: GaussianKernel,
    k2: GaussianKernel,
    cfg: AnalogConfig,
    n_trials: int,
    base_seed: int,
) -> MonteCarloSummary:
    """Repeat run_dog_pipeline over seeds base_seed..base_seed+n_trials-1.

    Trials are independent.  Each trial's MAE is measured against the digital
    oracle, as in run_dog_pipeline.  Its flip rate is the share of pixels whose
    thresholded edge map differs from that of the nominal analog chain (zero
    variation, ADC bypassed), which is not the oracle's for the sigmoid-product
    cell.  Trials run in batches stacked along a leading axis, which gives the
    same per-trial values as one run_dog_pipeline per seed.
    """
    if n_trials < 1:
        raise InvalidParameterError("need at least one trial")
    # nominal-chain edge map in compensated code units, shared across trials
    zero_var = replace(cfg, variation=VariationModel(), adc_bypass=True)
    nominal_frame, _ = run_dog_pipeline(image, k1, k2, zero_var, seed=0)
    nominal_edges = edge_map(nominal_frame.codes)

    chain = _program_chain(image, k1, k2, cfg)
    kshape, ishape = chain.pk1.dv_grid.shape, image.pixels.shape

    maes = np.empty(n_trials)
    flips = np.empty(n_trials)
    batch = max(1, MC_BATCH_PIXELS // (image.height * image.width))
    for start in range(0, n_trials, batch):
        trials = range(start, min(start + batch, n_trials))
        pairs = [_draw_samples(cfg, kshape, ishape, base_seed + t) for t in trials]
        sample1 = _stack([p[0] for p in pairs])
        sample2 = sample1 if cfg.shared_array else _stack([p[1] for p in pairs])
        codes, _, _ = _analog_codes(image, chain, cfg, sample1, sample2)
        err = np.abs(np.asarray(codes, dtype=np.float64) - chain.oracle_codes)
        for k, t in enumerate(trials):
            maes[t] = err[k].mean()  # one contiguous trial: the per-frame summation order
        flips[trials.start:trials.stop] = (edge_map(codes) != nominal_edges).mean(axis=(1, 2))
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
