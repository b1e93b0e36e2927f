"""Analog signal-chain simulation.

Sensor photocurrents -> programmed Gilbert-cell array (with per-device
process variation) -> Kirchhoff current summation -> transimpedance stage ->
ADC -> digital subtraction of the two Gaussian scales.  Each cell multiplies
its input current by one effective weight, its transfer ratio times its gain.
The digital subtraction compensates the differing global programming scales of
the two kernels before differencing, and every run is reproducible from its
seed: trial t of a Monte Carlo sweep draws from base_seed + t alone, whatever
batch it runs in.  Each trial draws its multipliers with one call, replaces
its tails from a stream of its own and is scaled once per batch;
draw_variation is a batch of one trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# correlate_valid is bound by name: the benchmark's tracer patches dog.correlate_valid,
# so the cell array's correlations are timed under pipeline.analog_convolve.
from .dog import GaussianKernel, IntensityImage, correlate_valid, dog as reference_dog, strip_rows
from .cell import CellParams, ProgrammedKernel, cell_factors, program_kernel
# Not called here; kept importable from this module because the benchmark's
# tracer binds flexdog.pipeline.cell_response as a boundary.
from .cell import cell_response  # noqa: F401
from .errors import (ConfigurationError, DimensionError, InvalidParameterError, check_range,
                     scaled_stat)
from .perf import PerfSpec, SimReport, build_report

DIST_TRUNCNORM = "normal-truncated"
DIST_LOGNORMAL = "lognormal"

TRUNCATION_SIGMAS = 4.0
LOGNORMAL_SIGMA_MAX = math.log(np.finfo(float).max) / TRUNCATION_SIGMAS  # exp(4 sigma) finite
TRUNCNORM_SIGMA_MAX = float(np.finfo(float).max) / TRUNCATION_SIGMAS  # 4 sigma finite

# |code| at or above this marks an edge pixel; 2 LSB sits above the
# quantization noise floor.
EDGE_THRESHOLD_CODES = 2.0

# monte_carlo stacks max(1, MC_BATCH_PIXELS // (H * W)) trials per batch:
# enough to share the per-call overhead at small frames, small enough that a
# batch of large frames costs no more memory than one trial.
MC_BATCH_PIXELS = 2**14

@dataclass(frozen=True)
class VariationModel:
    """Relative std-devs of per-cell gamma and gain and per-pixel sensor gain."""

    gamma_rel_sigma: float = 0.0
    gain_rel_sigma: float = 0.0
    sensor_rel_sigma: float = 0.0
    distribution: str = DIST_TRUNCNORM

    def __post_init__(self):
        most = LOGNORMAL_SIGMA_MAX if self.distribution == DIST_LOGNORMAL else TRUNCNORM_SIGMA_MAX
        for name in ("gamma_rel_sigma", "gain_rel_sigma", "sensor_rel_sigma"):
            check_range(name, getattr(self, name), at_least=0, at_most=most)
        if self.distribution not in (DIST_TRUNCNORM, DIST_LOGNORMAL):
            raise InvalidParameterError(f"unknown distribution {self.distribution!r}")


@dataclass(frozen=True)
class VariationSample:
    """One concrete draw of multiplicative device perturbations; the pipeline
    stacks trials' draws along a leading axis, as views of one buffer."""

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
            check_range(f"ADC levels / vref {self.vref}", self.levels / self.vref)  # no overflow
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
    settle_time: float = 0.5e-6  # read only by the runtime and energy accounting
    adc_bypass: bool = False  # infinite-resolution mode for oracle comparisons
    shared_array: bool = True  # one physical array reprogrammed per scale

    def __post_init__(self):
        check_range("transimpedance", self.transimpedance, above=0)
        check_range("settle_time", self.settle_time, above=0)


@dataclass(frozen=True)
class CodeFrame:
    """ADC codes; signed after digital subtraction, float in bypass mode.
    ``oracle`` is the digital DoG oracle in the same code units (float)."""

    codes: np.ndarray
    oracle: np.ndarray


def draw_variation(model: VariationModel, kernel_shape: tuple[int, int],
                   image_shape: tuple[int, int], seed: int) -> VariationSample:
    """Seeded draw of all multipliers: one trial of _draw_batch."""
    if image_shape is None:
        raise DimensionError("draw_variation needs an image_shape")
    views = _draw_batch(model, kernel_shape, image_shape, [seed])
    return VariationSample(*(view[0] for view in views))


def sense(image: IntensityImage, i_in_nominal: float, sample: VariationSample,
          rows: slice = slice(None)) -> np.ndarray:
    """Photodetector stage: intensity -> current, with per-pixel mismatch, on ``rows``."""
    check_range("i_in_nominal", i_in_nominal, above=0)
    if sample.sensor_mult.shape[-2:] != image.pixels.shape:
        raise DimensionError(
            f"variation sample shape {sample.sensor_mult.shape} does not match "
            f"image shape {image.pixels.shape}"
        )
    sensor_mult = sample.sensor_mult[..., rows, :]
    if not np.all(sensor_mult >= 0):  # nan too
        raise InvalidParameterError(
            f"sensor multipliers must be nonnegative, got {float(sample.sensor_mult.min())}")
    return image.pixels[rows] * i_in_nominal * sensor_mult


def analog_convolve(currents: np.ndarray, pk: ProgrammedKernel, sample: VariationSample) -> np.ndarray:
    """Kirchhoff summation of the per-cell output currents.

    Each cell multiplies its input current by one effective weight, (a*b)*g:
    its two cell factors a, b times its gain multiplier g.  The products are
    summed in the cell grid's row-major order, so results are deterministic
    regardless of how callers parallelize.  Currents may carry leading trial
    axes (..., H, W), with the sample's multipliers shaped (..., kh, kw).
    """
    if not np.all(sample.gain_mult >= 0):  # nan too
        raise InvalidParameterError(
            f"gain multipliers must be nonnegative, got {float(sample.gain_mult.min())}")
    a, b = cell_factors(pk.dv_grid, pk.params, sample.gamma_mult)
    return correlate_valid(currents, a * b * sample.gain_mult)


def to_voltage(currents: np.ndarray, transimpedance: float) -> np.ndarray:
    check_range("transimpedance", transimpedance, above=0)
    try:
        with np.errstate(over="raise"):  # no extra pass: the multiply itself flags it
            return np.multiply(currents, transimpedance)
    except FloatingPointError:
        raise InvalidParameterError(
            f"voltages of currents times transimpedance {transimpedance} overflow") from None


def _adc_codes(v: np.ndarray, adc: AdcSpec, out: np.ndarray | None = None) -> np.ndarray:
    """quantize's codes as float64 (integral, so exact), into ``out`` if given,
    which may be ``v`` itself."""
    if adc.vref is None:
        raise ConfigurationError("AdcSpec.vref unresolved; quantize needs a concrete vref")
    if out is None:
        out = np.empty(np.shape(v))  # even for 0-d v
    x = np.divide(v, adc.vref, out=out, dtype=np.float64)
    x *= adc.levels
    x += 0.5
    return np.clip(np.floor(x, out=x), 0, adc.levels, out=x)


def quantize(v: np.ndarray, adc: AdcSpec) -> np.ndarray:
    """Mid-tread ADC transfer: round(v / vref * levels), half up, clamped to
    [0, levels], as int64 (a 0-d int for 0-d v).  Requires a concrete vref and
    finite voltages."""
    v = np.asarray(v)
    finite = np.isfinite(v)
    if not np.all(finite):
        raise InvalidParameterError(f"voltages must be finite to quantize, got {v[~finite][0]}")
    with np.errstate(over="ignore"):  # v / vref past the float range: clamped to full scale
        return _adc_codes(v, adc).astype(np.int64)[()]


def saturation_count(v: np.ndarray, vref: float) -> int:
    v = np.asarray(v)
    return int(np.count_nonzero((v < 0.0) | (v > vref)))


def block_perf_spec(half_width: int, i_in: float, settle_time: float,
                    adc: AdcSpec = AdcSpec(), **accounting) -> PerfSpec:
    """PerfSpec of one (2P+1)^2 filter block; ``accounting`` sets the other
    fields (supply, parallelism, pixel mode, ADC billing)."""
    return PerfSpec(node_current=i_in, node_count=(2 * half_width + 1) ** 2,
                    settle_time=settle_time, adc_time=adc.t_conv, half_width=half_width,
                    **accounting)


def edge_map(codes: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(codes, dtype=np.float64)) >= EDGE_THRESHOLD_CODES


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
    if adc.vref is None:  # full scale: the wider-kernel array under an all-bright patch
        adc = replace(adc, vref=max(pk1.gain_sum, pk2.gain_sum) * i_in * cfg.transimpedance)
    # one check for all stages below: each error is at most twice the largest +-4 sigma code
    var, v_max = cfg.variation, i_in * pk1.dv_grid.size * cfg.transimpedance
    for sigma in (var.sensor_rel_sigma, var.gain_rel_sigma):  # a cell passes at most its input
        v_max *= (math.exp(TRUNCATION_SIGMAS * sigma) if var.distribution == DIST_LOGNORMAL
                  else 1 + TRUNCATION_SIGMAS * sigma)
    check_range(f"largest frame error sum in codes the settings allow ({v_max} V peak)",
                v_max / adc.vref * adc.levels * 2 * oracle.values.size)
    s_ref = min(pk1.scale, pk2.scale)
    oracle_codes = oracle.values  # dog()'s own array, scaled in place: no more frames
    oracle_codes *= s_ref * i_in * cfg.transimpedance / adc.vref
    oracle_codes *= adc.levels
    return _Chain(pk1, pk2, adc, s_ref / pk1.scale, s_ref / pk2.scale, oracle_codes)


def _draw_batch(var: VariationModel, kernel_shape, image_shape, seeds) -> list[np.ndarray]:
    """The gamma, gain and sensor multipliers of trials ``seeds``, each shaped
    (trials, *shape), as views of one buffer.

    For seed s, default_rng(s) fills the blocks up to the last nonzero sigma
    with one standard_normal stream (numpy PCG64; order gamma, gain, sensor).
    Each |z| > 4 is then replaced, in row-major order, by the next value
    within +-4 of default_rng([s, 2])'s stream, made only for a trial with a
    tail, so a replacement never moves the main stream and each multiplier
    stays within +-4 sigma.  1 + 0*z and exp(0*z) are exactly 1, so blocks
    after the last nonzero sigma are 1, undrawn, moving no other value.  Each
    block is scaled once per batch."""
    shapes = [kernel_shape, kernel_shape, image_shape]
    sigmas = [var.gamma_rel_sigma, var.gain_rel_sigma, var.sensor_rel_sigma]
    sizes = [math.prod(shape) for shape in shapes]
    buf = np.empty((len(seeds), sum(sizes)))
    ends = np.cumsum(sizes).tolist()
    views = [buf[:, end - size : end].reshape(len(seeds), *shape)  # no copy: rows stay rows
             for size, end, shape in zip(sizes, ends, shapes)]
    while sigmas and sigmas[-1] == 0:
        sigmas.pop()
    width = ends[len(sigmas) - 1] if sigmas else 0
    buf[:, width:] = 1.0
    if not sigmas:  # no generator: numpy.random stays unimported
        return views
    z = buf[:, :width]
    for seed, row in zip(seeds, z):
        np.random.default_rng(seed).standard_normal(out=row)
    # |z| > 4 without np.abs's float temporary; flat and row-major, so each trial's tails
    # come in draw order (2-D np.nonzero is 10x slower)
    trials, cols = np.divmod(np.flatnonzero((z < -TRUNCATION_SIGMAS) | (z > TRUNCATION_SIGMAS)),
                             width)
    for k in dict.fromkeys(trials.tolist()):  # each once; np.unique would import numpy.ma
        tails = cols[trials == k]
        stream = iter(np.random.default_rng([seeds[k], 2]).standard_normal, None)  # endless
        z[k, tails] = np.fromiter((v for v in stream if abs(v) <= TRUNCATION_SIGMAS), float,
                                  tails.size)
    for sigma, view in zip(sigmas, views):
        view *= sigma
        if var.distribution == DIST_LOGNORMAL:
            np.exp(view, out=view)  # median-1 multiplier
        else:
            view += 1.0
    return views


def _draw_samples(cfg: AnalogConfig, kernel_shape, image_shape, seeds):
    """Both scales' VariationSamples (one physical array, reprogrammed, unless
    cfg.shared_array is off) for trials ``seeds``, stacked on a leading trial
    axis by _draw_batch.  A second array draws its own gamma and gain through
    the same layout, from each seed extended, with an empty sensor; it senses
    through the one sensor.  With both its sigmas 0 it derives no seed."""
    check_range("seed", min(seeds), at_least=0)  # numpy's generators take no negative seed
    var = cfg.variation
    sample1 = VariationSample(*_draw_batch(var, kernel_shape, image_shape, seeds))
    if cfg.shared_array:
        return sample1, sample1
    seeds2 = ([int(np.random.SeedSequence([seed, 1]).generate_state(1)[0]) for seed in seeds]
              if var.gamma_rel_sigma or var.gain_rel_sigma else seeds)
    gamma2, gain2, _ = _draw_batch(replace(var, sensor_rel_sigma=0.0), kernel_shape, (0, 0), seeds2)
    return sample1, replace(sample1, gamma_mult=gamma2, gain_mult=gain2)


def _analog_codes(image: IntensityImage, chain: _Chain, cfg: AnalogConfig,
                  sample1: VariationSample, sample2: VariationSample,
                  count_saturation: bool = False):
    """Signed code difference, its absolute error against the oracle codes and,
    if count_saturation, the saturated voltages of both scales; samples may carry
    leading trial axes.  Like the hardware's one filter block, it scans strips of
    output rows, each sensed once for both scales and taken through every stage,
    so memory beyond the returned full-frame arrays is O(strip)."""
    oh, ow = chain.oracle_codes.shape
    rows = strip_rows(image.width, sample1.sensor_mult.shape[:-2])
    adc = chain.adc
    diff, err, sat = None, None, 0
    for r0 in range(0, oh, rows):
        window = slice(r0, r0 + rows + image.height - oh)  # input rows; clamped at the end
        currents = sense(image, cfg.cell_params.i_in_nominal, sample1, window)
        c1 = analog_convolve(currents, chain.pk1, sample1)
        c2 = analog_convolve(currents, chain.pk2, sample2)
        v1 = to_voltage(c1, cfg.transimpedance)
        v2 = to_voltage(c2, cfg.transimpedance)
        if count_saturation:
            sat += saturation_count(v1, adc.vref) + saturation_count(v2, adc.vref)
        oracle = chain.oracle_codes[r0 : r0 + rows]
        if cfg.adc_bypass:
            strip = (v1 / adc.vref * adc.levels * chain.comp1
                     - v2 / adc.vref * adc.levels * chain.comp2)
            strip_err = strip - oracle
        else:  # integral float codes, in v1 and v2's buffers; int64 only where stored
            strip = _adc_codes(v1, adc, out=v1)
            strip *= chain.comp1
            strip -= np.multiply(_adc_codes(v2, adc, out=v2), chain.comp2, out=v2)
            strip_err = np.subtract(np.rint(strip, out=strip), oracle, out=v2)
        np.abs(strip_err, out=strip_err)
        if rows >= oh:  # the whole frame is one strip
            return (strip if cfg.adc_bypass else strip.astype(np.int64)), strip_err, sat
        if diff is None:
            diff = np.empty((*strip.shape[:-2], oh, ow),
                            dtype=np.float64 if cfg.adc_bypass else np.int64)
            err = np.empty(diff.shape)
        diff[..., r0 : r0 + rows, :], err[..., r0 : r0 + rows, :] = strip, strip_err
    return diff, err, sat


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
    unless cfg.shared_array is off; a second array shares the one sensor.
    Code streams from the two scales are rescaled to the smaller programming
    scale before the signed subtraction; the compensation factors are carried
    in the report.
    """
    chain = _program_chain(image, k1, k2, cfg)
    sample1, sample2 = _draw_samples(cfg, chain.pk1.dv_grid.shape, image.pixels.shape, [seed])
    (diff,), (err,), sat = _analog_codes(image, chain, cfg, sample1, sample2, count_saturation=True)
    if perf_spec is None:
        perf_spec = block_perf_spec(k1.half_width, cfg.cell_params.i_in_nominal,
                                    cfg.settle_time, chain.adc)
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
        vref=float(chain.adc.vref),
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
    cell.  Trials run in batches stacked along a leading axis.  Trial t's draws
    depend only on base_seed + t, so the per-trial values equal one
    run_dog_pipeline per seed.
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
        seeds = [base_seed + t for t in trials]
        sample1, sample2 = _draw_samples(cfg, kshape, ishape, seeds)
        codes, err, _ = _analog_codes(image, chain, cfg, sample1, sample2)
        # each trial one contiguous row: the per-frame summation order of err[k].mean()
        maes[trials.start:trials.stop] = err.reshape(len(trials), -1).mean(axis=1)
        flips[trials.start:trials.stop] = (edge_map(codes) != nominal_edges).mean(axis=(1, 2))
    return MonteCarloSummary(
        n_trials=n_trials,
        base_seed=base_seed,
        per_trial_mae=maes,
        per_trial_flip_rate=flips,
        mean_mae=scaled_stat(np.mean, maes),
        std_mae=scaled_stat(np.std, maes, ddof=1) if n_trials > 1 else 0.0,
        max_mae=float(maes.max()),
        mean_flip_rate=float(flips.mean()),
    )
