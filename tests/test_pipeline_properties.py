"""Property tests of the analog pipeline's contract over random settings.

Building an ``AnalogConfig`` from drawn settings and running
``run_dog_pipeline`` either raises a ``ConfigurationError`` subclass, or
returns finite codes, oracle and error metrics; in ADC mode the codes also
lie within the ADC's levels.  Running ``monte_carlo`` on them either raises
a ``ConfigurationError`` subclass, or returns finite per-trial errors and
flip rates in [0, 1].  The settings span every option of the chain, each
from ordinary values out to values whose products overflow.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from flexdog.cell import MODEL_IDEAL, MODEL_SIGMOID, CellParams, SigmoidProductParams
from flexdog.dog import IntensityImage, make_gaussian_kernel
from flexdog.errors import ConfigurationError
from flexdog.pipeline import (
    DIST_LOGNORMAL,
    DIST_TRUNCNORM,
    AdcSpec,
    AnalogConfig,
    VariationModel,
    monte_carlo,
    run_dog_pipeline,
)

PIPELINE_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)
SPECIAL = st.sampled_from([0.0, -1.0, math.inf, math.nan])
EXTREME_SIGMA = st.sampled_from([4.0, 177.4, 177.5, 1e300])


def positive(draw, nominal_exp, lo_exp, hi_exp):
    """A positive float, mostly within three decades of 10**nominal_exp, one
    in four anywhere in 10**lo_exp..10**hi_exp, and one in twenty a
    non-finite or nonpositive value."""
    pick = draw(st.integers(0, 19))
    if pick == 19:
        return draw(SPECIAL)
    if pick < 14:
        lo_exp, hi_exp = max(lo_exp, nominal_exp - 3), min(hi_exp, nominal_exp + 3)
    return draw(st.floats(1.0, 9.99)) * 10.0 ** draw(st.integers(lo_exp, hi_exp))


def sigma(draw):
    """Mostly 0 or ordinary; one in five a sigma whose multipliers span
    hundreds of decades, or that is rejected."""
    if draw(st.integers(0, 4)) == 4:
        return draw(EXTREME_SIGMA)
    return draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5)))


@st.composite
def pipeline_case(draw):
    p = draw(st.sampled_from([1, 2]))
    h = draw(st.integers(2 * p + 1, 2 * p + 6))
    w = draw(st.integers(2 * p + 1, 2 * p + 6))
    pixels = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((h, w))
    pixels = draw(st.sampled_from([pixels, pixels > 0.5, np.full((h, w), pixels[0, 0])]))
    sigma1 = draw(st.floats(0.3, 3.0))
    kernels = (sigma1, sigma1 * draw(st.floats(1.05, 3.0)), p, draw(st.booleans()))
    bits = draw(st.integers(0, 54)) if draw(st.integers(0, 19)) == 19 else draw(st.integers(1, 53))
    settings_ = dict(
        cell=dict(gamma=positive(draw, 0, -300, 300), i_in_nominal=positive(draw, -7, -320, 300),
                  model_kind=draw(st.sampled_from([MODEL_IDEAL, MODEL_SIGMOID])),
                  sigmoid=(positive(draw, 1, -300, 300), positive(draw, -1, -4, 2))),
        variation=(sigma(draw), sigma(draw), sigma(draw),
                   draw(st.sampled_from([DIST_TRUNCNORM, DIST_LOGNORMAL]))),
        adc=dict(bits=bits,
                 vref=None if draw(st.booleans()) else positive(draw, 0, -320, 300)),
        transimpedance=positive(draw, 7, -3, 300),
        settle_time=positive(draw, -6, -12, 3),
        adc_bypass=draw(st.booleans()),
        shared_array=draw(st.booleans()),
    )
    return pixels, kernels, settings_, draw(st.integers(0, 2**32 - 1))


def build(kernels, s):
    sigma1, sigma2, p, normalize = kernels
    cell = s["cell"]
    cfg = AnalogConfig(
        cell_params=CellParams(gamma=cell["gamma"], i_in_nominal=cell["i_in_nominal"],
                               model_kind=cell["model_kind"],
                               sigmoid=SigmoidProductParams(*cell["sigmoid"])),
        variation=VariationModel(*s["variation"]),
        adc=AdcSpec(**s["adc"]),
        transimpedance=s["transimpedance"], settle_time=s["settle_time"],
        adc_bypass=s["adc_bypass"], shared_array=s["shared_array"])
    return (make_gaussian_kernel(sigma1, p, normalize=normalize),
            make_gaussian_kernel(sigma2, p, normalize=normalize), cfg)


@PIPELINE_SETTINGS
@given(pipeline_case())
def test_run_raises_a_configuration_error_or_returns_finite_codes(case):
    pixels, kernels, s, seed = case
    try:
        k1, k2, cfg = build(kernels, s)
        frame, report = run_dog_pipeline(IntensityImage(pixels), k1, k2, cfg, seed=seed)
    except ConfigurationError:
        return
    assert np.all(np.isfinite(frame.codes))
    assert np.all(np.isfinite(frame.oracle))
    assert math.isfinite(report.mean_abs_error_code)
    assert math.isfinite(report.max_abs_error_code)
    if not cfg.adc_bypass:
        assert frame.codes.dtype == np.int64
        assert np.all(np.abs(frame.codes) <= cfg.adc.levels)


@settings(PIPELINE_SETTINGS, max_examples=90)
@given(pipeline_case(), st.integers(2, 3))
def test_monte_carlo_raises_a_configuration_error_or_returns_finite_rates(case, n_trials):
    pixels, kernels, s, seed = case
    try:
        k1, k2, cfg = build(kernels, s)
        summary = monte_carlo(IntensityImage(pixels), k1, k2, cfg, n_trials, seed)
    except ConfigurationError:
        return
    for values in (summary.per_trial_mae, summary.per_trial_flip_rate):
        assert values.shape == (n_trials,)
        assert np.all(np.isfinite(values))
    assert np.all((summary.per_trial_flip_rate >= 0) & (summary.per_trial_flip_rate <= 1))
    assert all(math.isfinite(v) for v in (summary.mean_mae, summary.std_mae, summary.max_mae,
                                          summary.mean_flip_rate))
