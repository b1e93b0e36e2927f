"""Contract property test of every name the ``flexdog`` package exports.

Each call draws its arguments directly, not through the command line:
floats from ordinary values out to the float range's edges, zero, negative
and non-finite values; integers past the float range; images, kernels with
arbitrary weights, and cell, variation, ADC, analog and perf specs, each
built field by field.  Under warnings-as-errors, every call returns finite
values or raises a ``ConfigurationError`` or ``FormatError`` subclass.  Sizes
stay small: images of at most 12 x 12, half-widths of at most 4, 3 trials and
64 sweep points.
"""

import dataclasses
import inspect
import math
from typing import NamedTuple

import numpy as np
from hypothesis import given, settings, strategies as st

import flexdog
from flexdog.cell import MODEL_IDEAL, MODEL_SIGMOID, SigmoidProductParams
from flexdog.dog import GaussianKernel
from flexdog.errors import ConfigurationError, FormatError
from flexdog.perf import PIXELS_FULL, PIXELS_VALID
from flexdog.pipeline import DIST_LOGNORMAL, DIST_TRUNCNORM
from test_pipeline_properties import positive

API_SETTINGS = settings(max_examples=12, derandomize=True, database=None, deadline=None)
EXPORTED = sorted(name for name, value in vars(flexdog).items()
                  if not name.startswith("_") and not inspect.ismodule(value))
MAKERS = {name: getattr(flexdog, name) for name in EXPORTED}
MAKERS.update(GaussianKernel=GaussianKernel, SigmoidProductParams=SigmoidProductParams)
EDGES = st.sampled_from([5e-324, 1e-160, 1e154, 1e308])
# nine in ten ordinary, else past 2**53 or the float range
COUNTS = st.integers(0, 9).flatmap(lambda pick: st.integers(-1, 40) if pick else
                                   st.sampled_from([2**53 + 1, 2**1024, 10**400]))
SEEDS = st.one_of(st.integers(-3, 1000), st.integers(-2**63, 2**64))


class Make(NamedTuple):
    """A call of MAKERS[name], made in the test body, so that its errors are
    the example's and not the strategy's."""

    name: str
    args: tuple


def build(value):
    return MAKERS[value.name](*map(build, value.args)) if isinstance(value, Make) else value


@st.composite
def real(draw, nominal_exp=0, sign=True):
    """Nine times in ten within three decades of 10**nominal_exp; else one of
    the float range's edges, negated if ``sign``, or positive's draw from
    1e-320..1e300 and its non-finite and nonpositive values."""
    pick = draw(st.integers(0, 19))
    if pick < 18:
        return draw(st.floats(1.0, 9.99)) * 10.0 ** (nominal_exp + draw(st.integers(-3, 3)))
    value = draw(EDGES) if pick == 18 else positive(draw, nominal_exp, -320, 300)
    return -value if sign and draw(st.booleans()) else value


@st.composite
def values(draw, nominal_exp=0):
    """A float or a 1-d array of up to four of them."""
    if draw(st.booleans()):
        return draw(real(nominal_exp))
    return np.array(draw(st.lists(real(nominal_exp), max_size=4)), dtype=np.float64)


@st.composite
def image(draw, side=12):
    h, w = draw(st.integers(1, side)), draw(st.integers(1, side))
    pixels = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((h, w))
    if draw(st.integers(0, 9)) == 0:  # one pixel out of range or non-finite
        pixels[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = draw(
            st.sampled_from([-0.5, 1.5, math.inf, math.nan]))
    return Make("IntensityImage", (draw(st.sampled_from([pixels, pixels > 0.5])),))


@st.composite
def kernel(draw, half_width=None, sigma=None):
    """A Gaussian kernel's weights times a drawn factor, one weight in ten
    kernels replaced by an edge or non-finite value, under a drawn sigma."""
    p = draw(st.integers(1, 3)) if half_width is None else half_width
    sigma = draw(real()) if sigma is None else sigma
    offsets = np.arange(-p, p + 1.0)
    weights = np.exp(-(offsets[:, None] ** 2 + offsets ** 2) / (2 * draw(st.floats(0.3, 3.0)) ** 2))
    with np.errstate(over="ignore", under="ignore"):  # the weights' range is checked by the call
        weights = weights * draw(real(sign=False))
    if draw(st.integers(0, 9)) == 0:
        weights[draw(st.integers(0, 2 * p)), draw(st.integers(0, 2 * p))] = draw(
            st.sampled_from([0.0, -1.0, 5e-324, 1e308, math.inf, math.nan]))
    return Make("GaussianKernel", (sigma, p, weights))


@st.composite
def kernel_pair(draw):
    """Mostly a pair of one half-width and increasing sigmas."""
    p, sigma1 = draw(st.integers(1, 3)), draw(real())
    sigma2 = sigma1 * draw(st.floats(1.05, 3.0)) if draw(st.integers(0, 9)) else draw(real())
    return (draw(kernel(p, sigma1)),
            draw(kernel(p if draw(st.integers(0, 9)) else p + 1, sigma2)))


@st.composite
def cell_params(draw):
    return Make("CellParams", (draw(real()), draw(real(-7)),
                               draw(st.sampled_from([MODEL_IDEAL, MODEL_SIGMOID])),
                               Make("SigmoidProductParams", (draw(real(1)), draw(real(-1))))))


@st.composite
def perf_spec(draw):
    return Make("PerfSpec", (draw(real()), draw(real(-7)), draw(COUNTS), draw(real(-6)),
                             draw(real(-9)), draw(COUNTS),
                             draw(st.sampled_from([PIXELS_FULL, PIXELS_VALID])), draw(COUNTS),
                             draw(st.booleans())))


def sigma(draw):
    return draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5), real(-2)))


@st.composite
def variation(draw):
    return Make("VariationModel", (sigma(draw), sigma(draw), sigma(draw),
                                   draw(st.sampled_from([DIST_TRUNCNORM, DIST_LOGNORMAL]))))


@st.composite
def adc_spec(draw):
    return Make("AdcSpec", (draw(st.integers(0, 54)), draw(st.one_of(st.none(), real())),
                            draw(real(-9))))


@st.composite
def analog_config(draw):
    return Make("AnalogConfig", (draw(cell_params()), draw(variation()), draw(adc_spec()),
                                 draw(real(7)), draw(real(-6)), draw(st.booleans()),
                                 draw(st.booleans())))


def call(name, *args):
    """The strategy of a call of ``name`` on the strategies ``args``."""
    return st.builds(Make, st.just(name), st.tuples(*args))


CALLS = {
    "AdcSpec": adc_spec(),
    "AnalogConfig": analog_config(),
    "CellParams": cell_params(),
    "IntensityImage": image(),
    "PerfSpec": perf_spec(),
    "VariationModel": variation(),
    "cell_response": call("cell_response", values(-7), values(), cell_params()),
    "convolve_valid": call("convolve_valid", image(), kernel()),
    "dog": kernel_pair().flatmap(lambda pair: call("dog", image(), *map(st.just, pair))),
    "edge_map": call("edge_map", values()),
    "energy": call("energy", COUNTS, COUNTS, perf_spec()),
    "make_gaussian_kernel": call("make_gaussian_kernel", real(), st.integers(-1, 3), st.booleans()),
    "monte_carlo": kernel_pair().flatmap(lambda pair: call(
        "monte_carlo", image(), *map(st.just, pair), analog_config(), st.integers(-1, 3), SEEDS)),
    "op_count": call("op_count", COUNTS, COUNTS, COUNTS),
    "power": call("power", perf_spec()),
    "program_kernel": call("program_kernel", kernel(), cell_params()),
    "quantize": call("quantize", values(), adc_spec()),
    "realtime_check": call("realtime_check", real(-3)),
    "run_dog_pipeline": kernel_pair().flatmap(lambda pair: call(
        "run_dog_pipeline", image(), *map(st.just, pair), analog_config(), SEEDS,
        st.one_of(st.none(), perf_spec()))),
    "runtime": call("runtime", COUNTS, COUNTS, perf_spec()),
    "sweep_deviation": call("sweep_deviation", cell_params(), real(), real(),
                            st.integers(-1, 64), st.sampled_from(["fitted-gaussian",
                                                                  "eq4-gaussian", "gaussian"])),
    "weight_to_dv": call("weight_to_dv", values(), cell_params()),
}


def api_calls():
    """One call of each exported name, on drawn arguments."""
    return st.tuples(*(CALLS[name] for name in EXPORTED))


def numbers(value):
    """Every float and float array inside ``value``, through dataclasses,
    tuples, lists and dicts."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            yield from numbers(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from numbers(item)
    elif isinstance(value, dict):
        yield from numbers(list(value.values()))
    elif isinstance(value, (float, np.floating, np.ndarray)):
        yield np.asarray(value)


def test_every_exported_name_is_drawn():
    assert len(EXPORTED) == 22 and sorted(CALLS) == EXPORTED


@API_SETTINGS
@given(api_calls())
def test_every_exported_name_returns_finite_values_or_raises_a_typed_error(calls):
    for make in calls:
        try:
            result = build(make)
        except (ConfigurationError, FormatError):
            continue
        for array in numbers(result):
            assert array.dtype.kind not in "fc" or np.all(np.isfinite(array)), (make.name, result)
