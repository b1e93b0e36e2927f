"""Strip-boundary corpus for the analog pipeline and ``correlate_valid``.

The golden corpora run 28x28 patterns, each of which fits in one row strip,
so they never cross a strip boundary.  The frames here span several strips
and end in a ragged one: 257x1031 (rows narrower than a strip, many strips)
and 1031x61 (tall, narrow rows, few strips).  Each case pins one SHA-256
digest, hashed as in ``test_pipeline_golden.case_digest``, over a
``run_dog_pipeline`` pass; the digests were computed by the full-frame
implementation that preceded the strip scan.  ``correlate_valid`` is checked
against direct per-output references on shapes that put one row, or part of
one strip, or leading trial axes through the strip loop.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from flexdog.cell import MODEL_IDEAL, MODEL_SIGMOID, CellParams
from flexdog.dog import (
    DEFAULT_SIGMA1,
    DEFAULT_SIGMA_RATIO,
    IntensityImage,
    correlate_valid,
    make_gaussian_kernel,
)
from flexdog.imageio import make_pattern
from flexdog.pipeline import (
    MC_BATCH_PIXELS,
    AnalogConfig,
    VariationModel,
    monte_carlo,
    run_dog_pipeline,
)

MODELS = {"ideal": MODEL_IDEAL, "sigmoid": MODEL_SIGMOID}
SHAPES = {"257x1031": (257, 1031), "1031x61": (1031, 61)}
SIGMA = 0.05
SEED = 11
MC_TRIALS = 3
MC_SEED = 400

CASES = {
    f"{shape}-{model}-{'shared' if shared else 'split'}-{'bypass' if bypass else 'adc'}-P{p}": (
        shape, model, shared, bypass, p)
    for shape, model, shared, bypass, p in itertools.product(
        SHAPES, MODELS, (True, False), (False, True), (1, 2))
}


def _update_array(h, name, a):
    a = np.ascontiguousarray(a)
    h.update(f"\n{name} {a.dtype} {a.shape}\n".encode())
    h.update(a.tobytes())


def seeded_image(h, w):
    """About 3/8 of the pixels at full intensity, so the ADC saturates on
    bright patches; the rest uniform in [0, 1)."""
    rng = np.random.default_rng([h, w])
    return IntensityImage(np.minimum(rng.random((h, w)) * 1.6, 1.0))


def kernels(p):
    return (make_gaussian_kernel(DEFAULT_SIGMA1, p, normalize=True),
            make_gaussian_kernel(DEFAULT_SIGMA1 * DEFAULT_SIGMA_RATIO, p, normalize=True))


def config(model, shared, bypass, **extra):
    return AnalogConfig(cell_params=CellParams(model_kind=MODELS[model]),
                        variation=VariationModel(SIGMA, SIGMA, SIGMA),
                        shared_array=shared, adc_bypass=bypass, **extra)


def case_digest(shape, model, shared, bypass, p):
    frame, report = run_dog_pipeline(seeded_image(*SHAPES[shape]), *kernels(p),
                                     config(model, shared, bypass), seed=SEED)
    h = hashlib.sha256()
    _update_array(h, "codes", frame.codes)
    _update_array(h, "oracle", frame.oracle)
    h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_pipeline_case_matches_golden(case):
    assert case_digest(*CASES[case]) == GOLDEN[case]


def test_monte_carlo_across_strips_matches_golden():
    cfg = config("ideal", False, False, settling_error=True)
    summary = monte_carlo(seeded_image(257, 1031), *kernels(1), cfg,
                          n_trials=MC_TRIALS, base_seed=MC_SEED)
    h = hashlib.sha256()
    _update_array(h, "mc_mae", summary.per_trial_mae)
    _update_array(h, "mc_flip", summary.per_trial_flip_rate)
    assert h.hexdigest() == GOLDEN_MC


def test_adc_cases_saturate():
    # the saturation count is summed over strips; pin that it is exercised
    _, report = run_dog_pipeline(seeded_image(257, 1031), *kernels(1),
                                 config("ideal", True, False), seed=SEED)
    assert report.saturation_count > 0


def test_corpora_pin_both_sides_of_the_batch_gate():
    # monte_carlo batches several trials of a frame smaller than MC_BATCH_PIXELS and
    # runs a larger one trial at a time; whatever the constant, the two corpora's
    # sweeps must pin both paths
    from test_pipeline_golden import CASES as GOLDEN_CASES

    pixels = {make_pattern(case[0]).pixels.size for case in GOLDEN_CASES.values()}
    assert max(pixels) < MC_BATCH_PIXELS <= 257 * 1031


def _windows(pixels, factors):
    """Per output element, its input window times every factor grid, left to
    right: shape (..., oh, ow, kh * kw) in the kernel's row-major order."""
    factors = np.broadcast_arrays(*factors)
    kh, kw = factors[0].shape[-2:]
    win = np.lib.stride_tricks.sliding_window_view(pixels, (kh, kw), axis=(-2, -1))
    for f in factors:
        win = win * f[..., None, None, :, :]
    return win.reshape(*win.shape[:-2], kh * kw)


@pytest.mark.parametrize("pixel_shape, factor_shapes", [
    ((5, 40000), [(3, 3)]),  # one output row is wider than a strip
    ((20, 30), [(5, 5), (5, 5)]),  # the whole frame is less than one strip
    ((3, 120, 300), [(3, 3, 3), (3, 3), (3, 3, 3)]),  # leading trial axes, several strips
    ((90, 400), [(2, 3, 3)]),  # trial axes on the factors only
    ((2, 70, 600), [(), (2, 3, 3), (3, 3)]),  # a first factor that is one value at every tap
], ids=["wide-row", "short", "trials", "factor-trials", "scalar-first"])
def test_correlate_valid_matches_per_output_reference(pixel_shape, factor_shapes):
    rng = np.random.default_rng(list(pixel_shape))
    pixels = rng.random(pixel_shape)
    factors = [rng.random(s) + 0.5 for s in factor_shapes]
    got = correlate_valid(pixels, *factors)
    taps = _windows(pixels, factors)
    # the documented order: each output starts at 0 and adds its taps in row-major order
    sequential = np.zeros(taps.shape[:-1])
    for t in range(taps.shape[-1]):
        sequential += taps[..., t]
    assert got.shape == sequential.shape
    assert np.array_equal(got, sequential)
    np.testing.assert_allclose(got, np.sum(taps, axis=-1), rtol=1e-13, atol=0)


GOLDEN_MC = "70c546e7f9bacbb616c040b0cfe1218178df73d339f2530405ad56f2a95553e8"

GOLDEN = {
    "1031x61-ideal-shared-adc-P1": "4f90ed8b8b1a7a6f250dadcbeaa1abebf066c17a01c06f4ac6fd16e1c1589830",
    "1031x61-ideal-shared-adc-P2": "7a3391bc6244759a94814f47fc66ef808105e82a7537a5fbc1fd1d1c34e2938b",
    "1031x61-ideal-shared-bypass-P1": "23a53249cd6e8b4a18207c91a3993bb0f0034791cb1382520ebdc847a344d102",
    "1031x61-ideal-shared-bypass-P2": "772207749b28ee2d72a13c6a9fd710383f2db58a4fb25c6fa7e0a18e2ab12e77",
    "1031x61-ideal-split-adc-P1": "c7e5a811b6b311c2f3f5cb23c3af6e5020a252cbe2d30a66ca91477308b81bdb",
    "1031x61-ideal-split-adc-P2": "7af9a7a9959f53da7aed5caeb2e111028f2c066fb280eb70998fcd5c8bca24c8",
    "1031x61-ideal-split-bypass-P1": "2771b5df7b7f7014cc325b5b050c4e781af8fde4910e0a36e6bc2098880e1883",
    "1031x61-ideal-split-bypass-P2": "1baab75a5912a541da57ebf3109c6c7a48ed35c2763f1c9291cc1e70fdc2d4fb",
    "1031x61-sigmoid-shared-adc-P1": "de7d7a50bdbd1a69a1cb65611636a9df00e9618c0dfd4f8094bc9e113b101801",
    "1031x61-sigmoid-shared-adc-P2": "793fcb95f88047c426de31af0df147688e2317aadb4127b9275a0f7615a6bf25",
    "1031x61-sigmoid-shared-bypass-P1": "976f90b6828954b18657a26ee3b77ccafde99812084c6315321800853786e4e0",
    "1031x61-sigmoid-shared-bypass-P2": "feec9475b31502c2fda0e7eb8c1ea0086669567d2fa063deccfb7774b5992565",
    "1031x61-sigmoid-split-adc-P1": "3b2fa5e50e446304a0acc7e25054d27712746d7e29f0b4195902a94536925932",
    "1031x61-sigmoid-split-adc-P2": "ea0668f568318e5f15dc18fc6fe670a6eb124ca3fb73490248623d9172fb7b4f",
    "1031x61-sigmoid-split-bypass-P1": "e35ce529bfc5bc1f18e6e1122971699db548499e730c8f87ace035595ce5890d",
    "1031x61-sigmoid-split-bypass-P2": "4690a63e661922298ef556a3c05f98b394a92d4bfed536fd5b7eff6099c75208",
    "257x1031-ideal-shared-adc-P1": "2facc61d6e756890b6c7e1092460f34199188a9522d064da1d37f9f1f4e6d654",
    "257x1031-ideal-shared-adc-P2": "3595de4874e2aeb5d30d355128b2884ca8d122ab1d7e75e7a555061a316c63c7",
    "257x1031-ideal-shared-bypass-P1": "36c649bdb2bccfe100751353c6db942028b5c2d04846f7290978e43386ca3445",
    "257x1031-ideal-shared-bypass-P2": "40d61dbdbf375c78087d42c9e4f598ac06acd60cbccb9b9b9a4c3b2a5bd06b43",
    "257x1031-ideal-split-adc-P1": "ef2472451acc88242887e2fa8cb5ed8091792949c1eb40ce2f4ff5daf9c3cfd4",
    "257x1031-ideal-split-adc-P2": "5e6c8cc6bb79240dd49a1644cc14ab403d9d762fb8f95d8094313be49f77151c",
    "257x1031-ideal-split-bypass-P1": "c22a0fd49b8a00ab74fb26f44cf584ef473660cbdff88ff23b14ec32669faee8",
    "257x1031-ideal-split-bypass-P2": "7dcf63f22cc198e1019390de6189426d739cea12f459f581ebcd75a1f8cef793",
    "257x1031-sigmoid-shared-adc-P1": "cec872537f5d215f85ff9cf9793b49aa51ffadad55d9ba649e3c550dfb30d4a4",
    "257x1031-sigmoid-shared-adc-P2": "d575e985aecc721c590b3193d726a738520fffe796ba30bc0651aac90fd613ec",
    "257x1031-sigmoid-shared-bypass-P1": "6dc59e61b8e85c8586546bd3794062150c5db98208e5d196e77eaa3e872dfb2c",
    "257x1031-sigmoid-shared-bypass-P2": "578f567f57891df35223a8030990c38a252d1444bfc33df2a6b3ea0ab08eda1e",
    "257x1031-sigmoid-split-adc-P1": "79955109d4c2ca6fc754257ddda98955dfdef1bcbb4acca12a99d3776bb97e7b",
    "257x1031-sigmoid-split-adc-P2": "90913b5fe998ea120894c7037203550fceee9c228e4e4ec5aa895170ca4f1755",
    "257x1031-sigmoid-split-bypass-P1": "9cc2c50606f13bd8ecaa36160ff798a6ffb8105d7c04a44441f3510b96071dd0",
    "257x1031-sigmoid-split-bypass-P2": "7e2a1155bc66e2c7130ba62fc5d0a69ed2005aff66c665a255a342534ff76bce",
}
