"""Strip-boundary corpus for the analog pipeline and ``correlate_valid``.

The golden corpora run 28x28 patterns, each of which fits in one row strip,
so they never cross a strip boundary.  The frames here span several strips
and end in a ragged one: 257x1031 (rows narrower than a strip, many strips)
and 1031x61 (tall, narrow rows, few strips).  Each case pins one SHA-256
digest, hashed as in ``test_pipeline_golden.case_digest``, over a
``run_dog_pipeline`` pass; the ADC-mode digests were computed by the
full-frame implementation that preceded the strip scan, the bypass ones by
the first to apply one effective weight per cell.  ``correlate_valid`` is checked
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


def _windows(pixels, weights):
    """Per output element, its input window times the weight grid: shape
    (..., oh, ow, kh * kw) in the kernel's row-major order."""
    kh, kw = weights.shape[-2:]
    win = np.lib.stride_tricks.sliding_window_view(pixels, (kh, kw), axis=(-2, -1))
    win = win * weights[..., None, None, :, :]
    return win.reshape(*win.shape[:-2], kh * kw)


@pytest.mark.parametrize("pixel_shape, weight_shape", [
    ((5, 40000), (3, 3)),  # one output row is wider than a strip
    ((20, 30), (5, 5)),  # the whole frame is less than one strip
    ((3, 120, 300), (3, 3, 3)),  # leading trial axes, several strips
    ((90, 400), (2, 3, 3)),  # trial axes on the weights only
], ids=["wide-row", "short", "trials", "factor-trials"])
def test_correlate_valid_matches_per_output_reference(pixel_shape, weight_shape):
    rng = np.random.default_rng(list(pixel_shape))
    pixels = rng.random(pixel_shape)
    weights = rng.random(weight_shape) + 0.5
    got = correlate_valid(pixels, weights)
    taps = _windows(pixels, weights)
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
    "1031x61-ideal-shared-bypass-P1": "1712736f26936d116979761cd87383cd45a23877f34ff6e4237cc07ab0896bcf",
    "1031x61-ideal-shared-bypass-P2": "637c5d8183771ca3b85aa9f31c62b4b384d953dc53b2fc36bafd5b50afcaaaf1",
    "1031x61-ideal-split-adc-P1": "c7e5a811b6b311c2f3f5cb23c3af6e5020a252cbe2d30a66ca91477308b81bdb",
    "1031x61-ideal-split-adc-P2": "7af9a7a9959f53da7aed5caeb2e111028f2c066fb280eb70998fcd5c8bca24c8",
    "1031x61-ideal-split-bypass-P1": "50fb01700128cf2f76cc70709f33c66f625054d73f548a039c6117253bbc0d7e",
    "1031x61-ideal-split-bypass-P2": "f9ace99b87b9e4e1f21539891f18604256b4759a8b17f41498633a9a2fd37b46",
    "1031x61-sigmoid-shared-adc-P1": "de7d7a50bdbd1a69a1cb65611636a9df00e9618c0dfd4f8094bc9e113b101801",
    "1031x61-sigmoid-shared-adc-P2": "793fcb95f88047c426de31af0df147688e2317aadb4127b9275a0f7615a6bf25",
    "1031x61-sigmoid-shared-bypass-P1": "7d641a6089edd6a99097d898cb00b6b0b5a7b05b7763ed6e97622a9bc66957e8",
    "1031x61-sigmoid-shared-bypass-P2": "6c08119b4d25bec5a7b492c10658907c2398ffcd74d0be59419820bf518128e4",
    "1031x61-sigmoid-split-adc-P1": "3b2fa5e50e446304a0acc7e25054d27712746d7e29f0b4195902a94536925932",
    "1031x61-sigmoid-split-adc-P2": "ea0668f568318e5f15dc18fc6fe670a6eb124ca3fb73490248623d9172fb7b4f",
    "1031x61-sigmoid-split-bypass-P1": "a22ae5e5c71a75eee86f981ddc723b0e919fbcc0a65dc9e0fa0163066e484053",
    "1031x61-sigmoid-split-bypass-P2": "2990c99d38ac156b0bbd7e06091db7416de0b06e66220f0ab14a2b445a5fe77b",
    "257x1031-ideal-shared-adc-P1": "2facc61d6e756890b6c7e1092460f34199188a9522d064da1d37f9f1f4e6d654",
    "257x1031-ideal-shared-adc-P2": "3595de4874e2aeb5d30d355128b2884ca8d122ab1d7e75e7a555061a316c63c7",
    "257x1031-ideal-shared-bypass-P1": "167270c8028d805c90cc35d641fb6260377759c795b29c7eb3f6ca091bccafbb",
    "257x1031-ideal-shared-bypass-P2": "a30f13761f3c21e73266d418d7b7478513728a3579477a5c414c96362e683c1a",
    "257x1031-ideal-split-adc-P1": "ef2472451acc88242887e2fa8cb5ed8091792949c1eb40ce2f4ff5daf9c3cfd4",
    "257x1031-ideal-split-adc-P2": "5e6c8cc6bb79240dd49a1644cc14ab403d9d762fb8f95d8094313be49f77151c",
    "257x1031-ideal-split-bypass-P1": "6613efeafc500c1db4ad772a9ab8bbbfbbe706a93abb55ca538e0014411614a9",
    "257x1031-ideal-split-bypass-P2": "f62cdbe17949966d4dc3ee94628909024bd39c0824ef168e31a59f09b81b033f",
    "257x1031-sigmoid-shared-adc-P1": "cec872537f5d215f85ff9cf9793b49aa51ffadad55d9ba649e3c550dfb30d4a4",
    "257x1031-sigmoid-shared-adc-P2": "d575e985aecc721c590b3193d726a738520fffe796ba30bc0651aac90fd613ec",
    "257x1031-sigmoid-shared-bypass-P1": "d4ab7085612d07c84a29e511d98a51e067523cd2a4f1a70b550d890502cab5f2",
    "257x1031-sigmoid-shared-bypass-P2": "1eab29c0ae20d939cacd750589a1ee48c5944b6dd1cb7a4d120ae75fbd23f19c",
    "257x1031-sigmoid-split-adc-P1": "79955109d4c2ca6fc754257ddda98955dfdef1bcbb4acca12a99d3776bb97e7b",
    "257x1031-sigmoid-split-adc-P2": "90913b5fe998ea120894c7037203550fceee9c228e4e4ec5aa895170ca4f1755",
    "257x1031-sigmoid-split-bypass-P1": "e837cf6ff34487ed709072f6968c60ac665fd648b5097acf8f86eda8c206088b",
    "257x1031-sigmoid-split-bypass-P2": "7c0a798b56fd2fa73ffc3ee2a3eda9a490b8499fac9cbc776b701eec0e9306da",
}
