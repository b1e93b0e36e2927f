"""Strip-boundary corpora for the analog pipeline, and ``correlate_valid``.

One pinned digest per case of the ``strips`` and ``strips-mc`` corpora, which
``golden_cases`` builds and describes.  The digests were last regenerated when
variation tails came to be replaced from a per-trial tail stream, which moved
codes of every case; the oracles inside are those of the one correlation with
w1 - w2.
``correlate_valid`` is checked against direct per-output references on shapes
that put one row, or part of one strip, or leading trial axes through the
strip loop.
"""

import numpy as np
import pytest

from flexdog.dog import correlate_valid
from flexdog.imageio import make_pattern
from flexdog.pipeline import MC_BATCH_PIXELS
from golden_cases import CORPORA, cases, digest, outputs, outputs_at_half_settle_time


@pytest.mark.parametrize("case", cases("strips"))
def test_pipeline_case_matches_golden(case):
    assert digest(outputs("strips", case)) == GOLDEN[case]


@pytest.mark.parametrize("case", cases("strips"))
def test_settle_time_moves_only_the_timing(case):
    assert digest(outputs_at_half_settle_time("strips", case)) == GOLDEN[case]


def test_monte_carlo_across_strips_matches_golden():
    [case] = cases("strips-mc")
    assert digest(outputs("strips-mc", case)) == GOLDEN_MC


def test_adc_cases_saturate():
    # the saturation count is summed over strips; pin that it is exercised
    assert outputs("strips", "257x1031-ideal-shared-adc-P1")["report"]["saturation_count"] > 0


def test_corpora_pin_both_sides_of_the_batch_gate():
    # monte_carlo batches several trials of a frame smaller than MC_BATCH_PIXELS and
    # runs a larger one trial at a time; whatever the constant, the corpora's
    # sweeps must pin both paths
    small = {make_pattern(args[0]).pixels.size for args in CORPORA["pipeline"][1].values()}
    large = {np.prod(args[0]) for args in CORPORA["strips-mc"][1].values()}
    assert max(small) < MC_BATCH_PIXELS <= min(large)


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


GOLDEN_MC = "beca3a9cf833d3c98c0fba35c2884a53aab20cce171a9c5dd195b2053b89a596"

GOLDEN = {
    "1031x61-ideal-shared-adc-P1": "e5fe72f1c93ef97b6bcd7f27da776d93c0c02c75cf19754f54e8ca92c1fab6ab",
    "1031x61-ideal-shared-adc-P2": "5dc0074c36729fe67b76e9773ca0b0dd150c9c5e5dac0bc63fe8af68828f5917",
    "1031x61-ideal-shared-bypass-P1": "04e62e3a83340dda0cb25e564b2f4d25778b98e3fb9af6b53dd3d6f67f83c306",
    "1031x61-ideal-shared-bypass-P2": "335b96f5f98a75824409fb9865ca9c61a4504720d605da0d41bb1218a582b8af",
    "1031x61-ideal-split-adc-P1": "6ce40fe355b3978b2d130c45e249bc4d202675f8ead92002451c18f9d23163ab",
    "1031x61-ideal-split-adc-P2": "89d369bbb359f79c19733ea5aad1d4bd89b5f5c251c6480855d088fd8603c680",
    "1031x61-ideal-split-bypass-P1": "c84e9af25dc8ef4eac77b9a309b4bf00565960546b2c4f1835bc21e5f63da7e1",
    "1031x61-ideal-split-bypass-P2": "b9b98a8f54731f4c161dd101c0e1c0627af28cdcb25a933a3711ff59d6e082f0",
    "1031x61-sigmoid-shared-adc-P1": "90f1391448040492a974d1b9900bc586226fdfe2406ae2f7df053635aff40898",
    "1031x61-sigmoid-shared-adc-P2": "8727c292c3e6b07ca777c6bbc5319333c104e2912cc44081556e609a95b6c18e",
    "1031x61-sigmoid-shared-bypass-P1": "4719396306e17bcbf1df220a779a1249f3efd473bdaa8eb84b34e9cf6a4ce515",
    "1031x61-sigmoid-shared-bypass-P2": "9b7234101576f964c7afa9f3bc79744b890e415349095e4bf37281e4c3fd92b5",
    "1031x61-sigmoid-split-adc-P1": "4f1fe0b8666774ca1cb473e35467594ab4d2dd89390fad297f54cd4cae9aa7d5",
    "1031x61-sigmoid-split-adc-P2": "c72bd342d808a9f2ff99616915ae3bd4268163d40f8ae1d107b39d167f933d3b",
    "1031x61-sigmoid-split-bypass-P1": "7c7ffb3c41324c33c1417a59450b6e35a3b659e65d0bb3ceefb784409d6a0019",
    "1031x61-sigmoid-split-bypass-P2": "84209a437d00a592993253ac142b8db2bdab8286bc15ee2d365d823f6b5f9be0",
    "257x1031-ideal-shared-adc-P1": "afcc7f186d3e001cfff89ae9354bea7087d93e16e0cd60008c22b5627aa40b02",
    "257x1031-ideal-shared-adc-P2": "22917eb2eddc3709af6ad26fc6038c5836776e854bd3b8cdb0b8daa8c9127ede",
    "257x1031-ideal-shared-bypass-P1": "ca49e3df15bf9b13b7fe648e4d36d8e23c26734969dc1609308c9f4408283def",
    "257x1031-ideal-shared-bypass-P2": "c431cd2a20bfdcedb668098aa2245df81b8d024587b22b2a50ba2bb1d7f9e9e4",
    "257x1031-ideal-split-adc-P1": "1cc106c31fc2759a494e50f8c31ebb45707607f58ea7efe40901e3e1d8a34d4e",
    "257x1031-ideal-split-adc-P2": "ba17891b77af104ad4c58c178542ab883e6829423ac027c3ca4e0aa2abaf462b",
    "257x1031-ideal-split-bypass-P1": "3258d71c359a46ed3ba32f6b661725b0ee2e9d8f5fe9e7363c53be6cccac1840",
    "257x1031-ideal-split-bypass-P2": "c8425b6f2e82fdc6e89080a21d865e9b2eaf910daeb2a7dfe72d1f6ad1a58b41",
    "257x1031-sigmoid-shared-adc-P1": "e34e11b65837eb21d69d6916a10c1ff314946f72d502f3b1184b9f246e162b90",
    "257x1031-sigmoid-shared-adc-P2": "bb7f671a4ead31193e8f146cabd4bb2f69c312193919506b86eec561986c5001",
    "257x1031-sigmoid-shared-bypass-P1": "0f86b35433c9d5a7777d69e812577329459626ae633b493706d8a335a2e568f2",
    "257x1031-sigmoid-shared-bypass-P2": "c156f1f677ca2f92cc8936d98e6e256bc2e132d578b9b3879c849041ea5e64ac",
    "257x1031-sigmoid-split-adc-P1": "431b46103858600a8d77fdb9583beabefa1e7ddd944cd2a45c8ad99e86814262",
    "257x1031-sigmoid-split-adc-P2": "6c27c396d701c6392dc8b45b96def6564b2569e3c47a0278d621cf1d2be9f235",
    "257x1031-sigmoid-split-bypass-P1": "5085529d813ee296bf4b98dce2fef7c950e3877aff2264f9bcd2f371b4004224",
    "257x1031-sigmoid-split-bypass-P2": "3f01ad9e2c01a6b213f1166885652cec5c944021ad3ac647d7c545a497ea80fc",
}
