"""Strip-boundary corpora for the analog pipeline, and ``correlate_valid``.

One pinned digest per case of the ``strips`` and ``strips-mc`` corpora, which
``golden_cases`` builds and describes.  The digests were last regenerated when
the oracle became one correlation with w1 - w2; the code frames inside are
still those of the full-frame implementation that preceded the strip scan (ADC
mode) and of the first to apply one effective weight per cell (bypass).
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


GOLDEN_MC = "fb60da63a2b90a7ddd3caf7ebbd1f61d7f2faeeac4f505d31732bc52306c2244"

GOLDEN = {
    "1031x61-ideal-shared-adc-P1": "5071bff554c746525b0559a6318c64622aee8e39bb1f1f1957b8d720a0d96651",
    "1031x61-ideal-shared-adc-P2": "99f4644c65e0ee9e29ed2af75eb54eb0b2eb93ebfce6fe7c05ff049d0aa0a7cc",
    "1031x61-ideal-shared-bypass-P1": "7ec2f5014fbceec07a5e82e74aceacf84f9f1b03a9e6b171c22da5b2eab92eea",
    "1031x61-ideal-shared-bypass-P2": "11a610f71934a96bbaf7199994b7e6f61fcd66edbb3839aed5f726b3ceb354ad",
    "1031x61-ideal-split-adc-P1": "d5739d4e38c4dd388d19edc87b5e7aed45b9b174c6dc947123a94fcd67a44a0d",
    "1031x61-ideal-split-adc-P2": "a160bc4e4d861d00dc9aa59591406d883684114579298083dc92fee77fa5e11e",
    "1031x61-ideal-split-bypass-P1": "76eccd86ed77d21705132928d744b02bcd47c6bb614436472a14b74e20542cc4",
    "1031x61-ideal-split-bypass-P2": "cd610012c20eba45b0a799710b59aa1699332b90321443fda9b20b3c24c88e49",
    "1031x61-sigmoid-shared-adc-P1": "f557ea10f85f7edd39ac0ca231dff72737ce91564af8b6e6e4dfef96b5d76420",
    "1031x61-sigmoid-shared-adc-P2": "56186ef016ed54f1f3fe487bb4e1bd10a99bc821fa4b6dff04348656ee243bd9",
    "1031x61-sigmoid-shared-bypass-P1": "9bfbfbd289ae8423a3341ed0a5160d3b4ea24e435090e7ff0af10cca060bcf60",
    "1031x61-sigmoid-shared-bypass-P2": "eb111a176c8df67ee42cc709c491c685edfd9486be79df5e3fb51c99c025ac9b",
    "1031x61-sigmoid-split-adc-P1": "9ab35190a2ece0963b1c9152d830b184cabf1285a72703a49c47b882f52fb125",
    "1031x61-sigmoid-split-adc-P2": "000f007c1a87b15583a3edaf88f0ea22d51e86a17d33266a6867bf190611c6b1",
    "1031x61-sigmoid-split-bypass-P1": "0b9f5c58e23d4edfac806b5a2a6683b9caba8724e855032972a8132adf5c2774",
    "1031x61-sigmoid-split-bypass-P2": "855b970d1ebec54d4eaf94ad44195f82ccd0fcaf1e0a31898217a7bdd4293de7",
    "257x1031-ideal-shared-adc-P1": "5407c6b79afb16a65581fc1b312db3b620ca8c7a1f56d50795badfe901354f2b",
    "257x1031-ideal-shared-adc-P2": "513620e509ddc57039fc72ab48dd475cf48f89212389939540ff11007532127d",
    "257x1031-ideal-shared-bypass-P1": "899dd3d8420f136f2242714e285d2be2ae5306176d2407a646109a65caeecaf0",
    "257x1031-ideal-shared-bypass-P2": "67374118c2a4147cf79b9fdb829e90acd883e927e1ffde3ddea487ab2bbbfffe",
    "257x1031-ideal-split-adc-P1": "91d209c63999025e555f45d38bd93761e29b6bbd81faadebff9833464e95d682",
    "257x1031-ideal-split-adc-P2": "79c9df3b6dd03b05b74f6d333e8b5c6f51cdb65092133bcd13de6babdda49451",
    "257x1031-ideal-split-bypass-P1": "6c18dac02c91c7fbeb2009dcf8d56905d32ea4953b2189daf423ca23549179d6",
    "257x1031-ideal-split-bypass-P2": "a2b28eefbdd1a29248c9ba96ee15633fb547a399dde17341a2497dd7143b3051",
    "257x1031-sigmoid-shared-adc-P1": "3faf39dfcdb7c6c03f46b7025205d2feb0593888ecbf434b48997c859e398a88",
    "257x1031-sigmoid-shared-adc-P2": "171b8988981f0c403e04e14c9337d4b047bcab2dfb48ee2ef328640013a115e5",
    "257x1031-sigmoid-shared-bypass-P1": "c5b9c3ec850bf22214aee4d5b9125f3ebf556802cf708b53213f93054e6fabef",
    "257x1031-sigmoid-shared-bypass-P2": "8cb1d1c4cc391b6ec3830427a1119fc35a34bd51b1694b15c4a92db9e7e55247",
    "257x1031-sigmoid-split-adc-P1": "0db27f1ac6b5501592a934f8dc3e27211cf2d345fd4ffabde5d15a1717c7f7c8",
    "257x1031-sigmoid-split-adc-P2": "3d8cc0398d779992dd1b0af0cb5f04bc8bd71f6e105c58827051e307ee25c5f1",
    "257x1031-sigmoid-split-bypass-P1": "ea5cf85f0258294dbe56f7f72cd811a2bec3e041ebf3d49e3e2dfdabf529ce1e",
    "257x1031-sigmoid-split-bypass-P2": "7056ec3d2abff341b94677e9b021becda19eedbad316c6ade21d7a5e47f80a5e",
}
