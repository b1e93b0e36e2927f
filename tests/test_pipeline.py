import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from flexdog import pipeline
from flexdog.cell import (
    MODEL_IDEAL,
    MODEL_SIGMOID,
    CellParams,
    SigmoidProductParams,
    cell_response,
    program_kernel,
)
from flexdog.dog import GaussianKernel, IntensityImage, dog, make_gaussian_kernel
from flexdog.errors import ConfigurationError, DimensionError, InvalidParameterError
from flexdog.perf import runtime
from flexdog.pipeline import (
    DIST_LOGNORMAL,
    DIST_TRUNCNORM,
    MC_BATCH_PIXELS,
    TRUNCNORM_SIGMA_MAX,
    AdcSpec,
    AnalogConfig,
    VariationModel,
    VariationSample,
    _adc_codes,
    _draw_samples,
    analog_convolve,
    block_perf_spec,
    draw_variation,
    edge_map,
    monte_carlo,
    quantize,
    run_dog_pipeline,
    saturation_count,
    sense,
    to_voltage,
)
from golden_cases import CONFIGS, config, kernels
from test_cli import run_python

K1, K2 = kernels()
# seeds with a |z| > 4 before their last drawn block: 755 and 1312 among gamma and gain,
# 384 in its second array's
TAIL_SEEDS = (755, 1312, 384)


def no_variation_sample(image_shape, kernel_shape=(3, 3)):
    return draw_variation(VariationModel(), kernel_shape, image_shape, seed=0)


@pytest.fixture
def normal_sizes(monkeypatch):
    """Sizes of the standard_normal draws requested from any default_rng."""
    sizes = []
    real_rng = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = real_rng(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, size=None, out=None):
            sizes.append(math.prod(np.shape(out)) if out is not None
                         else 1 if size is None else math.prod(np.atleast_1d(size)))
            return self.rng.standard_normal(size, out=out)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    return sizes


def reference_draw(var, kernel_shape, image_shape, seed):
    """The draw rule, one trial at a time: one stream over the blocks up to the
    last nonzero sigma, each |z| > 4 then replaced in order by the next value
    within +-4 of the tail stream, then scaling; later blocks are 1."""
    shapes = [kernel_shape, kernel_shape, image_shape]
    sigmas = [var.gamma_rel_sigma, var.gain_rel_sigma, var.sensor_rel_sigma]
    drawn = max((k + 1 for k, sigma in enumerate(sigmas) if sigma), default=0)
    ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
    z = np.random.default_rng(seed).standard_normal(ends[drawn - 1] if drawn else 0)
    tail_stream = np.random.default_rng([seed, 2])
    for i in np.flatnonzero(np.abs(z) > 4):
        z[i] = tail_stream.standard_normal()
        while abs(z[i]) > 4:
            z[i] = tail_stream.standard_normal()
    blocks = []
    for k, (shape, end) in enumerate(zip(shapes, ends)):
        if k >= drawn:
            blocks.append(np.ones(shape))
            continue
        values = sigmas[k] * z[end - math.prod(shape) : end].reshape(shape)
        blocks.append(np.exp(values) if var.distribution == DIST_LOGNORMAL else 1.0 + values)
    return VariationSample(*blocks)


def truncated_moments(distribution, sigma):
    """Mean and std of the multiplier 1 + sigma z or exp(sigma z), z a standard
    normal truncated to +-4."""
    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    mass = cdf(4.0) - cdf(-4.0)
    if distribution == DIST_TRUNCNORM:
        return 1.0, sigma * math.sqrt(1.0 - 8.0 * math.exp(-8.0) / math.sqrt(2 * math.pi) / mass)

    def moment(a):  # E[exp(a z)]
        return math.exp(a * a / 2.0) * (cdf(4.0 - a) - cdf(-4.0 - a)) / mass

    return moment(sigma), math.sqrt(moment(2.0 * sigma) - moment(sigma) ** 2)


def four_sigma_bounds(distribution, sigma):
    """The multipliers of z = -4 and 4, scaled as the draw scales them."""
    z = np.array([-4.0, 4.0]) * sigma
    return np.exp(z) if distribution == DIST_LOGNORMAL else z + 1.0


def extended_seed(seed):
    """The seed of a split configuration's second array."""
    return int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])


class TestVariation:
    def test_same_seed_reproduces_multipliers(self):
        model = VariationModel(0.1, 0.2, 0.05)
        a = draw_variation(model, (3, 3), (8, 8), seed=123)
        b = draw_variation(model, (3, 3), (8, 8), seed=123)
        assert np.array_equal(a.gamma_mult, b.gamma_mult)
        assert np.array_equal(a.gain_mult, b.gain_mult)
        assert np.array_equal(a.sensor_mult, b.sensor_mult)

    def test_zero_sigma_gives_exact_ones(self):
        s = draw_variation(VariationModel(), (3, 3), (5, 7), seed=42)
        assert np.all(s.gamma_mult == 1.0)
        assert np.all(s.gain_mult == 1.0)
        assert np.all(s.sensor_mult == 1.0)

    def test_truncation_bounds(self):
        model = VariationModel(gamma_rel_sigma=0.25)
        s = draw_variation(model, (9, 9), (2, 2), seed=7)
        assert np.all(np.abs(s.gamma_mult - 1.0) <= 0.25 * 4.0)

    def test_lognormal_positive(self):
        model = VariationModel(0.5, 0.5, 0.5, distribution=DIST_LOGNORMAL)
        s = draw_variation(model, (3, 3), (10, 10), seed=1)
        assert np.all(s.gamma_mult > 0)
        assert np.all(s.sensor_mult > 0)

    def test_no_image_shape_rejected(self):
        # it raised numpy's bare TypeError from np.empty(None)
        with pytest.raises(DimensionError, match="needs an image_shape"):
            draw_variation(VariationModel(0.1), (3, 3), None, seed=0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidParameterError):
            VariationModel(gamma_rel_sigma=-0.1)

    @pytest.mark.parametrize("distribution", [DIST_TRUNCNORM, DIST_LOGNORMAL])
    def test_zero_sensor_sigma_skips_the_image_sized_draw(self, normal_sizes, distribution):
        for seed in (5, *TAIL_SEEDS):
            normal_sizes.clear()
            skipped = draw_variation(VariationModel(0.1, 0.2, 0.0, distribution), (3, 3), (64, 48),
                                     seed)
            assert normal_sizes and max(normal_sizes) < 64 * 48
            # the sensor is the last draw, so skipping it moves no other value
            drawn = draw_variation(VariationModel(0.1, 0.2, 0.05, distribution), (3, 3), (64, 48),
                                   seed)
            assert np.array_equal(skipped.gamma_mult, drawn.gamma_mult)
            assert np.array_equal(skipped.gain_mult, drawn.gain_mult)
            assert np.all(skipped.sensor_mult == 1.0)

    def test_zero_sensor_sigma_frame_makes_no_image_sized_draw(self, normal_sizes):
        img = IntensityImage(np.random.default_rng(3).random((512, 512)))
        run_dog_pipeline(img, K1, K2, AnalogConfig(variation=VariationModel(0.05, 0.05)), seed=1)
        assert normal_sizes and max(normal_sizes) < 512 * 512

    def test_monte_carlo_nominal_pass_makes_no_image_sized_draw(self, normal_sizes):
        img = IntensityImage(np.random.default_rng(3).random((28, 28)))
        monte_carlo(img, K1, K2, AnalogConfig(variation=VariationModel(0.05, 0.05, 0.05)),
                    n_trials=2, base_seed=7)
        # one call per trial covers gamma, gain and the image; the nominal pass draws none
        assert [n for n in normal_sizes if n >= 28 * 28] == [2 * K1.weights.size + 28 * 28] * 2

    def test_normal_sizes_counts_the_normals_of_every_call_form(self, normal_sizes):
        rng = np.random.default_rng(0)
        rng.standard_normal()
        rng.standard_normal(3072)
        rng.standard_normal((64, 48))
        rng.standard_normal(out=np.empty((2, 5)))
        assert normal_sizes == [1, 3072, 64 * 48, 10]

    def test_draws_after_the_last_nonzero_sigma_are_skipped(self, normal_sizes):
        for seed in (5, *TAIL_SEEDS):
            normal_sizes.clear()
            reference_draw(VariationModel(0.1), (3, 3), (8, 8), seed)
            n = len(normal_sizes) - 1  # the reference's tail-stream draws
            # 755 and 1312 hold a tail among their 9 gamma normals, 5 and 384 none
            assert normal_sizes == [9] + [1] * n and (n > 0) == (seed in (755, 1312))
            normal_sizes.clear()
            skipped = draw_variation(VariationModel(0.1), (3, 3), (8, 8), seed)
            assert normal_sizes == [9] + [1] * n  # gamma, then a tail stream only for a tail
            drawn = draw_variation(VariationModel(0.1, 0.2, 0.05), (3, 3), (8, 8), seed)
            assert np.array_equal(skipped.gamma_mult, drawn.gamma_mult)
            assert np.all(skipped.gain_mult == 1.0) and np.all(skipped.sensor_mult == 1.0)

    def test_all_zero_sigmas_make_no_generator(self, monkeypatch):
        def no_generator(seed):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        s = draw_variation(VariationModel(), (3, 3), (5, 7), seed=42)
        assert np.all(s.gamma_mult == 1.0) and np.all(s.sensor_mult == 1.0)

    @pytest.mark.parametrize("distribution", [DIST_TRUNCNORM, DIST_LOGNORMAL])
    def test_second_array_shares_the_sensor_and_draws_no_image_sized_normals(
            self, normal_sizes, distribution):
        cfg = AnalogConfig(variation=VariationModel(0.1, 0.2, 0.05, distribution),
                           shared_array=False)
        seeds = [5, 6, *TAIL_SEEDS]
        sample1, sample2 = _draw_samples(cfg, (3, 3), (64, 48), seeds)
        # one call per trial covers gamma, gain and the image, first array only
        assert [n for n in normal_sizes if n >= 64 * 48] == [2 * 9 + 64 * 48] * len(seeds)
        assert sample2.sensor_mult is sample1.sensor_mult
        for k, seed in enumerate(seeds):
            # the second array's cells: the draw of a full sample from the extended seed
            full = draw_variation(cfg.variation, (3, 3), (64, 48), extended_seed(seed))
            assert np.array_equal(sample2.gamma_mult[k], full.gamma_mult)
            assert np.array_equal(sample2.gain_mult[k], full.gain_mult)

    @pytest.mark.parametrize("pattern", [(1, 1, 1), (0, 1, 1), (1, 0, 0), (0, 0, 1), (1, 1, 0)],
                             ids=["sss", "0ss", "s00", "00s", "ss0"])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "split"])
    @pytest.mark.parametrize("distribution", [DIST_TRUNCNORM, DIST_LOGNORMAL])
    def test_batch_equals_per_trial_draws_with_tails(self, distribution, shared, pattern):
        var = VariationModel(*(0.05 * on for on in pattern), distribution=distribution)
        seeds = [*TAIL_SEEDS, 9]
        sample1, sample2 = _draw_samples(AnalogConfig(variation=var, shared_array=shared),
                                         (3, 3), (300, 300), seeds)
        for k, seed in enumerate(seeds):
            full = reference_draw(var, (3, 3), (300, 300), seed)
            assert np.array_equal(sample1.gamma_mult[k], full.gamma_mult)
            assert np.array_equal(sample1.gain_mult[k], full.gain_mult)
            assert np.array_equal(sample1.sensor_mult[k], full.sensor_mult)
            one = draw_variation(var, (3, 3), (300, 300), seed)
            assert all(np.array_equal(a, b) for a, b in zip(
                (one.gamma_mult, one.gain_mult, one.sensor_mult),
                (full.gamma_mult, full.gain_mult, full.sensor_mult)))
            seed2 = extended_seed(seed) if not shared and (pattern[0] or pattern[1]) else seed
            full2 = reference_draw(var, (3, 3), (300, 300), seed2)
            assert np.array_equal(sample2.gamma_mult[k], full2.gamma_mult)
            assert np.array_equal(sample2.gain_mult[k], full2.gain_mult)
        assert sample2.sensor_mult is sample1.sensor_mult

    @pytest.mark.parametrize("distribution", [DIST_TRUNCNORM, DIST_LOGNORMAL])
    def test_multipliers_follow_the_truncated_distribution(self, distribution):
        n, sigma = 10_000, 0.05
        m = draw_variation(VariationModel(sigma, distribution=distribution), (100, 100), (1, 1),
                           seed=0).gamma_mult
        mean, std = truncated_moments(distribution, sigma)
        assert abs(m.mean() - mean) < 3 * std / math.sqrt(n)
        assert abs(m.std(ddof=1) - std) < 3 * std / math.sqrt(2 * (n - 1))
        lo, hi = four_sigma_bounds(distribution, sigma)
        assert np.all((m >= lo) & (m <= hi))

    @pytest.mark.parametrize("distribution", [DIST_TRUNCNORM, DIST_LOGNORMAL])
    def test_every_replaced_tail_lies_within_four_sigma(self, distribution):
        # 500 x 500 cells and a 1000 x 1000 sensor hold tails in every block (p = 6.3e-5 each)
        sigma = 0.05
        sample = draw_variation(VariationModel(sigma, sigma, sigma, distribution), (500, 500),
                                (1000, 1000), seed=0)
        z = np.random.default_rng(0).standard_normal(2 * 500 * 500 + 1000 * 1000)
        lo, hi = four_sigma_bounds(distribution, sigma)
        end = 0
        for m in (sample.gamma_mult, sample.gain_mult, sample.sensor_mult):
            tails = np.abs(z[end : end + m.size]) > 4
            end += m.size
            replaced = m.reshape(-1)[tails]
            assert replaced.size and np.all((replaced >= lo) & (replaced <= hi))

    def test_seeds_hold_tails_before_the_last_drawn_block(self):
        # the seeds of the tests above: 755 and 1312 hold a |z| > 4 among their 18 gamma and
        # gain normals, as does 384's extended seed; 9 holds its tails in a 300 x 300 sensor
        for seed in (755, 1312, extended_seed(384)):
            assert np.any(np.abs(np.random.default_rng(seed).standard_normal(18)) > 4)
        z = np.random.default_rng(9).standard_normal(18 + 300 * 300)
        assert np.count_nonzero(np.abs(z[:18]) > 4) == 0 and np.count_nonzero(np.abs(z) > 4) == 5

    def test_batch_arrays_are_views_of_one_buffer(self):
        cfg = AnalogConfig(variation=VariationModel(0.1, 0.2, 0.05), shared_array=False)
        sample1, sample2 = _draw_samples(cfg, (3, 3), (8, 6), [5, 6, 7])
        assert sample1.sensor_mult.base is sample1.gamma_mult.base is sample1.gain_mult.base
        assert sample1.sensor_mult.base.shape == (3, 2 * 9 + 8 * 6)
        assert sample2.gamma_mult.base is sample2.gain_mult.base
        assert sample2.gamma_mult.base.shape == (3, 2 * 9)

    def test_split_arrays_with_zero_sigmas_leave_numpy_random_unloaded(self):
        # nothing is drawn for either array, so neither a generator nor a second seed is made
        run_python("import sys, numpy as np; from flexdog.pipeline import AnalogConfig, "
                   "run_dog_pipeline; from flexdog.dog import IntensityImage, "
                   "make_gaussian_kernel as k; "
                   "run_dog_pipeline(IntensityImage(np.full((8, 8), 0.5)), k(0.85, 1), "
                   "k(1.2, 1), AnalogConfig(shared_array=False), seed=0); "
                   "assert 'numpy.random' not in sys.modules")

    @pytest.mark.parametrize("field", ["gamma_rel_sigma", "gain_rel_sigma", "sensor_rel_sigma"])
    def test_lognormal_sigma_whose_multiplier_overflows_rejected(self, field):
        # exp(4 * sigma) overflows above sigma = log(float max) / 4 = 177.44...
        with pytest.raises(InvalidParameterError, match="<= 177.4"):
            VariationModel(**{field: 1e300}, distribution=DIST_LOGNORMAL)
        with pytest.raises(InvalidParameterError, match="<= 177.4"):
            VariationModel(**{field: 177.5}, distribution=DIST_LOGNORMAL)
        VariationModel(**{field: 177.4}, distribution=DIST_LOGNORMAL)
        VariationModel(**{field: 1e300})  # 1 + sigma * z stays finite

    def test_truncated_sigma_whose_largest_multiplier_overflows_rejected(self):
        # sigma * z overflowed, with a warning, where 4 sigma is not finite
        for field in ("gamma_rel_sigma", "gain_rel_sigma", "sensor_rel_sigma"):
            with pytest.raises(InvalidParameterError, match="<= 4.49"):
                VariationModel(**{field: 1e308})
        s = draw_variation(VariationModel(*[TRUNCNORM_SIGMA_MAX] * 3), (3, 3), (4, 4), seed=1)
        assert all(np.all(np.isfinite(m)) for m in (s.gamma_mult, s.gain_mult, s.sensor_mult))


class TestSense:
    def test_row_window_matches_full_frame_and_checks_its_rows(self):
        img = IntensityImage(np.random.default_rng(0).random((6, 5)))
        sample = draw_variation(VariationModel(sensor_rel_sigma=0.1), (3, 3), (6, 5), seed=1)
        full = sense(img, 100e-9, sample)
        assert np.array_equal(sense(img, 100e-9, sample, slice(2, 5)), full[2:5])
        sensor_mult = sample.sensor_mult.copy()
        sensor_mult[5, 0] = -0.5
        bad = replace(sample, sensor_mult=sensor_mult)
        sense(img, 100e-9, bad, slice(0, 5))  # the window leaves the bad pixel out
        with pytest.raises(InvalidParameterError, match="-0.5"):
            sense(img, 100e-9, bad, slice(3, 6))

    def test_unit_pixels_give_nominal_current(self):
        img = IntensityImage(np.ones((4, 4)))
        frame = sense(img, 100e-9, no_variation_sample((4, 4)))
        assert np.allclose(frame, 100e-9, rtol=1e-15)

    def test_zero_image(self):
        img = IntensityImage(np.zeros((4, 4)))
        frame = sense(img, 100e-9, no_variation_sample((4, 4)))
        assert np.all(frame == 0.0)

    def test_binary_image_gives_two_level_currents(self):
        pixels = np.zeros((6, 6))
        pixels[2:4, :] = 1.0
        frame = sense(IntensityImage(pixels), 100e-9, no_variation_sample((6, 6)))
        assert set(np.unique(frame)) == {0.0, 100e-9}

    def test_shape_mismatch_rejected(self):
        img = IntensityImage(np.ones((4, 4)))
        with pytest.raises(DimensionError):
            sense(img, 100e-9, no_variation_sample((5, 5)))

    @pytest.mark.parametrize("bad", [-0.5, math.nan])
    def test_negative_sensor_multiplier_on_dark_pixel_rejected(self, bad):
        sample = no_variation_sample((4, 4))
        sample.sensor_mult[0, 0] = bad
        with pytest.raises(InvalidParameterError, match="sensor multipliers"):
            sense(IntensityImage(np.zeros((4, 4))), 100e-9, sample)

    @pytest.mark.parametrize("i_in", [0.0, -100e-9, math.nan, math.inf])
    def test_bad_nominal_current_rejected(self, i_in):
        with pytest.raises(InvalidParameterError, match="i_in_nominal"):
            sense(IntensityImage(np.ones((4, 4))), i_in, no_variation_sample((4, 4)))


def perturbed_cell(params, gamma_mult):
    """CellParams of one cell whose gamma multiplier is ``gamma_mult``."""
    if params.model_kind == MODEL_IDEAL:
        return replace(params, gamma=params.gamma * gamma_mult)
    steep = params.sigmoid.steepness * math.sqrt(gamma_mult)
    return replace(params, sigmoid=replace(params.sigmoid, steepness=steep))


class TestAnalogConvolve:
    def test_matches_digital_oracle_without_variation(self):
        rng = np.random.default_rng(2)
        img = IntensityImage(rng.random((16, 14)))
        params = CellParams()
        pk = program_kernel(K1, params)
        sample = no_variation_sample((16, 14))
        frame = sense(img, params.i_in_nominal, sample)
        out = analog_convolve(frame, pk, sample)
        from flexdog.dog import convolve_valid

        digital = convolve_valid(img, K1).values
        descale = out / (pk.scale * params.i_in_nominal)
        assert np.allclose(descale, digital, rtol=1e-9)

    def test_zero_frame(self):
        pk = program_kernel(K1, CellParams())
        frame = np.zeros((5, 5))
        out = analog_convolve(frame, pk, no_variation_sample((5, 5)))
        assert np.all(out == 0.0)

    def test_single_pixel_flat_kernel_half_gain(self):
        flat = GaussianKernel(sigma=1.0, half_width=1, weights=np.full((3, 3), 1 / 9))
        pk = program_kernel(flat, CellParams())
        currents = np.zeros((3, 3))
        currents[1, 1] = 80e-9
        out = analog_convolve(currents, pk, no_variation_sample((3, 3)))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(40e-9, rel=1e-15)

    def test_frame_smaller_than_kernel(self):
        pk = program_kernel(K1, CellParams())
        with pytest.raises(DimensionError):
            analog_convolve(np.zeros((2, 2)), pk, no_variation_sample((2, 2)))

    @pytest.mark.parametrize("model", [MODEL_IDEAL, MODEL_SIGMOID])
    def test_equals_row_major_sum_of_perturbed_cells(self, model):
        """Bit for bit: each window times its cell's one effective weight, the
        gain multiplier times the cell's own perturbed response to a unit
        current, summed in row-major order."""
        params = CellParams(model_kind=model)
        pk = program_kernel(make_gaussian_kernel(0.85, 2, normalize=True), params)
        img = IntensityImage(np.random.default_rng(5).random((12, 10)))
        sample = draw_variation(VariationModel(0.1, 0.1, 0.1), (5, 5), (12, 10), seed=8)
        frame = sense(img, params.i_in_nominal, sample)
        want = np.zeros((8, 6))
        for i in range(5):
            for j in range(5):
                cell = perturbed_cell(params, float(sample.gamma_mult[i, j]))
                window = frame[i : i + 8, j : j + 6]
                want += window * (sample.gain_mult[i, j] * cell_response(1.0, pk.dv_grid[i, j], cell))
        assert np.array_equal(analog_convolve(frame, pk, sample), want)

    @pytest.mark.parametrize("distribution", [DIST_TRUNCNORM, DIST_LOGNORMAL])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("model", [MODEL_IDEAL, MODEL_SIGMOID])
    def test_matches_three_factor_row_major_sum(self, model, p, distribution):
        """One weight per cell rounds differently from multiplying each window
        by the cell's factors in turn, ((x*a)*b)*g, but by a few ulp only."""
        params = CellParams(model_kind=model)
        pk = program_kernel(make_gaussian_kernel(0.85, p, normalize=True), params)
        side = 2 * p + 1
        variation = VariationModel(0.1, 0.1, 0.1, distribution)
        for seed in range(20):
            img = IntensityImage(np.random.default_rng([seed, p]).random((14, 11)))
            sample = draw_variation(variation, (side, side), (14, 11), seed=seed)
            frame = sense(img, params.i_in_nominal, sample)
            want = np.zeros((15 - side, 12 - side))
            for i in range(side):
                for j in range(side):
                    cell = perturbed_cell(params, float(sample.gamma_mult[i, j]))
                    window = frame[i : i + want.shape[0], j : j + want.shape[1]]
                    want += cell_response(window, pk.dv_grid[i, j], cell) * sample.gain_mult[i, j]
            np.testing.assert_allclose(analog_convolve(frame, pk, sample), want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("model", [MODEL_IDEAL, MODEL_SIGMOID])
    def test_trial_stack_equals_separate_calls(self, model):
        params = CellParams(model_kind=model)
        pk = program_kernel(make_gaussian_kernel(0.85, 2, normalize=True), params)
        rng = np.random.default_rng(4)
        img = IntensityImage(rng.random((11, 13)))
        model_var = VariationModel(0.1, 0.1, 0.1)
        samples = [draw_variation(model_var, (5, 5), (11, 13), seed=s) for s in range(4)]
        stacked = VariationSample(
            gamma_mult=np.stack([s.gamma_mult for s in samples]),
            gain_mult=np.stack([s.gain_mult for s in samples]),
            sensor_mult=np.stack([s.sensor_mult for s in samples]),
        )
        out = analog_convolve(sense(img, params.i_in_nominal, stacked), pk, stacked)
        assert out.shape == (4, 7, 9)
        for t, sample in enumerate(samples):
            single = analog_convolve(sense(img, params.i_in_nominal, sample), pk, sample)
            assert np.array_equal(out[t], single)

    @pytest.mark.parametrize("model", [MODEL_IDEAL, MODEL_SIGMOID])
    @pytest.mark.parametrize("bad", [0.0, -0.2, math.nan])
    def test_nonpositive_gamma_multiplier_rejected(self, model, bad):
        params = CellParams(model_kind=model)
        pk = program_kernel(K1, params)
        sample = no_variation_sample((5, 5))
        sample.gamma_mult[0, 2] = bad
        with pytest.raises(InvalidParameterError):
            analog_convolve(np.ones((5, 5)), pk, sample)

    def test_negative_gain_multiplier_rejected(self):
        pk = program_kernel(K1, CellParams())
        sample = no_variation_sample((5, 5))
        sample.gain_mult[:] = -1.0
        with pytest.raises(InvalidParameterError):
            analog_convolve(np.ones((5, 5)), pk, sample)

    @pytest.mark.parametrize("bad", [-0.5, math.nan])
    def test_one_negative_gain_multiplier_rejected(self, bad):
        # the summed output stays positive, so only the multiplier shows the fault
        pk = program_kernel(K1, CellParams())
        sample = no_variation_sample((5, 5))
        sample.gain_mult[1, 1] = bad
        with pytest.raises(InvalidParameterError, match="gain multipliers"):
            analog_convolve(np.ones((5, 5)), pk, sample)


class TestVoltageAndAdc:
    def test_ohms_law(self):
        v = to_voltage(np.full((2, 2), 50e-9), 10e6)
        assert np.allclose(v, 0.5, rtol=1e-15)

    def test_zero_current_zero_volts(self):
        assert np.all(to_voltage(np.zeros((2, 2)), 1e6) == 0.0)

    def test_linearity(self):
        frame = np.array([[1e-9, 3e-9]])
        doubled = 2 * frame
        assert np.array_equal(to_voltage(doubled, 5e6), 2 * to_voltage(frame, 5e6))

    def test_voltage_past_the_float_range_rejected(self):
        # it raised a RuntimeWarning (overflow in multiply) under -W error
        with pytest.raises(InvalidParameterError, match="transimpedance 1e"):
            to_voltage(np.array([1e300]), 1e300)
        assert to_voltage(np.array([1e7]), 1e300)[0] == pytest.approx(1e307)  # in range: kept

    def test_quantize_endpoints(self):
        adc = AdcSpec(bits=8, vref=1.0)
        assert quantize(np.array(0.0), adc) == 0
        assert quantize(np.array(1.0), adc) == 255
        assert quantize(np.array(0.5), adc) == 128  # round(127.5) half away from zero

    def test_quantize_clamps(self):
        adc = AdcSpec(bits=8, vref=1.0)
        assert quantize(np.array(-0.3), adc) == 0
        assert quantize(np.array(2.0), adc) == 255

    def test_quantize_equals_sign_magnitude_rounding(self):
        adc = AdcSpec(bits=4, vref=1.0)
        v = np.concatenate([np.linspace(-0.5, 1.5, 4001), np.arange(-3, 40) / 2 / adc.levels])
        x = v / adc.vref * adc.levels
        old = np.clip(np.sign(x) * np.floor(np.abs(x) + 0.5), 0, adc.levels).astype(np.int64)
        assert np.array_equal(quantize(v, adc), old)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_quantize_rejects_non_finite_voltage(self, bad):
        # nan warned of an invalid cast and gave the int64 minimum as its code
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=f"finite to quantize, got {bad}"):
                quantize(np.array([0.5, bad]), AdcSpec(vref=1.0))

    def test_quantize_voltage_past_the_float_range_saturates(self):
        # v / vref overflowed with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = quantize(np.array([1e300, -1e300]), AdcSpec(vref=1e-10))
        assert codes.tolist() == [255, 0]

    @pytest.mark.parametrize("bits", [1, 8, 53])
    def test_float_codes_equal_quantize(self, bits):
        adc = AdcSpec(bits=bits, vref=1.3)
        v = np.random.default_rng(bits).uniform(-adc.vref, 2 * adc.vref, (7, 300))
        v[0, :3] = 0.0, adc.vref, 0.5 * adc.vref / adc.levels  # the ends and a half code
        codes = quantize(v, adc)
        assert codes.dtype == np.int64
        assert np.array_equal(_adc_codes(v, adc), codes.astype(float))
        assert _adc_codes(v, adc).dtype == np.float64
        assert np.array_equal(_adc_codes(v, adc, out=v), codes.astype(float))  # in place
        for x in (-0.2, 0.0, 0.4, 1.3, 2.5):
            code = quantize(np.array(x), adc)
            assert np.ndim(code) == 0 and isinstance(code, np.integer)
            assert quantize(x, adc) == code
            assert np.ndim(_adc_codes(x, adc)) == 0
            assert np.array_equal(_adc_codes(np.array(x), adc), code.astype(float))

    def test_quantization_error_bound(self):
        adc = AdcSpec(bits=6, vref=2.5)
        rng = np.random.default_rng(8)
        v = rng.uniform(-1.0, 4.0, 20000)
        codes = quantize(v, adc)
        lsb = adc.vref / adc.levels
        recon = codes * lsb
        assert np.all(np.abs(recon - np.clip(v, 0.0, adc.vref)) <= lsb / 2 + 1e-15)

    def test_saturation_count(self):
        v = np.array([-0.1, 0.0, 0.5, 1.0, 1.2])
        assert saturation_count(v, 1.0) == 2

    def test_unresolved_vref_rejected(self):
        with pytest.raises(ConfigurationError):
            quantize(np.array(0.5), AdcSpec())

    def test_vref_whose_code_scale_overflows_rejected(self):
        # quantize and the oracle's code scale multiply by levels / vref
        for bits, vref in ((8, 1e-320), (8, 1e-306), (53, 1e-293)):
            with pytest.raises(InvalidParameterError, match="levels / vref"):
                AdcSpec(bits=bits, vref=vref)
        AdcSpec(bits=8, vref=1e-300)
        AdcSpec(bits=8, vref=1e-293)

    def test_derived_vref_whose_code_scale_overflows_rejected(self):
        cfg = AnalogConfig(cell_params=CellParams(i_in_nominal=1e-318), transimpedance=1.0)
        with pytest.raises(InvalidParameterError, match="levels / vref"):
            run_dog_pipeline(IntensityImage(np.ones((6, 6))), K1, K2, cfg, seed=0)


class TestRunDogPipeline:
    def test_constant_image_all_zero_codes(self):
        img = IntensityImage(np.full((28, 28), 0.5))
        codes, report = run_dog_pipeline(img, K1, K2, AnalogConfig(), seed=3)
        assert np.all(codes.codes == 0)
        assert report.saturation_count == 0

    def test_same_seed_bitwise_identical(self):
        rng = np.random.default_rng(4)
        img = IntensityImage((rng.random((20, 20)) > 0.5).astype(float))
        cfg = AnalogConfig(variation=VariationModel(0.1, 0.1, 0.1))
        a, ra = run_dog_pipeline(img, K1, K2, cfg, seed=99)
        b, rb = run_dog_pipeline(img, K1, K2, cfg, seed=99)
        assert np.array_equal(a.codes, b.codes)
        assert ra == rb

    def test_different_seed_differs(self):
        rng = np.random.default_rng(4)
        img = IntensityImage((rng.random((20, 20)) > 0.5).astype(float))
        cfg = AnalogConfig(variation=VariationModel(0.1, 0.1, 0.1))
        a, _ = run_dog_pipeline(img, K1, K2, cfg, seed=1)
        b, _ = run_dog_pipeline(img, K1, K2, cfg, seed=2)
        assert not np.array_equal(a.codes, b.codes)

    def test_compensation_factors_recorded(self):
        img = IntensityImage(np.full((10, 10), 0.5))
        _, report = run_dog_pipeline(img, K1, K2, AnalogConfig(), seed=0)
        s_ref = min(report.scale_1, report.scale_2)
        assert report.compensation_1 == s_ref / report.scale_1
        assert report.compensation_2 == s_ref / report.scale_2
        assert max(report.compensation_1, report.compensation_2) == 1.0

    def test_bypass_matches_oracle(self):
        rng = np.random.default_rng(12)
        img = IntensityImage(rng.random((18, 22)))
        cfg = AnalogConfig(adc_bypass=True)
        codes, report = run_dog_pipeline(img, K1, K2, cfg, seed=0)
        oracle = dog(img, K1, K2).values
        descale = codes.codes * report.vref / 255.0 / (
            min(report.scale_1, report.scale_2)
            * cfg.cell_params.i_in_nominal
            * cfg.transimpedance
        )
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(descale - oracle)) <= 1e-9 * scale

    def test_oracle_codes_returned_with_frame(self):
        rng = np.random.default_rng(13)
        img = IntensityImage((rng.random((16, 16)) > 0.5).astype(float))
        cfg = AnalogConfig(adc=AdcSpec(bits=6), variation=VariationModel(0.05, 0.05, 0.05))
        codes, report = run_dog_pipeline(img, K1, K2, cfg, seed=2)
        scale = (min(report.scale_1, report.scale_2) * cfg.cell_params.i_in_nominal
                 * cfg.transimpedance / report.vref * cfg.adc.levels)
        assert np.allclose(codes.oracle, dog(img, K1, K2).values * scale, rtol=1e-12, atol=0)
        err = np.abs(codes.codes - codes.oracle)
        assert report.mean_abs_error_code == err.mean()
        assert report.max_abs_error_code == err.max()

    def test_default_perf_spec_carries_adc_conversion_time(self):
        img = IntensityImage(np.zeros((10, 10)))
        adc = AdcSpec(t_conv=2e-6)
        _, report = run_dog_pipeline(img, K1, K2, AnalogConfig(adc=adc), seed=0)
        spec = block_perf_spec(1, 100e-9, 0.5e-6, adc)
        assert spec.adc_time == 2e-6
        assert spec.node_count == 9
        assert report.runtime_s == runtime(10, 10, spec)

    def test_saturation_accounting(self):
        img = IntensityImage(np.ones((10, 10)))
        # tiny vref forces every nonzero node voltage out of range
        cfg = AnalogConfig(adc=AdcSpec(bits=8, vref=1e-6))
        codes, report = run_dog_pipeline(img, K1, K2, cfg, seed=0)
        assert report.saturation_count == 2 * 8 * 8

    def test_kernel_pairing_validated(self):
        img = IntensityImage(np.zeros((10, 10)))
        with pytest.raises(ConfigurationError):
            run_dog_pipeline(img, K2, K1, AnalogConfig(), seed=0)
        with pytest.raises(ConfigurationError):
            k_wide = make_gaussian_kernel(2.0, 2, normalize=True)
            run_dog_pipeline(img, K1, k_wide, AnalogConfig(), seed=0)

    def test_independent_arrays_mode(self):
        rng = np.random.default_rng(6)
        img = IntensityImage((rng.random((16, 16)) > 0.5).astype(float))
        cfg_shared = AnalogConfig(variation=VariationModel(0.1, 0.1, 0.0))
        cfg_split = AnalogConfig(variation=VariationModel(0.1, 0.1, 0.0), shared_array=False)
        a, _ = run_dog_pipeline(img, K1, K2, cfg_shared, seed=5)
        b, _ = run_dog_pipeline(img, K1, K2, cfg_split, seed=5)
        assert not np.array_equal(a.codes, b.codes)

    @pytest.mark.parametrize("model", [MODEL_IDEAL, MODEL_SIGMOID])
    def test_gamma_multiplier_whose_product_overflows_rejected(self, model):
        # it gave nan cell weights, so int64-minimum codes and a nan MAE
        cfg = AnalogConfig(cell_params=CellParams(gamma=1e300, model_kind=model,
                                                  sigmoid=SigmoidProductParams(1e300)),
                           variation=VariationModel(177.0, 0.0, 0.0, DIST_LOGNORMAL))
        img = IntensityImage(np.random.default_rng(0).random((8, 8)))
        with pytest.raises(InvalidParameterError, match="largest"):
            run_dog_pipeline(img, K1, K2, cfg, seed=1)

    def test_report_energy_consistency(self):
        img = IntensityImage(np.full((28, 28), 0.5))
        _, report = run_dog_pipeline(img, K1, K2, AnalogConfig(), seed=0)
        assert report.energy_j == pytest.approx(report.power_w * report.runtime_s, rel=1e-12)
        assert report.realtime == (report.runtime_s < 42e-3)


class TestMonteCarlo:
    @staticmethod
    def binary_image(seed=13, size=24):
        rng = np.random.default_rng(seed)
        return IntensityImage((rng.random((size, size)) > 0.5).astype(float))

    def test_zero_variation_all_trials_identical(self):
        img = self.binary_image()
        summary = monte_carlo(img, K1, K2, AnalogConfig(), n_trials=5, base_seed=0)
        assert summary.std_mae == 0.0
        assert np.all(summary.per_trial_mae == summary.per_trial_mae[0])

    def test_single_trial_equals_its_metrics(self):
        img = self.binary_image()
        cfg = AnalogConfig(variation=VariationModel(gamma_rel_sigma=0.1))
        summary = monte_carlo(img, K1, K2, cfg, n_trials=1, base_seed=77)
        _, report = run_dog_pipeline(img, K1, K2, cfg, seed=77)
        assert summary.mean_mae == report.mean_abs_error_code
        assert summary.max_mae == report.mean_abs_error_code

    def test_mae_grows_with_variation(self):
        img = self.binary_image()
        low = monte_carlo(
            img, K1, K2, AnalogConfig(variation=VariationModel(gamma_rel_sigma=0.05)),
            n_trials=100, base_seed=500,
        )
        high = monte_carlo(
            img, K1, K2, AnalogConfig(variation=VariationModel(gamma_rel_sigma=0.20)),
            n_trials=100, base_seed=500,
        )
        assert high.mean_mae > low.mean_mae

    @staticmethod
    def per_seed_loop(img, k1, k2, cfg, n_trials, base_seed):
        """monte_carlo's per-trial arrays from one run_dog_pipeline per seed."""
        ideal = replace(cfg, variation=VariationModel(), adc_bypass=True)
        oracle_edges = edge_map(run_dog_pipeline(img, k1, k2, ideal, seed=0)[0].codes)
        maes, flips = [], []
        for t in range(n_trials):
            codes, report = run_dog_pipeline(img, k1, k2, cfg, seed=base_seed + t)
            maes.append(report.mean_abs_error_code)
            flips.append(float(np.mean(edge_map(codes.codes) != oracle_edges)))
        return np.array(maes), np.array(flips)

    @pytest.mark.parametrize("name", CONFIGS)
    def test_batched_trials_equal_per_seed_pipeline(self, name):
        *settings, p = CONFIGS[name]
        k1, k2 = kernels(p)
        cfg = config(*settings)
        img = self.binary_image(size=12)
        summary = monte_carlo(img, k1, k2, cfg, n_trials=4, base_seed=31)
        maes, flips = self.per_seed_loop(img, k1, k2, cfg, 4, 31)
        assert np.array_equal(summary.per_trial_mae, maes)
        assert np.array_equal(summary.per_trial_flip_rate, flips)

    def test_trials_spanning_three_batches_equal_per_seed_pipeline(self):
        img = self.binary_image(size=28)
        cfg = AnalogConfig(variation=VariationModel(0.05, 0.05, 0.05))
        assert (MC_BATCH_PIXELS // (28 * 28)) * 2 < 45 <= (MC_BATCH_PIXELS // (28 * 28)) * 3
        summary = monte_carlo(img, K1, K2, cfg, n_trials=45, base_seed=900)
        maes, flips = self.per_seed_loop(img, K1, K2, cfg, 45, 900)
        assert np.array_equal(summary.per_trial_mae, maes)
        assert np.array_equal(summary.per_trial_flip_rate, flips)
        assert summary.mean_mae == float(maes.mean())

    @pytest.mark.parametrize("shared", [True, False])
    def test_one_trial_batches_equal_per_seed_pipeline(self, shared):
        # a frame of MC_BATCH_PIXELS runs one trial per batch
        assert MC_BATCH_PIXELS // (128 * 128) == 1
        img = self.binary_image(size=128)
        cfg = AnalogConfig(variation=VariationModel(0.05, 0.05, 0.05), shared_array=shared)
        summary = monte_carlo(img, K1, K2, cfg, n_trials=3, base_seed=60)
        maes, flips = self.per_seed_loop(img, K1, K2, cfg, 3, 60)
        assert np.array_equal(summary.per_trial_mae, maes)
        assert np.array_equal(summary.per_trial_flip_rate, flips)

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_negative_seed_rejected(self, sigma):
        # numpy's generators raised a ValueError, which the CLI mapped to exit 3
        cfg = AnalogConfig(variation=VariationModel(sigma))
        with pytest.raises(InvalidParameterError, match="seed"):
            run_dog_pipeline(self.binary_image(), K1, K2, cfg, seed=-1)
        with pytest.raises(InvalidParameterError, match="seed"):
            monte_carlo(self.binary_image(), K1, K2, cfg, n_trials=2, base_seed=-1)

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidParameterError):
            monte_carlo(self.binary_image(), K1, K2, AnalogConfig(), n_trials=0, base_seed=0)

    def test_summary_of_ordinary_maes_equals_numpy(self):
        cfg = AnalogConfig(variation=VariationModel(0.05, 0.05, 0.05))
        summary = monte_carlo(self.binary_image(), K1, K2, cfg, n_trials=7, base_seed=3)
        assert summary.mean_mae == float(summary.per_trial_mae.mean())
        assert summary.std_mae == float(summary.per_trial_mae.std(ddof=1))

    def test_spread_of_maes_near_the_largest_float_is_finite(self):
        # the MAEs are near 1e160 codes: their squared deviations overflowed
        image = IntensityImage(np.random.default_rng(0).random((3, 3)))
        k1 = make_gaussian_kernel(1.0, 1)
        cfg = AnalogConfig(cell_params=CellParams(i_in_nominal=1e-4),
                           variation=VariationModel(sensor_rel_sigma=0.25),
                           adc=AdcSpec(bits=1, vref=1.0), transimpedance=1e161,
                           settle_time=1e-3, adc_bypass=True, shared_array=False)
        summary = monte_carlo(image, k1, make_gaussian_kernel(2.0, 1), cfg, n_trials=2,
                              base_seed=0)
        maes = summary.per_trial_mae
        assert maes.min() > 1e154
        assert summary.std_mae == pytest.approx(abs(maes[0] - maes[1]) / math.sqrt(2), rel=1e-12)

    def test_edge_map_threshold(self):
        codes = np.array([[0, 1, -2], [3, -1, 2]])
        assert np.array_equal(
            edge_map(codes), np.array([[False, False, True], [True, False, True]])
        )
