import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from flexdog.cell import MODEL_IDEAL, MODEL_SIGMOID, CellParams, cell_response, program_kernel
from flexdog.dog import GaussianKernel, IntensityImage, dog, make_gaussian_kernel
from flexdog.errors import ConfigurationError, DimensionError, InvalidParameterError
from flexdog.perf import runtime
from flexdog.pipeline import (
    DIST_LOGNORMAL,
    DIST_TRUNCNORM,
    MC_BATCH_PIXELS,
    AdcSpec,
    AnalogConfig,
    VariationModel,
    VariationSample,
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

K1 = make_gaussian_kernel(0.85, 1, normalize=True)
K2 = make_gaussian_kernel(0.85 * np.sqrt(2), 1, normalize=True)


def no_variation_sample(image_shape, kernel_shape=(3, 3)):
    return draw_variation(VariationModel(), kernel_shape, image_shape, seed=0)


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

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidParameterError):
            VariationModel(gamma_rel_sigma=-0.1)


class TestSense:
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

    def test_negative_sensor_multiplier_on_dark_pixel_rejected(self):
        sample = no_variation_sample((4, 4))
        sample.sensor_mult[0, 0] = -0.5
        with pytest.raises(InvalidParameterError, match="sensor multipliers"):
            sense(IntensityImage(np.zeros((4, 4))), 100e-9, sample)

    @pytest.mark.parametrize("i_in", [0.0, -100e-9, math.nan, math.inf])
    def test_bad_nominal_current_rejected(self, i_in):
        with pytest.raises(InvalidParameterError, match="i_in_nominal"):
            sense(IntensityImage(np.ones((4, 4))), i_in, no_variation_sample((4, 4)))


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
        """Bit for bit: each cell's own perturbed parameters through
        cell_response, times its gain multiplier, summed in row-major order."""
        params = CellParams(model_kind=model)
        pk = program_kernel(make_gaussian_kernel(0.85, 2, normalize=True), params)
        img = IntensityImage(np.random.default_rng(5).random((12, 10)))
        sample = draw_variation(VariationModel(0.1, 0.1, 0.1), (5, 5), (12, 10), seed=8)
        frame = sense(img, params.i_in_nominal, sample)
        want = np.zeros((8, 6))
        for i in range(5):
            for j in range(5):
                m = float(sample.gamma_mult[i, j])
                if model == MODEL_IDEAL:
                    cell = replace(params, gamma=params.gamma * m)
                else:
                    steep = params.sigmoid.steepness * math.sqrt(m)
                    cell = replace(params, sigmoid=replace(params.sigmoid, steepness=steep))
                window = frame[i : i + 8, j : j + 6]
                want += sample.gain_mult[i, j] * cell_response(window, pk.dv_grid[i, j], cell)
        assert np.array_equal(analog_convolve(frame, pk, sample), want)

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
    @pytest.mark.parametrize("bad", [0.0, -0.2])
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

    def test_one_negative_gain_multiplier_rejected(self):
        # the summed output stays positive, so only the multiplier shows the fault
        pk = program_kernel(K1, CellParams())
        sample = no_variation_sample((5, 5))
        sample.gain_mult[1, 1] = -0.5
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

    def test_settling_error_mode_attenuates(self):
        img = IntensityImage(np.ones((10, 10)))
        base, _ = run_dog_pipeline(img, K1, K2, AnalogConfig(adc_bypass=True), seed=0)
        att, _ = run_dog_pipeline(
            img, K1, K2, AnalogConfig(adc_bypass=True, settling_error=True), seed=0
        )
        factor = 1.0 - np.exp(-7.0)
        assert np.allclose(att.codes, base.codes * factor, rtol=1e-12)

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

    @pytest.mark.parametrize(
        "model,shared,bypass,distribution,settling,p",
        list(itertools.product([MODEL_IDEAL, MODEL_SIGMOID], [True, False], [False, True],
                               [DIST_TRUNCNORM, DIST_LOGNORMAL], [False, True], [1, 2])),
    )
    def test_batched_trials_equal_per_seed_pipeline(self, model, shared, bypass, distribution,
                                                    settling, p):
        k1 = make_gaussian_kernel(0.85, p, normalize=True)
        k2 = make_gaussian_kernel(0.85 * np.sqrt(2), p, normalize=True)
        cfg = AnalogConfig(cell_params=CellParams(model_kind=model),
                           variation=VariationModel(0.05, 0.05, 0.05, distribution),
                           shared_array=shared, adc_bypass=bypass, settling_error=settling)
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

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidParameterError):
            monte_carlo(self.binary_image(), K1, K2, AnalogConfig(), n_trials=0, base_seed=0)

    def test_edge_map_threshold(self):
        codes = np.array([[0, 1, -2], [3, -1, 2]])
        assert np.array_equal(
            edge_map(codes), np.array([[False, False, True], [True, False, True]])
        )
