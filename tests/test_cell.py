import math

import numpy as np
import pytest

from flexdog.cell import (
    MODEL_IDEAL,
    MODEL_SIGMOID,
    CellParams,
    SigmoidProductParams,
    cell_response,
    fit_gamma_from_file,
    fit_gaussian,
    program_kernel,
    sweep_deviation,
    weight_to_dv,
)
from flexdog.dog import GaussianKernel, make_gaussian_kernel
from flexdog.errors import (
    InvalidGainError,
    InvalidParameterError,
    UnachievableGainError,
)

IDEAL = CellParams()
SIGMOID = CellParams(model_kind=MODEL_SIGMOID)


class TestCellResponse:
    def test_peak_response(self):
        assert cell_response(100e-9, 0.0, IDEAL) == pytest.approx(50e-9, rel=1e-15)

    def test_half_peak_at_ln2_curvature(self):
        dv = math.sqrt(math.log(2) / IDEAL.gamma)
        assert cell_response(100e-9, dv, IDEAL) == pytest.approx(25e-9, rel=1e-12)

    def test_zero_input_current(self):
        assert cell_response(0.0, 0.7, IDEAL) == 0.0
        assert cell_response(0.0, 0.7, SIGMOID) == 0.0

    def test_negative_current_rejected(self):
        with pytest.raises(InvalidParameterError):
            cell_response(-1e-9, 0.0, IDEAL)

    @pytest.mark.parametrize("params", [IDEAL, SIGMOID])
    def test_even_in_dv(self, params):
        dv = np.linspace(0.01, 2.0, 40)
        assert np.array_equal(
            cell_response(1e-7, dv, params), cell_response(1e-7, -dv, params)
        )

    @pytest.mark.parametrize("params", [IDEAL, SIGMOID])
    def test_monotonic_decay(self, params):
        dv = np.linspace(0.0, 2.0, 100)
        resp = cell_response(1e-7, dv, params)
        assert np.all(np.diff(resp) <= 0)

    def test_sigmoid_peak_gain(self):
        dv = np.linspace(-2, 2, 401)
        resp = np.asarray(cell_response(1e-7, dv, SIGMOID))
        assert resp.max() <= 1e-7
        assert dv[np.argmax(resp)] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("params", [IDEAL, SIGMOID])
    def test_linear_in_input_current(self, params):
        dv = 0.4
        # power-of-two factor so float scaling is exact
        assert cell_response(4.0 * 1e-7, dv, params) == 4.0 * cell_response(1e-7, dv, params)
        assert cell_response(3.0 * 1e-7, dv, params) == pytest.approx(
            3.0 * cell_response(1e-7, dv, params), rel=1e-15
        )


class TestWeightToDv:
    def test_peak_gain_maps_to_zero_bias(self):
        assert weight_to_dv(0.5, IDEAL) == 0.0

    def test_quarter_gain(self):
        assert weight_to_dv(0.25, IDEAL) == pytest.approx(math.sqrt(math.log(2)), rel=1e-12)
        assert weight_to_dv(0.25, IDEAL) == pytest.approx(0.83255, abs=1e-5)

    def test_gain_above_peak_rejected(self):
        with pytest.raises(UnachievableGainError):
            weight_to_dv(0.6, IDEAL)

    @pytest.mark.parametrize("gain", [0.0, -0.1])
    def test_nonpositive_gain_rejected(self, gain):
        with pytest.raises(InvalidGainError):
            weight_to_dv(gain, IDEAL)

    def test_inversion_identity(self):
        rng = np.random.default_rng(9)
        params = CellParams(gamma=2.3)
        for gain in rng.uniform(1e-6, 0.5, 200):
            dv = weight_to_dv(gain, params)
            assert cell_response(1.0, dv, params) == pytest.approx(gain, rel=1e-12)


class TestProgramKernel:
    def test_flat_kernel_all_zero_bias(self):
        k = GaussianKernel(sigma=1.0, half_width=1, weights=np.full((3, 3), 0.2))
        pk = program_kernel(k, IDEAL)
        assert np.array_equal(pk.dv_grid, np.zeros((3, 3)))
        assert pk.scale * 0.2 == pytest.approx(0.5, rel=1e-15)

    def test_gaussian_kernel_center_and_corner(self):
        k = make_gaussian_kernel(0.85, 1)
        pk = program_kernel(k, CellParams(gamma=1.0))
        assert pk.dv_grid[1, 1] == 0.0
        corner_ratio = math.exp(-2.0 / (2 * 0.85**2))
        assert corner_ratio == pytest.approx(0.25056, abs=1e-5)
        expected_dv = math.sqrt(-math.log(corner_ratio))
        assert pk.dv_grid[0, 0] == pytest.approx(expected_dv, rel=1e-12)
        assert expected_dv == pytest.approx(1.1765, abs=1e-4)

    def test_round_trip_random_kernels(self):
        rng = np.random.default_rng(17)
        params = CellParams(gamma=0.8)
        for _ in range(100):
            p = int(rng.integers(1, 4))
            side = 2 * p + 1
            weights = rng.uniform(0.05, 3.0, (side, side))
            k = GaussianKernel(sigma=1.0, half_width=p, weights=weights)
            pk = program_kernel(k, params)
            gains = np.asarray(cell_response(1.0, pk.dv_grid, params))
            assert np.allclose(gains, pk.scale * weights, rtol=1e-12)

    def test_nonpositive_weights_rejected(self):
        w = np.full((3, 3), 0.3)
        w[0, 1] = 0.0
        k = GaussianKernel(sigma=1.0, half_width=1, weights=w)
        with pytest.raises(InvalidGainError):
            program_kernel(k, IDEAL)

    def test_gain_sum(self):
        k = make_gaussian_kernel(1.2, 1, normalize=True)
        pk = program_kernel(k, IDEAL)
        assert pk.gain_sum == pytest.approx(pk.scale, rel=1e-12)


class TestFitGaussian:
    def test_recovers_ideal_parameters(self):
        params = CellParams(gamma=1.7)
        dv = np.linspace(-1.3, 1.3, 101)
        i_out = np.asarray(cell_response(params.i_in_nominal, dv, params))
        a, b = fit_gaussian(dv, i_out)
        assert a == pytest.approx(params.i_in_nominal / 2, rel=1e-6)
        assert b == pytest.approx(params.gamma, rel=1e-6)


class TestSweepDeviation:
    def test_ideal_against_eq4_reference_is_zero(self):
        r = sweep_deviation(IDEAL, -1.3, 1.3, 261, reference="eq4-gaussian")
        assert r.avg_abs_deviation <= 1e-15
        assert r.max_abs_deviation <= 1e-15
        assert not r.extrapolated

    def test_sigmoid_against_fit_is_nonzero_few_na(self):
        r = sweep_deviation(SIGMOID, -1.3, 1.3, 261, reference="fitted-gaussian")
        assert 0.0 < r.avg_abs_deviation <= r.max_abs_deviation
        # same order of magnitude as the hardware anchor value, not equal to it
        assert 1e-11 < r.avg_abs_deviation < 1e-8

    def test_three_point_symmetric_sweep(self):
        params = IDEAL
        lo, hi = -0.9, 0.9
        resp_lo = cell_response(params.i_in_nominal, lo, params)
        resp_hi = cell_response(params.i_in_nominal, hi, params)
        assert resp_lo == resp_hi
        r = sweep_deviation(params, lo, hi, 3, reference="eq4-gaussian")
        assert r.n_points == 3

    def test_degenerate_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            sweep_deviation(IDEAL, 1.0, -1.0, 50)
        with pytest.raises(InvalidParameterError):
            sweep_deviation(IDEAL, -1.0, 1.0, 2)

    def test_extrapolation_flagged(self):
        r = sweep_deviation(IDEAL, -2.0, 2.0, 11, reference="eq4-gaussian")
        assert r.extrapolated


class TestCalibration:
    def test_fit_gamma_from_sweep_file(self, tmp_path):
        params = CellParams(gamma=3.14)
        dv = np.linspace(-1.2, 1.2, 49)
        i_out = np.asarray(cell_response(params.i_in_nominal, dv, params))
        path = tmp_path / "sweep.txt"
        lines = ["# dv_volts  i_out_amperes"]
        lines += [f"{v:.9e} {i:.9e}" for v, i in zip(dv, i_out)]
        path.write_text("\n".join(lines) + "\n")
        assert fit_gamma_from_file(path) == pytest.approx(3.14, rel=1e-6)

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0 3.0\n")
        with pytest.raises(InvalidParameterError):
            fit_gamma_from_file(path)

    @pytest.mark.parametrize("text", ["0.0 1e-7\n0.5 abc\n", "0.0 1e-7\n0.5 nan\n",
                                      "0.0 1e-7\ninf 5e-8\n"])
    def test_non_numeric_or_non_finite_file_rejected(self, tmp_path, text):
        path = tmp_path / "sweep.txt"
        path.write_text(text)
        with pytest.raises(InvalidParameterError, match="sweep.txt"):
            fit_gamma_from_file(path)


class TestParams:
    def test_invalid_gamma(self):
        with pytest.raises(InvalidParameterError):
            CellParams(gamma=0.0)

    def test_invalid_model(self):
        with pytest.raises(InvalidParameterError):
            CellParams(model_kind="quadratic")

    def test_invalid_sigmoid_params(self):
        with pytest.raises(InvalidParameterError):
            SigmoidProductParams(steepness=-1.0)
