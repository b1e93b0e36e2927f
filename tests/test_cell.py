import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flexdog.cell import (
    MODEL_IDEAL,
    MODEL_SIGMOID,
    CellParams,
    SigmoidProductParams,
    cell_factors,
    cell_response,
    fit_gamma_from_file,
    fit_gaussian,
    program_kernel,
    sweep_deviation,
    weight_to_dv,
)
from flexdog.dog import DEFAULT_SIGMA_RATIO, GaussianKernel, make_gaussian_kernel
from flexdog.errors import (
    ConfigurationError,
    DimensionError,
    InvalidGainError,
    InvalidParameterError,
    UnachievableGainError,
)

from test_pipeline_properties import positive

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

    @pytest.mark.parametrize("i_in,dv", [(math.nan, 0.1), (math.inf, 0.1), (1e-7, math.nan),
                                         (1e-7, np.array([0.1, math.nan]))],
                             ids=["nan-current", "inf-current", "nan-bias", "nan-in-biases"])
    @pytest.mark.parametrize("params", [IDEAL, SIGMOID], ids=["ideal", "sigmoid"])
    def test_non_finite_current_or_nan_bias_rejected(self, params, i_in, dv):
        # each returned nan or inf
        with pytest.raises(InvalidParameterError):
            cell_response(i_in, dv, params)

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

    def test_response_far_beyond_a_steep_curve_is_zero_without_warning(self):
        # gamma * dV^2 overflowed to inf with a warning (flexdog deviation --gamma 2e277
        # --sweep-hi 1e48 exited 3 under -W error); exp's limit is 0
        resp = cell_response(1e-7, np.array([-1e48, 0.0, 1e48]), CellParams(gamma=2e277))
        assert resp.tolist() == [0.0, 5e-8, 0.0]

    def test_steep_sigmoid_factors_are_finite_without_warning(self):
        # exp overflows to inf far from the edges; 1 / (1 + inf) = 0 is the limit
        steep = CellParams(model_kind=MODEL_SIGMOID, sigmoid=SigmoidProductParams(steepness=1e5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factors = cell_factors(np.linspace(-2, 2, 41), steep)
        for f in factors:
            assert np.all(np.isfinite(f)) and np.all((f >= 0) & (f <= 1))

    def test_steepest_sigmoid_factors_are_finite_without_warning(self):
        # k * (|dv| + vw) overflows to inf; the logistic of +-inf is its limit
        steep = CellParams(model_kind=MODEL_SIGMOID, sigmoid=SigmoidProductParams(steepness=1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = cell_factors(np.array([0.0, 0.3, 0.4, 2.0]), steep)
        assert np.array_equal(a, [1.0, 1.0, 1.0, 1.0]) and np.array_equal(b, [1.0, 1.0, 0.5, 0.0])

    @pytest.mark.parametrize("params, multiplier", [
        (CellParams(gamma=1e300), 1e10),
        (CellParams(gamma=1.0), math.inf),
        (CellParams(model_kind=MODEL_SIGMOID, sigmoid=SigmoidProductParams(1e300)), 1e20),
    ], ids=["gamma-product", "infinite-multiplier", "steepness-product"])
    def test_gamma_or_slope_whose_product_overflows_rejected(self, params, multiplier):
        # at dV = 0 an infinite gamma or slope would give inf * 0 = nan
        with pytest.raises(InvalidParameterError, match="largest"):
            cell_factors(np.zeros((3, 3)), params, np.full((3, 3), multiplier))

    @pytest.mark.parametrize("params", [IDEAL, SIGMOID])
    def test_linear_in_input_current(self, params):
        dv = 0.4
        # power-of-two factor so float scaling is exact
        assert cell_response(4.0 * 1e-7, dv, params) == 4.0 * cell_response(1e-7, dv, params)
        assert cell_response(3.0 * 1e-7, dv, params) == pytest.approx(
            3.0 * cell_response(1e-7, dv, params), rel=1e-15
        )

    def test_currents_and_biases_that_do_not_broadcast_rejected(self):
        # numpy's bare ValueError got through
        with pytest.raises(DimensionError, match=r"shape \(2,\) and biases of shape \(3,\)"):
            cell_response(np.full(2, 1e-7), np.zeros(3), IDEAL)
        assert cell_response(np.full((2, 1), 1e-7), np.zeros(3), IDEAL).shape == (2, 3)


class TestWeightToDv:
    def test_peak_gain_maps_to_zero_bias(self):
        assert weight_to_dv(0.5, IDEAL) == 0.0

    def test_quarter_gain(self):
        assert weight_to_dv(0.25, IDEAL) == pytest.approx(math.sqrt(math.log(2)), rel=1e-12)
        assert weight_to_dv(0.25, IDEAL) == pytest.approx(0.83255, abs=1e-5)

    def test_gain_above_peak_rejected(self):
        with pytest.raises(UnachievableGainError):
            weight_to_dv(0.6, IDEAL)

    @pytest.mark.parametrize("gain", [0.0, -0.1, float("nan")])
    def test_nonpositive_gain_rejected(self, gain):
        with pytest.raises(InvalidGainError):
            weight_to_dv(gain, IDEAL)

    def test_inversion_identity(self):
        rng = np.random.default_rng(9)
        params = CellParams(gamma=2.3)
        for gain in rng.uniform(1e-6, 0.5, 200):
            dv = weight_to_dv(gain, params)
            assert cell_response(1.0, dv, params) == pytest.approx(gain, rel=1e-12)

    def test_elementwise_on_an_array(self):
        gains = np.random.default_rng(9).uniform(1e-6, 0.5, (3, 4))
        dv = weight_to_dv(gains, IDEAL)
        assert dv.shape == gains.shape
        assert np.array_equal(dv, [[weight_to_dv(float(g), IDEAL) for g in row] for row in gains])
        assert type(weight_to_dv(0.25, IDEAL)) is float

    @pytest.mark.parametrize("bad,error", [(0.6, UnachievableGainError),
                                           (math.nan, InvalidGainError)])
    def test_one_bad_gain_in_an_array_rejected(self, bad, error):
        gains = np.full((3, 3), 0.25)
        gains[2, 1] = bad
        with pytest.raises(error):
            weight_to_dv(gains, IDEAL)

    def test_gamma_whose_bias_overflows_rejected(self):
        # -log(2 gain) / gamma overflows: no finite bias realizes the gain
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="largest programmed bias"):
                weight_to_dv(0.1, CellParams(gamma=3e-320))


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

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_nonpositive_weights_rejected(self, bad):
        k = GaussianKernel(sigma=1.0, half_width=1, weights=np.full((3, 3), 0.3))
        k.weights[0, 1] = bad  # after the kernel's own finite check: its array stays writable
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGainError):
                program_kernel(k, IDEAL)

    def test_subnormal_largest_weight_rejected_by_name(self):
        # 0.5 / 1e-320 overflows: the error read "gain inf exceeds the cell peak gain"
        k = GaussianKernel(sigma=1.0, half_width=1, weights=np.full((3, 3), 1e-320))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="largest weight 1e-320 .subnormal."):
                program_kernel(k, IDEAL)

    def test_center_bias_is_zero_or_one_rounding_step(self):
        # (1/2 / max(w)) * max(w) is 1/2 or 1/2 - 2**-54, whose bias is sqrt(2**-53 / gamma)
        centers = set()
        for sigma in np.linspace(0.3, 3.0, 271):
            for s, p, normalize in itertools.product((sigma, sigma * DEFAULT_SIGMA_RATIO),
                                                     (1, 2, 3), (False, True)):
                pk = program_kernel(make_gaussian_kernel(s, p, normalize=normalize), IDEAL)
                centers.add(float(pk.dv_grid[p, p]))
        assert centers == {0.0, math.sqrt(2**-53 / IDEAL.gamma)}

    def test_gamma_whose_bias_overflows_rejected(self):
        # -log(gain) / gamma overflows: no finite bias programs the weight
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="largest programmed bias"):
                program_kernel(make_gaussian_kernel(0.85, 1), CellParams(gamma=3e-320))
            program_kernel(make_gaussian_kernel(0.85, 1), CellParams(gamma=1e-300))

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

    @pytest.mark.parametrize("lo,hi,n", [(5.0, 6.0, 261), (1.0, 1.3, 261), (-0.9, 0.9, 3)])
    def test_recovers_ideal_cell_off_centre_and_from_three_points(self, lo, hi, n):
        dv = np.linspace(lo, hi, n)
        a, b = fit_gaussian(dv, np.asarray(cell_response(IDEAL.i_in_nominal, dv, IDEAL)))
        assert a == pytest.approx(IDEAL.i_in_nominal / 2, rel=1e-9)
        assert b == pytest.approx(IDEAL.gamma, rel=1e-9)

    def test_fit_is_a_least_squares_minimum(self):
        dv = np.linspace(-1.3, 1.3, 261)
        i_out = np.asarray(cell_response(SIGMOID.i_in_nominal, dv, SIGMOID))
        a, b = fit_gaussian(dv, i_out)
        best = sum_of_squares(dv, i_out, a, b)
        assert all(sum_of_squares(dv, i_out, *ab) > best for ab in perturbed(a, b))

    @pytest.mark.parametrize("i_out", [np.zeros(11), np.eye(1, 11, 5)[0] * 1e-7],
                             ids=["all-zero", "one-positive"])
    def test_fewer_than_two_positive_samples_rejected(self, i_out):
        with pytest.raises(InvalidParameterError, match="two or more distinct"):
            fit_gaussian(np.linspace(-1.0, 1.0, 11), i_out)

    def test_positive_samples_at_one_distance_rejected(self):
        with pytest.raises(InvalidParameterError, match="two or more distinct"):
            fit_gaussian(np.array([-1.0, 0.0, 1.0]), np.array([1e-8, 0.0, 1e-8]))

    def test_gamma_that_leaves_one_positive_response_rejected(self):
        # exp(-1e300 * dV^2) is 0 everywhere but at dV = 0
        with pytest.raises(InvalidParameterError, match="two or more distinct"):
            sweep_deviation(CellParams(gamma=1e300))

    def test_infinite_dv_squared_rejected(self):
        with pytest.raises(InvalidParameterError, match="dV"):
            fit_gaussian(np.array([0.0, 1.0, 1e200]), np.array([1e-8, 1e-9, 0.0]))


def sum_of_squares(dv, i_out, a, b):
    return float(np.sum((i_out - a * np.exp(-b * dv * dv)) ** 2))


def perturbed(a, b):
    """(a, b) with either one scaled by 1 - 1e-6 or 1 + 1e-6."""
    return [(a * f, b) for f in (1 - 1e-6, 1 + 1e-6)] + [(a, b * f) for f in (1 - 1e-6, 1 + 1e-6)]


@st.composite
def deviation_case(draw):
    model = draw(st.sampled_from([MODEL_IDEAL, MODEL_SIGMOID]))
    cell = (positive(draw, 0, -300, 300), positive(draw, 1, -300, 300), positive(draw, -1, -4, 2))
    bound = st.floats(-2.0, 2.0) if draw(st.booleans()) else st.floats(-30.0, 30.0)
    lo, hi = sorted((draw(bound), draw(bound)))
    return model, cell, lo, hi, draw(st.integers(3, 301))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(deviation_case())
def test_fitted_deviation_raises_a_configuration_error_or_is_a_finite_minimum(case):
    model, (gamma, steepness, half_separation), lo, hi, n = case
    try:
        params = CellParams(gamma=gamma, model_kind=model,
                            sigmoid=SigmoidProductParams(steepness, half_separation))
        report = sweep_deviation(params, lo, hi, n, "fitted-gaussian")
    except ConfigurationError:
        return
    assert math.isfinite(report.avg_abs_deviation) and math.isfinite(report.max_abs_deviation)
    assert report.avg_abs_deviation <= report.max_abs_deviation
    dv = np.linspace(lo, hi, n)
    i_out = np.asarray(cell_response(params.i_in_nominal, dv, params))
    a, b = fit_gaussian(dv, i_out)
    best = sum_of_squares(dv, i_out, a, b)
    # beyond 1e-12 of itself, allow the rounding of the sum: each residual is
    # off by about eps * i, so the sum by at most 2 eps sqrt(best * sum(i^2))
    slack = 1e-12 * best + 4 * np.finfo(float).eps * math.sqrt(best * np.sum(i_out ** 2))
    assert all(sum_of_squares(dv, i_out, *ab) >= best - slack for ab in perturbed(a, b))


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

    @pytest.mark.parametrize("reference", ["fitted-gaussian", "eq4-gaussian"])
    def test_average_of_deviations_near_the_largest_float_is_finite(self, reference):
        # their sum overflowed, with a warning, to an infinite average
        params = CellParams(i_in_nominal=1e308, model_kind=MODEL_SIGMOID)
        r = sweep_deviation(params, reference=reference)
        assert 0.0 < r.avg_abs_deviation <= r.max_abs_deviation < math.inf


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

    @pytest.mark.parametrize("text", [
        "0.0 1e-7\n0.5 abc\n", "0.0 1e-7\n0.5 nan\n", "0.0 1e-7\ninf 5e-8\n",
        "0.5 1e-8\n-0.5 2e-8\n0.5 3e-8\n",  # one |dV|: a rank-deficient fit made up gamma 35.6
        "1e-200 1e-8\n0 2e-8\n",  # each dV^2 is 0
        "1e200 1e-8\n0 2e-8\n",  # dV^2 overflows: polyfit's least squares did not converge
    ])
    def test_non_numeric_or_non_finite_file_rejected(self, tmp_path, text):
        path = tmp_path / "sweep.txt"
        path.write_text(text)
        with pytest.raises(InvalidParameterError, match="sweep.txt"):
            fit_gamma_from_file(path)

    def test_dv_squared_near_the_smallest_float_gives_an_infinite_gamma(self, tmp_path):
        # polyfit's column norm of dV^2 = 1e-320 underflowed to 0 and divided by it
        path = tmp_path / "sweep.txt"
        path.write_text("0 1e-8\n1e-160 1e-300\n")
        assert fit_gamma_from_file(path) == math.inf


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
