import pytest

from flexdog.errors import DimensionError, InvalidParameterError
from flexdog.perf import (
    PIXELS_VALID,
    PerfSpec,
    build_report,
    energy,
    perf_figures,
    power,
    realtime_check,
    runtime,
)

DEFAULTS = PerfSpec()


class TestPower:
    def test_paper_figure(self):
        assert power(DEFAULTS) == 3.3 * 100e-9 * 9
        assert power(DEFAULTS) == pytest.approx(2.97e-6, rel=1e-12)

    def test_zero_nodes_rejected_by_spec(self):
        with pytest.raises(InvalidParameterError):
            PerfSpec(node_count=0)

    def test_node_count_beyond_the_float_range_rejected_by_spec(self):
        # power raised a bare OverflowError
        with pytest.raises(InvalidParameterError, match="node_count exceeds the float range"):
            PerfSpec(node_count=10**400)

    def test_5x5_kernel(self):
        spec = PerfSpec(node_count=25)
        assert power(spec) == pytest.approx(8.25e-6, rel=1e-12)

    def test_overflowing_product_rejected_by_name(self):
        # it returned inf
        with pytest.raises(InvalidParameterError, match="^power_w must be finite"):
            power(PerfSpec(supply_v=1e300, node_current=1e300))


class TestRuntime:
    def test_paper_figure_28x28(self):
        assert runtime(28, 28, DEFAULTS) == pytest.approx(3.92e-4, rel=1e-15)

    def test_single_pixel(self):
        assert runtime(1, 1, DEFAULTS) == pytest.approx(0.5e-6, rel=1e-15)

    def test_fully_parallel(self):
        spec = PerfSpec(parallelism=784)
        assert runtime(28, 28, spec) == pytest.approx(0.5e-6, rel=1e-15)

    def test_monotone_in_parallelism(self):
        times = [runtime(28, 28, PerfSpec(parallelism=p)) for p in (1, 2, 4, 7, 16, 784)]
        assert times == sorted(times, reverse=True)

    def test_exact_inverse_when_parallelism_divides(self):
        base = runtime(28, 28, DEFAULTS)
        assert runtime(28, 28, PerfSpec(parallelism=7)) == pytest.approx(base / 7, rel=1e-15)

    def test_valid_only_mode(self):
        spec = PerfSpec(pixel_count_mode=PIXELS_VALID, half_width=1)
        assert runtime(28, 28, spec) == pytest.approx(26 * 26 * 0.5e-6, rel=1e-15)

    def test_adc_billed_separately(self):
        spec = PerfSpec(adc_separate=True)
        assert runtime(28, 28, spec) == pytest.approx(784 * (0.5e-6 + 5e-9), rel=1e-15)

    def test_bad_dimensions(self):
        with pytest.raises(DimensionError):
            runtime(0, 10, DEFAULTS)

    @pytest.mark.parametrize("spec", [PerfSpec(settle_time=1e306),
                                      PerfSpec(adc_time=1e306, adc_separate=True)],
                             ids=["settling", "adc"])
    def test_overflowing_product_rejected_by_name(self, spec):
        # it returned inf
        with pytest.raises(InvalidParameterError, match="^runtime_s must be finite"):
            runtime(28, 28, spec)

    def test_pixel_count_beyond_the_float_range_rejected(self):
        # 1e400 / 1 pixels raised a bare OverflowError
        with pytest.raises(InvalidParameterError, match="exceeds the float range"):
            runtime(10**200, 10**200, DEFAULTS)
        assert runtime(10**150, 10**150, DEFAULTS) == pytest.approx(5e293, rel=1e-15)


class TestEnergy:
    def test_paper_figure(self):
        e = energy(28, 28, DEFAULTS)
        assert e == power(DEFAULTS) * runtime(28, 28, DEFAULTS)
        assert e == pytest.approx(1.16424e-9, rel=1e-12)
        assert float(f"{e * 1e9:.3g}") == 1.16  # paper's 3-sig-fig display

    def test_single_pixel(self):
        assert energy(1, 1, DEFAULTS) == pytest.approx(1.485e-12, rel=1e-12)

    def test_linear_in_node_current(self):
        doubled = PerfSpec(node_current=200e-9)
        assert energy(28, 28, doubled) == 2 * energy(28, 28, DEFAULTS)

    @pytest.mark.parametrize("spec,figure", [
        (PerfSpec(settle_time=1e306), "runtime_s"),
        (PerfSpec(supply_v=1e300, settle_time=1e12), "energy_j"),  # both factors finite
    ], ids=["runtime", "product"])
    def test_overflowing_product_rejected_by_name(self, spec, figure):
        # each returned inf
        with pytest.raises(InvalidParameterError, match=f"^{figure} must be finite"):
            energy(28, 28, spec)


class TestRealtime:
    def test_paper_runtime_is_realtime(self):
        assert realtime_check(3.92e-4) is True

    def test_boundary_is_strict(self):
        assert realtime_check(42e-3) is False

    def test_slow_case(self):
        assert realtime_check(0.1) is False


class TestSimReport:
    def test_internal_consistency(self):
        report = build_report(
            28, 28, DEFAULTS,
            mean_abs_error_code=0.1, max_abs_error_code=1.0,
            saturation_count=0, scale_1=2.0, scale_2=2.9,
            compensation_1=1.0, compensation_2=0.69, vref=2.9, seed=7,
        )
        assert report.energy_j == pytest.approx(report.power_w * report.runtime_s, rel=1e-12)
        assert report.dog_energy_j == pytest.approx(2 * report.energy_j, rel=1e-12)
        assert report.realtime is True
        d = report.to_dict()
        assert d["seed"] == 7 and d["power_w"] == report.power_w


class TestPerfFigures:
    @pytest.mark.parametrize("spec,figure", [
        (PerfSpec(supply_v=1e300, node_current=1e300), "power_w"),
        (PerfSpec(settle_time=1e306), "runtime_s"),
        (PerfSpec(supply_v=1e300, settle_time=1e12), "energy_j"),
        (PerfSpec(settle_time=2e305), "dog_runtime_s"),
    ])
    def test_overflowing_figure_rejected(self, spec, figure):
        # every field is finite, but a product of them overflows
        with pytest.raises(InvalidParameterError, match=f"^{figure} "):
            perf_figures(28, 28, spec)
