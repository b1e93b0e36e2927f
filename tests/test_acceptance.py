"""Acceptance suite: one test per release criterion, each printing a PASS
line (run with `pytest -s tests/test_acceptance.py` to see them)."""

import numpy as np
import pytest

from flexdog.cell import (
    MODEL_SIGMOID,
    CellParams,
    cell_response,
    sweep_deviation,
    weight_to_dv,
)
from flexdog.cli import EXIT_OK
from flexdog.dog import IntensityImage, dog, op_count
from flexdog.imageio import make_pattern
from flexdog.perf import PerfSpec, energy, power, realtime_check, runtime
from flexdog.pipeline import (
    AdcSpec,
    AnalogConfig,
    VariationModel,
    edge_map,
    monte_carlo,
    quantize,
    run_dog_pipeline,
)
from golden_cases import cli, kernels
from test_dog import instrumented_convolve


def report_pass(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_1_table_reproduction():
    spec = PerfSpec()
    p = power(spec)
    t = runtime(28, 28, spec)
    e = energy(28, 28, spec)
    assert p == 3.3 * 100e-9 * 9
    assert p == pytest.approx(2.97e-6, rel=1e-12)
    assert t == 784 * 0.5e-6
    assert t == pytest.approx(392e-6, rel=1e-12)
    assert e == p * t
    assert e == pytest.approx(1.16424e-9, rel=1e-12)
    assert f"{e * 1e9:.3g}" == "1.16"
    assert realtime_check(t)
    report_pass(1, "power 2.97 uW, runtime 392 us, energy 1.16424 nJ")


def test_criterion_2_op_count_formulas():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        p = int(rng.integers(1, 6))
        m = int(rng.integers(2 * p + 1, 65))
        n = int(rng.integers(2 * p + 1, 65))
        pixels = rng.random((m, n))
        weights = rng.random((2 * p + 1, 2 * p + 1))
        _, mults, adds = instrumented_convolve(pixels, weights)
        oc = op_count(m, n, p)
        assert oc.multiplications == mults, (m, n, p)
        assert oc.additions == adds, (m, n, p)
    report_pass(2, "op-count formulas vs instrumented convolution, 200 cases")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(33)
    cfg = AnalogConfig(adc_bypass=True)
    i_in = cfg.cell_params.i_in_nominal
    for _ in range(50):
        p = int(rng.integers(1, 3))
        h = int(rng.integers(2 * p + 2, 33))
        w = int(rng.integers(2 * p + 2, 33))
        image = IntensityImage(rng.random((h, w)))
        k1, k2 = kernels(sigma1=float(rng.uniform(0.6, 1.2)), p=p)
        codes, report = run_dog_pipeline(image, k1, k2, cfg, seed=0)
        oracle = dog(image, k1, k2).values
        descale = codes.codes * report.vref / (2**8 - 1) / (
            min(report.scale_1, report.scale_2) * i_in * cfg.transimpedance
        )
        tol = 1e-9 * max(np.max(np.abs(oracle)), 1e-30)
        assert np.max(np.abs(descale - oracle)) <= tol, (h, w, p)
    report_pass(3, "analog pipeline == digital DoG within 1e-9 rel, 50 images")


def test_criterion_4_programming_round_trip():
    rng = np.random.default_rng(4)
    params = CellParams(gamma=1.6)
    gains = rng.uniform(1e-9, 0.5, 1000)
    gains[0] = 0.5  # include the peak exactly
    for gain in gains:
        dv = weight_to_dv(float(gain), params)
        recon = cell_response(1.0, dv, params)
        assert abs(recon - gain) <= 1e-12 * gain
    report_pass(4, "weight -> dV -> gain round trip within 1e-12, 1000 gains")


def test_criterion_5_quantization_bound():
    rng = np.random.default_rng(5)
    adc = AdcSpec(bits=8, vref=3.0)
    v = rng.uniform(-1.5 * adc.vref, 2.5 * adc.vref, 100_000)
    codes = quantize(v, adc)
    lsb = adc.vref / adc.levels
    recon = codes * lsb
    assert np.all(np.abs(recon - np.clip(v, 0.0, adc.vref)) <= lsb / 2 + 1e-12)
    out_of_range = int(np.count_nonzero((v < 0.0) | (v > adc.vref)))
    from flexdog.pipeline import saturation_count

    assert saturation_count(v, adc.vref) == out_of_range
    report_pass(5, "quantization error <= LSB/2, exact saturation count, 1e5 samples")


def test_criterion_6_determinism():
    argv = ("run", "--input", "pattern:checkerboard", "--seed", "11",
            "--variation-gamma", "0.05", "--variation-gain", "0.05")
    first = cli(*argv)
    assert first["exit"] == EXIT_OK
    assert {"input.pgm", "oracle_dog.pgm", "analog_dog.pgm", "report.json"} <= set(first)
    assert cli(*argv) == first  # JSON without its timestamp, artifacts and out_dir
    report_pass(6, "same config+seed -> byte-identical artifacts")


def test_criterion_7_variation_monotonicity():
    image = make_pattern("checkerboard")
    k1, k2 = kernels()
    stats = {}
    for level in (0.05, 0.20):
        cfg = AnalogConfig(variation=VariationModel(gamma_rel_sigma=level))
        s = monte_carlo(image, k1, k2, cfg, n_trials=100, base_seed=7000)
        half_ci = 1.96 * s.std_mae / np.sqrt(s.n_trials)
        stats[level] = (s.mean_mae, half_ci)
    lo_mean, lo_ci = stats[0.05]
    hi_mean, hi_ci = stats[0.20]
    assert hi_mean > lo_mean
    assert lo_mean + lo_ci < hi_mean - hi_ci  # non-overlapping 95% CIs
    report_pass(7, "MAE strictly grows with gamma variation, CIs disjoint")


def _dilate_3x3(mask):
    padded = np.pad(mask, 1, mode="constant")
    out = np.zeros_like(mask)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            out |= padded[dy : dy + mask.shape[0], dx : dx + mask.shape[1]]
    return out


def test_criterion_8_edge_reproduction():
    # MNIST data does not ship with the repo; the criterion's built-in
    # pattern fallback is used.
    k1, k2 = kernels()
    cfg = AnalogConfig(variation=VariationModel(0.02, 0.02, 0.02))
    oracle_cfg = AnalogConfig(adc_bypass=True)
    total_edges = total_near = 0
    for name in ("step", "checkerboard", "dot"):
        image = make_pattern(name)
        codes, _ = run_dog_pipeline(image, k1, k2, cfg, seed=80)
        oracle_codes, _ = run_dog_pipeline(image, k1, k2, oracle_cfg, seed=0)
        near_oracle = _dilate_3x3(edge_map(oracle_codes.codes))
        analog_edges = edge_map(codes.codes)
        n_edges = int(analog_edges.sum())
        n_near = int((analog_edges & near_oracle).sum())
        assert n_edges > 0, name
        assert n_near / n_edges >= 0.70, name
        total_edges += n_edges
        total_near += n_near
    assert total_near / total_edges >= 0.70
    report_pass(8, ">= 70% of analog edge pixels within 1 px of oracle edges")


def test_criterion_9_deviation_substitutes():
    # The 0.3341 nA figure depends on an undisclosed proprietary device
    # model and is checked only by substitutes: exactness of the ideal mode
    # and a stable nonzero figure from the sigmoid-product mode.
    ideal = sweep_deviation(CellParams(), -1.3, 1.3, 261, reference="eq4-gaussian")
    assert ideal.avg_abs_deviation <= 1e-15
    sig_params = CellParams(model_kind=MODEL_SIGMOID)
    a = sweep_deviation(sig_params, -1.3, 1.3, 261, reference="fitted-gaussian")
    b = sweep_deviation(sig_params, -1.3, 1.3, 261, reference="fitted-gaussian")
    assert a.avg_abs_deviation > 0
    assert a.avg_abs_deviation == b.avg_abs_deviation  # run-to-run stable
    assert 1e-11 < a.avg_abs_deviation < 1e-8  # sub-nA to few-nA order
    print(f"  sigmoid-product average deviation: {a.avg_abs_deviation * 1e9:.4f} nA")
    report_pass(9, "deviation machinery verified by substitutes (0.3341 nA not reproducible)")
