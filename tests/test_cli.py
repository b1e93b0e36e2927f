import ast
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flexdog import cli, errors
from flexdog.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_IO, EXIT_OK, main
from flexdog.imageio import read_pgm
from golden_cases import cli as cli_outputs

BAD_HEADER_FILES = {
    "negative-width.pgm": b"P5\n-4 4\n255\n" + bytes(16),
    "word-width.pgm": b"P5\nx 4\n255\n" + bytes(16),
    "negative-rows.idx": struct.pack(">iiii", 2051, 1, -28, 28) + bytes(28 * 28),
}


# each subcommand, small, and the report it writes
SUBCOMMANDS = {
    "run": (("run", "--input", "pattern:step"), "report.json"),
    "montecarlo": (("montecarlo", "--input", "pattern:step", "--trials", "2"), "montecarlo.json"),
    "deviation": (("deviation", "--points", "21"), "deviation.json"),
    "perf": (("perf", "28", "28"), "perf.json"),
}


def run_cli(*argv):
    return main(list(argv))


def load_report(out_dir, name="report.json"):
    with open(out_dir / name) as f:
        return json.load(f)


def assert_kernel_not_built(command, tmp_path, monkeypatch):
    """A 29x29 kernel on a 28x28 pattern exits 2 before any kernel grid is
    made, as a --half-width of 20000 must: its grid would take 12 GiB."""
    calls = []
    monkeypatch.setattr(cli, "make_gaussian_kernel", lambda *a, **k: calls.append(a))
    assert run_cli(command, "--input", "pattern:step", "--half-width", "14",
                   "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
    assert calls == []


class TestRun:
    def test_default_run_produces_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--input", "pattern:step", "--out-dir", str(out)) == EXIT_OK
        for name in ("input.pgm", "oracle_dog.pgm", "analog_dog.pgm", "report.json"):
            assert (out / name).exists()
        doc = load_report(out)
        assert doc["schema_version"] == 1
        assert doc["sim_report"]["energy_j"] == pytest.approx(1.16424e-9, rel=1e-12)
        assert doc["sim_report"]["power_w"] == pytest.approx(2.97e-6, rel=1e-12)
        assert doc["sim_report"]["runtime_s"] == pytest.approx(3.92e-4, rel=1e-12)
        assert doc["sim_report"]["realtime"] is True

    def test_constant_pattern_gives_uniform_mid_gray(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--input", "pattern:constant", "--no-binarize",
                       "--out-dir", str(out)) == EXIT_OK
        img = read_pgm(out / "analog_dog.pgm")
        gray = np.rint(img.pixels * 255)
        assert np.all(gray == 128)

    def test_missing_input_exits_io_without_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--input", str(tmp_path / "nope.idx"),
                       "--out-dir", str(out)) == EXIT_IO
        assert not out.exists()

    def test_determinism_byte_identical(self):
        argv = ("run", "--input", "pattern:checkerboard", "--seed", "5",
                "--variation-gamma", "0.05")
        first = cli_outputs(*argv)
        assert first["exit"] == EXIT_OK and cli_outputs(*argv) == first

    def test_json_round_trips(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--input", "pattern:dot", "--out-dir", str(out)) == EXIT_OK
        doc = load_report(out)
        assert json.loads(json.dumps(doc)) == doc

    def test_idx_input(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, (2, 28, 28), dtype=np.uint8)
        idx = tmp_path / "digits.idx"
        with open(idx, "wb") as f:
            f.write(struct.pack(">iiii", 2051, 2, 28, 28))
            f.write(images.tobytes())
        out = tmp_path / "out"
        assert run_cli("run", "--input", str(idx), "--index", "1",
                       "--out-dir", str(out)) == EXIT_OK
        inp = read_pgm(out / "input.pgm")
        assert set(np.unique(np.rint(inp.pixels * 255))) <= {0.0, 255.0}  # binarized

    def test_idx_index_beyond_the_file_is_config_error(self, tmp_path, capsys):
        idx = tmp_path / "digits.idx"
        idx.write_bytes(struct.pack(">iiii", 2051, 2, 28, 28) + bytes(2 * 28 * 28))
        assert run_cli("run", "--input", str(idx), "--index", "2",
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
        assert "index 2 out of range" in capsys.readouterr().err

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("sigma1 = 1.0\nseed = 9  # comment\nvariation-gain = 0.03\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--sigma1", "0.9",
                       "--input", "pattern:step", "--out-dir", str(out)) == EXIT_OK
        doc = load_report(out)
        assert doc["config"]["sigma1"] == 0.9  # CLI wins
        assert doc["config"]["seed"] == 9
        assert doc["config"]["variation_gain"] == 0.03

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("sigma9 = 1.0\n")
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG

    def test_malformed_config_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("sigma1 = 1.0\nseed = abc\n")
        assert run_cli("run", "--config", str(cfg),
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and "'seed'" in err

    @pytest.mark.parametrize("name", sorted(BAD_HEADER_FILES))
    def test_bad_header_size_is_io_error(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(BAD_HEADER_FILES[name])
        assert run_cli("run", "--input", str(path), "--out-dir", str(tmp_path / "out")) == EXIT_IO
        assert "I/O error" in capsys.readouterr().err

    @pytest.mark.parametrize("option,value", [
        ("--gamma", "nan"), ("--vref", "nan"), ("--transimpedance", "nan"), ("--bits", "64"),
        ("--bits", "54"), ("--i-in", "inf"), ("--settle-time", "nan"), ("--sigma1", "nan"),
        ("--variation-gain", "nan"), ("--steepness", "inf"), ("--supply", "nan"),
        ("--bits", "1" + "0" * 400),  # too large for a float
        ("--sigma-ratio", "1e300"), ("--sigma1", "1e-200"),  # sigma**2 is inf or 0
        ("--vref", "1e-320"),  # levels / vref is inf
        ("--vref", "2e-305"),  # the codes are finite, their error sum over the frame is not
        # each multiplier is finite, but the largest voltage they allow is not
        ("--transimpedance",
         "1e300 --distribution lognormal --variation-sensor 177 --adc-bypass"),
        ("--seed", "-1 --variation-gamma 0.1"),  # numpy's generators take no negative seed
        ("--sigma1", "4.85e-157"),  # sigma**2 is subnormal: its peak weight overflows
        ("--sigma-ratio", "1e154"),  # 2 pi sigma2**2 overflows: the weights normalized to nan
    ])
    def test_non_finite_or_out_of_range_setting_is_config_error(self, tmp_path, option, value):
        assert run_cli("run", "--input", "pattern:step", option, *value.split(),
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG

    def test_kernel_wider_than_the_image_is_config_error_before_it_is_built(
            self, tmp_path, monkeypatch):
        assert_kernel_not_built("run", tmp_path, monkeypatch)

    def test_steep_sigmoid_runs_without_overflow_warning(self, tmp_path):
        # tier-1 turns warnings into errors, so an overflow warning in exp would exit 3
        assert run_cli("run", "--input", "pattern:checkerboard", "--model", "sigmoid-product",
                       "--steepness", "1000", "--out-dir", str(tmp_path / "out")) == EXIT_OK

    def test_bad_sigma_ratio_is_config_error(self):
        assert run_cli("run", "--input", "pattern:step", "--sigma-ratio", "0.5") == EXIT_CONFIG

    def test_nan_sigma_ratio_is_named(self, tmp_path, capsys):
        assert run_cli("run", "--input", "pattern:step", "--sigma-ratio", "nan",
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sigma-ratio" in err and "nan" in err

    def test_pgm_sample_above_maxval_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5 2 2 100\n" + bytes([0xC8, 0, 0, 0]))
        assert run_cli("run", "--input", str(path), "--out-dir", str(tmp_path / "out")) == EXIT_IO
        assert "exceeds maxval" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["0.0 1e-7\n0.5 abc\n", "0.0 1e-7\n0.5 nan\n",
                                      "0.5 1e-8\n-0.5 2e-8\n0.5 3e-8\n"])  # one |dV|
    def test_bad_calibration_file_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "sweep.txt"
        path.write_text(text)
        assert run_cli("run", "--calibrate", str(path),
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("param", ["gamma", "gain", "sensor"])
    def test_lognormal_sigma_that_overflows_is_config_error(self, tmp_path, capsys, param):
        assert run_cli("run", "--input", "pattern:step", "--distribution", "lognormal",
                       f"--variation-{param}", "1e300",
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
        assert f"{param}_rel_sigma must be finite and >= 0 and <= 177.4" in capsys.readouterr().err

    def test_negative_gain_multiplier_is_config_error(self, tmp_path, capsys):
        # seed 301 at a 0.3 gain sigma draws one negative gain multiplier on a
        # checkerboard whose summed currents all stay positive
        assert run_cli("run", "--input", "pattern:checkerboard", "--variation-gain", "0.3",
                       "--seed", "301", "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
        assert "gain multipliers must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["ideal-exponential", "sigmoid-product"])
    def test_nonpositive_gamma_multiplier_is_config_error(self, tmp_path, capsys, model):
        # seed 2 at a 0.5 gamma sigma draws a negative gamma multiplier
        assert run_cli("run", "--input", "pattern:dot", "--model", model,
                       "--variation-gamma", "0.5", "--seed", "2",
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
        assert "gamma multipliers must be positive" in capsys.readouterr().err


class TestMonteCarlo:
    def test_zero_variation_rows_identical(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("montecarlo", "--input", "pattern:checkerboard", "--trials", "5",
                       "--out-dir", str(out)) == EXIT_OK
        lines = (out / "montecarlo.csv").read_text().strip().splitlines()
        assert lines[0] == "level,trial,seed,mean_abs_error_code,flip_rate"
        assert len(lines) == 6
        maes = {line.split(",")[3] for line in lines[1:]}
        assert len(maes) == 1

    def test_levels_sweep_monotone(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("montecarlo", "--input", "pattern:checkerboard",
                       "--trials", "100", "--levels", "0.05,0.20",
                       "--out-dir", str(out)) == EXIT_OK
        doc = load_report(out, "montecarlo.json")
        maes = {lvl["level"]: lvl["mean_mae"] for lvl in doc["levels"]}
        assert maes[0.20] > maes[0.05]

    @pytest.mark.parametrize("levels", ["a,b", ""], ids=["letters", "empty"])
    def test_malformed_levels_is_config_error(self, tmp_path, capsys, levels):
        assert run_cli("montecarlo", "--input", "pattern:step", "--levels", levels,
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
        assert "--levels" in capsys.readouterr().err

    def test_kernel_wider_than_the_image_is_config_error_before_it_is_built(
            self, tmp_path, monkeypatch):
        assert_kernel_not_built("montecarlo", tmp_path, monkeypatch)

    def test_lognormal_level_that_overflows_is_config_error(self, tmp_path):
        assert run_cli("montecarlo", "--input", "pattern:step", "--levels", "1e300",
                       "--distribution", "lognormal", "--sweep-param", "gain",
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG

    def test_truncated_level_whose_multiplier_overflows_is_config_error(self, tmp_path):
        # tier-1 turns warnings into errors: sigma * z overflowed, and exited 3
        assert run_cli("montecarlo", "--trials", "3", "--levels", "1e308",
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG

    def test_zero_trials_is_config_error(self, tmp_path):
        assert run_cli("montecarlo", "--input", "pattern:step", "--trials", "0",
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG

    def test_sweep_param_without_levels_sweeps_its_own_sigma(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("montecarlo", "--input", "pattern:checkerboard", "--sweep-param", "gain",
                       "--variation-gain", "0.2", "--trials", "3", "--out-dir", str(out)) == EXIT_OK
        assert capsys.readouterr().out.startswith("level 0.2: ")
        doc = load_report(out, "montecarlo.json")
        assert [lvl["level"] for lvl in doc["levels"]] == [0.2]
        assert doc["levels"][0]["std_mae"] > 0.0

    def test_sweep_fits_the_calibration_once(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.txt"
        path.write_text("".join(f"{dv} {5e-8 * np.exp(-dv * dv)}\n" for dv in (0.0, 0.5, 1.0)))
        calls = []
        fit = cli.fit_gamma_from_file
        monkeypatch.setattr(cli, "fit_gamma_from_file", lambda p: calls.append(p) or fit(p))
        assert run_cli("montecarlo", "--input", "pattern:step", "--trials", "2",
                       "--levels", "0.0,0.01,0.02", "--calibrate", str(path),
                       "--out-dir", str(tmp_path / "out")) == EXIT_OK
        assert len(calls) == 1

    def test_csv_constant_column_count(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("montecarlo", "--input", "pattern:step", "--trials", "3",
                       "--levels", "0.0,0.1", "--out-dir", str(out)) == EXIT_OK
        lines = (out / "montecarlo.csv").read_text().strip().splitlines()
        assert {len(line.split(",")) for line in lines} == {5}


class TestDeviation:
    def test_ideal_mode_zero_deviation(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("deviation", "--reference", "eq4-gaussian",
                       "--out-dir", str(out)) == EXIT_OK
        captured = capsys.readouterr().out
        assert "average deviation 0.0000 nA" in captured
        doc = load_report(out, "deviation.json")
        assert doc["deviation"]["avg_abs_deviation_a"] == 0.0

    def test_sigmoid_mode_nonzero_na(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("deviation", "--model", "sigmoid-product",
                       "--out-dir", str(out)) == EXIT_OK
        doc = load_report(out, "deviation.json")
        avg = doc["deviation"]["avg_abs_deviation_a"]
        assert 0.0 < avg < 1e-8
        assert f"{avg * 1e9:.4f} nA" in capsys.readouterr().out

    def test_reversed_range_is_config_error(self, tmp_path):
        assert run_cli("deviation", "--sweep-lo", "1.3", "--sweep-hi", "-1.3",
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG

    def test_sweep_is_fitted_once(self, tmp_path, monkeypatch):
        import flexdog.cell as cell

        calls = []
        fit = cell.fit_gaussian
        monkeypatch.setattr(cell, "fit_gaussian", lambda *a: calls.append(1) or fit(*a))
        assert run_cli("deviation", "--model", "sigmoid-product",
                       "--out-dir", str(tmp_path / "out")) == EXIT_OK
        assert len(calls) == 1

    def test_off_centre_sweep_fits_the_ideal_cell(self, tmp_path):
        # tier-1 turns warnings into errors, so an overflow warning in the fit would exit 3
        out = tmp_path / "out"
        assert run_cli("deviation", "--sweep-lo", "5", "--sweep-hi", "6",
                       "--out-dir", str(out)) == EXIT_OK
        doc = load_report(out, "deviation.json")
        # the largest response, at 5 V, is 5e-8 * exp(-25) = 7e-19 A
        assert doc["deviation"]["max_abs_deviation_a"] <= 1e-30

    @pytest.mark.parametrize("args", [
        "--gamma 1e300",  # only the dV = 0 response is positive
        "--model sigmoid-product --steepness 1000 --sweep-lo 50 --sweep-hi 60",  # all are 0
    ])
    def test_fewer_than_two_positive_responses_is_config_error(self, tmp_path, capsys, args):
        assert run_cli("deviation", *args.split(), "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
        assert "two or more distinct |dV|" in capsys.readouterr().err

    @pytest.mark.parametrize("reference", ["fitted-gaussian", "eq4-gaussian"])
    def test_sweep_bound_whose_square_overflows_is_config_error(self, tmp_path, capsys,
                                                                reference):
        assert run_cli("deviation", "--sweep-hi", "1e200", "--reference", reference,
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
        assert "square of the widest sweep bound" in capsys.readouterr().err

    def test_csv_rows(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("deviation", "--points", "21", "--out-dir", str(out)) == EXIT_OK
        lines = (out / "deviation.csv").read_text().strip().splitlines()
        assert lines[0] == "dv_v,i_out_a,reference_a,abs_deviation_a"
        assert len(lines) == 22


class TestPerf:
    def test_paper_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("perf", "28", "28", "--out-dir", str(out)) == EXIT_OK
        captured = capsys.readouterr().out
        assert "2.97 uW" in captured
        assert "392 us" in captured
        assert "1.16424 nJ" in captured
        doc = load_report(out, "perf.json")
        assert doc["perf"]["realtime"] is True

    def test_single_pixel_row(self, tmp_path, capsys):
        assert run_cli("perf", "1", "1", "--out-dir", str(tmp_path / "out")) == EXIT_OK
        assert "0.5 us" in capsys.readouterr().out

    def test_megapixel_not_realtime(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("perf", "1000", "1000", "--out-dir", str(out)) == EXIT_OK
        doc = load_report(out, "perf.json")
        assert doc["perf"]["runtime_s"] == pytest.approx(0.5, rel=1e-12)
        assert doc["perf"]["realtime"] is False

    def test_cell_settings_not_read(self, tmp_path):
        # the table needs no cell model, so a calibration file is never opened
        assert run_cli("perf", "28", "28", "--calibrate", str(tmp_path / "missing.txt"),
                       "--out-dir", str(tmp_path / "out")) == EXIT_OK

    def test_bad_dimensions(self, tmp_path):
        assert run_cli("perf", "0", "28", "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [(str(10**200), str(10**200)),
                                      ("28", "28", "--half-width", str(10**200))],
                             ids=["pixels", "nodes"])
    def test_count_beyond_the_float_range_is_config_error(self, tmp_path, capsys, argv):
        # 1e400 pixels, or a block of 4e400 nodes, exited 3 on a bare OverflowError
        assert run_cli("perf", *argv, "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
        assert "exceeds the float range" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ("perf", "28", "28", "--supply", "1e300", "--i-in", "1e300"),  # power overflows
        ("run", "--supply", "1e300", "--i-in", "1e10"),
        ("perf", "28", "28", "--vref", "inf"),  # read only by the report's settings
    ], ids=["perf-power", "run-power", "perf-unused-vref"])
    def test_report_that_would_hold_inf_rejected(self, tmp_path, argv):
        assert run_cli(*argv, "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [("perf", "28", "28"), ("run",)], ids=["perf", "run"])
    def test_figure_that_overflows_its_printed_unit_rejected(self, tmp_path, capsys, command):
        # a 7.84e307 s runtime is finite, but it printed as "inf us"
        out = tmp_path / "out"
        assert run_cli(*command, "--settle-time", "1e305", "--out-dir", str(out)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "runtime_s 7.84e+307 in us must be finite" in captured.err
        assert captured.out == "" and not out.exists()

    def test_deviation_that_overflows_nanoamperes_rejected(self, tmp_path, capsys):
        # its average overflowed to inf (exit 3); once finite in A, it printed as "inf nA"
        out = tmp_path / "out"
        assert run_cli("deviation", "--i-in", "1e308", "--model", "sigmoid-product",
                       "--out-dir", str(out)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "A in nA must be finite" in captured.err
        assert captured.out == "" and not out.exists()

    def test_report_rejects_non_finite_figure(self, tmp_path):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.write_json(tmp_path / "perf.json", {}, perf={"power_w": float("inf")})
        assert not (tmp_path / "perf.json").exists()


ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, Exception)
                 and c.__module__ == errors.__name__]


class TestExitCodes:
    def test_error_classes_found(self):
        assert {"FormatError", "ConfigurationError"} <= {c.__name__ for c in ERROR_CLASSES}

    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_every_error_class_has_its_exit_code(self, tmp_path, monkeypatch, error):
        def raise_it(args):
            raise error("raised by the test")

        monkeypatch.setattr(cli, "cmd_perf", raise_it)
        want = EXIT_IO if error is errors.FormatError else EXIT_CONFIG
        assert run_cli("perf", "28", "28", "--out-dir", str(tmp_path / "out")) == want

    @pytest.mark.parametrize("argv", [
        "deviation --bits 64", "perf 28 28 --bits 64", "perf 28 28 --vref -1",
        "deviation --seed -1", "perf 28 28 --seed -1", "deviation --transimpedance 0",
        "deviation --supply 0", "deviation --parallelism 0", "deviation --half-width 0",
        "perf 28 28 --gamma 0", "perf 28 28 --distribution lognormal --variation-gamma 500",
        # the swept level replaces the sigma in the chain, but not in the report
        "montecarlo --trials 1 --levels 0.1 --distribution lognormal --variation-gamma 500",
    ])
    def test_setting_the_subcommand_does_not_read_is_config_error(self, tmp_path, argv):
        # the report records every setting, so each is checked, read or not
        out = tmp_path / "out"
        assert run_cli(*argv.split(), "--out-dir", str(out)) == EXIT_CONFIG
        assert not out.exists()

    def test_internal_index_error_is_internal(self, tmp_path, monkeypatch):
        # an out-of-range index inside the program is a fault, not a bad setting
        def out_of_range(*args):
            raise IndexError("index 3 is out of bounds")

        monkeypatch.setattr(cli, "codes_to_gray", out_of_range)
        assert run_cli("run", "--input", "pattern:step",
                       "--out-dir", str(tmp_path / "out")) == EXIT_INTERNAL


class TestOutputs:
    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_unwritable_out_dir_prints_nothing(self, tmp_path, capsys, command):
        # every file is written before anything is printed
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli(*SUBCOMMANDS[command][0], "--out-dir", str(blocker)) == EXIT_IO
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_report_lists_every_file_written(self, tmp_path, command):
        argv, report = SUBCOMMANDS[command]
        out = tmp_path / "out"
        assert run_cli(*argv, "--out-dir", str(out)) == EXIT_OK
        artifacts = load_report(out, report)["artifacts"]
        assert sorted(artifacts.values()) == sorted(str(path) for path in out.iterdir())
        assert artifacts["report"] == str(out / report)


def run_python(code):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # flexdog depends on numpy alone, the curve fit of `flexdog deviation` included
    run_python("import sys; from flexdog.cli import main; "
               "assert main(['deviation', '--model', 'sigmoid-product', "
               f"'--out-dir', {str(tmp_path)!r}]) == 0; "
               "assert 'scipy' not in sys.modules")


def test_package_imports_only_the_standard_library_and_numpy():
    names = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "flexdog").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    assert names - sys.stdlib_module_names == {"numpy"}


def test_default_run_leaves_numpy_random_unloaded(tmp_path):
    # every sigma is 0 by default: nothing is drawn, so no generator is made
    run_python("import sys; from flexdog.cli import main; "
               f"assert main(['run', '--input', 'pattern:step', '--out-dir', {str(tmp_path)!r}]) == 0; "
               "assert 'numpy.random' not in sys.modules")
