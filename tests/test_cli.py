import json
import struct

import numpy as np
import pytest

from flexdog import cli, errors
from flexdog.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from flexdog.imageio import read_pgm

BAD_HEADER_FILES = {
    "negative-width.pgm": b"P5\n-4 4\n255\n" + bytes(16),
    "word-width.pgm": b"P5\nx 4\n255\n" + bytes(16),
    "negative-rows.idx": struct.pack(">iiii", 2051, 1, -28, 28) + bytes(28 * 28),
}


def run_cli(*argv):
    return main(list(argv))


def load_report(out_dir, name="report.json"):
    with open(out_dir / name) as f:
        return json.load(f)


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

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli("run", "--input", "pattern:checkerboard", "--seed", "5",
                           "--variation-gamma", "0.05", "--out-dir", str(out)) == EXIT_OK
            outs.append(out)
        for name in ("input.pgm", "oracle_dog.pgm", "analog_dog.pgm"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        docs = [load_report(o) for o in outs]
        for doc in docs:
            doc.pop("timestamp")
            doc.pop("artifacts")
            doc["config"].pop("out_dir")
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)

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
    ])
    def test_non_finite_or_out_of_range_setting_is_config_error(self, tmp_path, option, value):
        assert run_cli("run", "--input", "pattern:step", option, value,
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG

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

    @pytest.mark.parametrize("text", ["0.0 1e-7\n0.5 abc\n", "0.0 1e-7\n0.5 nan\n"])
    def test_bad_calibration_file_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "sweep.txt"
        path.write_text(text)
        assert run_cli("run", "--calibrate", str(path),
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
        assert str(path) in capsys.readouterr().err

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

    def test_malformed_levels_is_config_error(self, tmp_path, capsys):
        assert run_cli("montecarlo", "--input", "pattern:step", "--levels", "a,b",
                       "--out-dir", str(tmp_path / "out")) == EXIT_CONFIG
        assert "--levels" in capsys.readouterr().err

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
