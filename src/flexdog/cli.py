"""Command-line front end.

Subcommands: run (single pipeline pass + artifacts), montecarlo (variation
sweep), deviation (cell I-V deviation sweep), perf (power/runtime/energy
table).  Settings resolve in priority order: command line > config file
(flat key=value) > built-in defaults.  Exit codes: 0 success, 1 I/O,
2 configuration, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .cell import (
    MODEL_IDEAL,
    MODEL_SIGMOID,
    CellParams,
    SigmoidProductParams,
    deviation_report,
    fit_gamma_from_file,
    sweep_curves,
)
from .dog import DEFAULT_SIGMA1, DEFAULT_SIGMA_RATIO, IntensityImage, make_gaussian_kernel
from .errors import ConfigurationError, FormatError, check_range
from .imageio import (
    PATTERN_NAMES,
    binarize,
    codes_to_gray,
    intensity_to_gray,
    load_idx_image,
    make_pattern,
    read_pgm,
    write_pgm,
)
from .perf import PIXELS_FULL, PIXELS_VALID, PerfSpec, perf_figures
from .pipeline import (
    DIST_LOGNORMAL,
    DIST_TRUNCNORM,
    AdcSpec,
    AnalogConfig,
    VariationModel,
    block_perf_spec,
    monte_carlo,
    run_dog_pipeline,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


class Setting(NamedTuple):
    """One row of the settings table: it makes the command-line option
    (--name-with-dashes), the config-file key and the built-in default."""

    name: str
    kind: object  # int, float, str, bool (a flag), or a tuple of choices
    default: object
    group: str | None  # option group in --help; None: the general options
    help: str | None = None


SETTINGS = {row.name: row for row in (
    Setting("input", str, "pattern:step", "input",
            f"IDX file, PGM file, or pattern:NAME (patterns: {', '.join(PATTERN_NAMES)})"),
    Setting("index", int, 0, "input", "image index within an IDX file"),
    Setting("threshold", float, 0.5, "input", "binarization threshold in [0,1]"),
    Setting("no_binarize", bool, False, "input",
            "feed grayscale intensities instead of binary pixels"),
    Setting("sigma1", float, DEFAULT_SIGMA1, "kernels", "narrow Gaussian scale"),
    Setting("sigma_ratio", float, DEFAULT_SIGMA_RATIO, "kernels", "sigma2/sigma1 (> 1)"),
    Setting("half_width", int, 1, "kernels", "kernel half-width P"),
    Setting("gamma", float, 1.0, "cell model", "cell curvature constant (1/V^2)"),
    Setting("i_in", float, 100e-9, "cell model", "nominal input current (A)"),
    Setting("model", (MODEL_IDEAL, MODEL_SIGMOID), MODEL_IDEAL, "cell model"),
    Setting("steepness", float, 10.0, "cell model", "sigmoid-product logistic slope (1/V)"),
    Setting("half_separation", float, 0.4, "cell model",
            "sigmoid-product half-separation (V)"),
    Setting("calibrate", str, None, "cell model", "fit gamma from a (dv, i_out) sweep file"),
    Setting("variation_gamma", float, 0.0, "process variation",
            "relative sigma of per-cell gamma"),
    Setting("variation_gain", float, 0.0, "process variation",
            "relative sigma of per-cell gain"),
    Setting("variation_sensor", float, 0.0, "process variation",
            "relative sigma of per-pixel sensors"),
    Setting("distribution", (DIST_TRUNCNORM, DIST_LOGNORMAL), DIST_TRUNCNORM,
            "process variation"),
    Setting("bits", int, 8, "analog chain", "ADC resolution"),
    Setting("vref", float, None, "analog chain", "ADC full scale (V); default auto"),
    Setting("adc_bypass", bool, False, "analog chain",
            "skip quantization (infinite-resolution mode)"),
    Setting("transimpedance", float, 10e6, "analog chain", "current-to-voltage gain (ohm)"),
    Setting("settle_time", float, 0.5e-6, "analog chain", "per-pixel settling time (s)"),
    Setting("supply", float, 3.3, "performance accounting", "supply voltage (V)"),
    Setting("parallelism", int, 1, "performance accounting", "concurrent filter blocks"),
    Setting("pixel_mode", (PIXELS_FULL, PIXELS_VALID), PIXELS_FULL, "performance accounting"),
    Setting("adc_separate", bool, False, "performance accounting",
            "bill ADC conversions on top of settling"),
    Setting("seed", int, 0, None, "RNG seed"),
    Setting("out_dir", str, "out", None, "artifact directory"),
)}

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _convert(setting: Setting, text: str):
    """A config-file value as the setting's type; ValueError if malformed."""
    kind = setting.kind
    if kind is bool:
        if text.lower() not in _TRUE + _FALSE:
            raise ValueError(f"expected one of {', '.join(_TRUE + _FALSE)}")
        return text.lower() in _TRUE
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(f"expected one of {', '.join(kind)}")
        return text
    return kind(text)


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines; keys are the long option names, with
    '-' or '_'.  Values are converted to each setting's type."""
    entries = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if not sep or not key:
                raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            if key not in SETTINGS:
                raise ConfigurationError(f"{path}:{lineno}: unknown setting {key!r}")
            try:
                entries[key] = _convert(SETTINGS[key], value.strip())
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: bad value for {key!r}: {value.strip()!r} ({exc})"
                ) from None
    return entries


def resolve_settings(args) -> dict:
    """Merge CLI args over config-file entries over defaults."""
    filecfg = parse_config_file(args.config) if args.config else {}
    settings = {}
    for name, setting in SETTINGS.items():
        cli_value = getattr(args, name)
        settings[name] = cli_value if cli_value is not None else filecfg.get(name, setting.default)
    check_range("threshold", settings["threshold"], at_least=0.0, at_most=1.0)
    check_range("sigma-ratio", settings["sigma_ratio"], above=1.0)
    return settings


def _add_common_options(p: argparse.ArgumentParser) -> None:
    # Defaults are all None so the config-file layer can tell "not given on
    # the command line" apart from an explicit value.
    p.add_argument("--config", help="flat key=value settings file")
    groups = {None: p}
    for setting in SETTINGS.values():
        if setting.group not in groups:
            groups[setting.group] = p.add_argument_group(setting.group)
        if setting.kind is bool:
            kind = {"action": "store_const", "const": True}
        elif isinstance(setting.kind, tuple):
            kind = {"choices": setting.kind}
        else:
            kind = {"type": setting.kind}
        groups[setting.group].add_argument("--" + setting.name.replace("_", "-"),
                                           help=setting.help, **kind)


def build_cell_params(s: dict) -> CellParams:
    gamma = s["gamma"]
    if s["calibrate"]:
        gamma = fit_gamma_from_file(s["calibrate"])
    return CellParams(
        gamma=gamma,
        i_in_nominal=s["i_in"],
        model_kind=s["model"],
        sigmoid=SigmoidProductParams(s["steepness"], s["half_separation"]),
    )


def build_analog_config(s: dict) -> AnalogConfig:
    return AnalogConfig(
        cell_params=build_cell_params(s),
        variation=VariationModel(
            gamma_rel_sigma=s["variation_gamma"],
            gain_rel_sigma=s["variation_gain"],
            sensor_rel_sigma=s["variation_sensor"],
            distribution=s["distribution"],
        ),
        adc=AdcSpec(bits=s["bits"], vref=s["vref"]),
        transimpedance=s["transimpedance"],
        settle_time=s["settle_time"],
        adc_bypass=s["adc_bypass"],
    )


def build_perf_spec(s: dict, adc: AdcSpec = AdcSpec()) -> PerfSpec:
    return block_perf_spec(s["half_width"], s["i_in"], s["settle_time"], adc,
                           supply_v=s["supply"], parallelism=s["parallelism"],
                           pixel_count_mode=s["pixel_mode"], adc_separate=s["adc_separate"])


def build_kernels(s: dict):
    k1 = make_gaussian_kernel(s["sigma1"], s["half_width"], normalize=True)
    k2 = make_gaussian_kernel(s["sigma1"] * s["sigma_ratio"], s["half_width"], normalize=True)
    return k1, k2


def load_input(s: dict) -> IntensityImage:
    source = s["input"]
    if source.startswith("pattern:"):
        image = make_pattern(source.split(":", 1)[1])
    else:
        path = Path(source)
        if path.suffix.lower() in (".pgm", ".pnm"):
            image = read_pgm(path)
        else:
            image = load_idx_image(path, s["index"])
    if not s["no_binarize"]:
        image = binarize(image, s["threshold"])
    return image


def output_dir(s: dict) -> Path:
    out = Path(s["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_json(path: Path, s: dict, **sections) -> None:
    """Write a report: the header every subcommand shares (schema and tool
    version, timestamp, resolved settings) followed by ``sections``."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": s,
        **sections,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_run(args) -> int:
    s = resolve_settings(args)
    image = load_input(s)
    k1, k2 = build_kernels(s)
    cfg = build_analog_config(s)
    codes, report = run_dog_pipeline(image, k1, k2, cfg, seed=s["seed"],
                                     perf_spec=build_perf_spec(s, cfg.adc))

    out = output_dir(s)
    artifacts = {
        "input": str(out / "input.pgm"),
        "oracle_dog": str(out / "oracle_dog.pgm"),
        "analog_dog": str(out / "analog_dog.pgm"),
        "report": str(out / "report.json"),
    }
    write_pgm(artifacts["input"], intensity_to_gray(image))
    write_pgm(artifacts["oracle_dog"], codes_to_gray(np.rint(codes.oracle), s["bits"]))
    write_pgm(artifacts["analog_dog"], codes_to_gray(codes.codes, s["bits"]))
    write_json(Path(artifacts["report"]), s, sim_report=report.to_dict(), artifacts=artifacts)

    print(f"power      {report.power_w * 1e6:.6g} uW")
    print(f"runtime    {report.runtime_s * 1e6:.6g} us per convolution")
    print(f"energy     {report.energy_j * 1e9:.6g} nJ per convolution")
    print(f"realtime   {report.realtime}")
    print(f"MAE        {report.mean_abs_error_code:.4f} codes (vs digital oracle)")
    print(f"artifacts  {out}/")
    return EXIT_OK


def parse_levels(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigurationError(f"--levels: expected comma-separated numbers, got {text!r}") from None


def cmd_montecarlo(args) -> int:
    s = resolve_settings(args)
    if args.trials < 1:
        raise ConfigurationError("need at least one trial")
    sweep_key = f"variation_{args.sweep_param}"
    levels = parse_levels(args.levels) if args.levels else [s[sweep_key]]
    image = load_input(s)
    k1, k2 = build_kernels(s)
    build_perf_spec(s)  # validates the accounting settings; the sweep reports no perf figures

    out = output_dir(s)
    csv_path = out / "montecarlo.csv"
    rows = []
    aggregates = []
    for level in levels:
        level_settings = dict(s)
        level_settings[sweep_key] = level
        cfg = build_analog_config(level_settings)
        summary = monte_carlo(image, k1, k2, cfg, args.trials, s["seed"])
        for t in range(args.trials):
            rows.append([level, t, s["seed"] + t,
                         summary.per_trial_mae[t], summary.per_trial_flip_rate[t]])
        aggregates.append({
            "level": level,
            "mean_mae": summary.mean_mae,
            "std_mae": summary.std_mae,
            "max_mae": summary.max_mae,
            "mean_flip_rate": summary.mean_flip_rate,
        })
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["level", "trial", "seed", "mean_abs_error_code", "flip_rate"])
        writer.writerows(rows)

    write_json(out / "montecarlo.json", s, sweep_param=args.sweep_param, trials=args.trials,
               levels=aggregates, artifacts={"csv": str(csv_path)})
    for agg in aggregates:
        print(f"level {agg['level']:g}: MAE {agg['mean_mae']:.4f} +- {agg['std_mae']:.4f}, "
              f"flip rate {agg['mean_flip_rate']:.4f}")
    return EXIT_OK


def cmd_deviation(args) -> int:
    s = resolve_settings(args)
    params = build_cell_params(s)
    dv, i_out, ref = sweep_curves(params, args.sweep_lo, args.sweep_hi, args.points,
                                  args.reference)
    report = deviation_report(args.sweep_lo, args.sweep_hi, args.reference, dv, i_out, ref)

    out = output_dir(s)
    csv_path = out / "deviation.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["dv_v", "i_out_a", "reference_a", "abs_deviation_a"])
        for row in zip(dv, i_out, ref, np.abs(i_out - ref)):
            writer.writerow([f"{x:.12e}" for x in row])

    write_json(out / "deviation.json", s, deviation={
        "sweep_lo_v": report.sweep_lo,
        "sweep_hi_v": report.sweep_hi,
        "n_points": report.n_points,
        "reference": report.reference,
        "avg_abs_deviation_a": report.avg_abs_deviation,
        "max_abs_deviation_a": report.max_abs_deviation,
        "extrapolated": report.extrapolated,
    }, artifacts={"csv": str(csv_path)})

    print(f"average deviation {report.avg_abs_deviation * 1e9:.4f} nA")
    print(f"max deviation     {report.max_abs_deviation * 1e9:.4f} nA")
    if report.extrapolated:
        print("warning: sweep leaves the characterized +-1.3 V window", file=sys.stderr)
    return EXIT_OK


def cmd_perf(args) -> int:
    s = resolve_settings(args)
    if args.width < 1 or args.height < 1:
        raise ConfigurationError("image dimensions must be positive")
    fig = perf_figures(args.height, args.width, build_perf_spec(s))

    print(f"{'power':<22}{fig['power_w'] * 1e6:.6g} uW")
    print(f"{'runtime/convolution':<22}{fig['runtime_s'] * 1e6:.6g} us")
    print(f"{'energy/convolution':<22}{fig['energy_j'] * 1e9:.6g} nJ")
    print(f"{'full-DoG runtime':<22}{fig['dog_runtime_s'] * 1e6:.6g} us (2x extrapolation)")
    print(f"{'full-DoG energy':<22}{fig['dog_energy_j'] * 1e9:.6g} nJ (2x extrapolation)")
    print(f"{'realtime (< 42 ms)':<22}{fig['realtime']}")

    write_json(output_dir(s) / "perf.json", s,
               perf={"width": args.width, "height": args.height, **fig})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexdog",
        description="Behavioral simulator of an analog DoG accelerator "
                    "built from flexible-TFT Gilbert Gaussian cells.",
    )
    parser.add_argument("--version", action="version", version=f"flexdog {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single pipeline pass with artifacts")
    _add_common_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_mc = sub.add_parser("montecarlo", help="process-variation Monte Carlo sweep")
    _add_common_options(p_mc)
    p_mc.add_argument("--trials", type=int, default=100)
    p_mc.add_argument("--levels", help="comma-separated variation levels to sweep")
    p_mc.add_argument("--sweep-param", choices=["gamma", "gain", "sensor"], default="gamma")
    p_mc.set_defaults(func=cmd_montecarlo)

    p_dev = sub.add_parser("deviation", help="cell-vs-Gaussian deviation sweep")
    _add_common_options(p_dev)
    p_dev.add_argument("--sweep-lo", type=float, default=-1.3)
    p_dev.add_argument("--sweep-hi", type=float, default=1.3)
    p_dev.add_argument("--points", type=int, default=261)
    p_dev.add_argument("--reference", choices=["fitted-gaussian", "eq4-gaussian"],
                       default="fitted-gaussian")
    p_dev.set_defaults(func=cmd_deviation)

    p_perf = sub.add_parser("perf", help="power/runtime/energy table")
    p_perf.add_argument("width", type=int)
    p_perf.add_argument("height", type=int)
    _add_common_options(p_perf)
    p_perf.set_defaults(func=cmd_perf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"flexdog: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigurationError, IndexError) as exc:
        print(f"flexdog: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - map anything else to the invariant code
        print(f"flexdog: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
