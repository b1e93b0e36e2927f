"""Command-line front end.

Subcommands: run (single pipeline pass + artifacts), montecarlo (variation
sweep), deviation (cell I-V deviation sweep), perf (power/runtime/energy
table).  Settings resolve in priority order: command line > config file
(flat key=value) > built-in defaults.  Each subcommand computes, checks what
it prints, writes every file through ``write_outputs``, then prints.  Exit
codes: 0 success, 1 I/O, 2 configuration, 3 internal error.
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
from .errors import ConfigurationError, DimensionError, FormatError, check_range
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
    Setting("gamma", float, CellParams.gamma, "cell model", "cell curvature constant (1/V^2)"),
    Setting("i_in", float, CellParams.i_in_nominal, "cell model", "nominal input current (A)"),
    Setting("model", (MODEL_IDEAL, MODEL_SIGMOID), CellParams.model_kind, "cell model"),
    Setting("steepness", float, SigmoidProductParams.steepness, "cell model",
            "sigmoid-product logistic slope (1/V)"),
    Setting("half_separation", float, SigmoidProductParams.half_separation, "cell model",
            "sigmoid-product half-separation (V)"),
    Setting("calibrate", str, None, "cell model", "fit gamma from a (dv, i_out) sweep file"),
    Setting("variation_gamma", float, VariationModel.gamma_rel_sigma, "process variation",
            "relative sigma of per-cell gamma"),
    Setting("variation_gain", float, VariationModel.gain_rel_sigma, "process variation",
            "relative sigma of per-cell gain"),
    Setting("variation_sensor", float, VariationModel.sensor_rel_sigma, "process variation",
            "relative sigma of per-pixel sensors"),
    Setting("distribution", (DIST_TRUNCNORM, DIST_LOGNORMAL), VariationModel.distribution,
            "process variation"),
    Setting("bits", int, AdcSpec.bits, "analog chain", "ADC resolution"),
    Setting("vref", float, AdcSpec.vref, "analog chain", "ADC full scale (V); default auto"),
    Setting("adc_bypass", bool, AnalogConfig.adc_bypass, "analog chain",
            "skip quantization (infinite-resolution mode)"),
    Setting("transimpedance", float, AnalogConfig.transimpedance, "analog chain",
            "current-to-voltage gain (ohm)"),
    Setting("settle_time", float, AnalogConfig.settle_time, "analog chain",
            "per-pixel settling time (s)"),
    Setting("supply", float, PerfSpec.supply_v, "performance accounting", "supply voltage (V)"),
    Setting("parallelism", int, PerfSpec.parallelism, "performance accounting",
            "modelled filter blocks, not threads"),
    Setting("pixel_mode", (PIXELS_FULL, PIXELS_VALID), PerfSpec.pixel_count_mode,
            "performance accounting"),
    Setting("adc_separate", bool, PerfSpec.adc_separate, "performance accounting",
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
        if setting.kind is float and settings[name] is not None:  # the report holds it, used or not
            check_range(name.replace("_", "-"), settings[name])
    check_range("threshold", settings["threshold"], at_least=0.0, at_most=1.0)
    check_range("sigma-ratio", settings["sigma_ratio"], above=1.0)
    check_range("seed", settings["seed"], at_least=0)  # numpy's generators take no negative seed
    # the dataclasses check the rest, the cell at --gamma: perf never opens --calibrate
    build_analog_config(settings, settings["gamma"])
    build_perf_spec(settings)
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


def fitted_gamma(s: dict) -> float:
    return fit_gamma_from_file(s["calibrate"]) if s["calibrate"] else s["gamma"]


def build_analog_config(s: dict, gamma: float) -> AnalogConfig:
    return AnalogConfig(
        cell_params=CellParams(
            gamma=gamma,
            i_in_nominal=s["i_in"],
            model_kind=s["model"],
            sigmoid=SigmoidProductParams(s["steepness"], s["half_separation"]),
        ),
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


def build_perf_spec(s: dict) -> PerfSpec:
    return block_perf_spec(s["half_width"], s["i_in"], s["settle_time"],
                           supply_v=s["supply"], parallelism=s["parallelism"],
                           pixel_count_mode=s["pixel_mode"], adc_separate=s["adc_separate"])


def build_kernels(s: dict, image: IntensityImage):
    """The two normalised kernels, once their (2P+1)^2 grid is known to fit the image."""
    p = s["half_width"]
    if 2 * p + 1 > min(image.height, image.width):
        raise DimensionError(f"kernel (P={p}) does not fit inside a "
                             f"{image.height}x{image.width} image")
    k1 = make_gaussian_kernel(s["sigma1"], p, normalize=True)
    k2 = make_gaussian_kernel(s["sigma1"] * s["sigma_ratio"], p, normalize=True)
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


# the accounting figures as printed: each one's unit and factor from SI
PRINTED_UNITS = {"power_w": ("uW", 1e6), "runtime_s": ("us", 1e6), "energy_j": ("nJ", 1e9),
                 "dog_runtime_s": ("us", 1e6), "dog_energy_j": ("nJ", 1e9)}


def printed_figures(figures: dict) -> dict:
    """The accounting figures in their printed units.  Each is finite in SI,
    but a scaled one may overflow; that is a configuration error, raised
    before anything is printed or written."""
    shown = {}
    for name, (unit, factor) in PRINTED_UNITS.items():
        shown[name] = figures[name] * factor
        check_range(f"{name} {figures[name]} in {unit}", shown[name])
    return shown


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
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)  # RFC 8259: no nan or inf
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def write_outputs(s: dict, report: str, sections: dict, images=(), csv_rows=()) -> Path:
    """Write every file of a subcommand into --out-dir, which it makes: each
    ``(stem, gray)`` image as stem.pgm, the CSV rows (header first) if there
    are any as <report>.csv, then <report>.json, its ``sections`` and an
    ``artifacts`` map of every file written, itself included.  Subcommands
    print only once this returns, so a failed write leaves stdout empty."""
    out = Path(s["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {}
    for stem, gray in images:
        artifacts[stem] = str(out / f"{stem}.pgm")
        write_pgm(artifacts[stem], gray)
    if csv_rows:
        artifacts["csv"] = str(out / f"{report}.csv")
        with open(artifacts["csv"], "w", newline="", encoding="utf-8") as f:
            csv.writer(f).writerows(csv_rows)
    artifacts["report"] = str(out / f"{report}.json")
    write_json(Path(artifacts["report"]), s, **sections, artifacts=artifacts)
    return out


def cmd_run(args) -> int:
    s = resolve_settings(args)
    image = load_input(s)
    k1, k2 = build_kernels(s, image)
    cfg = build_analog_config(s, fitted_gamma(s))
    codes, report = run_dog_pipeline(image, k1, k2, cfg, seed=s["seed"],
                                     perf_spec=build_perf_spec(s))
    shown = printed_figures(report.to_dict())

    out = write_outputs(s, "report", {"sim_report": report.to_dict()}, images=[
        ("input", intensity_to_gray(image)),
        ("oracle_dog", codes_to_gray(np.rint(codes.oracle), s["bits"])),
        ("analog_dog", codes_to_gray(codes.codes, s["bits"])),
    ])
    print(f"power      {shown['power_w']:.6g} uW")
    print(f"runtime    {shown['runtime_s']:.6g} us per convolution")
    print(f"energy     {shown['energy_j']:.6g} nJ per convolution")
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
    levels = parse_levels(args.levels) if args.levels is not None else [s[sweep_key]]
    image = load_input(s)
    k1, k2 = build_kernels(s, image)
    gamma = fitted_gamma(s)  # once per sweep: no level changes the cell

    rows = [["level", "trial", "seed", "mean_abs_error_code", "flip_rate"]]
    aggregates = []
    for level in levels:
        level_settings = dict(s)
        level_settings[sweep_key] = level
        cfg = build_analog_config(level_settings, gamma)
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

    write_outputs(s, "montecarlo", {"sweep_param": args.sweep_param, "trials": args.trials,
                                    "levels": aggregates}, csv_rows=rows)
    for agg in aggregates:
        print(f"level {agg['level']:g}: MAE {agg['mean_mae']:.4f} +- {agg['std_mae']:.4f}, "
              f"flip rate {agg['mean_flip_rate']:.4f}")
    return EXIT_OK


def cmd_deviation(args) -> int:
    s = resolve_settings(args)
    params = build_analog_config(s, fitted_gamma(s)).cell_params
    dv, i_out, ref = sweep_curves(params, args.sweep_lo, args.sweep_hi, args.points,
                                  args.reference)
    report = deviation_report(args.sweep_lo, args.sweep_hi, args.reference, dv, i_out, ref)
    avg_na, max_na = (check_range(f"deviation {a} A in nA", a * 1e9)  # checked before any output
                      for a in (report.avg_abs_deviation, report.max_abs_deviation))

    rows = [["dv_v", "i_out_a", "reference_a", "abs_deviation_a"]]
    rows += [[f"{x:.12e}" for x in row] for row in zip(dv, i_out, ref, np.abs(i_out - ref))]

    write_outputs(s, "deviation", {"deviation": {
        "sweep_lo_v": report.sweep_lo,
        "sweep_hi_v": report.sweep_hi,
        "n_points": report.n_points,
        "reference": report.reference,
        "avg_abs_deviation_a": report.avg_abs_deviation,
        "max_abs_deviation_a": report.max_abs_deviation,
        "extrapolated": report.extrapolated,
    }}, csv_rows=rows)
    print(f"average deviation {avg_na:.4f} nA")
    print(f"max deviation     {max_na:.4f} nA")
    if report.extrapolated:
        print("warning: sweep leaves the characterized +-1.3 V window", file=sys.stderr)
    return EXIT_OK


def cmd_perf(args) -> int:
    s = resolve_settings(args)
    fig = perf_figures(args.height, args.width, build_perf_spec(s))
    shown = printed_figures(fig)

    write_outputs(s, "perf", {"perf": {"width": args.width, "height": args.height, **fig}})
    print(f"{'power':<22}{shown['power_w']:.6g} uW")
    print(f"{'runtime/convolution':<22}{shown['runtime_s']:.6g} us")
    print(f"{'energy/convolution':<22}{shown['energy_j']:.6g} nJ")
    print(f"{'full-DoG runtime':<22}{shown['dog_runtime_s']:.6g} us (2x extrapolation)")
    print(f"{'full-DoG energy':<22}{shown['dog_energy_j']:.6g} nJ (2x extrapolation)")
    print(f"{'realtime (< 42 ms)':<22}{fig['realtime']}")
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
    except ConfigurationError as exc:
        print(f"flexdog: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - map anything else to the invariant code
        print(f"flexdog: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
