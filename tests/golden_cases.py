"""The golden corpora: every pinned case, its named outputs and its digest.

- ``pipeline``: a ``run_dog_pipeline`` pass (code frame, oracle, every
  ``SimReport`` field) and a 23-trial ``monte_carlo`` sweep (per-trial MAE and
  flip rate; 23 trials of 28x28 span two batches) for every built-in pattern x
  both cell models x shared/split arrays x ADC/bypass x both distributions x
  P = 1, 2.
- ``strips``: a ``run_dog_pipeline`` pass on frames that span several row
  strips and end in a ragged one: 257x1031 (many strips) and 1031x61 (tall,
  narrow rows); a 28x28 pattern fits in one strip.  ``strips-mc``: a 3-trial
  ``monte_carlo`` sweep of the 257x1031 frame.
- ``cli``: one ``flexdog.cli.main`` run: exit code, stdout (the output
  directory read as ``<out>``) and every artifact, JSON ones without the
  fields that differ between identical runs.

``outputs(corpus, case)`` returns a case's named outputs, in the order
``digest`` hashes them.  A change that moves a digest changes what the
simulator computes, and has to say so: ``tests/golden_diff.py`` names every
field that moved, and by how much.
"""

import contextlib
import hashlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np

from flexdog.cell import MODEL_IDEAL, MODEL_SIGMOID, CellParams
from flexdog.cli import main
from flexdog.dog import DEFAULT_SIGMA1, DEFAULT_SIGMA_RATIO, IntensityImage, make_gaussian_kernel
from flexdog.imageio import PATTERN_NAMES, make_pattern
from flexdog.pipeline import (DIST_LOGNORMAL, DIST_TRUNCNORM, AnalogConfig, VariationModel,
                              monte_carlo, run_dog_pipeline)

SIGMA, SEED, MC_SEED = 0.05, 11, 400

# each axis maps the part of a case name to its setting
MODELS = {"ideal": MODEL_IDEAL, "sigmoid": MODEL_SIGMOID}
ARRAYS = {"shared": True, "split": False}
MODES = {"adc": False, "bypass": True}
DISTRIBUTIONS = {"truncnorm": DIST_TRUNCNORM, "lognormal": DIST_LOGNORMAL}
HALF_WIDTHS = {"P1": 1, "P2": 2}
SHAPES = {"257x1031": (257, 1031), "1031x61": (1031, 61)}


def grid(*axes):
    """Case name -> settings, over the product of the axes."""
    return {"-".join(names): values
            for names, values in (zip(*combo) for combo in
                                  itertools.product(*(axis.items() for axis in axes)))}


# (model, shared, bypass, distribution, P): the configurations the pipeline
# corpus runs on every pattern
CONFIGS = grid(MODELS, ARRAYS, MODES, DISTRIBUTIONS, HALF_WIDTHS)


def kernels(p=1, sigma1=DEFAULT_SIGMA1):
    """The normalized kernel pair at sigma1 and sigma1 * DEFAULT_SIGMA_RATIO."""
    return (make_gaussian_kernel(sigma1, p, normalize=True),
            make_gaussian_kernel(sigma1 * DEFAULT_SIGMA_RATIO, p, normalize=True))


def config(model, shared, bypass, distribution=DIST_TRUNCNORM,
           settle_time=AnalogConfig.settle_time):
    """Every variation sigma at SIGMA."""
    return AnalogConfig(cell_params=CellParams(model_kind=model),
                        variation=VariationModel(SIGMA, SIGMA, SIGMA, distribution),
                        settle_time=settle_time, shared_array=shared, adc_bypass=bypass)


def seeded_image(h, w):
    """About 3/8 of the pixels at full intensity, so the ADC saturates on
    bright patches; the rest uniform in [0, 1)."""
    rng = np.random.default_rng([h, w])
    return IntensityImage(np.minimum(rng.random((h, w)) * 1.6, 1.0))


def _frame(image, p, cfg):
    frame, report = run_dog_pipeline(image, *kernels(p), cfg, seed=SEED)
    return {"codes": frame.codes, "oracle": frame.oracle, "report": report.to_dict()}


def _sweep(image, p, cfg, n_trials):
    summary = monte_carlo(image, *kernels(p), cfg, n_trials=n_trials, base_seed=MC_SEED)
    return {"mc_mae": summary.per_trial_mae, "mc_flip": summary.per_trial_flip_rate}


def pipeline(pattern, *settings, settle_time=AnalogConfig.settle_time):
    *config_args, p = settings
    image, cfg = make_pattern(pattern), config(*config_args, settle_time=settle_time)
    return {**_frame(image, p, cfg), **_sweep(image, p, cfg, 23)}


def strips(shape, model, shared, bypass, p, settle_time=AnalogConfig.settle_time):
    return _frame(seeded_image(*shape), p, config(model, shared, bypass, settle_time=settle_time))


def strips_mc(shape, model, shared, bypass, p):
    return _sweep(seeded_image(*shape), p, config(model, shared, bypass), 3)


def _artifact(path):
    data = path.read_bytes()
    if path.suffix != ".json":
        return data
    doc = json.loads(data)
    doc.pop("timestamp")
    doc.pop("artifacts", None)
    doc["config"].pop("out_dir")
    return json.dumps(doc, sort_keys=True).encode()


def cli(*argv):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
        out_dir = Path(tmp) / "out"
        code = main([*argv, "--out-dir", str(out_dir)])
        files = {str(path.relative_to(out_dir)): _artifact(path)
                 for path in sorted(p for p in out_dir.rglob("*") if p.is_file())}
    return {"exit": code, "stdout": out.getvalue().replace(str(out_dir), "<out>"), **files}


RUN_VARIANTS = {
    "defaults": (),
    "variation": ("--variation-gamma", "0.05", "--variation-gain", "0.05",
                  "--variation-sensor", "0.05", "--seed", "7"),
    "bypass": ("--adc-bypass",),
    "sigmoid": ("--model", "sigmoid-product", "--half-width", "2"),
    "grayscale": ("--no-binarize", "--bits", "4"),
}
CLI_CASES = {f"run-{pattern}-{variant}": ("run", "--input", f"pattern:{pattern}", *args)
             for pattern in PATTERN_NAMES for variant, args in RUN_VARIANTS.items()}
CLI_CASES.update({
    "montecarlo": ("montecarlo", "--input", "pattern:checkerboard", "--trials", "4",
                   "--levels", "0.0,0.05", "--sweep-param", "gain", "--seed", "3"),
    "deviation": ("deviation", "--model", "sigmoid-product", "--points", "41"),
    "perf-paper": ("perf", "28", "28"),
    "perf-accounting": ("perf", "640", "480", "--half-width", "2", "--parallelism", "4",
                        "--pixel-mode", "valid-only", "--adc-separate", "--supply", "5"),
})

# corpus -> (runner, case name -> the runner's arguments)
CORPORA = {
    "pipeline": (pipeline, grid({p: p for p in PATTERN_NAMES}, MODELS, ARRAYS, MODES,
                                DISTRIBUTIONS, HALF_WIDTHS)),
    "strips": (strips, grid(SHAPES, MODELS, ARRAYS, MODES, HALF_WIDTHS)),
    "strips-mc": (strips_mc, {"257x1031-ideal-split-adc-P1":
                              (SHAPES["257x1031"], MODEL_IDEAL, False, False, 1)}),
    "cli": (cli, CLI_CASES),
}


def cases(corpus):
    return sorted(CORPORA[corpus][1])


def outputs(corpus, case, **overrides):
    """Run one case: its named outputs, in digest order.  ``overrides`` go to
    the runner as keywords (``settle_time`` for ``pipeline`` and ``strips``)."""
    run, args = CORPORA[corpus]
    return run(*args[case], **overrides)


# the report fields that settle_time scales; every other output ignores it
TIMING_FIELDS = ("runtime_s", "energy_j", "dog_runtime_s", "dog_energy_j")


def outputs_at_half_settle_time(corpus, case):
    """A case's outputs at half the default settle_time, the timing fields
    doubled back.  Halving keeps each real-time verdict of the corpora, and
    a power-of-two scale is exact, so the digest equals the golden one when
    settle_time moves nothing but the runtime and energy accounting."""
    out = outputs(corpus, case, settle_time=AnalogConfig.settle_time / 2)
    out["report"].update({name: 2 * out["report"][name] for name in TIMING_FIELDS})
    return out


def digest(outputs):
    """SHA-256 over a case's named outputs, each encoded by its type."""
    h = hashlib.sha256()
    for name, value in outputs.items():
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value)
            h.update(f"\n{name} {value.dtype} {value.shape}\n".encode())
            h.update(value.tobytes())
        elif isinstance(value, dict):  # report fields
            h.update(json.dumps(value, sort_keys=True).encode())
        elif isinstance(value, bytes):  # an artifact, under its path
            h.update(f"\n{name}\n".encode() + value)
        elif isinstance(value, int):  # the exit code
            h.update(f"{name} {value}\n".encode())
        else:  # stdout
            h.update(value.encode())
    return h.hexdigest()
