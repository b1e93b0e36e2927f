"""Workload definitions: seeded input generators, the timed operation and the
per-operation correctness checks.

Every workload feeds the program through its public API (or its CLI) and calls
through module attributes, so the tracer's rebinding sees the calls.  Each
workload cycles through a pool of POOL operations; the first pass over the
pool defines the output digest and the simulated figures, and every later
repeat must reproduce its pool item bit for bit.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

POOL = 4
SIGMA = 0.05  # relative variation on gamma, gain and sensor in every workload
SIGMA1 = 0.85
ORACLE_REL_TOL = 1e-9  # acceptance criterion 3's bound


class CheckFailed(Exception):
    pass


def fx(name):
    """flexdog submodule by name.  ``flexdog.dog`` as a package attribute is
    the re-exported ``dog()`` function, so modules are resolved here."""
    return importlib.import_module(f"flexdog.{name}")


# ---------------------------------------------------------------- generators

def mnist_like(rng, size=28):
    """uint8 digit-like strokes: a random polyline, anti-aliased, inside the
    central 20x20 box as in MNIST."""
    n_pts = int(rng.integers(3, 6))
    pts = rng.uniform(4.0, size - 5.0, size=(n_pts, 2))
    width = rng.uniform(1.0, 1.8)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    dist = np.full((size, size), np.inf)
    for (y0, x0), (y1, x1) in zip(pts[:-1], pts[1:]):
        dy, dx = y1 - y0, x1 - x0
        t = np.clip(((yy - y0) * dy + (xx - x0) * dx) / max(dy * dy + dx * dx, 1e-12), 0, 1)
        dist = np.minimum(dist, np.hypot(yy - (y0 + t * dy), xx - (x0 + t * dx)))
    return np.rint(255.0 * np.clip(width + 0.5 - dist, 0.0, 1.0)).astype(np.uint8)


def binary_discs(rng, size):
    """Binary image of XOR-ed random discs: edges at every scale and angle."""
    pixels = np.zeros((size, size), dtype=bool)
    for _ in range(max(8, size * size // 4096)):
        r = int(rng.integers(3, max(4, size // 12)))
        cy, cx = rng.integers(0, size, size=2)
        y0, y1 = max(cy - r, 0), min(cy + r + 1, size)
        x0, x1 = max(cx - r, 0), min(cx + r + 1, size)
        yy, xx = np.ogrid[y0:y1, x0:x1]
        pixels[y0:y1, x0:x1] ^= (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    return pixels.astype(np.float64)


def write_idx(path, images):
    images = np.asarray(images, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", 2051, *images.shape))
        f.write(images.tobytes())


# ---------------------------------------------------------------- shared

def kernels(p):
    dog = fx("dog")
    return (dog.make_gaussian_kernel(SIGMA1, p, normalize=True),
            dog.make_gaussian_kernel(SIGMA1 * math.sqrt(2.0), p, normalize=True))


def variation(distribution=None):
    pl = fx("pipeline")
    return pl.VariationModel(SIGMA, SIGMA, SIGMA, distribution or pl.DIST_TRUNCNORM)


def perf_spec(cfg, p):
    """The PerfSpec run_dog_pipeline and `flexdog run` use by default."""
    return fx("perf").PerfSpec(node_current=cfg.cell_params.i_in_nominal, node_count=(2 * p + 1) ** 2,
                               settle_time=cfg.settle_time, adc_time=cfg.adc.t_conv, half_width=p)


def check_report(report, spec, h, w):
    perf = fx("perf")
    for field, want in (("power_w", perf.power(spec)), ("runtime_s", perf.runtime(h, w, spec)),
                        ("energy_j", perf.energy(h, w, spec))):
        got = getattr(report, field)
        if not math.isclose(got, want, rel_tol=1e-12):
            raise CheckFailed(f"SimReport.{field} = {got!r}, perf model gives {want!r}")


def model_figures(report):
    """Simulated (modelled chip) figures of one SimReport, not host time."""
    return {"model_power_uw": report.power_w * 1e6,
            "model_dog_runtime_us": report.dog_runtime_s * 1e6,
            "model_dog_energy_nj": report.dog_energy_j * 1e9}


def check_codes(codes, levels):
    codes = np.asarray(codes)
    if not np.all(np.isfinite(codes)):
        raise CheckFailed("non-finite codes")
    if np.max(np.abs(codes)) > levels:
        raise CheckFailed(f"|codes| up to {np.max(np.abs(codes))} exceeds {levels} levels")


def check_oracle(image, k1, k2, cfg, spec):
    """Zero variation + ADC bypass must equal dog.dog within 1e-9 relative."""
    ideal = replace(cfg, variation=fx("pipeline").VariationModel(), adc_bypass=True)
    codes, report = fx("pipeline").run_dog_pipeline(image, k1, k2, ideal, seed=0, perf_spec=spec)
    oracle = fx("dog").dog(image, k1, k2).values
    descale = codes.codes * report.vref / cfg.adc.levels / (
        min(report.scale_1, report.scale_2) * cfg.cell_params.i_in_nominal * cfg.transimpedance)
    err = float(np.max(np.abs(descale - oracle)))
    if not err <= ORACLE_REL_TOL * max(float(np.max(np.abs(oracle))), 1e-30):
        raise CheckFailed(f"oracle mismatch {err:.3e} beyond {ORACLE_REL_TOL} relative")


def digest_of(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


# ---------------------------------------------------------------- workloads

class Frame:
    """frame_1024: one run_dog_pipeline call per op on a 1024^2 binary image."""

    name = "frame_1024"
    size = 1024
    p = 1
    frames_per_op = 1

    def setup(self, rng, workdir):
        pl = fx("pipeline")
        self.image = fx("dog").IntensityImage(binary_discs(rng, self.size))
        self.k1, self.k2 = kernels(self.p)
        self.cfg = pl.AnalogConfig(variation=variation())
        self.spec = perf_spec(self.cfg, self.p)
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=POOL)]

    def op(self, k):
        return fx("pipeline").run_dog_pipeline(self.image, self.k1, self.k2, self.cfg,
                                               seed=self.seeds[k % POOL], perf_spec=self.spec)

    def check(self, k, result):
        codes, report = result
        check_codes(codes.codes, self.cfg.adc.levels)
        check_report(report, self.spec, self.size, self.size)
        mae = report.mean_abs_error_code
        if not math.isfinite(mae):
            raise CheckFailed("non-finite MAE")
        blob = codes.codes.astype("<i8").tobytes() + struct.pack("<d", mae)
        return blob, {"mae_codes": mae, **model_figures(report)}

    def setup_checks(self):
        check_oracle(self.image, self.k1, self.k2, self.cfg, self.spec)
        return {}


class MonteCarlo:
    """mc_28: monte_carlo(n_trials=100) per op on a 28^2 MNIST-like image."""

    name = "mc_28"
    size = 28
    p = 1
    trials = 100
    ideal = True

    def make_cfg(self):
        return fx("pipeline").AnalogConfig(variation=variation())

    def make_image(self, rng):
        binarize = fx("imageio").binarize
        return binarize(fx("dog").IntensityImage(mnist_like(rng, self.size) / 255.0))

    @property
    def frames_per_op(self):
        return self.trials

    def setup(self, rng, workdir):
        self.image = self.make_image(rng)
        self.k1, self.k2 = kernels(self.p)
        self.cfg = self.make_cfg()
        self.spec = perf_spec(self.cfg, self.p)
        self.seeds = [int(s) for s in rng.integers(0, 2**31 - 10_000, size=POOL)]

    def op(self, k):
        return fx("pipeline").monte_carlo(self.image, self.k1, self.k2, self.cfg,
                                          n_trials=self.trials, base_seed=self.seeds[k % POOL])

    def check(self, k, s):
        for arr in (s.per_trial_mae, s.per_trial_flip_rate):
            if len(arr) != self.trials or not np.all(np.isfinite(arr)):
                raise CheckFailed("MC arrays not finite or not n_trials long")
        if s.n_trials != self.trials:
            raise CheckFailed(f"summary reports {s.n_trials} trials, asked for {self.trials}")
        blob = (np.asarray(s.per_trial_mae, "<f8").tobytes()
                + np.asarray(s.per_trial_flip_rate, "<f8").tobytes())
        return blob, {"mae_codes": float(np.mean(s.per_trial_mae)),
                      "flip_rate": float(np.mean(s.per_trial_flip_rate))}

    def setup_checks(self):
        if self.ideal:
            check_oracle(self.image, self.k1, self.k2, self.cfg, self.spec)
        codes, report = fx("pipeline").run_dog_pipeline(self.image, self.k1, self.k2, self.cfg,
                                                        seed=self.seeds[0], perf_spec=self.spec)
        check_codes(codes.codes, self.cfg.adc.levels)
        check_report(report, self.spec, self.size, self.size)
        return model_figures(report)


class MonteCarloSplit(MonteCarlo):
    """mc_256_split: monte_carlo(n_trials=8), 256^2, P=2, sigmoid-product
    cell, split arrays, lognormal variation."""

    name = "mc_256_split"
    size = 256
    p = 2
    trials = 8
    ideal = False

    def make_cfg(self):
        pl, cell = fx("pipeline"), fx("cell")
        return pl.AnalogConfig(cell_params=cell.CellParams(model_kind=cell.MODEL_SIGMOID),
                               variation=variation(pl.DIST_LOGNORMAL), shared_array=False)

    def make_image(self, rng):
        return fx("dog").IntensityImage(binary_discs(rng, self.size))


class Cli:
    """cli_28: one `flexdog run` child process per op, reading a seeded 28^2
    IDX image or a PGM file, writing PGM and JSON artifacts."""

    name = "cli_28"
    size = 28
    p = 1
    frames_per_op = 1
    child_script = None  # set by trace_children

    def setup(self, rng, workdir):
        imageio = fx("imageio")
        self.env = child_env()
        images = np.stack([mnist_like(rng) for _ in range(8)])
        self.index = int(rng.integers(0, len(images)))
        self.idx_path = workdir / "images-idx3-ubyte"
        write_idx(self.idx_path, images)
        self.pgm_path = workdir / "digit.pgm"
        imageio.write_pgm(self.pgm_path, mnist_like(rng))
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=POOL)]
        self.out_dir = workdir / "out"
        self.spec = fx("perf").PerfSpec()  # `flexdog run` defaults: 3.3 V, 100 nA, 3x3, 0.5 us

    def argv(self, k):
        source = (["--input", str(self.idx_path), "--index", str(self.index)] if k % 2 == 0
                  else ["--input", str(self.pgm_path)])
        s = str(SIGMA)
        return ["run", *source, "--variation-gamma", s, "--variation-gain", s,
                "--variation-sensor", s, "--seed", str(self.seeds[k % POOL]),
                "--out-dir", str(self.out_dir)]

    def trace_children(self, spans_path):
        """Run later ops through traced_cli.py, which records spans to
        spans_path; None goes back to untraced children."""
        self.spans_path = spans_path
        if spans_path is None:
            self.child_script = None
            self.env.pop("PERFBENCH_SPANS", None)
        else:
            self.child_script = Path(__file__).resolve().parent / "traced_cli.py"
            self.env["PERFBENCH_SPANS"] = str(spans_path)

    def child_trace(self):
        if self.child_script is None or not self.spans_path.exists():
            return None
        with open(self.spans_path, encoding="utf-8") as f:
            doc = json.load(f)
        self.spans_path.unlink()
        return doc

    def op(self, k):
        # `python -m flexdog.cli`, not a `flexdog` console script, which could
        # belong to another installation than this checkout
        script = ["-m", "flexdog.cli"] if self.child_script is None else [str(self.child_script)]
        return subprocess.run([sys.executable, *script, *self.argv(k)], env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)

    def check(self, k, proc):
        imageio = fx("imageio")
        if proc.returncode != 0:
            raise CheckFailed(f"flexdog run exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
        valid = (self.size - 2 * self.p,) * 2
        blob = b""
        for name, shape in (("input", (self.size,) * 2), ("oracle_dog", valid), ("analog_dog", valid)):
            img = imageio.read_pgm(self.out_dir / f"{name}.pgm")
            if img.pixels.shape != shape:
                raise CheckFailed(f"{name}.pgm is {img.pixels.shape}, expected {shape}")
            blob += img.pixels.astype("<f8").tobytes()
        with open(self.out_dir / "report.json", encoding="utf-8") as f:
            doc = json.load(f)
        if doc.get("schema_version") != 1:
            raise CheckFailed(f"report.json schema_version {doc.get('schema_version')!r}")
        report = fx("perf").SimReport(**doc["sim_report"])
        check_report(report, self.spec, self.size, self.size)
        mae = report.mean_abs_error_code
        if not (math.isfinite(mae) and math.isfinite(report.max_abs_error_code)):
            raise CheckFailed("non-finite errors in report.json")
        return blob + struct.pack("<d", mae), {"mae_codes": mae, **model_figures(report)}

    def setup_checks(self):
        pl, imageio = fx("pipeline"), fx("imageio")
        k1, k2 = kernels(self.p)
        cfg = pl.AnalogConfig(variation=variation())
        for image in (imageio.load_idx_image(self.idx_path, self.index), imageio.read_pgm(self.pgm_path)):
            check_oracle(imageio.binarize(image), k1, k2, cfg, self.spec)
        return {}


WORKLOADS = {w.name: w for w in (Frame, MonteCarlo, MonteCarloSplit, Cli)}


def src_dir():
    return Path(__file__).resolve().parent.parent / "src"


def child_env():
    """Environment for every benchmark child: the checkout's source on the
    path and single-threaded numeric libraries."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src_dir()), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env
