"""One benchmark process: set a workload up, then (unless --mode setup)
measure it, untraced or traced.

Run by run.py, one process at a time, with the checkout's ``src`` on
PYTHONPATH and single-threaded numeric libraries.  Prints ``READY`` as soon
as set-up (import, input generation, kernel build, one warm-up op) is done,
so the parent can time set-up from process start, and a JSON document with
the raw measurements as its last line.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import layers
import workloads as wls
from tracer import Tracer, layer_totals

MIN_OPS = 40  # so the tail (ten samples beyond it) is always p75 or higher
MAX_TRACED_OPS = 64  # bounds the spans held in memory
ROOT = Path(__file__).resolve().parent.parent


def import_flexdog():
    import flexdog

    if Path(flexdog.__file__).resolve().parent != wls.src_dir() / "flexdog":
        raise SystemExit(f"flexdog imported from {flexdog.__file__}, not from this checkout")


class Runner:
    """Runs ops, checks each one, and keeps the pool's first results."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.ok = 0
        self.pool = {}  # pool item -> (blob digest, simulated figures)
        self.failures = []

    def run(self, seconds, min_ops):
        """Untraced ops 0, 1, ... for `seconds` and at least `min_ops`."""
        durations = []
        t_end = time.perf_counter() + seconds
        while len(durations) < min_ops or time.perf_counter() < t_end:
            durations.append(self.once(len(durations)))
        return durations

    def once(self, k, tracer=None):
        """Run, time and check op k; returns its duration in seconds."""
        self.attempted += 1
        result, error = None, None
        if tracer is not None:
            span = tracer.begin_op(k)
        t0 = time.perf_counter()
        try:
            result = self.wl.op(k)
        except Exception as exc:  # an op that raises is a failed op
            error = f"op {k} raised {exc!r}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
            child = self.wl.child_trace() if hasattr(self.wl, "child_trace") else None
            if child is not None:
                tracer.adopt(child, span)
        if error is None:
            error = self.check(k, result)
        if error is None:
            self.ok += 1
        else:
            self.failures.append(error)
        return dt

    def check(self, k, result):
        try:
            blob, sim = self.wl.check(k, result)
        except (wls.CheckFailed, OSError, LookupError, TypeError, ValueError) as exc:
            # a missing or malformed artifact fails the op, not the run
            return f"op {k}: {exc!r}"
        digest = wls.digest_of([blob])
        item = k % wls.POOL
        if item not in self.pool:
            self.pool[item] = (digest, sim)
        elif self.pool[item][0] != digest:
            return f"op {k}: output differs from an earlier run of pool item {item}"
        return None

    def simulated(self):
        items = [self.pool[i] for i in sorted(self.pool)]
        sim = {"digest": wls.digest_of(d.encode() for d, _ in items)}
        for key in sorted({key for _, s in items for key in s}):
            sim[key] = statistics.fmean(s[key] for _, s in items)
        return sim


def import_times(env):
    """cli.import_s and cell.import_scipy_s from `python -X importtime`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import flexdog.cli"],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          check=True)
    rows = []  # (depth, name, cumulative us), in completion (post-)order
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    cli_s = sum(us for depth, name, us in rows if depth == 0 and name in ("flexdog", "flexdog.cli"))
    scipy_s = 0
    for i, (depth, name, us) in enumerate(rows):
        if name == "scipy" or name.startswith("scipy."):
            parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
            if not (parent == "scipy" or parent.startswith("scipy.")):
                scipy_s += us
    return {"cli.import_s": cli_s / 1e6, "cell.import_scipy_s": scipy_s / 1e6}


def per_layer(tracer, n_ops, frames_per_op):
    totals = layer_totals(tracer.spans)
    counts = tracer.counts
    out = {}
    for name in layers.TRACED_FUNCTIONS:
        self_s, calls = totals.get(name, (0.0, 0))
        out[f"{name}.self_s"] = self_s / n_ops
        out[f"{name}.calls"] = calls / n_ops
    macs = counts.get("pipeline.analog_convolve.macs", 0.0)
    elems = counts.get("cell.cell_response.elems", 0.0)
    out["cell.cell_response.elems"] = elems / n_ops
    out["cell.cell_response.elems_per_mac"] = elems / macs if macs else 0.0
    out["dog.correlate_valid.macs"] = counts.get("dog.correlate_valid.macs", 0.0) / n_ops
    out["dog.dog.calls_per_trial"] = totals.get("dog.dog", (0, 0))[1] / (n_ops * frames_per_op)
    out["imageio.bytes_read"] = (counts.get("imageio.load_idx_image.bytes_read", 0.0)
                                 + counts.get("imageio.read_pgm.bytes_read", 0.0)) / n_ops
    out["imageio.bytes_written"] = counts.get("imageio.write_pgm.bytes_written", 0.0) / n_ops
    for layer in layers.LAYERS:
        out[f"{layer}.errors"] = tracer.errors.get(layer, 0) / n_ops
    return out


def trace_pairs(wl, runner, seconds, tracer, spans_path):
    """Run each op k untraced and then traced, so both see the same host
    state and the same pool item; a traced op must reproduce the untraced
    op's digest.  Stops after `seconds` or MAX_TRACED_OPS pairs."""
    tracer.install({"flexdog.pipeline", "flexdog.dog"})
    tracer.restore()
    untraced, traced = [], []
    t_end = time.perf_counter() + seconds
    while len(traced) < MAX_TRACED_OPS and (len(traced) < wls.POOL or time.perf_counter() < t_end):
        k = len(traced)
        untraced.append(runner.once(k))
        tracer.reapply()
        if hasattr(wl, "trace_children"):
            wl.trace_children(spans_path)
        try:
            traced.append(runner.once(k, tracer))
        finally:
            tracer.restore()
            if hasattr(wl, "trace_children"):
                wl.trace_children(None)
    return untraced, traced


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args(argv)

    import_flexdog()
    wl = wls.WORKLOADS[args.workload]()
    rng = np.random.default_rng([args.seed, sorted(wls.WORKLOADS).index(args.workload)])
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.mode}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl.setup(rng, workdir)
        wl.op(0)  # warm-up
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        doc = {"workload": args.workload, "frames_per_op": wl.frames_per_op}
        try:
            doc["model"], doc["setup_error"] = wl.setup_checks(), None
        except wls.CheckFailed as exc:
            doc["model"], doc["setup_error"] = {}, str(exc)
        runner = Runner(wl)
        if args.mode == "measure":
            doc["durations"] = runner.run(args.seconds, MIN_OPS)
        else:
            tracer = Tracer()
            untraced, traced = trace_pairs(wl, runner, args.seconds, tracer, workdir / "child-spans.json")
            trace_dir = ROOT / ".bench_work" / "trace"
            trace_dir.mkdir(exist_ok=True)
            tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
            doc["durations"] = untraced
            doc["traced_ops"] = len(traced)
            doc["absent"] = tracer.absent
            doc["per_layer"] = {
                **per_layer(tracer, len(traced), wl.frames_per_op),
                **import_times(wls.child_env()),
                "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
            }
        doc["attempted"] = runner.attempted
        doc["ok"] = runner.ok
        doc["failures"] = runner.failures[:5]
        doc["failed"] = len(runner.failures)
        doc["simulated"] = {**runner.simulated(), **doc.pop("model")}
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_28" else resource.RUSAGE_SELF
        doc["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        print(json.dumps(doc), flush=True)
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
