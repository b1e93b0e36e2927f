#!/usr/bin/env python3
"""flexdog benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload frame_1024 --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  The program under test is the checkout's
own ``src/flexdog``; every measurement happens in fresh worker processes
started one at a time.  With ``--trace 0`` the end-to-end metrics are
measured untraced, and set-up is repeated in SETUP_RUNS fresh processes and
reported as its median.  With ``--trace 1`` one worker runs each op untraced
and then traced and reports the per-layer metrics.  The last line of standard
output is the JSON result; the lines before it are the same figures for
people, the host record and the simulated (modelled chip) figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_RUNS = 5
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
DEADLINE_S = 170


class BenchError(Exception):
    pass


def spawn(args, mode, deadline, env):
    """Run one worker; returns (seconds from start to READY, result doc)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"worker --mode {mode} exited with {proc.returncode}")
    return ready, (json.loads(last) if mode != "setup" else None)


def tail(durations):
    """(percentile, value): the highest percentile that leaves TAIL_BEYOND
    samples above it, i.e. the (TAIL_BEYOND + 1)-th largest op, nearest rank.
    It moves smoothly with the sample count, unlike a fixed grid of percentiles."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} ops leave no percentile with {TAIL_BEYOND} samples beyond it")
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def host_record():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def end_to_end(doc, setup_samples):
    durations = doc["durations"]
    q, tail_s = tail(durations)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "frames_per_s": (doc["ok"] * doc["frames_per_op"] / sum(durations), "1/s"),
        "op_ms_p50": (statistics.median(durations) * 1e3, "ms"),
        "op_ms_tail": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh processes",
        "frames_per_s": f"{doc['frames_per_op']} frame(s) per op, host time",
        "op_ms_p50": f"n={len(durations)} ops",
        "op_ms_tail": f"p{q:.1f}, n={len(durations)} ops, {TAIL_BEYOND} beyond",
        "peak_rss_mb": "CLI child processes" if doc["workload"] == "cli_28" else "worker process",
    }
    return metrics, notes, {"tail_percentile": round(q, 2), "samples": len(durations)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "flexdog" / "__init__.py").is_file():
        print(f"perfbench: no flexdog source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = workloads.child_env()
    # build: byte-compile the program once so set-up times exclude compilation
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/flexdog", "perfbench"],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)

    try:
        if args.trace:
            _, doc = spawn(args, "trace", deadline, env)
            setup_samples = []
        else:
            setup_samples = [spawn(args, "setup", deadline, env)[0] for _ in range(SETUP_RUNS - 1)]
            ready, doc = spawn(args, "measure", deadline, env)
            setup_samples.append(ready)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    host = host_record()
    sim = doc["simulated"]
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": host,
               "attempted": doc["attempted"], "failed": doc["failed"],
               "error_rate": doc["failed"] / doc["attempted"], "failures": doc["failures"],
               "setup_error": doc["setup_error"], "digest": sim["digest"],
               "simulated": {k: v for k, v in sim.items() if k != "digest"}}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    if args.trace:
        import layers

        metrics = {name: (doc["per_layer"].get(name, 0.0), unit) for name, unit, _ in layers.per_layer()}
        details["traced_ops"] = doc["traced_ops"]
        details["absent"] = doc["absent"]
        print(f"per layer, per op, from {doc['traced_ops']} traced ops (host time):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<38} {value:>14.6g} {unit:<6} moves {layers.moves(name)}")
        if doc["absent"]:
            print("  absent boundaries: " + ", ".join(doc["absent"]))
    else:
        metrics, notes, extra = end_to_end(doc, setup_samples)
        details.update(extra)
        print("end to end (host time, the simulator's cost):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:>12.6g} {unit:<4} {notes[name]}")
    print(f"  error_rate     {details['error_rate']:>12.6g}      "
          f"{doc['failed']} failed / {doc['attempted']} attempted")
    print("simulated (modelled chip, identical for a speed-only change):")
    for name, value in details["simulated"].items():
        print(f"  {name:<20} {value:.12g}")
    print(f"digest sha256 {sim['digest']}")
    for failure in doc["failures"]:
        print(f"FAILED {failure}")
    if doc["setup_error"]:
        print(f"SETUP CHECK FAILED {doc['setup_error']}")
    print("details: " + json.dumps(details))
    print(json.dumps({
        "correct": doc["failed"] == 0 and doc["setup_error"] is None,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
