#!/usr/bin/env python3
"""Run every workload and print one row per workload.

    python3 perfbench/report.py                  # one seed, every workload
    python3 perfbench/report.py --seeds 1-10     # ten seeds: medians and spreads
    python3 perfbench/report.py --trace 1        # per-layer metrics instead

Each (workload, seed) is one `perfbench/run.py` process, run one at a time.
The table shows every end-to-end metric by name and unit (the median over the
seeds), the error rate with its counts, and the simulated figures, which are
model outputs, not host time.  With several seeds a second table gives each
metric's spread, (q3 - q1) / median over the seeds as statistics.quantiles
computes them, against the bound in BENCHMARK.json.  Finally the
run_dog_pipeline per-call times are set beside the roadmap's baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SIMULATED = ("mae_codes", "flip_rate", "model_power_uw", "model_dog_runtime_us", "model_dog_energy_nj")


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    details = next(json.loads(l[len("details: "):]) for l in lines if l.startswith("details: "))
    return json.loads(lines[-1]), details


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("nan")


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=[1])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    metrics = bench["per_layer" if args.trace else "end_to_end"]
    rows = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            result, details = run_one(workload, seed, bench["run_seconds"], args.trace)
            runs.append((result, details))
            values = " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                              if not args.trace)
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"digest={details['digest'][:16]} {values}", flush=True)
        rows[workload] = runs

    def med(runs, name):
        return statistics.median(r["metrics"][name]["value"] for r, _ in runs)

    if args.trace:
        print(f"\n{'metric':<40}" + "".join(f"{w:>16}" for w in rows))
        for m in metrics:
            print(f"{m['name'] + ' [' + m['unit'] + ']':<40}"
                  + "".join(f"{med(runs, m['name']):>16.6g}" for runs in rows.values()))
    else:
        names = [m["name"] for m in metrics]
        header = [f"{m['name']} [{m['unit']}]" for m in metrics] + ["error_rate", "failed/attempted"]
        header += [f"{s} (sim)" for s in SIMULATED] + ["digest (seed 1st)"]
        widths = [max(12, len(h)) for h in header]
        print("\n" + f"{'workload':<14}" + " ".join(f"{h:>{w}}" for h, w in zip(header, widths)))
        for workload, runs in rows.items():
            failed = sum(r["failed"] for r, _ in runs)
            attempted = sum(r["attempted"] for r, _ in runs)
            sim = runs[0][1]["simulated"]
            cells = [f"{med(runs, n):.6g}" for n in names]
            cells += [f"{failed / attempted:.6g}", f"{failed}/{attempted}"]
            cells += [f"{sim[s]:.6g}" if s in sim else "-" for s in SIMULATED]
            cells.append(runs[0][1]["digest"][:16])
            print(f"{workload:<14}" + " ".join(f"{c:>{w}}" for c, w in zip(cells, widths)))
        if len(args.seeds) > 1:
            print(f"\nspread over {len(args.seeds)} seeds, (q3 - q1) / median; "
                  "ok < bound/3 <= near < bound <= WIDE")
            print(f"{'workload':<14}" + "".join(f"{n:>22}" for n in names))
            for workload, runs in rows.items():
                cells = []
                for m in metrics:
                    s = spread([r["metrics"][m["name"]]["value"] for r, _ in runs])
                    verdict = "ok" if s < m["bound"] / 3 else "near" if s < m["bound"] else "WIDE"
                    cells.append(f"{s:.4f} {verdict} /{m['bound']:g}")
                print(f"{workload:<14}" + "".join(f"{c:>22}" for c in cells))

    import workloads

    print()
    subprocess.run([sys.executable, str(HERE / "baseline.py")], cwd=ROOT,
                   env=workloads.child_env(), check=True)


if __name__ == "__main__":
    main()
