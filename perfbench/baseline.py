"""run_dog_pipeline per-call host time at 28^2, 256^2 and 1024^2, beside the
scratch baseline recorded when the roadmap was written.

    PYTHONPATH=src python3 perfbench/baseline.py

Same configuration as that baseline: ideal cell, P=1, shared array,
variation sigma 0.05 on gamma, gain and sensor.  Prints the median and the
quartiles of the per-call times and the ratio to the baseline.
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wls  # noqa: E402

ROADMAP_MS = {28: 0.67, 256: 12.3, 1024: 212.0}
SECONDS_PER_SIZE = 3.0


def per_call_ms(size, rng):
    pl = wls.fx("pipeline")
    image = wls.fx("dog").IntensityImage(wls.binary_discs(rng, size))
    k1, k2 = wls.kernels(1)
    cfg = pl.AnalogConfig(variation=wls.variation())
    pl.run_dog_pipeline(image, k1, k2, cfg, seed=0)  # warm-up
    times = []
    t_end = time.perf_counter() + SECONDS_PER_SIZE
    while len(times) < 11 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        pl.run_dog_pipeline(image, k1, k2, cfg, seed=len(times))
        times.append((time.perf_counter() - t0) * 1e3)
    return times


def main():
    rng = np.random.default_rng(0)
    print("run_dog_pipeline per call, host time (ideal cell, P=1, sigma 0.05):")
    print(f"  {'size':>6} {'calls':>6} {'median ms':>10} {'q1..q3 ms':>17} {'roadmap ms':>11} {'ratio':>6}")
    for size, base in ROADMAP_MS.items():
        times = per_call_ms(size, rng)
        q1, med, q3 = statistics.quantiles(times, n=4)
        verdict = "within noise" if q1 <= base <= q3 else "beyond noise, see perfbench/README.md"
        print(f"  {size:>5}² {len(times):>6} {med:>10.4g} {q1:>8.4g}..{q3:<8.4g} {base:>11.4g} "
              f"{med / base:>6.3f}  {verdict}")


if __name__ == "__main__":
    main()
