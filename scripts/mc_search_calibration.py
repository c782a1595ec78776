#!/usr/bin/env python3
"""Calibration of the Monte Carlo root search against exact crossings.

Runs ``entropy_critical_p(..., method="mc")`` on five cells whose exact
crossing is cheap, at 2000 and 20000 samples, seeds 0-99, and compares each
estimate p with its exact root p* through z = (p - p*) / sigma(p).  Per row
it prints:

* draws / samples: the mean total ``mc_concatenate`` sample count of one
  search, in units of ``samples``;
* builds: the mean number of sampling tables one search builds (misses of
  ``montecarlo._kept_table``, which keeps only the last): one per distinct p,
  plus one for each p drawn again after another;
* mean z, rms z and max |z| over the seeds: a calibrated search has mean
  near 0 and rms near 1;
* draws x var(p): the samples one search spends times the variance of its
  estimate over the seeds, the cost of a given sigma(p) (lower is better);
* seconds per search.

Exits 1 when any row has rms z > 1.3 or max |z| > 5.  The seeds are fixed,
so the verdict is deterministic; the run takes a few minutes on two cores.

    PYTHONPATH=src python3 scripts/mc_search_calibration.py
"""

import sys
import time

import numpy as np

from concatqec import entropy_critical_p, get_code
from concatqec import montecarlo, thresholds

CELLS = [("rep3", "depolarizing", 1), ("rep3", "depolarizing", 2),
         ("five-qubit", "depolarizing", 2), ("rep3", "indep-flips", 2),
         ("five-qubit", "depolarizing", 3)]
SAMPLES = (2000, 20000)
SEEDS = range(100)
MAX_RMS_Z, MAX_ABS_Z = 1.3, 5.0


def main() -> int:
    real = thresholds.mc_concatenate
    draws = [0]

    def counting(code, noise, level, samples, **kwargs):
        draws[0] += samples
        return real(code, noise, level, samples, **kwargs)

    thresholds.mc_concatenate = counting
    failed = False
    print(f"{'cell':<28} {'samples':>7} {'draws/n':>8} {'builds':>6} {'mean z':>7} "
          f"{'rms z':>6} {'max|z|':>7} {'draws*var':>10} {'s/search':>8}")
    for name, family, level in CELLS:
        code = get_code(name)
        exact = entropy_critical_p(code, family, level).p_star
        for samples in SAMPLES:
            draws[0] = 0
            montecarlo._kept_table.cache_clear()
            p, sigma = [], []
            start = time.perf_counter()
            for seed in SEEDS:
                cp = entropy_critical_p(code, family, level, method="mc",
                                        samples=samples, seed=seed)
                p.append(cp.p_star)
                sigma.append(cp.uncertainty)
            seconds = (time.perf_counter() - start) / len(SEEDS)
            p = np.array(p)
            z = (p - exact) / np.array(sigma)
            per_search = draws[0] / len(SEEDS)
            builds = montecarlo._kept_table.cache_info().misses / len(SEEDS)
            rms, worst = float(np.sqrt(np.mean(z ** 2))), float(np.abs(z).max())
            bad = rms > MAX_RMS_Z or worst > MAX_ABS_Z
            failed |= bad
            print(f"{f'{name} {family} L{level}':<28} {samples:>7} "
                  f"{per_search / samples:>8.2f} {builds:>6.2f} {z.mean():>+7.2f} "
                  f"{rms:>6.2f} {worst:>7.1f} {per_search * p.var(ddof=1):>10.3e} "
                  f"{seconds:>8.3f}{'  MISCALIBRATED' if bad else ''}", flush=True)
    if failed:
        print(f"rows marked MISCALIBRATED have rms z > {MAX_RMS_Z} or max |z| > {MAX_ABS_Z}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
