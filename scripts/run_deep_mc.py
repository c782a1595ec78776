#!/usr/bin/env python3
"""Consistency run: deep-level Monte Carlo estimates against the bundled tables.

The deep cells of the reference tables carry one-sigma uncertainties; a fresh
stochastic estimate should overlap each within two sigma of the combined
uncertainties.  The sampled cells are exactly these; the five-qubit
depolarizing level-3 cell is quoted exact, and ``reproduce-tables`` runs it by
exact enumeration.  Exact confirmation of the quoted deep-level digits is out of
desk-scale reach (the exact enumeration exceeds any budget, and the quoted
uncertainties are ~1e-6), so this check is statistical.  Exits 1 when a cell
misses; the defaults (levels <= 3, 5000 samples, seed 0) are deterministic
and take about 2 s on two cores.

Per-sample cost grows as n^level: ``--max-level 4`` (seven cells) takes about
11 s at the default samples, and CI runs it.  Raise ``--max-level`` and
``--samples`` with time to spare.
"""

import argparse
import sys
import time

from concatqec import entropy_critical_p, get_code, sampled_cells


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-level", type=int, default=3,
                    help="highest concatenation level to run (default 3)")
    ap.add_argument("--samples", type=int, default=5000,
                    help="Monte Carlo samples per entropy estimate")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    cells = [c for c in sampled_cells() if c.level <= args.max_level]
    if not cells:
        print(f"no sampled cells at level <= {args.max_level}")
        return 0
    misses = 0
    print(f"{'family':<12} {'code':<10} lvl {'reference':>11} {'estimate':>11} "
          f"{'sigma':>9}  z")
    for cell in cells:
        start = time.perf_counter()
        cp = entropy_critical_p(
            get_code(cell.code), cell.family, cell.level,
            method="mc", samples=args.samples, seed=args.seed,
            threads=args.threads)
        sigma = (cell.sigma ** 2 + cp.uncertainty ** 2) ** 0.5
        z = (cp.p_star - cell.p_star) / sigma
        flag = "" if abs(z) <= 2.0 else "  MISS"
        misses += abs(z) > 2.0
        print(f"{cell.family:<12} {cell.code:<10} {cell.level:>3} "
              f"{cell.p_star:>11.6%} {cp.p_star:>11.6%} {sigma:>9.2e} "
              f"{z:>+6.2f}{flag}  [{time.perf_counter() - start:.0f}s]")
    if misses:
        print(f"{misses} cell(s) outside two sigma")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
