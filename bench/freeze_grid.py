"""Freeze the exact-stream reference entropies.

Computes, for every point of the exact-stream grid, the level-1 child
ensemble size and the streamed level-2 entropy of the Steane code under
depolarizing noise, and writes them to ``exact_stream_grid.json`` beside
this file.  The benchmark checks each exact-stream op against these values,
so run this only to re-freeze them on purpose (about 20 minutes on one core):

    PYTHONPATH=src python3 bench/freeze_grid.py
"""

import json
import os
import sys

from concatqec import concatenate_exact, exact_level_entropy, get_code, noise_family

GRID_LO = 0.0620
GRID_STEP = 0.000025
GRID_POINTS = 61

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "exact_stream_grid.json")


def grid() -> list[float]:
    return [round(GRID_LO + GRID_STEP * i, 12) for i in range(GRID_POINTS)]


def main() -> int:
    code = get_code("steane")
    points = []
    for p in grid():
        child = concatenate_exact(code, noise_family("depolarizing", p), 1)
        h = exact_level_entropy(code, child)
        points.append({"p": p, "child_size": child.size, "entropy": h})
        print(f"p={p!r} child_size={child.size} entropy={h!r}", file=sys.stderr, flush=True)
    doc = {
        "code": "steane",
        "family": "depolarizing",
        "level": 2,
        "points": points,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
