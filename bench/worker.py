"""One benchmark workload, run in a fresh process by ``run.py``.

Sets the package up (import, ``get_code``, first ``_code_tables`` build),
builds the workload's fixed batch of ops from the seed, and calls them for
``--seconds`` (every op at least once; see :func:`run_batch`).  Every
call's result is checked; a failed check or a raised exception counts as a
failed op and the run goes on.  With ``--trace`` the layer boundaries are
wrapped (see ``tracer.py``) and the per-layer numbers are computed from the
spans.  Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GRID_FILE = os.path.join(HERE, "exact_stream_grid.json")

WORKLOADS = ("exact-stream", "threshold-solve", "ensemble-build", "mc-deep")

#: Codes each workload uses; set-up builds their tables before the first op.
WORKLOAD_CODES = {
    "exact-stream": ("steane",),
    "threshold-solve": ("five-qubit", "steane"),
    "ensemble-build": ("five-qubit", "steane"),
    "mc-deep": ("steane",),
}

#: exact-stream: streamed entropies agree with the frozen ones to this (bits).
#: The computation is deterministic; the slack admits summation reordering.
EXACT_STREAM_ATOL = 1e-10

#: ensemble-build: built-ensemble entropy versus the streamed entropy (bits).
#: Dedup merges rows closer than 1e-10 and prunes weights below 1e-15.
ENSEMBLE_ATOL = 1e-9

#: ensemble-build: p is drawn uniformly within this relative window of the
#: level-2 reference crossing.
ENSEMBLE_P_WINDOW = 0.01

#: Calibration loop sizes (see ``ReferenceLoop``): about 15 ms in all on a
#: 2-core Xeon VM; the loop runs REF_WARMUP times before a run is timed, and
#: REF_REPEATS times (median) before the first call and after every call.
REF_TABLE = 1 << 21
REF_LOOKUPS = 60_000
REF_SMALL_SORTS = 150
REF_BIG_SORT = 200_000
REF_WARMUP = 2
REF_REPEATS = 3

#: After a long call the loop repeats until it has taken about this share of
#: the call's time, so that the loops around a long call sample the machine
#: as well as those around a short one.
REF_SHARE = 0.03

#: mc-deep: samples per call, and the sample count of the smoke size.
MC_SAMPLES = 500
MC_SMOKE_SAMPLES = 40

#: mc-deep: call k of a run draws with MC seed = workload seed * stride + k,
#: so the calls of a run are independent and their standard errors pool.
MC_SEED_STRIDE = 10_000

#: threshold-solve: the user's commands (code, family, extra flags).
THRESHOLD_RUNS = (
    ("five-qubit", "depolarizing", ("--levels", "2")),
    ("five-qubit", "indep-flips", ("--levels", "2")),
    ("steane", "indep-flips", ("--levels", "2")),
    ("steane", "depolarizing", ("--levels", "1")),
    ("five-qubit", "depolarizing", ("--unoptimized",)),
    ("five-qubit", "indep-flips", ("--unoptimized",)),
    ("steane", "depolarizing", ("--unoptimized",)),
    ("steane", "indep-flips", ("--unoptimized",)),
)


@dataclass
class Op:
    """One user-visible call, its correctness check and its standard error."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    se_of: Callable[[object], float] = lambda result: 0.0
    samples: int = 0
    times: list = field(default_factory=list)
    ses: list = field(default_factory=list)


def setup(codes) -> dict:
    """Import the package and build the tables of the workload's codes."""
    t0 = time.perf_counter()
    import concatqec
    import numpy
    from concatqec import levelmap
    t1 = time.perf_counter()
    for name in codes:
        levelmap._code_tables(concatqec.get_code(name))
    t2 = time.perf_counter()
    return {
        "import_s": t1 - t0,
        "code_tables_s": t2 - t1,
        "setup_s": t2 - t0,
        "package_file": concatqec.__file__,
        "numpy": numpy.__version__,
    }


# ---------------------------------------------------------------------------
# Workloads.  Each returns its fixed batch of ops for a seed.  Package
# functions are looked up on their modules at call time, so that the traced
# run's wrappers see the benchmark's own calls too.


def exact_stream_ops(seed: int, smoke: bool) -> list[Op]:
    """Steane depolarizing level-2 streamed entropy at grid points.

    The grid points are grouped by the child ensemble size frozen with them
    (5, 6 or 7 entries); every batch takes one point of each size, so each
    seed does the same number of assignments and the near-tie variation of
    the child size stays in every run.
    """
    from concatqec import codes, channels, ensemble

    with open(GRID_FILE, encoding="utf-8") as fh:
        grid = json.load(fh)
    strata = defaultdict(list)
    for point in grid["points"]:
        strata[point["child_size"]].append(point)
    rng = random.Random(seed)
    picks = [rng.choice(strata[size]) for size in sorted(strata)]
    if smoke:
        picks = picks[:1]
    rng.shuffle(picks)
    code = codes.get_code(grid["code"])
    level = grid["level"]

    def run(p):
        noise = channels.noise_family(grid["family"], p)
        child = ensemble.concatenate_exact(code, noise, level - 1)
        return ensemble.exact_level_entropy(code, child)

    return [
        Op(f"exact_level_entropy steane depolarizing L{level} p={pt['p']!r}",
           functools.partial(run, pt["p"]),
           lambda h, pt=pt: abs(h - pt["entropy"]) <= EXACT_STREAM_ATOL)
        for pt in picks
    ]


def _reference_cells() -> dict:
    from concatqec.reference import REFERENCE_TABLES
    return {(c.code, c.family, c.level): c for c in REFERENCE_TABLES}


def threshold_solve_ops(seed: int, smoke: bool) -> list[Op]:
    """In-process ``concatqec threshold`` commands, checked per row."""
    from concatqec import cli

    refs = _reference_cells()
    runs = list(THRESHOLD_RUNS)
    if smoke:
        runs.remove(("steane", "indep-flips", ("--levels", "2")))
    random.Random(seed).shuffle(runs)

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        return status, out.getvalue()

    def check(result, code, family, flags):
        status, text = result
        if status != 0:
            return False
        rows = json.loads(text)["results"]
        levels = [-1] if "--unoptimized" in flags else list(range(int(flags[1]) + 1))
        if [row["level"] for row in rows] != levels:
            return False
        for row in rows:
            cell = refs[(code, family, row["level"])]
            if abs(row["p_star"] - cell.p_star) > cell.rtol * cell.p_star:
                return False
        return True

    ops = []
    for code, family, flags in runs:
        argv = ["threshold", "--code", code, "--family", family, *flags,
                "--format", "json"]
        ops.append(Op("concatqec " + " ".join(argv),
                      functools.partial(run, argv),
                      functools.partial(check, code=code, family=family, flags=flags)))
    return ops


def ensemble_build_ops(seed: int, smoke: bool) -> list[Op]:
    """Level-2 ensemble builds near each indep-flips crossing."""
    from concatqec import codes, channels, ensemble

    refs = _reference_cells()
    rng = random.Random(seed)
    names = ("steane", "five-qubit")[1 if smoke else 0:]
    ops = []
    for name in names:
        code = codes.get_code(name)
        cell = refs[(name, "indep-flips", 2)]
        p = cell.p_star * (1.0 + rng.uniform(-ENSEMBLE_P_WINDOW, ENSEMBLE_P_WINDOW))
        noise = channels.noise_family("indep-flips", p)

        @functools.cache
        def streamed(code=code, noise=noise):
            # The expected value does not change between calls; work it out
            # once, so that checks take little of the run.
            child = ensemble.concatenate_exact(code, noise, 1)
            return ensemble.exact_level_entropy(code, child)

        def check(ens, streamed=streamed):
            return abs(ensemble.ensemble_entropy(ens) - streamed()) <= ENSEMBLE_ATOL

        ops.append(Op(f"concatenate_exact {name} indep-flips L2 p={p!r}",
                      functools.partial(ensemble.concatenate_exact, code, noise, 2),
                      check))
    return ops


def mc_deep_ops(seed: int, smoke: bool) -> list[Op]:
    """Steane depolarizing level-3 Monte Carlo at the reference crossing.

    Every call draws fresh samples (see ``MC_SEED_STRIDE``): the op's time is
    the median over calls of like work, and its standard error pools them.
    """
    from concatqec import codes, channels, montecarlo

    cell = _reference_cells()[("steane", "depolarizing", 3)]
    samples = MC_SMOKE_SAMPLES if smoke else MC_SAMPLES
    code = codes.get_code("steane")
    noise = channels.noise_family("depolarizing", cell.p_star)
    mc_seeds = itertools.count(seed * MC_SEED_STRIDE)

    def run():
        return montecarlo.mc_concatenate(code, noise, 3, samples, seed=next(mc_seeds),
                                         streams=8, threads=1)

    return [Op(f"mc_concatenate steane depolarizing L3 p={cell.p_star!r} "
               f"samples={samples} seed={seed}*{MC_SEED_STRIDE}+call",
               run,
               lambda est: abs(est.mean_entropy - 1.0) <= 4.0 * est.std_error,
               se_of=lambda est: est.std_error,
               samples=samples)]


BUILDERS = {
    "exact-stream": exact_stream_ops,
    "threshold-solve": threshold_solve_ops,
    "ensemble-build": ensemble_build_ops,
    "mc-deep": mc_deep_ops,
}


# ---------------------------------------------------------------------------
# Tracing: the layer boundaries and the per-layer metrics computed from them.


class LayerTrace:
    """Wraps every layer boundary the per-layer metrics are defined on."""

    def __init__(self):
        from tracer import Tracer

        self.tracer = Tracer()
        self.op_stats: dict[int, dict] = defaultdict(
            lambda: {"child_size": 0, "assignments": 0})
        self.kernel_blocks = 0
        self.kernel_bytes = 0

    def install(self):
        from concatqec import cli, ensemble, levelmap, montecarlo, thresholds

        t = self.tracer
        t.wrap(cli, "main", "cli.main")
        t.wrap(cli, "threshold_series", "cli.threshold_series")
        t.wrap(cli, "unoptimized_threshold", "cli.unoptimized_threshold")
        t.wrap(thresholds, "entropy_critical_p", "thresholds.entropy_critical_p")
        t.wrap(thresholds, "concatenate_exact", "thresholds.concatenate_exact")
        t.wrap(thresholds, "exact_level_entropy", "thresholds.exact_level_entropy",
               observe=self._children)
        t.wrap(thresholds, "entropy", "thresholds.entropy")
        t.wrap(thresholds, "blind_map", "thresholds.blind_map")
        t.wrap(ensemble, "exact_level", "ensemble.exact_level", observe=self._children)
        t.wrap(ensemble, "exact_level_entropy", "ensemble.exact_level_entropy",
               observe=self._children)
        t.wrap_generator(ensemble, "_assignment_chunks", "ensemble._assignment_chunks")
        t.wrap(ensemble._Accumulator, "add", "ensemble._Accumulator.add",
               observe=self._rows_in)
        t.wrap(ensemble._Accumulator, "_compact", "ensemble._Accumulator._compact")
        t.wrap(ensemble._Accumulator, "finish", "ensemble._Accumulator.finish",
               observe=self._rows_out)
        t.wrap(ensemble, "_merge_close", "ensemble._merge_close")
        for module in (ensemble, montecarlo, levelmap):
            t.wrap(module, "_coset_map_batch", module.__name__.split(".")[-1]
                   + "._coset_map_batch", observe=self._kernel)
        t.wrap(montecarlo, "coset_map_probs", "montecarlo.coset_map_probs")
        t.wrap(montecarlo, "mc_concatenate", "montecarlo.mc_concatenate")
        t.wrap(montecarlo._Registry, "register", "montecarlo._Registry.register",
               spanless=True, before=lambda args: len(args[0]._rows),
               observe=self._registered)
        t.wrap(montecarlo._StreamWorker, "_node_maps", "montecarlo._node_maps",
               before=lambda args: len(args[0].memo), observe=self._memo)

    def _children(self, args, result, pre):
        child = args[1]
        sizes = [child.size] * args[0].n if hasattr(child, "size") else [c.size for c in child]
        stats = self.op_stats[self.tracer.op_id]
        stats["child_size"] = max(stats["child_size"], max(sizes))
        stats["assignments"] += math.prod(sizes)

    def _rows_in(self, args, result, pre):
        self.tracer.counts["ensemble.dedup_rows_in"] += args[1].size

    def _rows_out(self, args, result, pre):
        self.tracer.counts["ensemble.dedup_rows_out"] += result[0].size

    def _kernel(self, args, result, pre):
        code, diags = args
        blocks = diags.shape[0]
        n, cells = code.n, 4 * code.n_syndromes
        self.kernel_blocks += blocks
        # float64 bytes per block: the n x 4 input, n gathered factors and
        # the product, transform and output arrays of 4 x 2^(n-1) each.
        self.kernel_bytes += 8 * blocks * (4 * n + n * cells + 3 * cells)

    def _registered(self, args, result, pre):
        self.tracer.counts["mc.registry_rows"] += len(args[0]._rows) - pre

    def _memo(self, args, result, pre):
        counts = self.tracer.counts
        counts["mc.memo_lookups"] += len(args[1])
        counts["mc.memo_misses"] += len(args[0].memo) - pre

    def metrics(self, ops: list[Op]) -> dict:
        """Per-layer metrics of the traced pass."""
        t = self.tracer
        tot = t.totals()
        counts = t.counts

        def s(*names):
            return sum(tot[n]["s"] for n in names if n in tot)

        def self_s(*names):
            return sum(tot[n]["self_s"] for n in names if n in tot)

        def calls(*names):
            return sum(tot[n]["calls"] for n in names if n in tot)

        def ratio(a, b):
            return a / b if b else 0.0

        eval_names = ("thresholds.exact_level_entropy", "thresholds.entropy")
        evals = calls(*eval_names)
        kernels = ("ensemble._coset_map_batch", "montecarlo._coset_map_batch",
                   "levelmap._coset_map_batch")
        kernel_s = s(*kernels)
        merges = t.children_of("ensemble._Accumulator.finish", "ensemble._merge_close")
        sized = [st for st in self.op_stats.values() if st["child_size"]]
        samples = sum(op.samples for op in ops)
        lookups = counts["mc.memo_lookups"]
        return {
            "thresholds.evals_per_solve": ratio(evals, calls("thresholds.entropy_critical_p")),
            "thresholds.eval_s": ratio(
                s("thresholds.concatenate_exact", *eval_names), evals),
            "thresholds.self_s": self_s("thresholds.entropy_critical_p"),
            "thresholds.blind_iters": ratio(calls("thresholds.blind_map"),
                                            calls("cli.unoptimized_threshold")),
            "cli.self_s": self_s("cli.main"),
            "ensemble.child_size": ratio(sum(st["child_size"] for st in sized), len(sized)),
            "ensemble.assignments": sum(st["assignments"] for st in sized),
            "ensemble.assign_gen_s": s("ensemble._assignment_chunks"),
            "ensemble.stream_s": self_s("ensemble.exact_level_entropy",
                                        "thresholds.exact_level_entropy"),
            "ensemble.dedup_rows_in": counts["ensemble.dedup_rows_in"],
            "ensemble.dedup_rows_out": counts["ensemble.dedup_rows_out"],
            "ensemble.dedup_s": self_s("ensemble._Accumulator.add",
                                       "ensemble._Accumulator._compact",
                                       "ensemble._Accumulator.finish"),
            "ensemble.merge_s": s("ensemble._merge_close"),
            "ensemble.merge_skipped": sum(1 for m in merges if m == 0),
            "levelmap.calls": calls(*kernels),
            "levelmap.blocks": self.kernel_blocks,
            "levelmap.busy_s": kernel_s,
            "levelmap.us_per_block": 1e6 * ratio(kernel_s, self.kernel_blocks),
            "levelmap.bytes_per_block": ratio(self.kernel_bytes, self.kernel_blocks),
            "mc.us_per_sample": 1e6 * ratio(s("montecarlo.mc_concatenate"), samples),
            "mc.registry_calls": counts["montecarlo._Registry.register.calls"],
            "mc.registry_rows": counts["mc.registry_rows"],
            "mc.registry_s": counts["montecarlo._Registry.register.s"],
            "mc.memo_lookups": lookups,
            "mc.memo_hit_ratio": ratio(lookups - counts["mc.memo_misses"], lookups),
            "mc.kernel_s": s("montecarlo._coset_map_batch", "montecarlo.coset_map_probs"),
        }


# ---------------------------------------------------------------------------


class ReferenceLoop:
    """A fixed calibration loop; calling it returns the seconds it took.

    Reads at random places in a 16 MiB table, most of which miss the CPU
    caches, sorts of small arrays and one sort of a large array: the kinds
    of work the workloads do, none of it from the package, so no change to
    the package can change it.  Everything it touches is allocated once,
    here, so its time does not depend on the heap the ops leave behind.
    Identical calls of one op vary by tens of percent between runs with
    contention from outside the process; dividing a run's times by its
    median loop takes most of that out (see README.md).
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.table = [1] * REF_TABLE
        self.keys = rng.integers(0, REF_TABLE, REF_LOOKUPS).tolist()
        self.small = np.empty((64, 64))
        self.small_t = np.empty((64, 64))
        self.big_src = rng.random(REF_BIG_SORT)
        self.big = np.empty_like(self.big_src)
        for _ in range(REF_WARMUP):
            self()

    def __call__(self, repeats: int = REF_REPEATS) -> float:
        """Median seconds of ``repeats`` loops."""
        return statistics.median(self.once() for _ in range(repeats))

    def once(self) -> float:
        np, small, small_t = self.np, self.small, self.small_t
        t0 = time.perf_counter()
        table = self.table
        total = 0
        for key in self.keys:
            total += table[key]
        small[:] = np.arange(64.0)
        for _ in range(REF_SMALL_SORTS):
            np.copyto(small_t, small.T)
            small += small_t
            small.sort(axis=1)
            small *= 1.0 / small[0, -1]
        np.copyto(self.big, self.big_src)
        self.big.sort()
        return time.perf_counter() - t0


def run_op(op: Op, trace, reference, ref_before: float) -> tuple[float, bool]:
    """One call of op, timed, then its check (outside the timing and trace).

    The calibration loop runs right after the call, before the check, at
    least REF_REPEATS times and for about REF_SHARE of the call's time.
    Returns the loop's median time and whether the check passed.
    """
    t0 = time.perf_counter()
    try:
        result = trace.tracer.call("op", op.run) if trace is not None else op.run()
        ok = True
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    dt = time.perf_counter() - t0
    if trace is not None:
        trace.tracer.paused = True
    ref_after = reference(max(REF_REPEATS, round(REF_SHARE * dt / ref_before)))
    op.times.append(dt)
    try:
        if ok:
            op.ses.append(op.se_of(result))
            ok = bool(op.check(result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    finally:
        if trace is not None:
            trace.tracer.paused = False
    return ref_after, ok


def run_batch(ops: list[Op], seconds: float, once: bool, trace) -> dict:
    """Call the whole batch in passes for ``seconds``; check every call.

    Every pass calls each op once, in the batch's order, so every op gets
    the same number of calls spread over the whole run and each op's median
    sees the same spells of machine noise.  The first pass always runs; no
    later pass starts that would, at each op's best pace so far, end after
    ``seconds``.  With ``once`` the batch runs exactly one pass.
    """
    attempted = failed = 0
    op_ids = []
    reference = ReferenceLoop()
    start = time.perf_counter()
    ref = reference()
    ref_loops = [ref]
    while True:
        for op in ops:
            op_ids.append(attempted)
            if trace is not None:
                trace.tracer.op_id = attempted
            attempted += 1
            ref, ok = run_op(op, trace, reference, ref)
            ref_loops.append(ref)
            if not ok:
                failed += 1
                print(f"check failed: {op.label}", file=sys.stderr)
        best_pass = sum(min(op.times) for op in ops)
        if once or time.perf_counter() - start + best_pass > seconds:
            break
    return {"attempted": attempted, "failed": failed, "op_ids": op_ids,
            "ref_loop_s": ref_loops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--once", action="store_true", help="run every op once")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans here")
    parser.add_argument("--smoke", action="store_true",
                        help="the smallest batch of each workload")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    info = setup(WORKLOAD_CODES[args.workload])
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(info["package_file"])))
    if os.path.realpath(package_dir) != os.path.realpath(SRC):
        print(f"error: imported concatqec from {info['package_file']}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    record: dict = {"setup": info}
    if not args.setup_only:
        ops = BUILDERS[args.workload](args.seed, args.smoke)
        trace = LayerTrace() if args.trace else None
        if trace is not None:
            trace.install()
        try:
            outcome = run_batch(ops, args.seconds, args.once, trace)
        finally:
            if trace is not None:
                trace.tracer.restore()
        record.update(outcome)
        record["ops"] = [{"label": op.label, "times_s": op.times,
                          "std_errors": op.ses,
                          "samples": op.samples} for op in ops]
        if trace is not None:
            record["layers"] = trace.metrics(ops)
            record["per_op"] = [dict(trace.op_stats[i]) for i in outcome["op_ids"]]
            record["spans"] = len(trace.tracer.spans)
            if args.spans:
                trace.tracer.dump(args.spans)
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
