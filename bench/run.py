"""concatqec benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload exact-stream --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload

Each workload runs in its own fresh child process (``worker.py``) with the
BLAS/OpenMP thread variables pinned to 1.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs each op once untraced and once
traced, in two fresh processes, prints the per-layer metrics and the
tracing overhead, and writes the spans to ``bench/out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The lines before it give each metric with its unit and the run
record (machine, versions, op counts, fail_frac, source line count).

Exits with status 2, printing no result, when the checkout has no
``src/concatqec`` package, and with status 1 when a child process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

#: Extra fresh processes that only set up; setup_s is the median over these
#: and the workload process.
SETUP_PROBES = 6

#: The whole run, child processes included, ends within this many seconds.
RUN_DEADLINE_S = 170.0

#: BLAS and OpenMP pools pinned to one thread in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")

#: Standard error that time_to_se_1e-3_s scales to (bits).
SE_TARGET = 1e-3

#: The workloads and the metrics that BENCHMARK.json declares, with units.
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")

#: Printed and recorded but not in BENCHMARK.json.  Times in seconds drift
#: by tens of percent between runs with contention from outside the process,
#: too much for a bound; BENCHMARK.json gates the same times over the run's
#: median calibration loop (unit ``ref``, see worker.ReferenceLoop).  The
#: median op of a threshold-solve batch is a ~0.1 s pure-Python solve that
#: drifts even so.
REPORTED_ONLY = {"wall_s": "s", "op_s.p50": "s", "op_s.max": "s",
                 "time_to_se_1e-3_s": "s", "op_ref.p50": "ref", "ref_loop_s": "s"}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(deadline: float, *args: str) -> dict:
    """Run worker.py in a fresh process and return its JSON record."""
    cmd = [sys.executable, WORKER, *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("no time left for " + " ".join(args))
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker timed out: {' '.join(args)}") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def batch_times(record: dict) -> list[float]:
    """Each op's time: its median over the calls of the run."""
    return [statistics.median(op["times_s"]) for op in record["ops"]]


def pooled_se(op: dict) -> float:
    """Standard error of one call, pooled over the op's equal-sized calls."""
    return math.sqrt(statistics.fmean(se * se for se in op["std_errors"]))


def end_to_end(records: list[dict], timed: dict) -> dict:
    """End-to-end metrics of one timed workload process plus set-up probes."""
    ops = timed["ops"]

    def to_se(op, t):
        # A Monte Carlo op scales to standard error SE_TARGET; an exact op
        # already has standard error 0 and counts its own time.
        if pooled_se(op) > 0.0:
            return t * (pooled_se(op) / SE_TARGET) ** 2
        return t

    op_times = batch_times(timed)
    ref_loop = statistics.median(timed["ref_loop_s"])
    metrics = {
        "setup_s": statistics.median(r["setup"]["setup_s"] for r in records),
        "peak_rss_mib": timed["peak_rss_mib"],
        "ref_loop_s": ref_loop,
    }
    for unit, scale in (("s", 1.0), ("ref", ref_loop)):
        metrics.update({
            f"wall_{unit}": sum(op_times) / scale,
            f"op_{unit}.p50": statistics.median(op_times) / scale,
            f"op_{unit}.max": max(op_times) / scale,
            f"time_to_se_1e-3_{unit}": sum(to_se(op, t) for op, t in zip(ops, op_times)) / scale,
        })
    return metrics


def run_workload(name: str, args, deadline: float) -> tuple[dict, dict]:
    """Metrics and run record of one workload."""
    common = ["--workload", name, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    if not args.trace:
        probes = [run_worker(deadline, *common, "--setup-only")
                  for _ in range(args.setup_probes)]
        timed = run_worker(deadline, *common, "--seconds", str(args.seconds))
        metrics = end_to_end(probes + [timed], timed)
        record = {"numpy": timed["setup"]["numpy"], "ref_loop_s": timed["ref_loop_s"],
                  "ops": [
            {"label": op["label"], "calls": len(op["times_s"]), "median_s": t,
             "min_s": min(op["times_s"]), "max_s": max(op["times_s"]),
             "std_error": pooled_se(op)}
            for op, t in zip(timed["ops"], batch_times(timed))]}
        attempted, failed = timed["attempted"], timed["failed"]
    else:
        plain = run_worker(deadline, *common, "--once")
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{name}-seed{args.seed}.json")
        traced = run_worker(deadline, *common, "--once", "--trace",
                            "--spans", spans)
        metrics = dict(traced["layers"])
        metrics["setup.import_s"] = traced["setup"]["import_s"]
        metrics["setup.code_tables_s"] = traced["setup"]["code_tables_s"]
        plain_s, traced_s = sum(batch_times(plain)), sum(batch_times(traced))
        metrics["trace.overhead_s"] = traced_s - plain_s
        record = {
            "numpy": plain["setup"]["numpy"],
            "untraced_wall_s": plain_s,
            "traced_wall_s": traced_s,
            "spans": traced["spans"],
            "spans_file": os.path.relpath(spans, ROOT),
            "per_op": [dict(stats, label=op["label"])
                       for stats, op in zip(traced["per_op"], traced["ops"])],
        }
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
    record.update(workload=name, attempted=attempted, failed=failed,
                  fail_frac=failed / attempted)
    return metrics, record


def src_lines() -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def machine_record(args, numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "src_lines": src_lines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest batch of each workload, one set-up probe")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    args.setup_probes = 1 if args.smoke else SETUP_PROBES

    if not os.path.isfile(os.path.join(SRC, "concatqec", "__init__.py")):
        print(f"error: no concatqec package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    with open(SPEC_FILE, encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    deadline = time.monotonic() + RUN_DEADLINE_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, workloads = [], []
    try:
        for name in names:
            if args.workload == "all":
                deadline = time.monotonic() + RUN_DEADLINE_S
            metrics, wrec = run_workload(name, args, deadline)
            results.append((name, metrics))
            workloads.append(wrec)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {"machine": machine_record(args, workloads[0]["numpy"]),
              "workloads": workloads}

    out_metrics = {}
    for name, metrics in results:
        prefix = f"{name}." if args.workload == "all" else ""
        for key, unit in declared.items():
            out_metrics[prefix + key] = {"value": metrics[key], "unit": unit}
            print(f"{name:16s} {key:28s} {metrics[key]:>16.6g} {unit}")
        for key in metrics.keys() - declared.keys():
            print(f"{name:16s} {key:28s} {metrics[key]:>16.6g} {REPORTED_ONLY[key]}"
                  " (not gated)")
    for wrec in record["workloads"]:
        print(f"{wrec['workload']:16s} {'fail_frac':28s} {wrec['fail_frac']:>16.6g} 1")
    print("record " + json.dumps(record))
    attempted = sum(w["attempted"] for w in record["workloads"])
    failed = sum(w["failed"] for w in record["workloads"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
