"""Command-line front end.

Three subcommands: ``entropy`` evaluates the mean conditional entropy of a
configured channel or ensemble, ``threshold`` locates critical noise
parameters per concatenation level, and ``reproduce-tables`` recomputes the
bundled reference tables and reports per-cell pass/fail.

Options may come from a JSON config file (``--config`` or the CONCATQEC_CONFIG
environment variable); explicit flags override file values, and every run
echoes its resolved configuration into the output header.  Output is CSV
(fixed column order) or JSON (versioned schema); identical configurations and
seeds produce byte-identical files.  Exit codes: 0 success, 1 computation or
comparison failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass

from .channels import ChannelError, NOISE_FAMILIES, noise_family
from .codes import CodeError, builtin_codes, get_code
from .ensemble import DEFAULT_BUDGET, BudgetExceeded
from .montecarlo import mc_concatenate
from .reference import ReferenceCell, exact_cells, sampled_cells
from .thresholds import (
    NoStraddle, _exact_entropy, entropy_critical_p, threshold_series, unoptimized_threshold)

__all__ = ["main", "RunConfig"]

SCHEMA_VERSION = 1
CONFIG_ENV_VAR = "CONCATQEC_CONFIG"

#: Fixed, versioned column orders (schema version SCHEMA_VERSION).
COLUMNS = {
    "entropy": ("code", "family", "p", "level", "method", "entropy",
                "std_error", "samples", "seed"),
    "threshold": ("code", "family", "level", "method", "p_star",
                  "target_entropy", "uncertainty", "samples", "seed"),
    "reproduce-tables": ("family", "code", "level", "method", "expected",
                         "computed", "tolerance", "status", "note"),
}


@dataclass
class RunConfig:
    """Resolved options of one CLI run; echoed into every output header."""

    code: str | None = None
    family: str | None = None
    p: float | None = None
    levels: int = 0
    method: str = "auto"
    samples: int = 100_000
    seed: int = 0
    target_entropy: float = 1.0
    tol: float = 1e-10
    format: str = "csv"
    out: str | None = None
    threads: int = 1
    unoptimized: bool = False
    with_mc: bool = False
    dry_run: bool = False


class UsageError(Exception):
    """Configuration problem; reported with the offending field."""


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    # Result files embed their config; accept them directly for round-trips.
    if isinstance(data, dict) and isinstance(data.get("config"), dict):
        data = data["config"]
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return data


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config-file values, then explicit flags."""
    merged = asdict(RunConfig())
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if path:
        file_values = _load_config_file(path)
        known = set(merged)
        for key, value in file_values.items():
            if key == "command":
                continue
            if key not in known:
                raise UsageError(f"unknown config key {key!r} in {path}")
            merged[key] = value
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    config = RunConfig(**merged)
    _validate(config, args.command)
    return config


def _validate(config: RunConfig, command: str) -> None:
    if config.family is None and command != "reproduce-tables":
        raise UsageError("--family is required")
    if config.family is not None and config.family not in NOISE_FAMILIES:
        raise UsageError(
            f"unknown family {config.family!r}; known: {sorted(NOISE_FAMILIES)}")
    if config.code is not None and config.code not in builtin_codes():
        raise UsageError(
            f"unknown code {config.code!r}; known: {sorted(builtin_codes())}")
    if config.method not in ("exact", "mc", "auto"):
        raise UsageError(f"method must be exact, mc, or auto, not {config.method!r}")
    if config.format not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, not {config.format!r}")
    if config.levels < 0:
        raise UsageError("--levels must be >= 0")
    if config.samples < 1:
        raise UsageError("--samples must be >= 1")
    if config.seed < 0:
        raise UsageError("--seed must be >= 0")
    if not 0.0 < config.tol < 1.0:
        raise UsageError("--tol must be in (0, 1)")
    if config.threads < 1:
        raise UsageError("--threads must be >= 1")
    if command == "entropy":
        if config.p is None:
            raise UsageError("entropy requires --p")
        if config.levels > 0 and config.code is None:
            raise UsageError("entropy above level 0 requires --code")
    if command == "threshold":
        if (config.levels > 0 or config.unoptimized) and config.code is None:
            raise UsageError("threshold above level 0 requires --code")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    if value is None:
        return ""
    return str(value)


def _json_safe(value):
    if isinstance(value, float):
        return float(f"{value:.10g}")
    return value


def _render(command: str, config: RunConfig, rows: list[dict]) -> str:
    columns = COLUMNS[command]
    if config.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": {k: _json_safe(v) for k, v in asdict(config).items()},
            "results": [
                {k: _json_safe(row.get(k)) for k in columns} for row in rows
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    echo = json.dumps({k: _json_safe(v) for k, v in asdict(config).items()},
                      sort_keys=True)
    buf.write(f"# schema_version={SCHEMA_VERSION}\n")
    buf.write(f"# command={command}\n")
    buf.write(f"# config={echo}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(k)) for k in columns])
    return buf.getvalue()


def _emit(text: str, config: RunConfig) -> None:
    if config.out:
        os.makedirs(os.path.dirname(config.out) or ".", exist_ok=True)
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_entropy(config: RunConfig) -> tuple[list[dict], int]:
    noise = noise_family(config.family, config.p)
    row = {
        "code": config.code,
        "family": config.family,
        "p": config.p,
        "level": config.levels,
        "method": "exact",
        "entropy": None,
        "std_error": 0.0,
        "samples": None,
        "seed": None,
    }
    code = get_code(config.code) if config.code else None
    if config.levels == 0 or config.method in ("exact", "auto"):
        try:
            row["entropy"] = _exact_entropy(code, noise, config.levels, DEFAULT_BUDGET)
            return [row], 0
        except BudgetExceeded:
            if config.method == "exact":
                raise
    est = mc_concatenate(code, noise, config.levels, config.samples,
                         seed=config.seed, threads=config.threads)
    row.update(method="mc", entropy=est.mean_entropy, std_error=est.std_error,
               samples=est.samples, seed=config.seed)
    return [row], 0


def _point_row(cp, config: RunConfig) -> dict:
    return {
        "code": cp.code,
        "family": cp.family,
        "level": cp.level,
        "method": cp.method,
        "p_star": cp.p_star,
        "target_entropy": cp.target_entropy,
        "uncertainty": cp.uncertainty,
        "samples": config.samples if cp.method == "monte-carlo" else None,
        "seed": config.seed if cp.method == "monte-carlo" else None,
    }


def _cmd_threshold(config: RunConfig) -> tuple[list[dict], int]:
    if config.unoptimized:
        cp = unoptimized_threshold(get_code(config.code), config.family,
                                   tol=config.tol)
        return [_point_row(cp, config)], 0
    code = get_code(config.code) if config.code else None
    points = threshold_series(
        code, config.family, config.levels, target=config.target_entropy,
        tol=config.tol, method=config.method, samples=config.samples,
        seed=config.seed, threads=config.threads)
    return [_point_row(cp, config) for cp in points], 0


def _plan(cell: ReferenceCell, config: RunConfig) -> tuple[str, str]:
    """Method and a runtime note for one reference cell."""
    if cell.level == -1:
        return "unoptimized", "iterated map bisection, seconds"
    if cell.level <= 2:
        return "exact", "exact enumeration, seconds"
    return "auto", (f"~{config.samples} samples x {cell.level} levels; "
                    "exact when within budget")


def _run_cell(cell: ReferenceCell, config: RunConfig) -> dict:
    method, note = _plan(cell, config)
    row = {
        "family": cell.family,
        "code": cell.code,
        "level": cell.level,
        "method": method,
        "expected": cell.p_star,
        "computed": None,
        "tolerance": None,
        "status": "planned",
        "note": note,
    }
    if config.dry_run:
        return row
    code = get_code(cell.code)
    if cell.level == -1:
        cp = unoptimized_threshold(code, cell.family, tol=config.tol)
    else:
        cp = entropy_critical_p(
            code, cell.family, cell.level, tol=config.tol,
            method="exact" if cell.exact else "auto",
            samples=config.samples, seed=config.seed, threads=config.threads)
    row["method"] = cp.method
    row["computed"] = cp.p_star
    if cell.exact and cp.uncertainty == 0.0:
        tolerance = cell.rtol * cell.p_star
    else:
        # Overlap test: two sigmas of the combined uncertainties.
        tolerance = 2.0 * (cell.sigma**2 + cp.uncertainty**2) ** 0.5
    row["tolerance"] = tolerance
    row["status"] = "pass" if abs(cp.p_star - cell.p_star) <= tolerance else "FAIL"
    return row


def _cmd_reproduce_tables(config: RunConfig) -> tuple[list[dict], int]:
    cells = exact_cells()
    if config.with_mc:
        cells = cells + sampled_cells()
    rows = [_run_cell(cell, config) for cell in cells]
    failed = any(row["status"] == "FAIL" for row in rows)
    return rows, 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concatqec",
        description="Entropy thresholds of adaptively concatenated stabilizer codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--config", help=(
            "JSON config file with defaults for any option "
            f"(also read from ${CONFIG_ENV_VAR})"))
        p.add_argument("--code", help="builtin code name")
        p.add_argument("--family", help="noise family name")
        p.add_argument("--p", type=float, help="noise parameter")
        p.add_argument("--levels", type=int, help="concatenation levels")
        p.add_argument("--method", choices=("exact", "mc", "auto"))
        p.add_argument("--samples", type=int, help="Monte Carlo sample count")
        p.add_argument("--seed", type=int, help="Monte Carlo seed")
        p.add_argument("--target-entropy", dest="target_entropy", type=float,
                       help="entropy crossing target in bits")
        p.add_argument("--tol", type=float, help="root bracket width tolerance")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--threads", type=int, help=(
            "Monte Carlo worker threads; exact computations run in one thread"))

    p_entropy = sub.add_parser("entropy", help="mean conditional entropy")
    add_common(p_entropy)

    p_threshold = sub.add_parser("threshold", help="critical noise parameters")
    add_common(p_threshold)
    p_threshold.add_argument("--unoptimized", action="store_const", const=True,
                             help="fixed-point threshold of the blind map")

    p_tables = sub.add_parser("reproduce-tables",
                              help="recompute the bundled reference tables")
    add_common(p_tables)
    p_tables.add_argument("--with-mc", dest="with_mc", action="store_const",
                          const=True, help="include sampled deep-level cells")
    p_tables.add_argument("--dry-run", dest="dry_run", action="store_const",
                          const=True, help="list planned cells, compute nothing")
    return parser


_COMMANDS = {
    "entropy": _cmd_entropy,
    "threshold": _cmd_threshold,
    "reproduce-tables": _cmd_reproduce_tables,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
    try:
        rows, status = _COMMANDS[args.command](config)
    except (NoStraddle, BudgetExceeded, ChannelError, CodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(_render(args.command, config, rows), config)
    return status


if __name__ == "__main__":
    sys.exit(main())
