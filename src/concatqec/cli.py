"""Command-line front end.

Three subcommands: ``entropy`` evaluates the mean conditional entropy of a
configured channel or ensemble, ``threshold`` locates critical noise
parameters per concatenation level, and ``reproduce-tables`` recomputes the
bundled reference tables and reports per-cell pass/fail; ``--levels N`` adds
the sampled cells up to level N, run by Monte Carlo.

Each run reads one list of RunConfig fields (``_reads``): its subcommand's
flags, less ``samples``, ``seed`` and ``threads`` where it cannot sample and
less ``method`` at level 0.  Flags and JSON config-file keys (``--config``;
flags win) may move only those from their defaults, and the output header
echoes only those.  Output is CSV (fixed column order) or strict JSON
(versioned schema; a non-finite value is ``null``); identical configurations
and seeds produce byte-identical files.  Exit codes: 0 success, 1 computation
or comparison failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

from .channels import ChannelError, NOISE_FAMILIES, noise_family
from .codes import CodeError, builtin_codes, get_code
from .ensemble import BudgetExceeded
from .montecarlo import mc_concatenate
from .reference import ReferenceCell, exact_cells, sampled_cells
from .thresholds import (
    NoStraddle, _by_method, _exact_entropy, entropy_critical_p, threshold_series,
    unoptimized_threshold)

__all__ = ["main", "RunConfig"]

SCHEMA_VERSION = 2

#: Streams of a Monte Carlo call, the most worker threads that run on it.
_STREAMS = inspect.signature(mc_concatenate).parameters["streams"].default

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
    """Resolved options of one CLI run; the header echoes the ones it reads."""

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
    dry_run: bool = False


class UsageError(Exception):
    """Configuration problem; reported with the offending field."""


#: Exact JSON types a config-file value may take, by RunConfig annotation.
_FILE_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}


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
    defaults = asdict(RunConfig())
    merged = dict(defaults)
    if path := args.config:
        file_values = _load_config_file(path)
        known = {f.name: (f.type.split(" |")[0], f.default) for f in fields(RunConfig)}
        for key, value in file_values.items():
            if key == "command":
                continue
            if key not in known:
                raise UsageError(f"unknown config key {key!r} in {path}")
            kind, default = known[key]
            if type(value) not in _FILE_TYPES[kind] and not (value is None and default is None):
                raise UsageError(f"config key {key!r} in {path} must be {kind}, "
                                 f"not {json.dumps(value)}")
            merged[key] = value
    merged.update((k, v) for k, v in vars(args).items() if k in merged and v is not None)
    config = RunConfig(**merged)
    run, reads = _reads(args.command, config)
    unread = [repr(k) for k, v in merged.items() if k not in reads and v != defaults[k]]
    if unread:
        raise UsageError(f"{run} does not read {', '.join(unread)}; leave them at default")
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
    if not math.isfinite(config.target_entropy):
        raise UsageError("--target-entropy must be finite")
    if command == "entropy":
        if config.p is None:
            raise UsageError("entropy requires --p")
        cap = NOISE_FAMILIES[config.family][1]
        if not 0.0 <= config.p <= cap:
            raise UsageError(f"--p must be in [0, {cap:.10g}] for {config.family}")
    if (command != "reproduce-tables" and config.code is None
            and (config.levels > 0 or config.unoptimized)):
        raise UsageError(f"{command} above level 0 requires --code")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    if value is None:
        return ""
    return str(value)


def _json_safe(value):
    if isinstance(value, float):
        return float(f"{value:.10g}") if math.isfinite(value) else None
    return value


def _render(command: str, config: RunConfig, rows: list[dict]) -> str:
    columns = COLUMNS[command]
    echo = {k: _json_safe(getattr(config, k)) for k in _reads(command, config)[1]}
    if config.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": echo,
            "results": [
                {k: _json_safe(row.get(k)) for k in columns} for row in rows
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    buf = io.StringIO()
    buf.write(f"# schema_version={SCHEMA_VERSION}\n")
    buf.write(f"# command={command}\n")
    buf.write(f"# config={json.dumps(echo, sort_keys=True, allow_nan=False)}\n")
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
    code = get_code(config.code) if config.code else None

    def exact() -> dict:
        return dict(method="exact", entropy=_exact_entropy(code, noise, config.levels),
                    std_error=0.0)

    def mc() -> dict:
        est = mc_concatenate(code, noise, config.levels, config.samples,
                             seed=config.seed, threads=config.threads)
        return dict(method="mc", entropy=est.mean_entropy, std_error=est.std_error,
                    samples=est.samples, seed=config.seed)

    row = dict(code=config.code, family=config.family, p=config.p, level=config.levels)
    return [{**row, **_by_method(config.method, config.levels, exact, mc)}], 0


def _point_row(cp, config: RunConfig) -> dict:
    row = asdict(cp)
    if cp.method == "mc":  # only a sampled row has samples and a seed
        row.update(samples=config.samples, seed=config.seed)
    return row


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
    if cell.exact:
        return "exact", "exact enumeration, seconds"
    return "mc", f"~{config.samples} samples x {cell.level} levels"


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
            code, cell.family, cell.level, tol=config.tol, method=method,
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
    cells = exact_cells() + [c for c in sampled_cells() if c.level <= config.levels]
    rows = [_run_cell(cell, config) for cell in cells]
    failed = any(row["status"] == "FAIL" for row in rows)
    return rows, 1 if failed else 0


#: argparse settings of each flag, keyed by the RunConfig field it sets.
_FLAGS = {
    "code": dict(help="builtin code name"),
    "family": dict(help="noise family name"),
    "p": dict(type=float, help="noise parameter"),
    "levels": dict(type=int),
    "method": dict(choices=("exact", "mc", "auto")),
    "samples": dict(type=int, help="Monte Carlo sample count"),
    "seed": dict(type=int, help="Monte Carlo seed"),
    "target_entropy": dict(type=float, help="entropy crossing target in bits"),
    "tol": dict(type=float, help="root bracket width tolerance"),
    "format": dict(choices=("csv", "json")),
    "out": dict(help="output path (default: stdout)"),
    "threads": dict(type=int, help=(
        "Monte Carlo worker threads, at most the 8 streams at once; exact runs use one. "
        "Pin BLAS to one thread (OPENBLAS_NUM_THREADS=1), or two can be slower than one")),
    "unoptimized": dict(action="store_const", const=True, help=(
        "blind-map fixed point; reads only --code --family --tol --format --out")),
    "dry_run": dict(action="store_const", const=True,
                    help="list planned cells, compute nothing"),
}

#: Per subcommand: its handler, its help, its --levels help, the fields it registers.
_SUBCOMMANDS = {
    "entropy": (_cmd_entropy, "mean conditional entropy", "concatenation levels",
                "code family p levels method samples seed format out threads"),
    "threshold": (_cmd_threshold, "critical noise parameters",
                  "one row per level, 0 to this one",
                  "code family levels method samples seed target_entropy tol "
                  "format out threads unoptimized"),
    "reproduce-tables": (_cmd_reproduce_tables, "recompute the bundled reference tables",
                         "also run the sampled cells up to this level (default 0: none)",
                         "levels samples seed tol format out threads dry_run"),
}


def _reads(command: str, config: RunConfig) -> tuple[str, list[str]]:
    """The run's name and the fields it reads, accepts away from default and echoes.

    A run that cannot sample reads no sampling fields, and a level-0 run, exact
    under every method, reads no method.  A dry run reads what it plans.
    """
    if command == "threshold" and config.unoptimized:  # no level, no sampling
        return "threshold --unoptimized", "code family tol format out unoptimized".split()
    names, sampling = _SUBCOMMANDS[command][3].split(), ["samples", "seed", "threads"]
    first = min(c.level for c in sampled_cells()) if command == "reproduce-tables" else 1
    if config.levels < first:
        run, unread = f"{command} --levels {config.levels}", ["method", *sampling]
    elif config.method == "exact" and "method" in names:
        run, unread = f"{command} --method exact", sampling
    else:
        return command, names
    return run, [n for n in names if n not in unread]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concatqec",
        description="Entropy thresholds of adaptively concatenated stabilizer codes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_, levels_help, names) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_)
        p.add_argument("--config", help="JSON config file of option values")
        for name in names.split():
            flag = dict(_FLAGS[name], help=levels_help) if name == "levels" else _FLAGS[name]
            p.add_argument("--" + name.replace("_", "-"), dest=name, **flag)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
    if config.threads > (workers := min(_STREAMS, config.samples)):
        logging.getLogger("concatqec").warning(
            "--threads %d: at most %d worker threads run, one per Monte Carlo stream",
            config.threads, workers)
    try:
        rows, status = _SUBCOMMANDS[args.command][0](config)
    except (NoStraddle, BudgetExceeded, ChannelError, CodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(_render(args.command, config, rows), config)
    return status


if __name__ == "__main__":
    sys.exit(main())
