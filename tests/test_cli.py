import argparse
import csv
import dataclasses
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import concatqec
from concatqec import cli, ensemble
from concatqec.cli import COLUMNS, SCHEMA_VERSION, main
from concatqec.reference import ReferenceCell, exact_cells, sampled_cells

DEP_LEVEL0 = 6.309654163841059e-2

#: The one name of each way a value is obtained, in every subcommand's rows.
METHODS = {"exact", "mc", "unoptimized"}


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    reader = list(csv.reader(body))
    header, rows = reader[0], reader[1:]
    rows = [dict(zip(header, r)) for r in rows]
    assert {r["method"] for r in rows} <= METHODS
    return comments, header, rows


def _non_standard(token):
    raise ValueError(f"{token} is not JSON")


def parse_json(text):
    """RFC 8259 JSON, which has no NaN or Infinity (jq and JSON.parse reject them)."""
    return json.loads(text, parse_constant=_non_standard)


def test_entropy_level0_noiseless(capsys):
    code, out, _ = run(capsys, "entropy", "--family", "depolarizing", "--p", "0")
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == list(COLUMNS["entropy"])
    assert comments[0] == f"# schema_version={SCHEMA_VERSION}"
    assert comments[1] == "# command=entropy"
    assert comments[2].startswith("# config=")
    assert rows[0]["entropy"] == "0"
    assert rows[0]["method"] == "exact"


def test_entropy_level0_maximal(capsys):
    code, out, _ = run(capsys, "entropy", "--family", "indep-flips",
                       "--p", "0.5")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows[0]["entropy"] == "2"


def test_json_schema(capsys):
    code, out, _ = run(capsys, "entropy", "--family", "indep-flips",
                       "--p", "0.5", "--format", "json")
    assert code == 0
    doc = parse_json(out)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["command"] == "entropy"
    assert doc["config"]["family"] == "indep-flips"
    assert doc["results"][0]["entropy"] == 2
    # one sample has an infinite standard error: null in JSON, inf in CSV
    argv = ("entropy", "--code", "rep3", "--family", "depolarizing", "--p", "0.05",
            "--levels", "2", "--method", "mc", "--samples", "1")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert parse_json(out)["results"][0]["std_error"] is None
    assert parse_csv(run(capsys, *argv)[1])[2][0]["std_error"] == "inf"


def test_threshold_level0_ten_digits(capsys):
    code, out, _ = run(capsys, "threshold", "--family", "depolarizing",
                       "--levels", "0", "--tol", "1e-12")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == list(COLUMNS["threshold"])
    assert rows[0]["p_star"] == "0.06309654164"  # %.10g of the true root
    assert float(rows[0]["p_star"]) == pytest.approx(DEP_LEVEL0, abs=1e-9)
    assert rows[0]["method"] == "exact"
    assert rows[0]["samples"] == ""  # not a sampled result
    assert rows[0]["uncertainty"] == "0"


def test_threshold_series_rows(capsys):
    code, out, _ = run(capsys, "threshold", "--code", "rep3",
                       "--family", "depolarizing", "--levels", "1",
                       "--tol", "1e-8")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [r["level"] for r in rows] == ["0", "1"]
    assert all(r["method"] == "exact" for r in rows)


def test_threshold_level0_exact_under_mc(capsys):
    code, out, _ = run(capsys, "threshold", "--family", "depolarizing",
                       "--method", "mc", "--code", "rep3", "--levels", "2",
                       "--samples", "2000")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [r["method"] for r in rows] == (
        ["exact"] + ["mc"] * (len(rows) - 1))
    assert float(rows[0]["p_star"]) == pytest.approx(DEP_LEVEL0, abs=1e-10)


@pytest.mark.parametrize("samples", ["1", "2", "3"])
def test_degenerate_monte_carlo_fit_exits_1(capsys, samples):
    # one sample has an infinite standard error; two or three equal
    # entropies have a zero one, not a round-off one
    code, out, err = run(capsys, "threshold", "--code", "rep3", "--family",
                         "depolarizing", "--levels", "1", "--method", "mc",
                         "--samples", samples)
    assert code == 1
    assert out == ""
    assert err.startswith("error: the Monte Carlo fit near p = ")
    assert err.count("\n") == 1


def test_threshold_unoptimized(capsys):
    code, out, _ = run(capsys, "threshold", "--code", "five-qubit",
                       "--family", "depolarizing", "--unoptimized",
                       "--tol", "1e-8")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows[0]["level"] == "-1"
    assert rows[0]["method"] == "unoptimized"
    assert float(rows[0]["p_star"]) == pytest.approx(4.58758548e-2, abs=1e-6)


def test_byte_identical_reruns(tmp_path, capsys):
    args = ("entropy", "--code", "rep3", "--family", "depolarizing",
            "--p", "0.06", "--levels", "2", "--method", "mc",
            "--samples", "500", "--seed", "3")
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert capsys.readouterr().out == ""  # --out silences stdout
    raw_a, raw_b = a.read_bytes(), b.read_bytes()
    # headers echo the out path, so compare the data rows
    strip = lambda raw: [l for l in raw.split(b"\n") if not l.startswith(b"#")]
    assert strip(raw_a) == strip(raw_b)
    assert main([*args[:-1], "4", "--out", str(c)]) == 0  # different seed
    assert strip(c.read_bytes()) != strip(raw_a)


MC_ENTROPY = ("entropy", "--code", "rep3", "--family", "depolarizing", "--p", "0.06",
              "--levels", "2", "--method", "mc")


def threads_warning(threads, workers):
    return f"--threads {threads}: at most {workers} worker threads run, one per Monte Carlo stream"


@pytest.mark.parametrize("samples,threads,workers", [
    (500, 9, 8), (3, 4, 3),  # more threads than streams: warned
    (500, 8, None), (3, 3, None),
])
def test_threads_above_the_streams_warn(capsys, caplog, monkeypatch, samples, threads,
                                        workers):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # no BLAS warning
    args = (*MC_ENTROPY, "--samples", str(samples))
    with caplog.at_level(logging.WARNING, logger="concatqec"):
        code, out, _ = run(capsys, *args, "--threads", str(threads))
    assert code == 0
    warned = [r.getMessage() for r in caplog.records if r.name == "concatqec"]
    assert warned == ([threads_warning(threads, workers)] if workers else [])
    # the output is a one-thread run's, but for the echoed thread count
    _, one, _ = run(capsys, *args)
    assert out.replace(f'"threads": {threads}}}', '"threads": 1}') == one


def test_threads_warning_goes_to_stderr():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = os.path.dirname(os.path.dirname(os.path.abspath(concatqec.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "concatqec.cli", *MC_ENTROPY, "--samples", "500",
         "--threads", "9"], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert proc.stderr == threads_warning(9, 8) + "\n"
    assert parse_csv(proc.stdout)[2][0]["samples"] == "500"


@pytest.mark.parametrize("blas,threads,warned", [
    ({}, 2, True),
    ({var: "2" for var in cli._BLAS_THREADS}, 2, True),
    ({}, 1, False),  # one worker thread
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, False),
    ({"OMP_NUM_THREADS": "1"}, 2, False),
    ({"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 2, False),
])
def test_threads_on_an_unpinned_blas_warn(capsys, caplog, monkeypatch, blas, threads,
                                          warned):
    for var in cli._BLAS_THREADS:
        monkeypatch.delenv(var, raising=False)
    for var, value in blas.items():
        monkeypatch.setenv(var, value)
    args = (*MC_ENTROPY, "--samples", "500")
    with caplog.at_level(logging.WARNING, logger="concatqec"):
        code, out, _ = run(capsys, *args, "--threads", str(threads))
    assert code == 0
    assert [r.getMessage() for r in caplog.records if r.name == "concatqec"] == (
        [f"--threads {threads}: BLAS is not pinned to one thread, so the worker threads "
         "compete for cores; set OPENBLAS_NUM_THREADS=1"] if warned else [])
    _, one, _ = run(capsys, *args)
    assert out.replace(f'"threads": {threads}}}', '"threads": 1}') == one


def test_mc_row_reports_samples_and_seed(capsys, monkeypatch):
    # under auto, level 2 of rep3 exceeds a budget of 4 assignments and falls back
    for method, budget in (("mc", ensemble.BUDGET), ("auto", 4)):
        monkeypatch.setattr(ensemble, "BUDGET", budget)
        code, out, _ = run(capsys, "entropy", "--code", "rep3", "--family",
                           "depolarizing", "--p", "0.06", "--levels", "2",
                           "--method", method, "--samples", "400", "--seed", "6")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0]["method"] == "mc"
        assert rows[0]["samples"] == "400"
        assert rows[0]["seed"] == "6"
        assert float(rows[0]["std_error"]) > 0.0


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "depolarizing", "p": 0.1}))
    code, out, _ = run(capsys, "entropy", "--config", str(cfg))
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows[0]["family"] == "depolarizing"
    assert float(rows[0]["entropy"]) > 0.0
    # explicit flag beats the file value
    code, out, _ = run(capsys, "entropy", "--config", str(cfg), "--p", "0")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows[0]["entropy"] == "0"


def test_config_env_var(tmp_path, capsys, monkeypatch):
    # a run's inputs are its argv: the environment names no config file
    argv = ("reproduce-tables", "--levels", "3", "--dry-run")
    plain = run(capsys, *argv)
    cfg = tmp_path / "env.json"
    cfg.write_text(json.dumps({"samples": 400}))
    monkeypatch.setenv("CONCATQEC_CONFIG", str(cfg))
    assert run(capsys, *argv) == plain
    assert '"samples": 100000' in plain[1]


def test_result_file_round_trips_as_config(tmp_path, capsys):
    first = tmp_path / "first.json"
    again = tmp_path / "again.json"
    base = ("threshold", "--family", "depolarizing", "--levels", "0",
            "--tol", "1e-10", "--format", "json")
    assert main([*base, "--out", str(first)]) == 0
    assert main(["threshold", "--config", str(first),
                 "--out", str(again)]) == 0
    doc1 = parse_json(first.read_text())
    doc2 = parse_json(again.read_text())
    assert doc1["results"] == doc2["results"]
    assert doc2["config"]["tol"] == 1e-10


def test_usage_errors_exit_2(tmp_path, capsys):
    cases = [
        ["entropy", "--family", "nope", "--p", "0.1"],
        ["entropy", "--family", "depolarizing"],  # missing --p
        ["entropy", "--family", "depolarizing", "--p", "0.1", "--levels", "1"],
        ["threshold", "--family", "depolarizing", "--levels", "2"],
        ["threshold", "--family", "depolarizing", "--tol", "0"],
        ["entropy", "--code", "rep3", "--family", "depolarizing", "--p", "0.1",
         "--levels", "1", "--seed", "-1"],
        ["entropy", "--no-such-flag"],
        ["no-such-command"],
        # flags a subcommand does not read
        ["entropy", "--family", "depolarizing", "--p", "0.1", "--tol", "1e-8"],
        ["entropy", "--family", "depolarizing", "--p", "0.1",
         "--target-entropy", "0.5"],
        ["threshold", "--family", "depolarizing", "--p", "0.1"],
        ["reproduce-tables", "--code", "steane"],
        ["reproduce-tables", "--family", "depolarizing"],
        ["reproduce-tables", "--p", "0.1"],
        ["reproduce-tables", "--method", "mc"],
        ["reproduce-tables", "--target-entropy", "0.5"],
        ["reproduce-tables", "--with-mc"],
        # values outside their valid range
        ["entropy", "--family", "depolarizing", "--p", "0.5"],
        ["entropy", "--family", "depolarizing", "--p", "-0.1"],
        ["entropy", "--family", "depolarizing", "--p", "nan"],
        ["threshold", "--family", "depolarizing", "--target-entropy", "nan"],
        ["threshold", "--family", "depolarizing", "--target-entropy", "inf"],
        ["threshold", "--family", "depolarizing", "--levels", "-1"],
        ["threshold", "--code", "rep3", "--family", "depolarizing", "--levels", "1",
         "--samples", "0"],
        ["threshold", "--code", "rep3", "--family", "depolarizing", "--levels", "1",
         "--threads", "0"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        capsys.readouterr()
    bad = tmp_path / "bad.json"
    for values, argv, named in [
        ({"familly": "depolarizing"}, ["entropy", "--p", "0.1"], "'familly'"),
        # only a config file gets a value outside the choices to the checks
        ({"method": "bogus"}, ["threshold", "--code", "rep3", "--family", "depolarizing",
                               "--levels", "1"], "'bogus'"),
        ({"format": "xml"}, ["entropy", "--family", "depolarizing", "--p", "0.1"], "'xml'"),
    ]:
        bad.write_text(json.dumps(values))
        with pytest.raises(SystemExit) as info:
            main([*argv, "--config", str(bad)])
        assert info.value.code == 2
        assert named in capsys.readouterr().err
    # a result file of the removed deep-cell switch names its key
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"config": {"with_mc": False}}))
    with pytest.raises(SystemExit) as info:
        main(["reproduce-tables", "--config", str(stale)])
    assert info.value.code == 2
    assert "'with_mc'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["entropy", "--config", str(tmp_path / "missing.json"),
              "--p", "0.1"])
    assert info.value.code == 2
    capsys.readouterr()


UNOPTIMIZED = ("threshold", "--code", "five-qubit", "--family", "depolarizing",
               "--unoptimized", "--tol", "1e-6")

ENTROPY = ("entropy", "--family", "depolarizing", "--p", "0.1")
THRESHOLD = ("threshold", "--family", "depolarizing", "--tol", "1e-6")
LEVEL1 = ("--code", "rep3", "--levels", "1")
EXACT = ("--method", "exact")
SAMPLING = ("--samples", "500", "--seed", "3", "--threads", "2")

#: The run kinds: the argv of a cheap run, and the fields that run reads.  A
#: run reads the sampling fields only if it can sample, and a method only
#: above level 0; the plain kinds run at level 0, and the kinds that can
#: sample set sampling fields.
RUN_KINDS = {
    "entropy": (ENTROPY, "code family p levels format out"),
    "entropy --method exact": (ENTROPY + LEVEL1 + EXACT,
                               "code family p levels method format out"),
    "entropy --levels 1": (ENTROPY + LEVEL1 + SAMPLING, "code family p levels method "
                           "samples seed format out threads"),
    "threshold": (THRESHOLD, "code family levels target_entropy tol format out unoptimized"),
    "threshold --method exact": (THRESHOLD + LEVEL1 + EXACT,
                                 "code family levels method target_entropy tol "
                                 "format out unoptimized"),
    "threshold --levels 1": (THRESHOLD + LEVEL1 + SAMPLING,
                             "code family levels method samples seed target_entropy tol "
                             "format out threads unoptimized"),
    "threshold --unoptimized": (UNOPTIMIZED, "code family tol format out unoptimized"),
    "reproduce-tables": (("reproduce-tables", "--dry-run"), "levels tol format out dry_run"),
    "reproduce-tables --levels 3": (("reproduce-tables", "--dry-run", "--levels", "3",
                                     "--samples", "9"),
                                    "levels samples seed tol format out threads dry_run"),
}

#: The threshold settings the blind map's fixed point does not read.
IGNORED_BY_UNOPTIMIZED = {"levels": 5, "method": "mc", "samples": 7, "seed": 1,
                          "target_entropy": 0.3, "threads": 2}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", RUN_KINDS)
def test_header_echoes_the_fields_the_run_reads(capsys, kind, fmt):
    argv, reads = RUN_KINDS[kind]
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    if fmt == "json":
        echoed = parse_json(out)["config"]
    else:
        echoed = parse_json(parse_csv(out)[0][2].removeprefix("# config="))
    assert sorted(echoed) == sorted(reads.split())


@pytest.mark.parametrize("kind", RUN_KINDS)
def test_result_file_of_all_fields_at_default_replays(tmp_path, capsys, kind):
    # result files used to echo every RunConfig field; the unread ones held
    # their defaults, so those files still replay to the same data rows
    argv, _ = RUN_KINDS[kind]
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    assert main([*argv, "--format", "json", "--out", str(first)]) == 0
    doc = parse_json(first.read_text())
    doc["config"] = {**dataclasses.asdict(cli.RunConfig()), **doc["config"]}
    assert len(doc["config"]) == 14
    first.write_text(json.dumps(doc))
    assert main([argv[0], "--config", str(first), "--out", str(again)]) == 0
    assert parse_json(again.read_text())["results"] == doc["results"]


#: Runs whose engine path leaves settings unread: the run's name in the
#: error, its argv, and the settings, given below as flags or as config keys.
PATH_UNREAD = {
    "threshold-exact": ("threshold --method exact",
                        ("threshold", "--code", "five-qubit", "--family", "depolarizing",
                         "--levels", "1", "--method", "exact"),
                        {"samples": 7, "seed": 3, "threads": 2}),
    "entropy-level0": ("entropy --levels 0", ENTROPY, {"method": "mc", "samples": 9}),
    "threshold-level0": ("threshold --levels 0", THRESHOLD, {"method": "mc"}),
    "reproduce-tables-level2": ("reproduce-tables --levels 2",
                                ("reproduce-tables", "--levels", "2"),
                                {"samples": 9, "threads": 2}),
}


def _unread_cases():
    for field, value in IGNORED_BY_UNOPTIMIZED.items():
        flag = "--" + field.replace("_", "-")
        yield pytest.param(UNOPTIMIZED + (flag, str(value)), {}, [field],
                           "threshold --unoptimized", id=f"unoptimized-flag-{field}")
        yield pytest.param(UNOPTIMIZED, {field: value}, [field],
                           "threshold --unoptimized", id=f"unoptimized-config-{field}")
    yield pytest.param(
        UNOPTIMIZED + ("--levels", "5", "--method", "mc", "--samples", "7",
                       "--target-entropy", "0.3"), {},
        ["levels", "method", "samples", "target_entropy"], "threshold --unoptimized",
        id="unoptimized-four-flags")
    yield pytest.param(UNOPTIMIZED, {"dry_run": True, "p": 0.1}, ["p", "dry_run"],
                       "threshold --unoptimized", id="unoptimized-config")
    yield pytest.param(
        ("entropy", "--code", "five-qubit", "--family", "depolarizing", "--p", "0.06",
         "--levels", "1"),
        {"tol": 0.5, "target_entropy": 3.0, "unoptimized": True, "dry_run": True},
        ["target_entropy", "tol", "unoptimized", "dry_run"], "entropy", id="entropy-config")
    yield pytest.param(RUN_KINDS["threshold"][0], {"p": 0.1, "dry_run": True},
                       ["p", "dry_run"], "threshold --levels 0", id="threshold-config")
    yield pytest.param(RUN_KINDS["reproduce-tables"][0],
                       {"code": "steane", "method": "mc", "unoptimized": True},
                       ["code", "method", "unoptimized"], "reproduce-tables --levels 0",
                       id="reproduce-tables-config")
    for name, (run_name, argv, values) in PATH_UNREAD.items():
        flags = tuple(x for k, v in values.items() for x in ("--" + k, str(v)))
        yield pytest.param(argv + flags, {}, list(values), run_name, id=f"{name}-flags")
        yield pytest.param(argv, values, list(values), run_name, id=f"{name}-config")


@pytest.mark.parametrize("argv, values, named, run_name", _unread_cases())
def test_unread_field_away_from_default_exits_2(tmp_path, capsys, argv, values, named,
                                                run_name):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    with pytest.raises(SystemExit) as info:
        main([*argv, "--config", str(cfg)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {run_name} does not read " in err
    assert re.findall(r"'(\w+)'", err) == named


def test_readme_flag_table_matches_parser():
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    flags = {command: {a.dest: a for a in parser._actions if a.dest != "help"}
             for command, parser in subparsers.items()}
    unoptimized = cli._reads("threshold", cli.RunConfig(unoptimized=True))[1] + ["config"]
    flags["threshold --unoptimized"] = {
        dest: a for dest, a in flags["threshold"].items() if dest in unoptimized}
    columns = ["entropy", "threshold", "threshold --unoptimized", "reproduce-tables"]
    assert sorted(flags) == sorted(columns)
    expected = ["| flag | " + " | ".join(f"`{c}`" for c in columns) + " |",
                "|---" * (len(columns) + 1) + "|"]
    for dest in [f.name for f in dataclasses.fields(cli.RunConfig)] + ["config"]:
        action = next(f[dest] for f in flags.values() if dest in f)
        choices = " " + "\\|".join(action.choices) if action.choices else ""
        cells = [f"`{action.option_strings[0]}{choices}`"]
        cells += ["yes" if dest in flags[c] else "" for c in columns]
        expected.append("|" + "|".join(f" {c} " if c else " " for c in cells) + "|")
    readme = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = readme.index(expected[0])
    assert readme[start:start + len(expected)] == expected
    assert not readme[start + len(expected)].startswith("|")
    # --unoptimized names the flags it reads
    help_ = flags["threshold"]["unoptimized"].help
    assert re.findall(r"--[\w-]+", help_) == [
        "--" + d.replace("_", "-") for d in unoptimized if d not in ("unoptimized", "config")]


# the first key of each config holds the value of the wrong type
@pytest.mark.parametrize("values", [
    {"levels": "2", "family": "depolarizing"},
    {"levels": 1.5, "code": "rep3", "family": "depolarizing"},
    {"samples": 1.5},
    {"seed": True},
    {"unoptimized": "yes"},
    {"tol": "x"},
])
def test_config_file_value_of_wrong_type_exits_2(tmp_path, capsys, values):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    with pytest.raises(SystemExit) as info:
        main(["threshold", "--config", str(cfg)])
    assert info.value.code == 2
    bad_key = next(iter(values))
    assert repr(bad_key) in capsys.readouterr().err


def test_exact_entropy_over_budget_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(ensemble, "BUDGET", 4)
    code, out, err = run(capsys, "entropy", "--code", "rep3", "--family",
                         "depolarizing", "--p", "0.06", "--levels", "2",
                         "--method", "exact")
    assert code == 1
    assert out == ""
    assert err.startswith("error: exact level needs ")


def test_no_crossing_exits_1(capsys):
    code, out, err = run(capsys, "threshold", "--family", "depolarizing",
                         "--levels", "0", "--target-entropy", "1.9")
    assert code == 1
    assert out == ""
    assert "no crossing of target 1.9 bits" in err


def test_degenerate_crossing_exits_1(capsys):
    # level 4 of rep3 depolarizing is 1 bit within round-off over its bracket
    code, out, err = run(capsys, "threshold", "--code", "rep3", "--family",
                         "depolarizing", "--levels", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("error: no crossing of target 1.0 bits in [0.0536870912, ")


def test_reproduce_tables_dry_run(capsys):
    code, out, _ = run(capsys, "reproduce-tables", "--dry-run")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == list(COLUMNS["reproduce-tables"])
    assert len(rows) == 17
    assert all(r["status"] == "planned" for r in rows)
    assert all(r["computed"] == "" for r in rows)
    assert {r["code"] for r in rows} == {"five-qubit", "steane"}


def test_reproduce_tables_out_creates_missing_directory(capsys, tmp_path):
    path = tmp_path / "new" / "tables.csv"
    code, out, _ = run(capsys, "reproduce-tables", "--dry-run", "--out", str(path))
    assert code == 0
    assert out == ""
    _, header, rows = parse_csv(path.read_text())
    assert header == list(COLUMNS["reproduce-tables"])
    assert len(rows) == 17


def test_reproduce_tables_fails_a_cell_outside_tolerance(capsys, monkeypatch):
    # the computed table is checked cell by cell in tests/test_acceptance.py
    # and in CI; here only the pass/FAIL rule and the exit code
    level0 = next(c for c in exact_cells() if c.level == 0)
    unoptimized = next(c for c in exact_cells() if c.level == -1)
    shifted = dataclasses.replace(level0, p_star=level0.p_star * (1 + 1e-6))
    monkeypatch.setattr(cli, "exact_cells", lambda: [level0, unoptimized, shifted])
    code, out, _ = run(capsys, "reproduce-tables")
    assert code == 1
    _, _, rows = parse_csv(out)
    assert [r["status"] for r in rows] == ["pass", "pass", "FAIL"]
    assert [r["method"] for r in rows] == ["exact", "unoptimized", "exact"]


def test_reproduce_tables_plan_methods_are_the_run_methods(capsys, monkeypatch):
    cells = [ReferenceCell("rep3", "depolarizing", -1, 0.0),
             ReferenceCell("rep3", "depolarizing", 1, 0.06)]
    monkeypatch.setattr(cli, "exact_cells", lambda: cells)
    monkeypatch.setattr(cli, "sampled_cells", lambda: [
        ReferenceCell("rep3", "depolarizing", 2, 0.06, sigma=1e-4)])
    argv = ("reproduce-tables", "--levels", "2", "--samples", "1000")
    plan = parse_csv(run(capsys, *argv, "--dry-run")[1])[2]
    done = parse_csv(run(capsys, *argv)[1])[2]
    assert all(r["computed"] for r in done)  # the cells ran; their values are made up
    assert [r["method"] for r in plan] == [r["method"] for r in done] == [
        "unoptimized", "exact", "mc"]


@pytest.mark.parametrize("levels", [3, 7])
def test_reproduce_tables_dry_run_sampled_cells(capsys, levels):
    code, out, _ = run(capsys, "reproduce-tables", "--dry-run",
                       "--levels", str(levels))
    assert code == 0
    _, _, rows = parse_csv(out)
    sampled = rows[len(exact_cells()):]
    assert len(sampled) == sum(c.level <= levels for c in sampled_cells())
    assert max(int(r["level"]) for r in sampled) == levels
    assert all(r["method"] == "mc" for r in sampled)


def test_reproduce_tables_dry_run_plans_exact_level3_cell(capsys):
    # the five-qubit depolarizing level-3 cell is quoted exact and runs exact
    code, out, _ = run(capsys, "reproduce-tables", "--dry-run", "--levels", "7")
    assert code == 0
    _, _, rows = parse_csv(out)
    row, = [r for r in rows if (r["code"], r["family"], r["level"])
            == ("five-qubit", "depolarizing", "3")]
    assert row["method"] == "exact"
    assert row["note"] == "exact enumeration, seconds"
