"""The one bench judge: ``repro bench --compare`` and ``repro report``
must print the same failure lines for the same payload, the committed
``BENCH_*.json`` files must be well-formed ``repro-bench/2`` payloads,
and files written before that format are refused in one line."""

import io
import json
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.bench import codegen, frontend, serve, serve_chaos, timing
from repro.bench.compare import (SCHEMA, failures, judge, key,
                                 load_payload, save_payload)
from repro.cli import main
from repro.obs.report import BASELINE_FILES, build_report
from repro.obs.telemetry import TelemetryStore, make_envelope

ROOT = pathlib.Path(__file__).parent.parent.parent

SUITES = {"interp": timing, "frontend": frontend, "codegen": codegen,
          "serve": serve, "serve-chaos": serve_chaos}

#: a payload as a suite wrote it before repro-bench/2
OLD_PAYLOAD = {"schema": "repro-bench-interp/1", "benchmarks": {}}


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def committed(suite):
    return load_payload(str(ROOT / BASELINE_FILES[suite]))


#: what a ``change`` returns to delete the row
DELETE = object()


def edited(suite, row_key, change):
    """The committed payload of ``suite`` with one row changed (or
    deleted, when ``change`` returns ``DELETE``)."""
    payload = committed(suite)
    rows = []
    for r in payload["rows"]:
        if key(r) == row_key:
            value = change(r)
            if value is DELETE:
                continue
            r["value"] = value
        rows.append(r)
    assert len(rows) + 1 >= len(payload["rows"])
    payload["rows"] = rows
    return payload


def both_paths(monkeypatch, tmp_path, suite, current):
    """Failure lines and exit codes of ``bench --compare`` (the suite's
    measurement replaced by ``current``) and of ``report --current``
    over an empty store."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(SUITES[suite], "measure",
                        lambda *_a, **_k: json.loads(json.dumps(current)))
    bench_code, _out, bench_err = run_cli(
        "bench", "--suite", suite, "--compare", BASELINE_FILES[suite])
    path = tmp_path / "current.json"
    save_payload(current, str(path))
    report_code, _out, report_err = run_cli(
        "report", "--store", str(tmp_path / "empty-store"),
        "--current", str(path))

    def gate_lines(err):
        return [line for line in err.splitlines() if " gate: " in line]

    return ((bench_code, gate_lines(bench_err)),
            (report_code, gate_lines(report_err)))


def _broken(r):
    value = r["value"]
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return "0" * len(value)
    return value + 1


def _out_of_bounds(r):
    if "min" in r:
        return False if isinstance(r["min"], bool) else r["min"] - 1
    return r["max"] + 1


def _one_of_each_kind(suite):
    """(kind, row key, change) for each judgment kind ``suite`` has."""
    rows = committed(suite)["rows"]
    picks = []
    for kind, wanted, change in (
            ("exact", lambda r: r.get("judge") == "exact", _broken),
            ("wall", lambda r: r.get("judge") == "wall",
             lambda r: r["value"] * 3 + 1.0),
            ("bound", lambda r: "min" in r or "max" in r, _out_of_bounds),
            ("deleted", lambda r: "judge" in r and r["backend"] != "c",
             lambda r: DELETE)):
        found = [r for r in rows if wanted(r)]
        if found:
            picks.append((kind, key(found[0]), change))
    return picks


EDITS = [(suite, kind, row_key, change)
         for suite in SUITES
         for kind, row_key, change in _one_of_each_kind(suite)]


@pytest.mark.parametrize(
    "suite,kind,row_key,change", EDITS,
    ids=[f"{suite}-{kind}" for suite, kind, _k, _c in EDITS])
def test_bench_and_report_agree_on_each_judgment(monkeypatch, tmp_path,
                                                 suite, kind, row_key,
                                                 change):
    bench, report = both_paths(monkeypatch, tmp_path, suite,
                               edited(suite, row_key, change))
    assert bench == report
    code, lines = bench
    assert code == 3 and lines, (suite, kind)


def test_bench_and_report_agree_on_a_divergence(monkeypatch, tmp_path):
    payload = committed("codegen")
    payload["divergences"] = ["Array/static/py: cycles 1 -> 2"]
    bench, report = both_paths(monkeypatch, tmp_path, "codegen", payload)
    assert bench == report == (3, [
        "codegen gate: Array/static/py: cycles 1 -> 2"])


@pytest.mark.parametrize("suite,row_key,change,fails", [
    # C wall time follows the host's toolchain: never judged
    ("codegen", ("Array", "static", "c", "wall_s"),
     lambda r: r["value"] * 5, False),
    ("codegen", ("Array", "static", "interp", "wall_s"),
     lambda r: r["value"] * 2, True),
    # warm throughput is judged only against its floor
    ("serve", ("warm", None, None, "req_s"), lambda r: 2000.0, False),
    ("serve", ("warm", None, None, "req_s"), lambda r: 900.0, True),
    ("frontend", ("size 40", None, None, "warm_speedup"),
     lambda r: 1.0, True),
    ("serve-chaos", ("campaign", None, None, "requested"),
     lambda r: r["value"] + 1, True),
    ("interp", ("Array", "static", "interp", "output_sha256"),
     lambda r: "0" * 64, True),
], ids=["codegen-c-wall", "codegen-interp-wall", "serve-req-s-2000",
        "serve-req-s-900", "frontend-warm-speedup", "chaos-requested",
        "interp-sha"])
def test_single_field_edits_get_one_verdict(monkeypatch, tmp_path, suite,
                                            row_key, change, fails):
    bench, report = both_paths(monkeypatch, tmp_path, suite,
                               edited(suite, row_key, change))
    assert bench == report
    code, lines = bench
    assert (code, bool(lines)) == ((3, True) if fails else (0, False))


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_committed_payload_is_well_formed(suite):
    payload = committed(suite)
    assert payload["schema"] == SCHEMA and payload["suite"] == suite
    assert set(payload) == {"schema", "suite", "meta", "rows",
                            "baseline", "divergences"}
    keys = [key(r) for r in payload["rows"]]
    assert len(keys) == len(set(keys))
    assert failures(judge(payload, payload)) == []


class TestPayloadsWrittenBeforeTheRowFormat:
    def test_report_skips_old_store_envelopes(self, tmp_path):
        store = TelemetryStore(str(tmp_path / "store"))
        store.append(make_envelope(
            "bench", created_at=1.0, git_sha="",
            bench={"suite": "interp", "payload": OLD_PAYLOAD}))
        report = build_report(store, baselines={
            "interp": committed("interp")})
        assert report["skipped_envelopes"] == 1 and report["ok"]
        code, _out, err = run_cli(
            "report", "--store", str(tmp_path / "store"),
            "--baseline", str(ROOT / "BENCH_interp.json"))
        assert code == 0
        assert "skipped 1 recorded bench envelope(s)" in err

    @pytest.mark.parametrize("content", [OLD_PAYLOAD, {"schema": SCHEMA}],
                             ids=["old-schema", "no-rows"])
    @pytest.mark.parametrize("argv", [
        ("bench", "--compare"),
        ("report", "--baseline"),
        ("report", "--current"),
    ], ids=["bench-compare", "report-baseline", "report-current"])
    def test_old_payload_file_is_one_error_line(self, tmp_path, argv,
                                                content):
        old = tmp_path / "old.json"
        old.write_text(json.dumps(content))
        code, _out, err = run_cli(*argv, str(old), *(
            ("--store", str(tmp_path / "store"))
            if argv[0] == "report" else ()))
        assert code == 1
        (line,) = err.splitlines()
        assert line.startswith("error: ") and SCHEMA in line

    def test_compare_file_of_another_suite_is_one_error_line(self):
        code, _out, err = run_cli(
            "bench", "--suite", "frontend",
            "--compare", str(ROOT / "BENCH_interp.json"))
        assert code == 1
        (line,) = err.splitlines()
        assert line.endswith("holds the interp suite, not frontend")
