"""Integration tests for the flight recorder + ``repro inspect``:
ledger exactness against ``Stats.summary()``, cycle neutrality of
recording, leak detection on a real program, the CLI surface, and the
chaos auto-dump + schedule join."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.bench.suite import get_benchmark
from repro.chaos import run_chaos
from repro.cli import main
from repro.core.api import analyze
from repro.interp.machine import Machine, RunOptions
from repro.obs.analyze import build_report, join_faults
from repro.obs.flightrec import load_flight, validate_flight
from repro.faults import FaultPlan, load_schedule

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from conftest import PRODUCER_CONSUMER_SOURCE  # noqa: E402

LEAK_SOURCE = """
class Node {
    int v;
    Node<immortal> next;
}
class Main {
    int run(int n) accesses immortal {
        Node<immortal> head = null;
        int i = 0;
        while (i < n) {
            Node<immortal> node = new Node<immortal>;
            node.v = i;
            node.next = head;
            head = node;
            i = i + 1;
        }
        return head.v;
    }
}
{
    Main m = new Main;
    print(m.run(16));
}
"""


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _run_recorded(source, dynamic):
    machine = Machine(analyze(source).require_well_typed(),
                      RunOptions(checks_enabled=dynamic, record=True))
    machine.run()
    return machine


class TestLedgerExactness:
    @pytest.mark.parametrize("name", ["Array", "Tree"])
    @pytest.mark.parametrize("dynamic", [True, False])
    def test_ledger_matches_stats_summary_exactly(self, name, dynamic):
        source = get_benchmark(name).source(fast=True)
        machine = _run_recorded(source, dynamic)
        summary = machine.stats.summary()
        header = machine.recorder.header(
            meta={"mode": "dynamic" if dynamic else "static",
                  "summary": summary})
        report = build_report(header, machine.recorder.records())
        assert report.mismatches == []
        ledger = report.ledger
        if dynamic:
            assert ledger["performed"]["assign"] \
                == summary["assignment_checks"]
            assert ledger["performed"]["read"] == summary["read_checks"]
            assert ledger["check_cycles"]["total"] \
                == summary["check_cycles"]
        else:
            # static mode performs nothing; every check is credited as
            # elided with the exact cycles the dynamic build would pay
            assert ledger["performed"]["total"] == 0
            assert summary["assignment_checks"] == 0

    @pytest.mark.parametrize("name", ["Array", "Tree"])
    def test_static_elisions_mirror_dynamic_checks(self, name):
        source = get_benchmark(name).source(fast=True)
        dyn = _run_recorded(source, dynamic=True).recorder
        sta = _run_recorded(source, dynamic=False).recorder
        performed = dyn.check_totals.get("check-assign", [0, 0])
        elided = sta.check_totals.get("check-elide-assign", [0, 0])
        assert performed == elided
        performed_r = dyn.check_totals.get("check-read", [0, 0])
        elided_r = sta.check_totals.get("check-elide-read", [0, 0])
        assert performed_r == elided_r


class TestCycleNeutrality:
    @pytest.mark.parametrize("name", ["Array", "Tree"])
    @pytest.mark.parametrize("dynamic", [True, False])
    def test_recording_never_changes_cycles_or_output(self, name,
                                                      dynamic):
        source = get_benchmark(name).source(fast=True)
        analyzed = analyze(source).require_well_typed()
        plain = Machine(analyzed, RunOptions(checks_enabled=dynamic))
        recorded = Machine(analyzed, RunOptions(checks_enabled=dynamic,
                                                record=True))
        r_plain, r_rec = plain.run(), recorded.run()
        assert r_plain.cycles == r_rec.cycles
        assert r_plain.output == r_rec.output
        assert plain.recorder is None
        assert recorded.recorder.total > 0

    def test_threaded_program_is_cycle_neutral(self):
        analyzed = analyze(
            PRODUCER_CONSUMER_SOURCE).require_well_typed()
        plain = Machine(analyzed, RunOptions(checks_enabled=True))
        recorded = Machine(analyzed, RunOptions(checks_enabled=True,
                                                record=True))
        assert plain.run().cycles == recorded.run().cycles


class TestLeakDetection:
    def test_leaky_program_is_flagged(self):
        machine = _run_recorded(LEAK_SOURCE, dynamic=True)
        header = machine.recorder.header(
            meta={"mode": "dynamic", "summary": machine.stats.summary()})
        report = build_report(header, machine.recorder.records())
        assert [s.name for s in report.suspects] == ["immortal"]
        assert report.regions["immortal"].leak_suspect
        assert "LEAK SUSPECT" in report.format()

    def test_well_behaved_program_is_not_flagged(self):
        machine = _run_recorded(PRODUCER_CONSUMER_SOURCE, dynamic=True)
        header = machine.recorder.header(
            meta={"mode": "dynamic", "summary": machine.stats.summary()})
        report = build_report(header, machine.recorder.records())
        assert report.suspects == []


class TestInspectCLI:
    @pytest.fixture
    def dumps(self, tmp_path):
        program = tmp_path / "array.repro"
        program.write_text(get_benchmark("Array").source(fast=True))
        dyn = tmp_path / "dyn.flight.jsonl"
        sta = tmp_path / "static.flight.jsonl"
        code, _, _ = run_cli("run", str(program), "--dynamic-checks",
                             "--record-out", str(dyn))
        assert code == 0
        code, _, _ = run_cli("run", str(program),
                             "--record-out", str(sta))
        assert code == 0
        return dyn, sta

    def test_dump_is_valid_and_meta_carries_summary(self, dumps):
        dyn, _ = dumps
        header, records = load_flight(str(dyn))
        assert validate_flight(header, records) == []
        meta = header["meta"]
        assert meta["mode"] == "dynamic"
        assert meta["summary"]["assignment_checks"] > 0

    def test_text_report(self, dumps):
        dyn, _ = dumps
        code, out, err = run_cli("inspect", str(dyn))
        assert code == 0, err
        assert "check-elimination ledger" in out
        assert "regions (by peak live bytes)" in out

    def test_ledger_and_figure12_compare(self, dumps):
        dyn, sta = dumps
        code, out, err = run_cli("inspect", str(dyn),
                                 "--compare", str(sta), "--ledger")
        assert code == 0, err
        assert "figure-12 comparison" in out
        assert "overhead x" in out

    def test_json_report(self, dumps):
        dyn, _ = dumps
        code, out, _ = run_cli("inspect", str(dyn), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["ledger"]["performed"]["total"] > 0
        assert data["ledger_mismatches"] == []
        assert data["regions"]

    def test_html_report(self, dumps, tmp_path):
        dyn, _ = dumps
        page = tmp_path / "report.html"
        code, _, err = run_cli("inspect", str(dyn), "--html", str(page))
        assert code == 0
        text = page.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "Check-elimination ledger" in text

    def test_invalid_dump_exits_1(self, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"schema": "not-a-flight-record/0"}\n')
        code, _, err = run_cli("inspect", str(bogus))
        assert code == 1
        assert "invalid flight record" in err

    @pytest.mark.parametrize("schedule", [
        Path(__file__).resolve().parent.parent / "data"
        / "schedule_v1_serve.jsonl",
        Path("absent.schedule.jsonl"),
    ], ids=["serve-target", "missing"])
    def test_bad_schedule_is_one_line_error(self, dumps, schedule):
        dyn, _ = dumps
        code, out, err = run_cli("inspect", str(dyn),
                                 "--schedule", str(schedule))
        assert code == 1
        assert out == ""
        assert err.startswith("invalid fault schedule: ")
        assert len(err.strip().splitlines()) == 1

    def test_tampered_summary_exits_2(self, dumps, tmp_path):
        dyn, _ = dumps
        lines = dyn.read_text().splitlines()
        header = json.loads(lines[0])
        header["meta"]["summary"]["assignment_checks"] += 1
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join([json.dumps(header)] + lines[1:])
                            + "\n")
        code, _, err = run_cli("inspect", str(tampered))
        assert code == 2
        assert "mismatch" in err


class TestChaosFlightDump:
    def test_failed_run_dumps_flight_next_to_schedule(self, tmp_path):
        report = run_chaos(
            [("pc", PRODUCER_CONSUMER_SOURCE)], seeds=[0],
            plan=FaultPlan(rate=1.0, sites=("thread_spawn",)),
            verify=False,
            schedule_dir=str(tmp_path))
        entry = report["results"][0]
        assert entry["status"] == "diagnosed"
        assert "flight" in entry, "failed run must auto-dump"
        flight = Path(entry["flight"])
        schedule = Path(entry["schedule"])
        assert flight.exists() and schedule.exists()
        assert flight.parent == schedule.parent
        header, records = load_flight(str(flight))
        assert validate_flight(header, records) == []
        assert header["meta"]["status"] == "diagnosed"
        assert header["meta"]["error"]["type"] == "ThreadSpawnError"

    def test_inspect_joins_schedule_to_flight(self, tmp_path):
        report = run_chaos(
            [("pc", PRODUCER_CONSUMER_SOURCE)], seeds=[0],
            plan=FaultPlan(rate=1.0, sites=("thread_spawn",)),
            verify=False,
            schedule_dir=str(tmp_path))
        entry = report["results"][0]
        code, out, err = run_cli("inspect", entry["flight"],
                                 "--schedule", entry["schedule"])
        assert code == 0, err
        assert "injected faults (schedule join)" in out
        assert "thread_spawn#" in out
        # and through the library: every fault maps to a reaction
        header, records = load_flight(entry["flight"])
        _, schedule, _ = load_schedule(entry["schedule"])
        joins = join_faults(records, schedule)
        assert joins
        assert all(j["matched"] for j in joins)
        assert any(j["outcome"].startswith(("recovered", "crashed"))
                   for j in joins)

    def test_clean_run_dumps_no_flight(self, tmp_path):
        report = run_chaos(
            [("pc", PRODUCER_CONSUMER_SOURCE)], seeds=[0],
            plan=FaultPlan(rate=0.0), verify=False,
            schedule_dir=str(tmp_path))
        entry = report["results"][0]
        assert entry["status"] == "clean"
        assert "flight" not in entry
        assert list(Path(str(tmp_path)).glob("*.flight.jsonl")) == []
