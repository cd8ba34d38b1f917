"""Integration tests for the chaos campaign driver and the ``repro
chaos`` CLI: outcome taxonomy, deterministic replay, schedule
persistence, and exit codes."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.chaos import (replay_schedule, run_chaos, run_one,
                         verify_replay)
from repro.cli import main
from repro.faults import FaultPlan, load_schedule, save_schedule

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from conftest import (PRODUCER_CONSUMER_SOURCE, TSTACK_SOURCE,  # noqa: E402
                      assert_well_typed)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestRunOne:
    def test_no_faults_is_clean(self):
        outcome = run_one(TSTACK_SOURCE, FaultPlan(seed=0, rate=0.0),
                          label="tstack")
        assert outcome.status == "clean"
        assert outcome.ok
        assert outcome.faults == []
        assert outcome.cycles > 0

    def test_faulty_run_is_recovered_or_diagnosed(self):
        outcome = run_one(TSTACK_SOURCE, FaultPlan(seed=3, rate=0.5),
                          label="tstack")
        assert outcome.status in ("recovered", "diagnosed")
        assert outcome.ok
        if outcome.status == "diagnosed":
            assert outcome.error is not None
            assert outcome.error["type"]

    def test_fault_count_matches_stats(self):
        outcome = run_one(TSTACK_SOURCE, FaultPlan(seed=5, rate=0.3),
                          label="tstack")
        assert outcome.summary["faults_injected"] == len(outcome.faults)

    def test_same_plan_same_identity(self):
        plan = FaultPlan(seed=17, rate=0.25)
        first = run_one(TSTACK_SOURCE, plan, label="tstack")
        second = run_one(TSTACK_SOURCE, plan, label="tstack")
        assert first.identity() == second.identity()


class TestVerifyReplay:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_replay_matches_recording(self, seed):
        analyzed = assert_well_typed(TSTACK_SOURCE)
        plan = FaultPlan(seed=seed, rate=0.3)
        baseline = run_one(analyzed, plan, label="tstack")
        assert verify_replay(analyzed, plan, baseline) == []

    def test_replay_of_threaded_program_matches(self):
        analyzed = assert_well_typed(PRODUCER_CONSUMER_SOURCE)
        plan = FaultPlan(seed=2, rate=0.05)
        baseline = run_one(analyzed, plan, label="pc")
        assert verify_replay(analyzed, plan, baseline) == []


class TestCampaign:
    def test_campaign_report_and_schedules(self, tmp_path):
        schedule_dir = str(tmp_path / "schedules")
        import os
        os.makedirs(schedule_dir)
        report = run_chaos([("tstack", TSTACK_SOURCE)], seeds=[0, 1, 2],
                           plan=FaultPlan(rate=0.2),
                           schedule_dir=schedule_dir)
        assert report["ok"], report["failures"]
        assert report["runs"] == 3
        assert sum(report["statuses"].values()) == 3
        for entry in report["results"]:
            assert entry["replay_ok"]
            assert Path(entry["schedule"]).exists()

    def test_persisted_schedule_replays_standalone(self, tmp_path):
        schedule_dir = str(tmp_path)
        report = run_chaos([("tstack", TSTACK_SOURCE)], seeds=[4],
                           plan=FaultPlan(rate=0.4), verify=False,
                           schedule_dir=schedule_dir)
        path = report["results"][0]["schedule"]
        result = replay_schedule(path)
        assert result["ok"], result["mismatches"]
        assert result["outcome"].status == \
            report["results"][0]["status"]

    def test_schedule_without_source_needs_explicit_program(
            self, tmp_path):
        path = str(tmp_path / "bare.schedule.jsonl")
        save_schedule(path, FaultPlan(seed=0, rate=0.0), [])
        with pytest.raises(ValueError, match="no program source"):
            replay_schedule(path)
        # an explicitly passed program fills the gap
        result = replay_schedule(path, source=TSTACK_SOURCE)
        assert result["ok"]

    def test_schedule_meta_identifies_the_run(self, tmp_path):
        report = run_chaos([("tstack", TSTACK_SOURCE)], seeds=[6],
                           plan=FaultPlan(rate=0.3), verify=False,
                           schedule_dir=str(tmp_path))
        plan, records, meta = load_schedule(
            report["results"][0]["schedule"])
        assert plan.seed == 6
        assert meta["program"] == "tstack"
        assert meta["source"] == TSTACK_SOURCE
        assert len(records) == report["results"][0]["faults"]


class TestChaosCli:
    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "prog.rtj"
        path.write_text(TSTACK_SOURCE)
        return str(path)

    def test_campaign_exit_zero(self, program_file):
        code, out, err = run_cli("chaos", program_file, "--seeds", "2",
                                 "--rate", "0.2")
        assert code == 0
        assert "2 runs:" in err

    def test_json_report(self, program_file):
        code, out, _err = run_cli("chaos", program_file, "--seeds", "1",
                                  "--rate", "0.1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["ok"]
        assert report["runs"] == 1

    def test_unknown_site_rejected(self, program_file):
        code, _out, err = run_cli("chaos", program_file, "--sites",
                                  "bogus")
        assert code == 1
        assert "unknown fault site" in err

    def test_schedule_out_and_replay(self, program_file, tmp_path):
        sched_dir = str(tmp_path / "schedules")
        code, _out, _err = run_cli(
            "chaos", program_file, "--seeds", "1", "--seed-base", "3",
            "--rate", "0.4", "--schedule-out", sched_dir)
        assert code == 0
        schedules = list(Path(sched_dir).glob("*.schedule.jsonl"))
        assert len(schedules) == 1
        code, out, _err = run_cli("chaos", "--replay",
                                  str(schedules[0]))
        assert code == 0
        assert "replayed" in out and "status=" in out

    def test_driver_script_without_embedded_program_is_skipped(
            self, tmp_path):
        script = tmp_path / "driver.py"
        script.write_text("print('no embedded program here')\n")
        code, _out, err = run_cli("chaos", str(script), "--seeds", "1")
        assert "skipping" in err
        assert code != 0  # empty corpus is an error, not a silent pass


class TestReplayCli:
    """``repro chaos --replay``: bad files end in one line and exit 1,
    a tampered identity exits 4, and the committed v1 fixture
    replays."""

    FIXTURE = (Path(__file__).resolve().parent.parent / "data"
               / "schedule_v1_runtime.jsonl")

    def _one_line_error(self, *argv):
        code, _out, err = run_cli("chaos", *argv)
        assert code == 1
        assert err.startswith("invalid fault schedule: ")
        assert len(err.strip().splitlines()) == 1
        return err

    def test_missing_file(self, tmp_path):
        err = self._one_line_error("--replay",
                                   str(tmp_path / "absent.jsonl"))
        assert "cannot read" in err

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.schedule.jsonl"
        path.write_text("")
        assert "empty fault schedule" in self._one_line_error(
            "--replay", str(path))

    def test_sourceless_schedule_takes_the_program_argument(
            self, tmp_path):
        path = tmp_path / "bare.schedule.jsonl"
        save_schedule(str(path), FaultPlan(seed=0, rate=0.0), [])
        err = self._one_line_error("--replay", str(path))
        assert "repro chaos --replay FILE PROGRAM" in err
        program = tmp_path / "prog.rtj"
        program.write_text(TSTACK_SOURCE)
        code, out, _err = run_cli("chaos", "--replay", str(path),
                                  str(program))
        assert code == 0
        assert "status=clean" in out

    def test_tampered_identity_exits_4(self, tmp_path):
        report = run_chaos([("tstack", TSTACK_SOURCE)], seeds=[4],
                           plan=FaultPlan(rate=0.4), verify=False,
                           schedule_dir=str(tmp_path))
        path = Path(report["results"][0]["schedule"])
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["meta"]["identity"]["cycles"] += 1
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        code, _out, err = run_cli("chaos", "--replay", str(path))
        assert code == 4
        assert "replay mismatch: cycles: recorded" in err

    def test_v1_fixture_replays(self):
        code, out, err = run_cli("chaos", "--replay", str(self.FIXTURE))
        assert code == 0, err
        assert "replayed 2 fault(s), status=recovered" in out

    def test_tampered_serve_identity_is_a_violation(self, tmp_path):
        # a serve schedule whose recorded first status no replay can
        # produce: the verdict, not only the exit code, says violation
        lines = (self.FIXTURE.parent / "schedule_v1_serve.jsonl"
                 ).read_text().splitlines()
        header = json.loads(lines[0])
        header["meta"]["identity"]["statuses"][0] = 599
        path = tmp_path / "tampered.schedule.jsonl"
        path.write_text("\n".join([json.dumps(header)] + lines[1:])
                        + "\n")
        code, out, err = run_cli("chaos", "--replay", str(path), "--json")
        assert code == 4
        report = json.loads(out)
        assert report["status"] == "violation"
        assert report["ok"] is False and report["replay_ok"] is False
        assert report["mismatches"] == [
            "statuses[0]: recorded 599 != replayed 200"]
        assert "replay mismatch: statuses[0]" in err


class TestPlanValidationCli:
    @pytest.mark.parametrize("rate", ["nan", "inf", "-1", "1.5"])
    def test_rate_outside_unit_interval_exits_1(self, tmp_path, rate):
        program = tmp_path / "prog.rtj"
        program.write_text(TSTACK_SOURCE)
        code, out, err = run_cli("chaos", str(program), "--seeds", "1",
                                 "--rate", rate)
        assert code == 1
        assert err.startswith("error: fault rate")
        assert out == ""
