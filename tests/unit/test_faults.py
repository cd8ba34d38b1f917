"""One fault suite for both targets of the shared fault core
(:mod:`repro.faults`): plans, the seeded and replaying injector, and
schedule files.  Every behaviour is checked for the runtime target and
the serve target alike; the two v1 schedule fixtures under
``tests/data`` pin the on-disk format."""

from __future__ import annotations

import io
import json
import sys
import threading
from pathlib import Path

import pytest

from repro import RunOptions, analyze
from repro.faults import (TARGETS, FaultInjector, FaultPlan, FaultRecord,
                          ScheduleError, fault_key, identity_diff,
                          load_schedule, save_schedule, write_schedule)
from repro.interp.machine import Machine
from repro.rtsj.faults import RecoveryPolicy

DATA = Path(__file__).resolve().parent.parent / "data"
RUNTIME_FIXTURE = DATA / "schedule_v1_runtime.jsonl"
SERVE_FIXTURE = DATA / "schedule_v1_serve.jsonl"

#: a non-default value for every magnitude of each target
OVERRIDES = {"runtime": {"gc_spike_factor": 16},
             "serve": {"stall_ms": 1234.0, "spike_ms": 5.0}}


def _sites(target):
    return TARGETS[target].sites


def _drive(injector, consults=200):
    """Consult every site of the injector's target round-robin
    ``consults`` times; returns the schedule."""
    for i in range(consults):
        for site in _sites(injector.plan.target):
            injector.fire(site, f"consult-{i}")
    return list(injector.injected)


class TestFaultPlan:
    def test_unknown_site_in_rates_rejected(self):
        for target in TARGETS:
            with pytest.raises(ValueError, match="unknown fault site"):
                FaultPlan(rates={"bogus_site": 0.5}, target=target)
        # each target's sites are unknown to the other one
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(rates={"gc_pause_spike": 0.5}, target="serve")
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(rates={"worker_crash": 0.5})

    def test_unknown_site_in_filter_rejected(self):
        for target in TARGETS:
            with pytest.raises(ValueError, match="unknown fault site"):
                FaultPlan(sites=(_sites(target)[0], "nope"),
                          target=target)

    def test_rate_for_respects_filter_and_overrides(self):
        for target in TARGETS:
            a, b, c = _sites(target)[:3]
            plan = FaultPlan(rate=0.1, rates={b: 0.9}, sites=(a, b),
                             target=target)
            assert plan.rate_for(a) == 0.1
            assert plan.rate_for(b) == 0.9
            # filtered out entirely
            assert plan.rate_for(c) == 0.0

    def test_dict_roundtrip(self):
        for target in TARGETS:
            site = _sites(target)[0]
            plan = FaultPlan(seed=7, rate=0.25, rates={site: 1.0},
                             sites=(site,), max_faults=3,
                             magnitudes=OVERRIDES[target], target=target)
            assert FaultPlan.from_dict(plan.to_dict(), target) == plan

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"),
                                      float("-inf"), -1, -0.01, 1.5,
                                      "often", None])
    def test_rates_outside_unit_interval_rejected(self, rate):
        for target in TARGETS:
            with pytest.raises(ValueError, match="not a finite number"):
                FaultPlan(rate=rate, target=target)
            with pytest.raises(ValueError, match="not a finite number"):
                FaultPlan(rates={_sites(target)[0]: rate}, target=target)

    def test_negative_max_faults_rejected(self):
        for target in TARGETS:
            with pytest.raises(ValueError, match="max_faults"):
                FaultPlan(rate=1.0, max_faults=-3, target=target)
            # the unit-interval ends and a zero cap are all valid
            FaultPlan(rate=0, max_faults=0, target=target)
            FaultPlan(rate=1, target=target)

    def test_magnitudes_default_and_override(self):
        for target, spec in TARGETS.items():
            assert FaultPlan(target=target).magnitudes == \
                dict(spec.magnitudes)
            plan = FaultPlan(magnitudes=OVERRIDES[target], target=target)
            assert plan.magnitudes == OVERRIDES[target]
            with pytest.raises(ValueError, match="unknown magnitude"):
                FaultPlan(magnitudes={"bogus": 1}, target=target)

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown fault target"):
            FaultPlan(target="kernel")


class TestFaultInjector:
    def test_same_plan_same_schedule(self):
        for target in TARGETS:
            plan = FaultPlan(seed=42, rate=0.1, target=target)
            first = _drive(FaultInjector(plan))
            second = _drive(FaultInjector(plan))
            assert fault_key(first) == fault_key(second)
            assert first  # a 10% rate over 1000+ consults fires

    def test_different_seed_different_schedule(self):
        for target in TARGETS:
            a = _drive(FaultInjector(FaultPlan(seed=1, rate=0.1,
                                               target=target)))
            b = _drive(FaultInjector(FaultPlan(seed=2, rate=0.1,
                                               target=target)))
            assert fault_key(a) != fault_key(b)

    def test_zero_rate_never_fires_but_counts_consults(self):
        # sites with rate 0 must keep counting consults, or replay
        # alignment breaks the moment a plan disables one site
        for target in TARGETS:
            injector = FaultInjector(FaultPlan(seed=3, rate=0.0,
                                               target=target))
            assert not _drive(injector)
            assert injector.site_counts == dict.fromkeys(
                _sites(target), 200)

    def test_disabled_site_does_not_perturb_enabled_ones(self):
        # the PRNG draws only at enabled sites, so enabling an extra
        # site must not reshuffle decisions taken at the others
        for target in TARGETS:
            a, b = _sites(target)[:2]
            base = FaultPlan(seed=5, rate=0.2, sites=(a,), target=target)
            wider = FaultPlan(seed=5, rate=0.2, sites=(a, b),
                              target=target)

            def first_only(plan):
                injector = FaultInjector(plan)
                for _ in range(100):
                    injector.fire(a, "")
                return fault_key(injector.injected)

            assert first_only(base) == first_only(wider)

    def test_max_faults_caps_schedule(self):
        for target in TARGETS:
            for cap in (4, 0):
                injector = FaultInjector(FaultPlan(
                    seed=0, rate=1.0, max_faults=cap, target=target))
                _drive(injector, consults=10)
                assert len(injector.injected) == cap

    def test_records_carry_site_seq_and_detail(self):
        for target in TARGETS:
            a, b = _sites(target)[:2]
            injector = FaultInjector(FaultPlan(seed=0, rate=1.0,
                                               sites=(b,), target=target))
            injector.fire(a, "ignored")
            assert injector.fire(b, "detailA")
            record = injector.injected[0]
            assert (record.index, record.site, record.seq,
                    record.detail) == (0, b, 0, "detailA")

    def test_counts_groups_by_site(self):
        for target in TARGETS:
            injector = FaultInjector(FaultPlan(seed=5, rate=0.2,
                                               target=target))
            _drive(injector)
            counts = injector.counts()
            assert set(counts) == set(_sites(target))
            assert sum(counts.values()) == len(injector.injected)

    def test_fresh_copy_restarts_counters(self):
        for target in TARGETS:
            injector = FaultInjector(FaultPlan(seed=9, rate=0.3,
                                               target=target))
            recorded = _drive(injector)
            again = injector.fresh()
            assert again.plan == injector.plan
            assert not again.injected
            assert fault_key(_drive(again)) == fault_key(recorded)

    def test_every_machine_runs_fresh_counters(self):
        # one options object drives many runs: the injector it holds is
        # copied per Machine, never shared between them
        analyzed = analyze("""
            class Cell<Owner o> { int v; }
            (RHandle<r> h) {
                int i = 0;
                while (i < 40) { Cell<r> c = new Cell<r>; i = i + 1; }
                print(i);
            }""")
        assert not analyzed.errors
        options = RunOptions(fault_injector=FaultInjector(FaultPlan(
            seed=4, rate=0.5, sites=("gc_pause_spike", "vt_chunk"))),
            gc_trigger_bytes=64, degrade=True)
        runs = [Machine(analyzed, options) for _ in range(2)]
        for machine in runs:
            machine.run()
        first, second = (m.fault_injector for m in runs)
        assert first is not second
        assert first.injected
        assert fault_key(first.injected) == fault_key(second.injected)
        assert options.fault_injector.injected == []

    def test_concurrent_consults_keep_counters_coherent(self):
        # the service consults one injector from several dispatcher
        # threads; no consult or injection may be lost
        injector = FaultInjector(FaultPlan(seed=1, rate=0.3,
                                           target="serve"))
        threads, rounds = 8, 300
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=_drive,
                                        args=(injector, rounds))
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert injector.site_counts == dict.fromkeys(
            _sites("serve"), threads * rounds)
        assert [r.index for r in injector.injected] == \
            list(range(len(injector.injected)))
        per_site = {}
        for record in injector.injected:
            per_site.setdefault(record.site, []).append(record.seq)
        assert all(len(set(seqs)) == len(seqs)
                   for seqs in per_site.values())


class TestReplayInjector:
    def test_refires_exactly_the_recorded_schedule(self):
        for target in TARGETS:
            plan = FaultPlan(seed=11, rate=0.15, target=target)
            recorded = FaultInjector(plan)
            _drive(recorded)
            replay = FaultInjector(plan, replay=recorded.injected)
            _drive(replay)
            assert fault_key(replay.injected) == \
                fault_key(recorded.injected)
            assert replay.counts() == recorded.counts()

    def test_no_randomness_involved(self):
        for target in TARGETS:
            site = _sites(target)[0]
            records = [FaultRecord(index=0, site=site, seq=2)]
            replay = FaultInjector(FaultPlan(target=target),
                                   replay=records)
            assert not replay.fire(site)   # seq 0
            assert not replay.fire(site)   # seq 1
            assert replay.fire(site)       # seq 2: the recorded one
            assert not replay.fire(site)   # seq 3

    def test_replay_ignores_extra_consults(self):
        for target in TARGETS:
            plan = FaultPlan(seed=23, rate=0.12, target=target)
            recorded = FaultInjector(plan)
            _drive(recorded)
            replay = FaultInjector(plan, replay=recorded.injected)
            _drive(replay, consults=400)  # twice the recorded traffic
            assert fault_key(replay.injected) == \
                fault_key(recorded.injected)

    def test_replay_exposes_plan_magnitudes(self):
        for target in TARGETS:
            plan = FaultPlan(magnitudes=OVERRIDES[target], target=target)
            replay = FaultInjector(plan, replay=[])
            assert replay.plan.magnitudes == OVERRIDES[target]


class TestRecoveryPolicy:
    def test_backoff_is_exponential(self):
        policy = RecoveryPolicy(backoff_base=64)
        assert [policy.backoff_cycles(i) for i in range(4)] == \
            [64, 128, 256, 512]

    def test_backoff_shift_is_clamped(self):
        policy = RecoveryPolicy(backoff_base=1)
        assert policy.backoff_cycles(100) == 1 << 16


class TestSchedulePersistence:
    def test_roundtrip(self, tmp_path):
        for target in TARGETS:
            site = _sites(target)[0]
            plan = FaultPlan(seed=9, rate=0.5, sites=(site,),
                             magnitudes=OVERRIDES[target], target=target)
            records = _drive(FaultInjector(plan), consults=20)
            path = str(tmp_path / f"{target}.schedule.jsonl")
            save_schedule(path, plan, records,
                          meta={"program": "demo", "source": "x"})
            loaded_plan, loaded_records, meta = load_schedule(path)
            assert loaded_plan == plan
            assert loaded_records == records
            assert meta == {"program": "demo", "source": "x"}
            # the header names every target but the runtime, whose
            # headers predate the field
            header = json.loads(Path(path).read_text().splitlines()[0])
            assert header.get("target") == (
                None if target == "runtime" else target)

    def test_version_mismatch_rejected(self, tmp_path):
        for target in TARGETS:
            path = tmp_path / f"{target}.jsonl"
            path.write_text(json.dumps({"version": 99, "target": target,
                                        "plan": {}}) + "\n")
            with pytest.raises(ScheduleError,
                               match="unsupported schedule version"):
                load_schedule(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(ScheduleError, match="empty fault schedule"):
            load_schedule(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ScheduleError, match="cannot read"):
            load_schedule(str(tmp_path / "absent.jsonl"))

    @pytest.mark.parametrize("lines", [
        ["{not json"],
        [json.dumps({"version": 1, "target": "kernel", "plan": {}})],
        [json.dumps({"version": 1, "plan": {"rate": "NaN"}})],
        [json.dumps({"version": 1, "plan": {}}), '{"site": "lt_alloc"}'],
        [json.dumps({"version": 1, "plan": {}}),
         json.dumps({"index": 0, "site": "worker_crash", "seq": 0})],
    ], ids=["json", "target", "rate", "record", "record-site"])
    def test_malformed_file_rejected(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ScheduleError):
            load_schedule(str(path))

    def test_legacy_header_means_runtime(self, tmp_path):
        path = tmp_path / "legacy.schedule.jsonl"
        path.write_text(json.dumps({"version": 1, "plan": {}}) + "\n")
        plan, records, meta = load_schedule(str(path))
        assert plan.target == "runtime"
        assert (records, meta) == ([], {})

    def test_cross_target_load_rejected(self, tmp_path):
        for target in TARGETS:
            path = str(tmp_path / f"{target}.schedule.jsonl")
            save_schedule(path, FaultPlan(target=target), [])
            for other in set(TARGETS) - {target}:
                with pytest.raises(ScheduleError,
                                   match=f"is a {target} schedule"):
                    load_schedule(path, target=other)
            assert load_schedule(path, target=target)[0].target == target

    def test_records_round_trip_through_dicts(self):
        for target in TARGETS:
            record = FaultRecord(index=0, site=_sites(target)[-1], seq=3,
                                 detail="dispatch 7")
            assert FaultRecord.from_dict(record.to_dict()) == record

    @pytest.mark.parametrize("path,target,faults", [
        (RUNTIME_FIXTURE, "runtime", 2),
        (SERVE_FIXTURE, "serve", 12),
    ], ids=["runtime", "serve"])
    def test_v1_fixture_loads_and_rewrites_byte_for_byte(self, path,
                                                          target, faults):
        plan, records, meta = load_schedule(str(path))
        assert plan.target == target
        assert len(records) == faults
        assert meta["identity"]
        # the format did not move: writing the loaded schedule back
        # reproduces the fixture byte for byte
        out = io.StringIO()
        write_schedule(out, plan, records, meta)
        assert out.getvalue() == path.read_text()


class TestIdentityDiff:
    def test_equal_identities_have_no_mismatch(self):
        identity = {"faults": [("lt_alloc", 3)], "cycles": 10}
        assert identity_diff(identity, json.loads(json.dumps(
            identity))) == []

    def test_mismatches_name_the_key_and_first_differing_item(self):
        recorded = {"cycles": 2348, "statuses": [200, 200, 599],
                    "faults": [["lt_alloc", 3]]}
        replayed = {"cycles": 2347, "statuses": [200, 200, 200],
                    "faults": []}
        assert identity_diff(recorded, replayed) == [
            "cycles: recorded 2348 != replayed 2347",
            "statuses[2]: recorded 599 != replayed 200",
            "faults: recorded [['lt_alloc', 3]] != replayed []",
        ]
