"""Unit coverage for the serve target of the shared fault core.

The service chaos story rests on two properties pinned here: a seeded
injector's fire sequence is a pure function of (plan, consult order),
and a replaying injector re-fires a recorded schedule at exactly the
same (site, seq) points.  Serve schedules must round-trip and their
``target`` header must route ``repro chaos --replay`` to the service
engine.  :mod:`tests.unit.test_faults` checks the same core for both
targets at once; this file keeps the serve-specific pins (site names,
``stall_ms``/``spike_ms`` magnitudes, header routing).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.faults import (TARGETS, FaultInjector, FaultPlan, FaultRecord,
                          ScheduleError, fault_key, load_schedule,
                          save_schedule)

SERVICE_FAULT_SITES = TARGETS["serve"].sites


def _plan(**kwargs):
    return FaultPlan(target="serve", **kwargs)


def _drive(injector, consults=200):
    """A fixed consult pattern: every site once per round."""
    fired = []
    for i in range(consults):
        for site in SERVICE_FAULT_SITES:
            if injector.fire(site, detail=f"round {i}"):
                fired.append(site)
    return fired


class TestPlan:

    def test_unknown_sites_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            _plan(rates={"gc_pause_spike": 0.5})
        with pytest.raises(ValueError, match="unknown fault site"):
            _plan(sites=("worker_crash", "nope"))

    def test_rate_for_honors_site_filter_and_overrides(self):
        plan = _plan(rate=0.5, rates={"worker_stall": 0.1},
                     sites=("worker_crash", "worker_stall"))
        assert plan.rate_for("worker_crash") == 0.5
        assert plan.rate_for("worker_stall") == 0.1
        assert plan.rate_for("cache_corrupt") == 0.0

    def test_plan_round_trips_through_dict(self):
        plan = _plan(seed=7, rate=0.2, rates={"pipe_write": 0.9},
                     sites=("pipe_write",), max_faults=3,
                     magnitudes={"stall_ms": 1234.0, "spike_ms": 5.0})
        assert FaultPlan.from_dict(plan.to_dict(), "serve") == plan


class TestSeededInjector:

    def test_same_seed_same_schedule(self):
        plan = _plan(seed=11, rate=0.15)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        assert _drive(a) == _drive(b)
        assert fault_key(a.injected) == fault_key(b.injected)
        assert a.injected  # the rate is high enough to fire

    def test_different_seeds_diverge(self):
        a = FaultInjector(_plan(seed=1, rate=0.15))
        b = FaultInjector(_plan(seed=2, rate=0.15))
        _drive(a), _drive(b)
        assert fault_key(a.injected) != fault_key(b.injected)

    def test_zero_rate_still_advances_consult_counters(self):
        # sites with rate 0 must keep counting consults, or replay
        # alignment breaks the moment a plan disables one site
        injector = FaultInjector(_plan(rate=0.0))
        _drive(injector, consults=3)
        assert injector.injected == []
        assert all(injector.site_counts[s] == 3
                   for s in SERVICE_FAULT_SITES)

    def test_max_faults_caps_the_schedule(self):
        injector = FaultInjector(_plan(seed=3, rate=0.9, max_faults=4))
        _drive(injector)
        assert len(injector.injected) == 4

    def test_counts_groups_by_site(self):
        injector = FaultInjector(_plan(seed=5, rate=0.2))
        _drive(injector)
        counts = injector.counts()
        assert sum(counts.values()) == len(injector.injected)
        assert set(counts) == set(SERVICE_FAULT_SITES)


class TestReplayInjector:

    def test_replay_refires_exactly(self):
        plan = _plan(seed=23, rate=0.12)
        recorded = FaultInjector(plan)
        _drive(recorded)
        replay = FaultInjector(plan, replay=recorded.injected)
        _drive(replay)
        assert fault_key(replay.injected) == fault_key(recorded.injected)
        assert replay.counts() == recorded.counts()

    def test_replay_ignores_extra_consults(self):
        plan = _plan(seed=23, rate=0.12)
        recorded = FaultInjector(plan)
        _drive(recorded)
        replay = FaultInjector(plan, replay=recorded.injected)
        _drive(replay, consults=400)  # twice the recorded traffic
        assert fault_key(replay.injected) == fault_key(recorded.injected)

    def test_replay_exposes_plan_magnitudes(self):
        plan = _plan(magnitudes={"stall_ms": 999.0, "spike_ms": 7.0})
        replay = FaultInjector(plan, replay=[])
        assert replay.plan.magnitudes["stall_ms"] == 999.0
        assert replay.plan.magnitudes["spike_ms"] == 7.0


class TestSchedulePersistence:

    def test_round_trip(self, tmp_path):
        plan = _plan(seed=4, rate=0.3, rates={"worker_crash": 0.5})
        injector = FaultInjector(plan)
        _drive(injector, consults=50)
        path = str(tmp_path / "serve.schedule.jsonl")
        save_schedule(path, plan, injector.injected,
                      meta={"requests": 50})
        loaded_plan, records, meta = load_schedule(path, target="serve")
        assert loaded_plan == plan
        assert fault_key(records) == fault_key(injector.injected)
        assert meta == {"requests": 50}

    def test_peek_target_routes_serve_schedules(self, tmp_path):
        # the header names the target, so a replay that does not say
        # which engine to use still lands on the service
        path = str(tmp_path / "serve.schedule.jsonl")
        save_schedule(path, _plan(), [])
        header = json.loads(Path(path).read_text().splitlines()[0])
        assert header["target"] == "serve"
        assert load_schedule(path)[0].target == "serve"

    def test_peek_target_defaults_runtime_for_legacy_headers(
            self, tmp_path):
        # rtsj schedules predate the target field; they must keep
        # routing to the runtime replay engine
        path = tmp_path / "runtime.schedule.jsonl"
        path.write_text(json.dumps({"version": 1, "plan": {}}) + "\n")
        assert load_schedule(str(path))[0].target == "runtime"

    def test_load_rejects_runtime_schedules(self, tmp_path):
        path = tmp_path / "runtime.schedule.jsonl"
        path.write_text(json.dumps({"version": 1, "plan": {}}) + "\n")
        with pytest.raises(ScheduleError,
                           match="is a runtime schedule, not a serve"):
            load_schedule(str(path), target="serve")

    def test_load_rejects_future_versions(self, tmp_path):
        path = tmp_path / "future.schedule.jsonl"
        path.write_text(json.dumps({"version": 2, "target": "serve",
                                    "plan": {}}) + "\n")
        with pytest.raises(ScheduleError, match="version"):
            load_schedule(str(path))

    def test_records_round_trip_through_dicts(self):
        record = FaultRecord(index=0, site="worker_crash", seq=3,
                             detail="dispatch 7")
        assert FaultRecord.from_dict(record.to_dict()) == record
