"""Unit tests for the flight recorder: ring semantics, causal context,
aggregate counters, and the JSONL dump format."""

import io

import pytest

from repro.bench.suite import BENCHMARKS
from repro.interp.machine import RunOptions, run_source
from repro.obs import (FLIGHT_SCHEMA, FlightRecord, FlightRecorder,
                       dump_flight, load_flight, validate_flight)


class TestRing:
    def test_records_are_chronological_with_increasing_ids(self):
        rec = FlightRecorder(capacity=16)
        for i in range(5):
            rec.record("alloc", f"o{i}", cycle=i * 10)
        records = rec.records()
        assert [r.id for r in records] == [1, 2, 3, 4, 5]
        assert [r.cycle for r in records] == [0, 10, 20, 30, 40]
        assert rec.total == 5 and rec.stored == 5 and rec.dropped == 0

    def test_ring_evicts_oldest_first(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("alloc", f"o{i}", cycle=i)
        assert rec.total == 10
        assert rec.stored == 4
        assert rec.dropped == 6
        window = rec.records()
        assert [r.id for r in window] == [7, 8, 9, 10]
        assert [r.subject for r in window] == ["o6", "o7", "o8", "o9"]

    def test_kind_counts_survive_eviction(self):
        rec = FlightRecorder(capacity=2)
        for i in range(7):
            rec.record("alloc", "x", cycle=i)
        rec.record("gc", "y", cycle=99)
        assert rec.kind_counts == {"alloc": 7, "gc": 1}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestCausalContext:
    def test_parent_defaults_to_innermost_open_context(self):
        rec = FlightRecorder()
        root = rec.record("region-created", "r")
        enter = rec.push("region-enter", "r", thread="main")
        child = rec.record("alloc", "Obj -> r", thread="main")
        exit_id = rec.pop("region-exit", "r", thread="main")
        after = rec.record("gc", "z", thread="main")
        records = {r.id: r for r in rec.records()}
        assert records[root].parent == 0
        assert records[enter].parent == 0
        assert records[child].parent == enter
        assert records[exit_id].parent == enter
        assert records[after].parent == 0

    def test_nested_regions_nest_parents(self):
        rec = FlightRecorder()
        outer = rec.push("region-enter", "outer")
        inner = rec.push("region-enter", "inner")
        leaf = rec.record("alloc", "x")
        records = {r.id: r for r in rec.records()}
        assert records[inner].parent == outer
        assert records[leaf].parent == inner
        rec.pop("region-exit", "inner")
        sibling = rec.record("alloc", "y")
        assert {r.id: r for r in rec.records()}[sibling].parent == outer

    def test_seed_roots_a_thread_at_its_spawn_event(self):
        rec = FlightRecorder()
        spawn = rec.record("thread-spawned", "worker", thread="main")
        rec.seed("worker", spawn)
        first = rec.record("alloc", "x", thread="worker")
        assert {r.id: r for r in rec.records()}[first].parent == spawn

    def test_contexts_are_per_thread(self):
        rec = FlightRecorder()
        a = rec.push("region-enter", "ra", thread="a")
        b = rec.record("alloc", "x", thread="b")
        records = {r.id: r for r in rec.records()}
        assert records[b].parent == 0
        assert records[a].parent == 0


class TestAggregates:
    def test_check_totals_use_cycles_or_cycles_saved(self):
        rec = FlightRecorder(capacity=2)  # forces eviction
        for _ in range(5):
            rec.record("check-assign", "r", attrs={"cycles": 32})
        for _ in range(3):
            rec.record("check-elide-read", "r",
                       attrs={"cycles_saved": 8})
        assert rec.check_totals == {"check-assign": [5, 160],
                                    "check-elide-read": [3, 24]}

    def test_check_totals_view_site_totals(self):
        rec = FlightRecorder(capacity=2)
        rec.record("check-assign", "r", attrs={"cycles": 32, "line": 3})
        rec.record("check-assign", "s", attrs={"cycles": 36, "line": 4})
        rec.record("alloc", "A -> r", attrs={"bytes": 16, "region": "r",
                                             "line": 3})
        assert rec.site_totals == {("check-assign", 3, "r"): [1, 32],
                                   ("check-assign", 4, "s"): [1, 36],
                                   ("alloc", 3, "r"): [1, 16]}
        assert rec.check_totals == {"check-assign": [2, 68]}

    def test_evicting_sampled_run_keeps_exact_aggregates(self):
        source = BENCHMARKS["Tree"].source(fast=True)

        def recorder(**opts):
            return run_source(source, RunOptions(record=True, **opts)) \
                .stats.recorder

        thin = recorder(record_capacity=2, record_sample=8)
        full = recorder()
        assert thin.dropped > 0 and thin.sampled_out > 0
        assert full.dropped == 0 and full.sampled_out == 0
        assert {kind for kind, _line, _region in full.site_totals} \
            == {"alloc", "check-assign"}
        assert thin.site_totals == full.site_totals
        assert thin.check_totals == full.check_totals

    def test_bind_clock_stamps_cycles(self):
        class FakeStats:
            cycles = 1234
        rec = FlightRecorder()
        rec.bind_clock(FakeStats())
        rec.record("region-flushed", "r")
        assert rec.records()[0].cycle == 1234
        rec.record("region-flushed", "r", cycle=9)  # explicit wins
        assert rec.records()[1].cycle == 9


class TestDumpFormat:
    def _recorder(self):
        rec = FlightRecorder(capacity=8)
        rec.record("region-created", "r", cycle=1)
        eid = rec.push("region-enter", "r", cycle=2)
        rec.record("check-assign", "r", cycle=3, attrs={"cycles": 28})
        rec.pop("region-exit", "r", cycle=4)
        return rec, eid

    def test_dump_load_roundtrip(self):
        rec, _ = self._recorder()
        buf = io.StringIO()
        lines = dump_flight(rec, buf, meta={"mode": "dynamic"})
        assert lines == 1 + rec.stored
        buf.seek(0)
        header, records = load_flight(buf)
        assert header["schema"] == FLIGHT_SCHEMA
        assert header["total"] == rec.total
        assert header["kind_counts"] == rec.kind_counts
        assert header["check_totals"] == {"check-assign": [1, 28]}
        assert header["meta"] == {"mode": "dynamic"}
        assert [r.to_dict() for r in records] \
            == [r.to_dict() for r in rec.records()]

    def test_validate_accepts_real_dump(self):
        rec, _ = self._recorder()
        buf = io.StringIO()
        dump_flight(rec, buf)
        buf.seek(0)
        header, records = load_flight(buf)
        assert validate_flight(header, records) == []

    def test_load_rejects_wrong_schema(self):
        buf = io.StringIO('{"schema": "something-else/9"}\n')
        with pytest.raises(ValueError):
            load_flight(buf)

    def test_validate_flags_broken_invariants(self):
        header = {"schema": FLIGHT_SCHEMA, "stored": 2}
        good = FlightRecord(1, 0, 5, "main", "alloc", "x", None)
        assert validate_flight(header, [good])  # stored mismatch
        backwards = [good,
                     FlightRecord(2, 0, 3, "main", "alloc", "y", None)]
        assert any("back in time" in p
                   for p in validate_flight(header, backwards))
        acausal = [good,
                   FlightRecord(2, 2, 6, "main", "alloc", "y", None)]
        assert any("non-causal" in p
                   for p in validate_flight(header, acausal))


class TestSampling:
    """The 1-in-N always-on tier: thinned ring, exact aggregates."""

    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=8, sample=0)

    def test_aggregates_exact_while_ring_thins(self):
        rec = FlightRecorder(capacity=256, sample=4)
        for i in range(20):
            rec.record("check-assign", f"s{i}", cycle=i,
                       attrs={"cycles": 28})
        for i in range(13):
            rec.record("alloc", f"o{i}", cycle=100 + i)
        # aggregates count every event, sampled out or not
        assert rec.kind_counts == {"check-assign": 20, "alloc": 13}
        assert rec.check_totals == {"check-assign": [20, 20 * 28]}
        assert rec.events_seen == 33
        # ring stores 1-in-4 per kind: ceil(20/4) + ceil(13/4)
        assert rec.total == 5 + 4
        assert rec.sampled_out == 33 - 9

    def test_low_volume_kinds_never_sampled(self):
        rec = FlightRecorder(capacity=64, sample=100)
        for i in range(10):
            rec.record("region-created", f"r{i}", cycle=i)
            rec.record("gc", f"run{i}", cycle=i)
        assert rec.total == 20
        assert rec.sampled_out == 0

    def test_sampled_out_records_return_id_zero(self):
        rec = FlightRecorder(capacity=64, sample=2)
        ids = [rec.record("alloc", f"o{i}", cycle=i) for i in range(4)]
        assert ids[0] > 0 and ids[2] > 0
        assert ids[1] == 0 and ids[3] == 0

    def test_header_carries_sampling_fields(self):
        rec = FlightRecorder(capacity=64, sample=3)
        for i in range(7):
            rec.record("alloc", f"o{i}", cycle=i)
        header = rec.header()
        assert header["sample"] == 3
        assert header["events_seen"] == 7
        assert header["sampled_out"] == 4
        assert header["overhead_s"] >= 0.0

    def test_sampled_dump_passes_validate(self):
        rec = FlightRecorder(capacity=64, sample=5)
        rec.push("region-enter", "r", cycle=0)
        for i in range(40):
            rec.record("check-assign", f"s{i}", cycle=i + 1,
                       attrs={"cycles": 28})
        rec.pop("region-exit", "r", cycle=50)
        buf = io.StringIO()
        dump_flight(rec, buf)
        buf.seek(0)
        header, records = load_flight(buf)
        assert validate_flight(header, records) == []
        # the exact ledger survives sampling in the header
        assert header["check_totals"] == {"check-assign": [40, 40 * 28]}

    def test_overhead_self_measured(self):
        rec = FlightRecorder(capacity=64)
        for i in range(100):
            rec.record("alloc", f"o{i}", cycle=i)
        assert rec.overhead_s > 0.0


class TestWraparound:
    """Ring-eviction coverage: exact aggregates and valid dumps no
    matter how many times the window wraps."""

    def _mixed_burst(self, rec, n):
        for i in range(n):
            rec.record("check-assign", f"a{i}", cycle=2 * i,
                       attrs={"cycles": 28})
            rec.record("alloc", f"o{i}", cycle=2 * i + 1,
                       attrs={"bytes": 16})

    def test_exact_aggregates_across_many_wraps(self):
        small = FlightRecorder(capacity=8)
        large = FlightRecorder(capacity=10_000)
        self._mixed_burst(small, 500)
        self._mixed_burst(large, 500)
        assert small.kind_counts == large.kind_counts
        assert small.check_totals == large.check_totals
        assert small.stored == 8
        assert small.dropped == 2 * 500 - 8

    def test_wrapped_dump_passes_validate(self):
        rec = FlightRecorder(capacity=16)
        self._mixed_burst(rec, 100)
        buf = io.StringIO()
        dump_flight(rec, buf)
        buf.seek(0)
        header, records = load_flight(buf)
        assert validate_flight(header, records) == []
        assert header["stored"] == 16 and header["dropped"] == 184
        ids = [r.id for r in records]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)

    def test_wrap_with_thread_abort_keeps_causality(self):
        rec = FlightRecorder(capacity=8)
        spawn = rec.record("thread-spawned", "t1", cycle=0)
        rec.seed("t1", spawn)
        rec.push("region-enter", "r", cycle=1, thread="t1")
        for i in range(50):
            rec.record("alloc", f"o{i}", cycle=2 + i, thread="t1")
        rec.record("thread-aborted", "t1", cycle=100, thread="t1",
                   attrs={"error": "ThreadCrashError"})
        buf = io.StringIO()
        dump_flight(rec, buf)
        buf.seek(0)
        header, records = load_flight(buf)
        assert validate_flight(header, records) == []
        # the abort survives in the window and is parented inside the
        # region context opened before the wrap
        aborted = [r for r in records if r.kind == "thread-aborted"]
        assert len(aborted) == 1
        assert aborted[0].parent > 0

    def test_wrap_and_sampling_compose(self):
        rec = FlightRecorder(capacity=8, sample=3)
        self._mixed_burst(rec, 300)
        # aggregates still exact
        assert rec.kind_counts == {"check-assign": 300, "alloc": 300}
        assert rec.check_totals == {"check-assign": [300, 300 * 28]}
        assert rec.events_seen == 600
        buf = io.StringIO()
        dump_flight(rec, buf)
        buf.seek(0)
        header, records = load_flight(buf)
        assert validate_flight(header, records) == []
        assert header["sampled_out"] == rec.sampled_out > 0
