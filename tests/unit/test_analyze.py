"""Unit tests for the trace analysis engine over synthetic flight
records: region reconstruction, leak flagging, portal/thread stats,
the check-elimination ledger, and the chaos fault join."""

from repro.faults import FaultRecord
from repro.obs.analyze import (InspectReport, build_ledger,
                               build_portal_stats, build_region_lives,
                               build_report, build_thread_stats,
                               combine_ledgers, flag_leak_suspects,
                               join_faults, ledger_mismatches)
from repro.obs.flightrec import FLIGHT_SCHEMA, FlightRecord


def _rec(eid, cycle, kind, subject, thread="main", attrs=None,
         parent=0):
    return FlightRecord(eid, parent, cycle, thread, kind, subject,
                        attrs)


def _header(check_totals=None, meta=None):
    return {"schema": FLIGHT_SCHEMA, "capacity": 64, "total": 0,
            "stored": 0, "dropped": 0, "kind_counts": {},
            "check_totals": check_totals or {}, "meta": meta or {}}


class TestRegionLives:
    def test_watermark_curve_tracks_alloc_and_flush(self):
        records = [
            _rec(1, 0, "region-created", "r",
                 attrs={"policy": "LT", "kind": "Buf"}),
            _rec(2, 10, "alloc", "Obj -> r",
                 attrs={"region": "r", "bytes": 100}),
            _rec(3, 20, "alloc", "Obj -> r",
                 attrs={"region": "r", "bytes": 50}),
            _rec(4, 30, "region-flushed", "r",
                 attrs={"bytes": 150, "objects": 2}),
            _rec(5, 40, "alloc", "Obj -> r",
                 attrs={"region": "r", "bytes": 25}),
            _rec(6, 50, "region-destroyed", "r",
                 attrs={"bytes": 25, "objects": 1}),
        ]
        life = build_region_lives(records)["r"]
        assert life.policy == "LT"
        assert life.allocations == 3
        assert life.alloc_bytes == 175
        assert life.peak_bytes == 150
        assert life.live_bytes == 0
        assert life.flushes == 1
        assert life.destroyed_cycle == 50
        assert life.monotone is False
        assert life.curve == [(0, 0), (10, 100), (20, 150), (30, 0),
                              (40, 25), (50, 0)]

    def test_gc_events_drive_the_heap_curve(self):
        records = [
            _rec(1, 5, "alloc", "Obj -> heap",
                 attrs={"region": "heap", "bytes": 64}),
            _rec(2, 10, "gc", "collected 1",
                 attrs={"heap_bytes": 16, "pause": 100}),
        ]
        heap = build_region_lives(records)["heap"]
        assert heap.live_bytes == 16
        assert heap.monotone is False


class TestLeakSuspects:
    def _growing(self, name, n=4, destroyed=False):
        records = [_rec(1, 0, "region-created", name,
                        attrs={"policy": "VT", "kind": "Leaky"})]
        for i in range(n):
            records.append(
                _rec(2 + i, 100 * (i + 1), "alloc", f"Obj -> {name}",
                     attrs={"region": name, "bytes": 32}))
        if destroyed:
            records.append(_rec(2 + n, 100 * (n + 1),
                                "region-destroyed", name, attrs={}))
        return records

    def test_monotone_longlived_region_is_flagged(self):
        lives = build_region_lives(self._growing("leaky"))
        suspects = flag_leak_suspects(lives, horizon=500)
        assert [s.name for s in suspects] == ["leaky"]
        assert lives["leaky"].leak_suspect
        assert lives["leaky"].leak_reasons

    def test_destroyed_region_is_not_flagged(self):
        lives = build_region_lives(self._growing("ok", destroyed=True))
        assert flag_leak_suspects(lives, horizon=500) == []

    def test_short_lived_region_is_not_flagged(self):
        lives = build_region_lives(self._growing("brief"))
        # lifetime 400 of a 10_000-cycle run: under the 25% bar
        assert flag_leak_suspects(lives, horizon=10_000) == []

    def test_heap_is_never_flagged(self):
        lives = build_region_lives(self._growing("heap"))
        assert flag_leak_suspects(lives, horizon=500) == []


class TestPortalsAndThreads:
    def test_portal_contention_needs_two_threads(self):
        records = [
            _rec(1, 1, "portal-write", "r.box", thread="t1"),
            _rec(2, 2, "portal-read", "r.box", thread="t2"),
            _rec(3, 3, "portal-read", "r.solo", thread="t1"),
        ]
        portals = build_portal_stats(records)
        assert portals["r.box"].contended
        assert portals["r.box"].reads == 1
        assert portals["r.box"].writes == 1
        assert not portals["r.solo"].contended

    def test_thread_stats_attribute_stalls(self):
        records = [
            _rec(1, 0, "thread-spawned", "w", thread="main",
                 attrs={"realtime": True}),
            _rec(2, 10, "recovery", "retry 0", thread="w",
                 attrs={"backoff": 64, "attempt": 0}),
            _rec(3, 20, "gc", "collected 2", thread="<gc>",
                 attrs={"pause": 500}),
            _rec(4, 30, "thread-aborted", "w", thread="w",
                 attrs={"error": "OutOfRegionMemoryError"}),
        ]
        threads = build_thread_stats(records, horizon=100)
        w = threads["w"]
        assert w.status == "aborted"
        assert w.realtime is True
        assert w.error == "OutOfRegionMemoryError"
        assert w.backoff_cycles == 64
        assert w.gc_stall_cycles == 500
        # internal "<gc>" pseudo-thread gets no ThreadStat
        assert "<gc>" not in threads


class TestLedger:
    def test_ledger_from_check_totals(self):
        header = _header(
            check_totals={"check-assign": [10, 320],
                          "check-read": [4, 32],
                          "check-elide-assign": [2, 56]},
            meta={"mode": "dynamic", "summary": {"cycles": 999}})
        ledger = build_ledger(header)
        assert ledger["performed"] == {"assign": 10, "read": 4,
                                       "total": 14}
        assert ledger["check_cycles"]["total"] == 352
        assert ledger["elided"]["total"] == 2
        assert ledger["cycles_saved"]["total"] == 56
        assert ledger["run_cycles"] == 999

    def test_mismatch_against_embedded_summary(self):
        header = _header(
            check_totals={"check-assign": [10, 320]},
            meta={"summary": {"cycles": 1, "assignment_checks": 11,
                              "read_checks": 0, "check_cycles": 320}})
        problems = ledger_mismatches(header)
        assert len(problems) == 1
        assert "assignment_checks" in problems[0]

    def test_combine_infers_modes_and_overhead(self):
        dyn = build_ledger(_header(
            check_totals={"check-assign": [8, 224]},
            meta={"mode": "dynamic", "summary": {"cycles": 2000}}))
        sta = build_ledger(_header(
            check_totals={"check-elide-assign": [8, 224]},
            meta={"mode": "static", "summary": {"cycles": 1000}}))
        # order must not matter
        for fig in (combine_ledgers(dyn, sta), combine_ledgers(sta, dyn)):
            assert fig["checks_performed"] == 8
            assert fig["checks_elided"] == 8
            assert fig["cycles_saved"] == 224
            assert fig["overhead_ratio"] == 2.0


class TestFaultJoin:
    def test_faults_map_to_recovery_and_crash(self):
        records = [
            _rec(1, 10, "fault-injected", "lt_alloc", thread="<fault>",
                 attrs={"site": "lt_alloc", "seq": 0}),
            _rec(2, 20, "recovery", "retry 0", thread="main",
                 attrs={"backoff": 64}),
            _rec(3, 30, "fault-injected", "thread_spawn",
                 thread="<fault>",
                 attrs={"site": "thread_spawn", "seq": 2}),
            _rec(4, 40, "thread-aborted", "w", thread="w",
                 attrs={"error": "ThreadSpawnError"}),
        ]
        schedule = [FaultRecord(0, "lt_alloc", 0, "r"),
                    FaultRecord(1, "thread_spawn", 2, "w"),
                    FaultRecord(2, "vt_chunk", 9, "gone")]
        joins = join_faults(records, schedule)
        assert joins[0]["outcome"] == "recovered:recovery"
        assert joins[0]["outcome_event_id"] == 2
        assert joins[1]["outcome"] == "crashed:w"
        # a fault evicted from the ring window is reported, not lost
        assert joins[2]["matched"] is False
        assert joins[2]["outcome"] == "not-in-window"


class TestReport:
    def _report(self):
        records = [
            _rec(1, 0, "region-created", "r",
                 attrs={"policy": "VT", "kind": "Buf"}),
            _rec(2, 100, "alloc", "Obj -> r",
                 attrs={"region": "r", "bytes": 40}),
            _rec(3, 200, "alloc", "Obj -> r",
                 attrs={"region": "r", "bytes": 40}),
            _rec(4, 300, "alloc", "Obj -> r",
                 attrs={"region": "r", "bytes": 40}),
            _rec(5, 400, "portal-write", "r.box", thread="main"),
        ]
        header = _header(
            check_totals={"check-assign": [3, 84]},
            meta={"mode": "dynamic", "program": "synthetic",
                  "summary": {"cycles": 400, "assignment_checks": 3,
                              "read_checks": 0, "check_cycles": 84}})
        return build_report(header, records)

    def test_text_json_html_render(self):
        report = self._report()
        assert isinstance(report, InspectReport)
        text = report.format()
        assert "check-elimination ledger" in text
        assert "LEAK SUSPECT" in text  # r grows monotonically
        data = report.to_dict()
        assert data["leak_suspects"] == ["r"]
        assert data["ledger_mismatches"] == []
        html = report.to_html()
        assert html.startswith("<!DOCTYPE html>")
        assert "leak" in html and "svg" in html
