"""Tests for the effects linter and the execution timeline."""

import pytest

from repro import OwnershipTypeError, RunOptions, analyze
from repro.interp.machine import Machine
from repro.tools import (event_counts, format_report, lint_effects,
                         render_timeline)
from repro.tools.timeline import events_between

CELL = "class Cell<Owner o> { int v; Cell<o> next; }\n"


class TestEffectsLint:
    def test_tight_clause_is_clean(self):
        reports = lint_effects(
            CELL +
            "class M<Owner o> {"
            "  void go(Cell<o> c) accesses o { c.next = null; }"
            "}")
        report = next(r for r in reports if r.method_name == "go")
        assert report.redundant == ()

    def test_unneeded_heap_flagged(self):
        from repro.core.owners import HEAP
        reports = lint_effects(
            CELL +
            "class M<Owner o> {"
            "  void go(Cell<o> c) accesses o, heap { c.next = null; }"
            "}")
        report = next(r for r in reports if r.method_name == "go")
        assert HEAP in report.redundant

    def test_needed_heap_not_flagged(self):
        from repro.core.owners import HEAP
        reports = lint_effects(
            CELL +
            "class M<Owner o> {"
            "  void go() accesses heap {"
            "    Cell<heap> c = new Cell<heap>;"
            "  }"
            "}")
        report = next(r for r in reports if r.method_name == "go")
        assert HEAP not in report.redundant

    def test_rt_effect_needed_when_entering_rt_subregion(self):
        from repro.core.owners import RT_EFFECT
        reports = lint_effects(
            "regionKind K extends SharedRegion {"
            "  Sub : LT(128) RT w;"
            "}\n"
            "regionKind Sub extends SharedRegion { }\n"
            "class M<K r> {"
            "  void go(RHandle<r> h) accesses r, RT {"
            "    (RHandle<Sub r2> h2 = h.w) { int x = 1; }"
            "  }"
            "}")
        report = next(r for r in reports if r.method_name == "go")
        assert RT_EFFECT not in report.redundant

    def test_greedy_keeps_a_sufficient_clause(self):
        # `accesses o, heap, immortal` with only an o-demand: heap and
        # immortal must go; o (or a survivor that covers it) must stay
        reports = lint_effects(
            CELL +
            "class M<Owner o> {"
            "  void go(Cell<o> c) accesses o, heap, immortal {"
            "    c.next = null;"
            "  }"
            "}")
        report = next(r for r in reports if r.method_name == "go")
        kept = set(report.declared) - set(report.redundant)
        assert kept, "at least one effect must survive to cover the demand"

    def test_format_report(self):
        reports = lint_effects(
            CELL +
            "class M<Owner o> {"
            "  void go(Cell<o> c) accesses o, heap { c.next = null; }"
            "}")
        text = format_report(reports)
        assert "M.go" in text
        assert "redundant" in text

    def test_ill_typed_input_raises(self):
        with pytest.raises(OwnershipTypeError):
            lint_effects(CELL + "{ Cell<zap> c = null; }")


class TestTimeline:
    PROGRAM = """
regionKind Buf extends SharedRegion {
    Sub : LT(512) NoRT s;
}
regionKind Sub extends SharedRegion { }
class Cell { int v; }
class Worker<Buf r> {
    void run(RHandle<r> h) accesses r, heap {
        int i = 0;
        while (i < 3) {
            (RHandle<Sub r2> h2 = h.s) {
                Cell<r2> c = new Cell<r2>;
                c.v = i;
            }
            yieldnow();
            i = i + 1;
        }
    }
}
(RHandle<Buf r> h) {
    fork (new Worker<r>).run(h);
}
"""

    @pytest.fixture
    def machine(self):
        m = Machine(analyze(self.PROGRAM).require_well_typed(),
                    RunOptions(quantum=300, record=True))
        m.run()
        return m

    def test_event_counts(self, machine):
        counts = event_counts(machine.stats)
        assert counts["region-created"] >= 2   # Buf + its LT subregion
        assert counts["region-flushed"] == 3   # one flush per iteration
        assert counts["thread-spawned"] == 2   # main + worker
        assert counts["thread-finished"] == 2  # main + worker
        assert counts["region-destroyed"] >= 1

    def test_events_are_time_ordered(self, machine):
        window = events_between(machine.stats, 0, machine.stats.cycles)
        cycles = [cycle for cycle, _k, _s in window]
        assert cycles == sorted(cycles)

    def test_render_contains_marks_and_legend(self, machine):
        text = render_timeline(machine.stats)
        assert "region-created" in text
        assert "region-flushed" in text
        assert "legend" in text

    def test_kind_filter(self, machine):
        text = render_timeline(machine.stats, kinds=["region-flushed"])
        assert "region-flushed" in text
        assert "thread-spawned" not in text

    def test_events_between(self, machine):
        window = events_between(machine.stats, 0, machine.stats.cycles)
        assert window == [(e.cycle, e.kind, e.subject)
                          for e in machine.recorder.records()]
        assert events_between(machine.stats, -1, -1) == []

    def test_empty_timeline(self):
        from repro.rtsj.stats import Stats
        assert render_timeline(Stats()) == "(no events)"
