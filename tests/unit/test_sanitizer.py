"""Unit tests for the runtime region sanitizer
(:mod:`repro.rtsj.sanitizer`): a clean walk over healthy state, and one
deliberately-corrupted state per invariant class."""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import RunOptions, run_source
from repro.errors import SanitizerViolation
from repro.obs import FlightRecorder
from repro.rtsj.objects import ObjRef
from repro.rtsj.regions import LT, VT, RegionManager
from repro.rtsj.sanitizer import (CHECKPOINTS, RegionSanitizer,
                                  SanitizerConfig)
from repro.rtsj.stats import Stats

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from conftest import TSTACK_SOURCE, assert_well_typed  # noqa: E402


def make_sanitizer():
    manager = RegionManager()
    stats = Stats()
    return manager, stats, RegionSanitizer(manager, stats)


def make_area(manager, name="r", policy=LT, budget=4096, parent=None):
    ancestors = set() if parent is None else set(parent.ancestor_ids)
    return manager.create(name, "SomeRegion", policy, budget,
                          ancestors, parent=parent)


def alloc(area, class_name="T", owner=None, fields=("f",)):
    obj = ObjRef(class_name, (owner if owner is not None else area,),
                 fields, area)
    area.allocate(obj)
    return obj


def violation(sanitizer, invariant):
    with pytest.raises(SanitizerViolation) as exc:
        sanitizer.sweep("test")
    assert exc.value.invariant == invariant
    return exc.value


class TestCleanState:
    def test_healthy_state_sweeps_clean(self):
        manager, stats, sanitizer = make_sanitizer()
        area = make_area(manager)
        obj = alloc(area)
        other = alloc(area)
        obj.fields["f"] = other          # same-area ref: trivially safe
        area.portals["p"] = None
        area.portals["count"] = 7        # scalar portal: legal
        sanitizer.sweep("test")
        assert stats.sanitizer_checks == 1
        assert sanitizer.violations == 0

    def test_well_typed_program_is_sanitizer_clean(self):
        result = run_source(assert_well_typed(TSTACK_SOURCE),
                            RunOptions(sanitize=True))
        assert result.stats.sanitizer_checks > 0


class TestForestInvariant:
    def test_self_ancestry_is_o1_violation(self):
        manager, _, sanitizer = make_sanitizer()
        area = make_area(manager)
        area.ancestor_ids.add(area.area_id)
        violation(sanitizer, "O1-forest")

    def test_parent_cycle_is_o1_violation(self):
        manager, _, sanitizer = make_sanitizer()
        a = make_area(manager, "a")
        b = make_area(manager, "b", parent=a)
        a.parent = b                      # corrupt: a <-> b cycle
        violation(sanitizer, "O1-forest")


class TestAccounting:
    def test_negative_thread_count(self):
        manager, _, sanitizer = make_sanitizer()
        make_area(manager).thread_count = -1
        violation(sanitizer, "thread-count")

    def test_byte_accounting_mismatch(self):
        manager, _, sanitizer = make_sanitizer()
        area = make_area(manager)
        alloc(area)
        area.bytes_used += 8              # corrupt the accounting
        violation(sanitizer, "byte-accounting")


class TestPortals:
    def test_non_value_portal(self):
        manager, _, sanitizer = make_sanitizer()
        make_area(manager).portals["p"] = object()
        violation(sanitizer, "portal-typing")

    def test_dead_portal_reference(self):
        manager, _, sanitizer = make_sanitizer()
        area = make_area(manager)
        doomed = make_area(manager, "doomed")
        obj = alloc(doomed)
        doomed.destroy()
        area.portals["p"] = obj
        violation(sanitizer, "R1-no-dangling")


class TestColocation:
    def test_object_outside_owner_region_is_o2_violation(self):
        manager, _, sanitizer = make_sanitizer()
        owner_area = make_area(manager, "owner")
        stray_area = make_area(manager, "stray")
        alloc(stray_area, owner=owner_area)
        violation(sanitizer, "O2-colocation")

    def test_spilled_object_in_outliving_area_is_exempt(self):
        manager, stats, sanitizer = make_sanitizer()
        owner_area = make_area(manager, "owner", policy=VT)
        obj = ObjRef("T", (owner_area,), ("f",), manager.heap)
        manager.heap.allocate(obj)
        obj.spilled = True                # the VT-spill degradation
        sanitizer.sweep("test")
        assert sanitizer.violations == 0

    def test_spill_into_shorter_lived_area_still_flagged(self):
        manager, _, sanitizer = make_sanitizer()
        owner_area = make_area(manager, "owner")
        stray_area = make_area(manager, "stray")
        obj = alloc(stray_area, owner=owner_area)
        obj.spilled = True                # spill target must outlive
        violation(sanitizer, "O2-colocation")


class TestReferences:
    def test_dangling_field_is_r1_violation(self):
        manager, _, sanitizer = make_sanitizer()
        area = make_area(manager)
        holder = alloc(area)
        doomed = make_area(manager, "doomed")
        victim = alloc(doomed)
        doomed.destroy()
        holder.fields["f"] = victim
        violation(sanitizer, "R1-no-dangling")

    def test_inward_reference_is_r2_violation(self):
        manager, _, sanitizer = make_sanitizer()
        parent = make_area(manager, "parent")
        child = make_area(manager, "child", parent=parent)
        holder = alloc(parent)
        inner = alloc(child)
        holder.fields["f"] = inner        # parent -> child: would dangle
        violation(sanitizer, "R2-outlives")


class TestRealtimeNoHeap:
    def test_rt_thread_holding_heap_ref_is_r3_violation(self):
        manager, _, sanitizer = make_sanitizer()
        heap_obj = alloc(manager.heap)
        frame = SimpleNamespace(this=None, vars={"x": heap_obj},
                                temps=[])
        thread = SimpleNamespace(name="rt", realtime=True, done=False,
                                 frames=[frame])
        sanitizer.scheduler = SimpleNamespace(threads=[thread])
        violation(sanitizer, "R3-rt-no-heap")

    def test_non_rt_thread_may_hold_heap_refs(self):
        manager, _, sanitizer = make_sanitizer()
        heap_obj = alloc(manager.heap)
        frame = SimpleNamespace(this=heap_obj, vars={}, temps=[])
        thread = SimpleNamespace(name="plain", realtime=False,
                                 done=False, frames=[frame])
        sanitizer.scheduler = SimpleNamespace(threads=[thread])
        sanitizer.sweep("test")
        assert sanitizer.violations == 0


class TestFlushRule:
    def test_flush_with_thread_inside_is_f1(self):
        manager, _, sanitizer = make_sanitizer()
        area = make_area(manager)
        area.thread_count = 1
        with pytest.raises(SanitizerViolation) as exc:
            sanitizer.on_flush(area)
        assert exc.value.invariant == "F1-threads"

    def test_flush_with_reference_portal_is_f2(self):
        manager, _, sanitizer = make_sanitizer()
        area = make_area(manager)
        area.portals["p"] = alloc(manager.immortal)
        with pytest.raises(SanitizerViolation) as exc:
            sanitizer.on_flush(area)
        assert exc.value.invariant == "F2-portals"

    def test_flush_with_unflushed_subregion_is_f3(self):
        manager, _, sanitizer = make_sanitizer()
        area = make_area(manager)
        sub = make_area(manager, "sub", parent=area)
        area.subregions["sub"] = sub
        alloc(sub)                        # sub holds bytes: not flushed
        with pytest.raises(SanitizerViolation) as exc:
            sanitizer.on_flush(area)
        assert exc.value.invariant == "F3-subregions"

    def test_destroyed_region_with_threads_inside(self):
        manager, _, sanitizer = make_sanitizer()
        area = make_area(manager)
        area.destroy()
        area.thread_count = 2
        with pytest.raises(SanitizerViolation) as exc:
            sanitizer.on_region_exit(area)
        assert exc.value.invariant == "F1-threads"

    def test_empty_live_region_with_threads_is_not_flagged_on_exit(self):
        # "is_flushed" (zero bytes) also holds for a region that never
        # allocated anything — threads can legitimately still be inside
        manager, _, sanitizer = make_sanitizer()
        area = make_area(manager)
        area.thread_count = 2
        sanitizer.on_region_exit(area)    # must not raise

    def test_end_of_run_leftover_thread(self):
        manager, _, sanitizer = make_sanitizer()
        parent = make_area(manager, "parent")
        sub = make_area(manager, "sub", parent=parent)
        sub.thread_count = 1
        with pytest.raises(SanitizerViolation) as exc:
            sanitizer.on_end()
        assert exc.value.invariant == "F1-threads"


class TestConfig:
    def test_unknown_checkpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown sanitizer"):
            SanitizerConfig(checkpoints=frozenset({"nope"}))

    def test_every_n_quanta_validated(self):
        with pytest.raises(ValueError, match="every_n_quanta"):
            SanitizerConfig(every_n_quanta=0)

    def test_quantum_sampling(self):
        manager, stats, _ = make_sanitizer()
        sanitizer = RegionSanitizer(
            manager, stats, config=SanitizerConfig(every_n_quanta=3))
        for _ in range(6):
            sanitizer.on_quantum()
        assert stats.sanitizer_checks == 2

    def test_disarmed_checkpoints_are_noops(self):
        manager, stats, _ = make_sanitizer()
        sanitizer = RegionSanitizer(
            manager, stats,
            config=SanitizerConfig(checkpoints=frozenset({"end"})))
        area = make_area(manager)
        area.thread_count = 1             # would be F1 if flush armed
        sanitizer.on_quantum()
        sanitizer.on_flush(area)
        assert stats.sanitizer_checks == 0

    def test_violation_diagnostic_carries_context(self):
        manager, stats, sanitizer = make_sanitizer()
        area = make_area(manager)
        area.thread_count = -2
        err = violation(sanitizer, "thread-count")
        diag = err.diagnostic()
        assert diag["invariant"] == "thread-count"
        assert diag["checkpoint"] == "test"
        assert area.name in diag["message"]
        assert stats.metrics.counter(
            "repro_sanitizer_violations_total", "").labels(
                invariant="thread-count").value == 1

    def test_violation_is_recorded_before_the_raise(self):
        manager, stats = RegionManager(), Stats(recorder=FlightRecorder())
        sanitizer = RegionSanitizer(manager, stats)
        area = make_area(manager)
        area.thread_count = -2
        violation(sanitizer, "thread-count")
        (record,) = stats.recorder.records()
        assert (record.kind, record.thread) \
            == ("sanitizer-violation", "<sanitizer>")
        assert record.attrs["invariant"] == "thread-count"
        assert record.attrs["checkpoint"] == "test"
