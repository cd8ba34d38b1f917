"""The interpreter/runtime fast paths added by the performance work.

Covers the pieces the equivalence suite cannot see directly: the
``(class, method)`` call-entry inline cache, the checked/unchecked
access-path binding, the dead-region pruning in ``RegionManager``, and
the once-only ``Stats.events`` deprecation shim.
"""

from __future__ import annotations

import pytest

from repro import RunOptions, analyze, run_source
from repro.interp.machine import Machine
from repro.obs import MetricsRegistry
from repro.rtsj.regions import LT, VT, RegionManager
from repro.rtsj.stats import Stats

DISPATCH_SOURCE = """
class Animal<Owner o> {
    int sound() { return 1; }
    int speak() { return this.sound(); }
}
class Dog<Owner o> extends Animal<o> {
    int sound() { return 2; }
}
Animal<heap> a = new Animal<heap>;
Dog<heap> d = new Dog<heap>;
print(a.speak());
print(d.speak());
print(a.speak());
"""


# ---------------------------------------------------------------------------
# call-entry inline cache
# ---------------------------------------------------------------------------

def test_call_entry_cache_keeps_dynamic_dispatch_correct():
    analyzed = analyze(DISPATCH_SOURCE)
    assert not analyzed.errors
    result = run_source(analyzed, RunOptions())
    # overridden method resolves per receiver class even though the
    # (class, method) entry is looked up through the cache every call
    assert result.output == ["1", "2", "1"]


def test_call_entry_cache_is_populated_once_per_key():
    analyzed = analyze(DISPATCH_SOURCE)
    machine = Machine(analyzed, RunOptions())
    machine.run()
    cache = machine.interpreter._call_cache
    assert ("Animal", "speak") in cache
    assert ("Dog", "speak") in cache  # inherited entry, own key
    assert ("Dog", "sound") in cache
    # entries are concrete tuples, not None placeholders
    assert all(entry is not None for entry in cache.values())


def test_missing_method_error_unchanged_by_cache():
    source = """
    class A<Owner o> { int x; }
    A<heap> a = new A<heap>;
    a.nope();
    """
    analyzed = analyze(source)
    # the checker rejects the call statically; run unchecked to reach
    # the interpreter's own (cached) lookup error path
    with pytest.raises(Exception, match="no method 'nope'"):
        run_source(analyzed, RunOptions(), require_well_typed=False)


# ---------------------------------------------------------------------------
# checks compiled out at the Python level
# ---------------------------------------------------------------------------

def test_access_paths_bind_to_mode():
    analyzed = analyze(DISPATCH_SOURCE)
    checked = Machine(analyzed, RunOptions(checks_enabled=True,
                                           validate=False)).interpreter
    unchecked = Machine(analyzed, RunOptions(checks_enabled=False,
                                             validate=False)).interpreter
    assert checked._field_write.__name__ == "_field_write_checked"
    assert unchecked._field_write.__name__ == "_field_write_unchecked"
    assert checked._field_read.__name__ == "_field_read_checked"
    assert unchecked._field_read.__name__ == "_field_read_unchecked"


def test_validate_mode_keeps_checked_paths_without_charging():
    analyzed = analyze(DISPATCH_SOURCE)
    interp = Machine(analyzed, RunOptions(checks_enabled=False,
                                          validate=True)).interpreter
    # validation still needs the check engine on the access path
    assert interp._field_write.__name__ == "_field_write_checked"


# ---------------------------------------------------------------------------
# RegionManager dead-area pruning
# ---------------------------------------------------------------------------

def _spawn_dead(manager, n, peak=64):
    for i in range(n):
        area = manager.create(f"tmp{i}", "LocalRegion", VT, 0, set())
        area.peak_bytes = peak
        area.destroy()


def test_dead_areas_are_pruned_past_threshold():
    manager = RegionManager()
    _spawn_dead(manager, RegionManager.PRUNE_THRESHOLD + 8)
    # the registry stays bounded instead of holding every dead area
    assert len(manager.areas) < RegionManager.PRUNE_THRESHOLD
    assert manager.pruned_dead > 0
    assert manager.pruned_peak_bytes == 64


def test_prune_dead_is_explicit_and_idempotent():
    manager = RegionManager()
    _spawn_dead(manager, 10, peak=128)
    dropped = manager.prune_dead()
    assert dropped == 10
    assert manager.prune_dead() == 0
    assert manager.pruned_dead == 10
    assert manager.pruned_peak_bytes == 128
    assert [a.name for a in manager.areas] == \
        [manager.heap.name, manager.immortal.name]


def test_export_metrics_aggregates_dead_regions():
    manager = RegionManager()
    _spawn_dead(manager, 600, peak=32)  # crosses the prune threshold
    live = manager.create("live", "LocalRegion", LT, 16, set())
    registry = MetricsRegistry()
    manager.export_metrics(registry)
    snapshot = registry.to_dict()
    dead_gauge = snapshot["repro_region_dead_areas"]["series"]
    assert dead_gauge[0]["value"] == 600
    peak_series = snapshot["repro_region_peak_bytes"]["series"]
    regions = [s["labels"]["region"] for s in peak_series]
    # one aggregate watermark series for all dead areas, not 600
    assert regions.count("<dead>") == 1
    assert "live" in regions
    assert not any(r.startswith("tmp") for r in regions)
    assert live.live


# ---------------------------------------------------------------------------
# single event source: the flight recorder is the only event sink
# ---------------------------------------------------------------------------

def test_stats_has_single_event_source():
    stats = Stats()
    # the flight recorder, when armed, is the only event sink, so
    # nothing double-records
    assert not hasattr(stats, "event")
    assert not hasattr(stats, "events")
    assert not hasattr(stats, "tracer")
    assert stats.recorder is None  # recording is strictly opt-in
