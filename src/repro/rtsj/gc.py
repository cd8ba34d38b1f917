"""A stop-the-world mark-sweep collector for the simulated heap.

The collector pauses *regular* threads for a number of cycles proportional
to the live and dead object populations; real-time threads are never
paused (that is precisely the property the paper's region discipline
buys).  Roots are the thread stacks, the static fields, portal fields, and
references out of non-heap areas into the heap.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from .objects import ArrayStorage, ObjRef
from .regions import MemoryArea, RegionManager
from .stats import CostModel, Stats


def _scan_value(value: Any, frontier: List[ObjRef]) -> None:
    if isinstance(value, ObjRef) and not value.gc_mark:
        value.gc_mark = True
        frontier.append(value)


class GarbageCollector:
    def __init__(self, regions: RegionManager, cost_model: CostModel,
                 stats: Stats, trigger_bytes: int,
                 fault_injector: Optional[Any] = None) -> None:
        self.regions = regions
        self.cost = cost_model
        self.stats = stats
        self.trigger_bytes = trigger_bytes
        self.fault_injector = fault_injector
        self._h_pause = stats.metrics.histogram(
            "repro_gc_pause_cycles",
            "stop-the-world pause length per collection",
            buckets=(1000, 2000, 4000, 8000, 16000, 32000, 64000,
                     128000, 256000))
        self._g_heap = stats.metrics.gauge(
            "repro_heap_live_bytes", "heap bytes live after the last "
            "collection")

    def should_collect(self) -> bool:
        return self.regions.heap.bytes_used >= self.trigger_bytes

    def collect(self, roots: Iterable[Any]) -> int:
        """Mark-sweep the heap; returns the cycle cost of the pause."""
        heap = self.regions.heap
        # mark
        frontier: List[ObjRef] = []
        for root in roots:
            _scan_value(root, frontier)
        # conservative root set: every reference held by a non-heap area
        for area in self.regions.live_areas():
            if area.is_heap:
                continue
            for obj in area.objects:
                _scan_value(obj, frontier)
            for value in area.portals.values():
                _scan_value(value, frontier)
        while frontier:
            obj = frontier.pop()
            for value in obj.fields.values():
                if isinstance(value, ArrayStorage):
                    continue  # scalar storage holds no references
                _scan_value(value, frontier)
        # sweep the heap
        live: List[ObjRef] = []
        dead = 0
        for obj in heap.objects:
            if obj.gc_mark:
                live.append(obj)
            else:
                dead += 1
                heap.free_object_bytes(obj)
                obj.generation -= 1  # turn extant references dangling
        heap.objects = live
        # unmark everything we marked (live set + survivors elsewhere)
        for area in self.regions.live_areas():
            for obj in area.objects:
                obj.gc_mark = False
        pause = (self.cost.gc_base
                 + self.cost.gc_per_live_object * len(live)
                 + self.cost.gc_per_dead_object * dead)
        injector = self.fault_injector
        if injector is not None and injector.fire(
                "gc_pause_spike", f"pause={pause}"):
            # a pause spike models an unlucky collection (fragmented
            # heap, finalizer storm).  Regular threads eat the longer
            # pause; RT threads stay unpaused — the latency histogram
            # asserts the paper's claim survives the spike.
            pause *= injector.plan.magnitudes["gc_spike_factor"]
        rec = self.stats.recorder
        if rec is not None:
            rec.record("gc", f"collected {dead}",
                       cycle=self.stats.cycles, thread="<gc>",
                       attrs={"collected": dead, "live": len(live),
                              "pause": pause,
                              "heap_bytes": heap.bytes_used})
        self._h_pause.observe(pause)
        self._g_heap.set(heap.bytes_used)
        self.stats.gc_runs += 1
        self.stats.gc_pause_cycles += pause
        self.stats.objects_freed += dead
        self.stats.gc_objects_collected += dead
        return pause
