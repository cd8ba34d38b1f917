"""Cycle cost model and execution statistics.

Figure 12 compares execution time *with* the RTSJ dynamic checks against
execution time *without* them.  Our substrate is an interpreter, so wall
clock alone would be dominated by interpretation overhead; instead every
simulated operation is charged a deterministic cycle cost, and the dynamic
checks charge the cost of the work they actually perform (ancestry walks
for assignment checks, memory-area tests for heap-access checks).  The
checked/unchecked cycle ratio is then a property of the *program's*
operation mix — the quantity the paper's micro-benchmarks were designed to
maximize — not of the host Python runtime.

The constants are deliberately round numbers in the ratio ballpark of a
2003-era JVM with software write barriers; the ablation benchmark
(`benchmarks/test_ablation_check_cost.py`) sweeps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..obs import Histogram, MetricsRegistry


@dataclass(frozen=True)
class CostModel:
    """Cycle costs of simulated operations."""

    # plain computation
    op_basic: int = 1            # arithmetic, comparisons, moves
    op_local: int = 1            # local variable read/write
    op_field_read: int = 2
    op_field_write: int = 2
    op_invoke: int = 10          # call + frame setup
    op_return: int = 2
    op_branch: int = 1
    op_builtin: int = 5          # print and friends

    # allocation
    alloc_base: int = 12
    alloc_per_byte: int = 1      # zeroing (LT alloc is linear in size)
    vt_alloc_extra: int = 40     # on-demand allocation bookkeeping
    vt_chunk_cost: int = 400     # acquiring a fresh chunk ("variable time")
    heap_alloc_extra: int = 25   # GC interaction on the allocation path

    # regions
    region_create: int = 120
    lt_prealloc_per_byte: int = 1
    region_enter: int = 30
    region_exit: int = 40        # exit bookkeeping + flush test (atomic)
    portal_read: int = 4
    portal_write: int = 5

    # threads
    thread_spawn: int = 500
    thread_yield: int = 15

    # the RTSJ dynamic checks (removed in static-checks mode).  The base
    # cost models the RTSJ scope-stack comparison, lock, and branch
    # sequence on the write-barrier path; the per-level cost is the scope
    # ancestry walk.  Values calibrated so the micro-benchmarks land in
    # the paper's measured range (Array 7.2x, Tree 4.8x) — the ablation
    # bench sweeps them.
    check_assign_base: int = 28      # IllegalAssignmentError test
    check_assign_per_level: int = 4  # per scope-ancestry step walked
    check_read_base: int = 8         # MemoryAccessError test (no-heap RT)

    # garbage collector
    gc_base: int = 2000
    gc_per_live_object: int = 24
    gc_per_dead_object: int = 10


@dataclass
class Stats:
    """Counters accumulated during one simulated run.

    Structured observability (the :mod:`repro.obs` subsystem) hangs off
    this object: ``metrics`` is the registry of counters/gauges/
    histograms, and ``recorder`` the flight recorder, the run's single
    event sink and the source of ``repro profile``'s per-site and
    per-region attribution (``None`` on runs that asked for no event
    export, so hot paths can test ``recorder is not None`` at
    closure-compile time).
    """

    cycles: int = 0                       # global simulated clock
    cycles_by_thread: Dict[str, int] = field(default_factory=dict)
    steps: int = 0

    assignment_checks: int = 0
    read_checks: int = 0
    check_cycles: int = 0                 # cycles spent inside checks

    allocations: int = 0
    bytes_allocated: int = 0
    objects_freed: int = 0
    regions_created: int = 0
    region_enters: int = 0
    region_flushes: int = 0

    gc_runs: int = 0
    gc_pause_cycles: int = 0
    gc_objects_collected: int = 0

    threads_spawned: int = 0
    peak_heap_bytes: int = 0

    # robustness plane (fault injection / recovery / sanitizer)
    faults_injected: int = 0
    faults_recovered: int = 0     # faults survived via retry/spill
    recovery_retries: int = 0
    recovery_backoff_cycles: int = 0
    vt_spills: int = 0            # allocations spilled to parent/heap
    threads_aborted: int = 0      # degrade-mode thread aborts (watchdog)
    sanitizer_checks: int = 0

    # cycle attribution by category (``repro profile``); the remainder
    # of ``cycles`` not claimed below is plain compute
    alloc_cycles: int = 0
    region_cycles: int = 0
    thread_cycles: int = 0
    io_cycles: int = 0

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry,
                                     repr=False)
    #: the flight recorder, or None when post-mortem recording is off
    #: (typed ``Any`` to keep :mod:`repro.obs` imports one-directional)
    recorder: Optional[Any] = field(default=None, repr=False)

    def charge(self, cycles: int, thread_name: str = "main") -> None:
        self.cycles += cycles
        self.cycles_by_thread[thread_name] = (
            self.cycles_by_thread.get(thread_name, 0) + cycles)

    def summary(self) -> Dict[str, Any]:
        return {
            "cycles": self.cycles,
            "assignment_checks": self.assignment_checks,
            "read_checks": self.read_checks,
            "check_cycles": self.check_cycles,
            "allocations": self.allocations,
            "bytes_allocated": self.bytes_allocated,
            "objects_freed": self.objects_freed,
            "regions_created": self.regions_created,
            "region_enters": self.region_enters,
            "region_flushes": self.region_flushes,
            "gc_runs": self.gc_runs,
            "gc_pause_cycles": self.gc_pause_cycles,
            "threads_spawned": self.threads_spawned,
            "peak_heap_bytes": self.peak_heap_bytes,
            "faults_injected": self.faults_injected,
            "faults_recovered": self.faults_recovered,
            "recovery_retries": self.recovery_retries,
            "recovery_backoff_cycles": self.recovery_backoff_cycles,
            "vt_spills": self.vt_spills,
            "threads_aborted": self.threads_aborted,
            "sanitizer_checks": self.sanitizer_checks,
            "cycles_by_thread": dict(self.cycles_by_thread),
            "quantiles": self.quantile_summary(),
        }

    def quantile_summary(self) -> Dict[str, Dict[str, float]]:
        """p50/p95/p99 estimates for every live histogram, derived from
        the buckets the run already collected (deterministic: bucket
        counts are a function of the simulated run, not the host).
        Empty for uninstrumented runs (null registry)."""
        out: Dict[str, Dict[str, float]] = {}
        for inst in self.metrics.instruments():
            if isinstance(inst, Histogram):
                quantiles = inst.quantiles()
                if quantiles:
                    out[inst.name] = quantiles
        return out
