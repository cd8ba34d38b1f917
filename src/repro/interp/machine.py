"""The simulated machine: program + regions + GC + scheduler + checks.

``run_source`` is the one-call entry point used by the examples, tests and
benchmarks::

    result = run_source(SOURCE, RunOptions(checks_enabled=True))
    print(result.stats.cycles, result.output)

``checks_enabled=True`` is the RTSJ baseline (dynamic checks performed and
charged); ``checks_enabled=False`` is the paper's statically-checked mode.
``validate=True`` (default) additionally *verifies* every check without
charging cycles, which is how the test suite asserts Theorems 3/4: a
well-typed program behaves identically in both modes and never violates a
check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.api import AnalyzedProgram, analyze
from ..core.relations import RelationGraph
from ..errors import OwnershipTypeError, ReproError
from ..faults import FaultInjector
from ..obs import FlightRecorder, MetricsRegistry, ProfileCollector
from ..rtsj.checks import CheckEngine
from ..rtsj.faults import RecoveryPolicy
from ..rtsj.gc import GarbageCollector
from ..rtsj.objects import ArrayStorage, ObjRef
from ..rtsj.regions import RegionManager
from ..rtsj.sanitizer import RegionSanitizer
from ..rtsj.stats import CostModel, Stats
from ..rtsj.threads import Scheduler, SimThread
from .interpreter import Frame, Interpreter


@dataclass
class RunOptions:
    #: perform + charge the RTSJ dynamic checks (Figure 12's "Dynamic
    #: Checks" column); False = the statically-checked build
    checks_enabled: bool = True
    #: verify the checks without charging cycles (soundness assertion)
    validate: bool = True
    cost_model: CostModel = field(default_factory=CostModel)
    #: heap bytes that trigger a garbage collection
    gc_trigger_bytes: int = 1 << 20
    #: scheduler time slice in cycles
    quantum: int = 2000
    #: runaway-guard on the global clock
    max_cycles: int = 2_000_000_000
    #: observability: pass a pre-built registry to share it with the
    #: caller (the CLI does, to export after the run); None means the
    #: machine builds its own
    metrics: Optional[MetricsRegistry] = None
    #: False wires *null* aggregate sinks (metrics, profile) into the
    #: run: no histogram samples, no per-site attribution — the
    #: interpreter's instrumentation code paths are compiled out.  Used
    #: by ``repro bench`` so wall-clock measurements exclude
    #: observability overhead.  An explicitly passed ``metrics`` object
    #: takes precedence.
    instrument: bool = True
    # -- robustness plane (all off by default: a plain run compiles in
    #    none of the fault/sanitizer code paths) --
    #: fault injector (seeded or replaying) consulted at the runtime's
    #: fault sites; every Machine runs a fresh copy with its own consult
    #: counters, so one options object can drive any number of runs
    fault_injector: Optional[FaultInjector] = None
    #: retry/backoff/spill policy used when an injector is active
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    #: run the region sanitizer at checkpoints
    sanitize: bool = False
    #: graceful degradation: a failing thread is finished with a
    #: structured diagnostic instead of aborting the whole run
    degrade: bool = False
    # -- flight recorder (the run's one event sink, off by default: a
    #    plain run carries ``recorder is None`` through every compiled
    #    closure and cycle counts stay byte-identical) --
    #: record causally-linked events into a bounded ring buffer (the
    #: source of both ``--record-out`` and ``--trace-out``)
    record: bool = False
    #: ring capacity; the ring keeps the newest records
    record_capacity: int = 1 << 16
    #: store only every N-th high-volume record per kind (checks,
    #: allocs); exact aggregates (kind_counts, check_totals) are kept
    #: regardless
    record_sample: int = 1
    # -- execution backend --
    #: "interp" = the coroutine interpreter; "py" = compiled Python
    #: source (fused straight-line code when the program/configuration
    #: allows, a faithful generator transliteration otherwise); "c" =
    #: compiled C via cffi.  Unsupported program/configuration
    #: combinations fall back towards the interpreter with identical
    #: observable behaviour (see ``execute``).  "py-fused"/"py-faithful"
    #: force one specific py form (tests/benchmarks).
    backend: str = "interp"


@dataclass
class RunResult:
    output: List[str]
    stats: Stats
    options: RunOptions
    #: structured diagnostics of threads aborted in degrade mode
    diagnostics: List[ReproError] = field(default_factory=list)
    #: faults injected during the run (replayable schedule)
    fault_records: List[Any] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        return self.stats.cycles


class Machine:
    """One simulated execution of an analyzed program."""

    def __init__(self, analyzed: AnalyzedProgram,
                 options: Optional[RunOptions] = None) -> None:
        self.analyzed = analyzed
        self.options = options or RunOptions()
        self.cost_model = self.options.cost_model
        if self.options.instrument:
            metrics = self.options.metrics or MetricsRegistry()
            profile = ProfileCollector()
        else:
            from ..obs import NullMetricsRegistry, NullProfile
            metrics = self.options.metrics or NullMetricsRegistry()
            profile = NullProfile()
        # flight recorder: None unless asked for, so every subsystem's
        # ``recorder is not None`` test compiles the hooks out
        recorder = None
        if self.options.record:
            recorder = FlightRecorder(self.options.record_capacity,
                                      sample=self.options.record_sample)
        self.recorder = recorder
        self.stats = Stats(metrics=metrics, profile=profile,
                           recorder=recorder)
        self.regions = RegionManager()
        if recorder is not None:
            recorder.bind_clock(self.stats)
            self.regions.attach_recorder(recorder)
        # fault-injection plane: None unless asked for, so plain runs
        # carry no hooks
        injector = self.options.fault_injector
        self.fault_injector = (injector.fresh() if injector is not None
                               else None)
        self.recovery = self.options.recovery
        if self.fault_injector is not None:
            self.fault_injector.stats = self.stats
            self.regions.attach_injector(self.fault_injector)
        self.checks = CheckEngine(self.cost_model, self.stats,
                                  enabled=self.options.checks_enabled,
                                  validate=self.options.validate)
        self.checks.fault_injector = self.fault_injector
        self.gc = GarbageCollector(self.regions, self.cost_model,
                                   self.stats,
                                   self.options.gc_trigger_bytes,
                                   fault_injector=self.fault_injector)
        self.sanitizer: Optional[RegionSanitizer] = None
        if self.options.sanitize:
            self.sanitizer = RegionSanitizer(self.regions, self.stats)
        self.scheduler = Scheduler(self.stats,
                                   quantum=self.options.quantum,
                                   max_cycles=self.options.max_cycles,
                                   gc_hook=self._maybe_collect,
                                   checkpoint_hook=(
                                       self.sanitizer.on_quantum
                                       if self.sanitizer is not None
                                       else None),
                                   degrade=self.options.degrade,
                                   fault_injector=self.fault_injector)
        if self.sanitizer is not None:
            self.sanitizer.scheduler = self.scheduler
        self.statics: Dict[Tuple[str, str], Any] = {}
        self.output: List[str] = []
        self.interpreter = Interpreter(self)
        self._init_statics()
        # compiled program (codegen backends); None = interpret.  A
        # backend that cannot compile this program/configuration is a
        # routing decision, not an error: note the reason and interpret.
        self.program = None
        self.program_bailed = False
        self.codegen_fallback: Optional[str] = None
        if self.options.backend != "interp":
            from .codegen_base import CodegenUnsupported
            from .codegen_py import select_program
            try:
                self.program = select_program(self, self.options.backend)
            except CodegenUnsupported as exc:
                self.codegen_fallback = str(exc)

    # ------------------------------------------------------------------

    def _init_statics(self) -> None:
        from ..lang import ast
        from .interpreter import _literal_value
        for cls in self.analyzed.program.classes:
            for fld in cls.fields:
                if not fld.static:
                    continue
                value = None
                if fld.init is not None:
                    value = _literal_value(fld.init)
                elif isinstance(fld.declared_type, ast.PrimTypeAst):
                    value = {"int": 0, "float": 0.0,
                             "boolean": False}.get(fld.declared_type.name)
                self.statics[(cls.name, fld.name)] = value

    def charge_direct(self, thread: SimThread, cycles: int) -> None:
        """Charge cycles outside the scheduler's quantum accounting (used
        from ``finally`` blocks where yielding is unsafe)."""
        thread.cycles += cycles
        self.stats.charge(cycles, thread.name)

    def _gc_roots(self):
        for thread in self.scheduler.threads:
            for frame in thread.frames:
                if isinstance(frame, Frame):
                    if frame.this is not None:
                        yield frame.this
                    for value in frame.vars.values():
                        yield value
                    for value in frame.temps:
                        yield value
        for value in self.statics.values():
            yield value

    def _maybe_collect(self) -> int:
        if not self.gc.should_collect():
            return 0
        return self.gc.collect(self._gc_roots())

    # ------------------------------------------------------------------

    def _spawn_main(self, main_thread: SimThread) -> None:
        """Spawn the main thread under the recovery policy: injected
        denials are retried with backoff charged to the clock, same as
        fork-site denials inside the interpreter."""
        from ..errors import ThreadSpawnError
        attempt = 0
        while True:
            try:
                self.scheduler.spawn(main_thread)
                if attempt:
                    self.stats.faults_recovered += 1
                return
            except ThreadSpawnError as err:
                if not err.injected \
                        or attempt >= self.recovery.max_retries:
                    if self.recorder is not None:
                        self.recorder.record(
                            "thread-aborted", "main",
                            cycle=self.stats.cycles, thread="main",
                            attrs={"error": type(err).__name__})
                    raise
                backoff = self.recovery.backoff_cycles(attempt)
                self.stats.recovery_retries += 1
                self.stats.recovery_backoff_cycles += backoff
                if self.recorder is not None:
                    self.recorder.record(
                        "recovery", f"retry {attempt}",
                        cycle=self.stats.cycles, thread="main",
                        attrs={"backoff": backoff, "attempt": attempt})
                attempt += 1
                self.stats.charge(backoff, "main")

    def run(self) -> RunResult:
        main_thread = SimThread(name="main", coroutine=iter(()))
        main_thread.coroutine = (
            self.program.main_coroutine(main_thread)
            if self.program is not None
            else self.interpreter.main_coroutine(main_thread))
        if self.recorder is not None:
            eid = self.recorder.record(
                "thread-spawned", "main", cycle=0, thread="main",
                attrs={"realtime": False, "method": "<main>"})
            self.recorder.seed("main", eid)
        try:
            self._spawn_main(main_thread)
            self.scheduler.run()
            if self.sanitizer is not None:
                self.sanitizer.on_end()
        finally:
            # publish end-of-run gauges even when the run failed: the
            # trace/metrics files are most valuable for a crashed run
            self.finalize_metrics()
        return RunResult(
            self.output, self.stats, self.options,
            diagnostics=list(self.scheduler.diagnostics),
            fault_records=(list(self.fault_injector.injected)
                           if self.fault_injector is not None else []))

    def finalize_metrics(self) -> None:
        """Mirror the flat counters and per-region/per-thread state into
        the metrics registry (histograms are maintained live)."""
        stats, registry = self.stats, self.stats.metrics
        if registry.null:
            return  # uninstrumented run: nothing to publish into
        self.regions.export_metrics(registry)
        for name, value in stats.summary().items():
            if name == "cycles_by_thread":
                gauge = registry.gauge(
                    "repro_thread_cycles",
                    "simulated cycles consumed per thread")
                for thread_name, cycles in value.items():
                    gauge.labels(thread=thread_name).set(cycles)
            elif name == "quantiles":
                # derived estimates, already exported as per-histogram
                # `{quantile="..."}` lines by the Prometheus renderer
                continue
            else:
                registry.gauge(f"repro_run_{name}",
                               f"final value of the '{name}' run "
                               "counter").set(value)
        for name in ("alloc_cycles", "region_cycles", "thread_cycles",
                     "io_cycles"):
            registry.gauge(f"repro_run_{name}",
                           f"final value of the '{name}' run "
                           "counter").set(getattr(stats, name))
        latency = registry.gauge(
            "repro_thread_max_dispatch_latency_cycles",
            "worst-case dispatch latency observed per thread")
        for thread in self.scheduler.threads:
            latency.labels(
                thread=thread.name,
                realtime="true" if thread.realtime else "false",
            ).set(thread.max_dispatch_latency)
        recorder = self.recorder
        if recorder is not None:
            # self-measured recording cost (host seconds, never charged
            # to the simulated clock) — the "how much does watching
            # cost" gauge the sampling stride exists to bound
            registry.gauge(
                "repro_observability_overhead_seconds",
                "host seconds spent inside observability recording "
                "paths").labels(component="flightrec").set(
                    round(recorder.overhead_s, 6))
            seen = registry.gauge(
                "repro_flight_events",
                "flight-recorder events by disposition")
            seen.labels(disposition="seen").set(recorder.events_seen)
            seen.labels(disposition="sampled_out").set(
                recorder.sampled_out)

    # ------------------------------------------------------------------
    # Figure 6: ownership / outlives graph extraction
    # ------------------------------------------------------------------

    def ownership_graph(self, include_dead: bool = False) -> RelationGraph:
        graph = RelationGraph()
        areas = [a for a in self.regions.areas
                 if a.live or include_dead]
        for area in areas:
            graph.add_node(f"region:{area.area_id}", area.name, "region")
        for area in areas:
            for other in areas:
                if other is not area and other.outlives(area):
                    graph.add_outlives(f"region:{other.area_id}",
                                       f"region:{area.area_id}")
        for area in areas:
            for obj in area.objects:
                if not (obj.alive or include_dead):
                    continue
                node = f"obj:{obj.oid}"
                graph.add_node(node, f"{obj.class_name}#{obj.oid}",
                               "object")
        for area in areas:
            for obj in area.objects:
                node = f"obj:{obj.oid}"
                if node not in graph.labels:
                    continue
                owner = obj.owner
                if isinstance(owner, ObjRef):
                    owner_node = f"obj:{owner.oid}"
                else:
                    owner_node = f"region:{owner.area_id}"
                if owner_node in graph.labels:
                    graph.add_owns(owner_node, node)
        return graph


def execute(analyzed: AnalyzedProgram,
            options: Optional[RunOptions] = None
            ) -> Tuple[RunResult, "Machine"]:
    """Run ``analyzed`` on the requested backend, falling back towards
    the interpreter when the compiled program bails.

    A fused-backend program *bails* (rather than raising) the moment it
    would have to do anything whose observable behaviour it cannot
    reproduce exactly — an error path, a GC trigger, a cycle-limit
    stop.  The partial run's state is unusable at that point, so the
    program is re-executed from scratch on the backend's declared
    fallback (``py`` fused -> faithful -> interpreter) on a *fresh*
    machine.  The returned result is therefore always exactly the
    interpreter's, whatever backend actually produced it.
    """
    machine = Machine(analyzed, options)
    result = machine.run()
    while machine.program_bailed:
        from dataclasses import replace
        fallback = machine.program.fallback_backend
        options = replace(machine.options, backend=fallback)
        machine = Machine(analyzed, options)
        result = machine.run()
    return result, machine


def run_source(source: Union[str, AnalyzedProgram],
               options: Optional[RunOptions] = None,
               require_well_typed: bool = True) -> RunResult:
    """Analyze (if needed) and execute ``source`` on the simulated
    platform."""
    analyzed = analyze(source) if isinstance(source, str) else source
    if require_well_typed and analyzed.errors:
        raise analyzed.errors[0]
    return execute(analyzed, options)[0]
