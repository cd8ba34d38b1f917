"""The bench runner: a program in both check modes, on the interpreter
and on the codegen backends.

:func:`measure_source` is the only code that runs a program for a
harness.  It returns one cell per mode and backend: the best-of-
``repeats`` wall time, simulated cycles, output digest and steps, and
for the interpreter cell the assignment and read check counts too;
beside the cells, the lines the interpreter printed in each mode.
Three harnesses are views of it:

* the ``codegen`` suite (:func:`measure`) reads every cell;
* the ``interp`` suite (:func:`repro.bench.timing.measure`) reads only
  the interpreter cells, measured without a codegen backend and so
  without a warm-up run;
* Figure 12 (:func:`repro.bench.timing.figure12`) reads the
  interpreter cells of one run per mode.

The ``codegen`` suite has two jobs:

* **Equivalence gate** — every backend run is compared against the
  interpreter reference on the same analyzed program: simulated
  cycles, output bytes (sha256) and the full ``Stats.summary()`` must
  be identical.  Any divergence is a hard failure (exit 3 from
  ``repro bench --suite codegen``) — the backends promise
  byte-identical observable behaviour, not "roughly the same".
* **Speedup ledger** — wall time per backend, per benchmark and mode,
  plus the aggregate static-mode speedup against the *committed seed
  interpreter baseline* (the ``BENCH_interp.json`` numbers from
  before any codegen work, embedded below so the comparison is stable
  across machines re-measuring the interpreter).  ``--min-speedup``
  turns the aggregate into a gate: a ``min`` bound on the
  ``aggregate/static/<backend>/speedup_vs_seed`` row.

Backend rows record what actually executed: a program the requested
backend cannot compile falls down the capability ladder
(c -> py-fused -> py-faithful -> interpreter), and the row's
``backend_used``/``fallback`` fields say so.  A host without a C
toolchain (or cffi) gets ``skipped`` C rows, never failures — CI
equivalence coverage for C lives on hosts that have one.

The C backend is checks-erased by design, so it is only measured in
static mode; dynamic-mode rows are measured for the py backend.

The payload is ``repro-bench/2`` (:mod:`repro.bench.compare`): one row
per benchmark, mode, backend and quantity.  Cycles and output hashes
are judged exactly on every backend; wall time is judged on every
backend except C, whose timings follow the host's toolchain.  The seed
numbers are unjudged ``seed`` rows.
"""

from __future__ import annotations

import dataclasses
import platform
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.api import analyze
from ..interp.machine import RunOptions, execute
from .compare import cell_rows, make_payload, row
from .suite import BENCHMARKS

__all__ = ["MODES", "DEFAULT_BACKENDS", "SEED_STATIC_WALL_S", "JUDGES",
           "measure", "measure_benchmark", "measure_source"]

#: mode name -> checks_enabled
MODES = {"dynamic": True, "static": False}

#: backends measured by default ("c" auto-skips without a toolchain)
DEFAULT_BACKENDS = ("py", "c")

#: static-mode wall seconds of the committed seed interpreter baseline
#: (BENCH_interp.json, pre-codegen).  The >=10x acceptance target for
#: the py backend is judged against the sum of these.
SEED_STATIC_WALL_S = {
    "Array": 0.004833,
    "Barnes": 0.089309,
    "ImageRec": 0.028715,
    "Tree": 0.009460,
    "Water": 0.007830,
    "game": 0.002911,
    "http": 0.001832,
    "phone": 0.003186,
}

#: how each measured quantity is judged (see repro.bench.compare); C
#: wall time is left unjudged because it follows the host's toolchain
C_JUDGES = {"cycles": "exact", "output_sha256": "exact"}
JUDGES = dict(C_JUDGES, wall_s="wall")


def _options(enabled: bool, backend: str) -> RunOptions:
    return RunOptions(checks_enabled=enabled, validate=False,
                      instrument=False, backend=backend)


def _run_best(analyzed, options: RunOptions, repeats: int,
              warm: bool = True):
    """Best-of-``repeats`` wall time (min: timer noise is additive).

    With ``warm``, one untimed run first builds the backend's form (cc
    + dlopen for C), which ``analyzed.compiled`` keeps, so every timed
    run measures execution alone, even at ``repeats=1``."""
    if warm:
        execute(analyzed, dataclasses.replace(options))
    best = None
    result = machine = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result, machine = execute(
            analyzed, dataclasses.replace(options))
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result, machine


def _cell(wall: float, result) -> Dict[str, Any]:
    return {
        "wall_s": round(wall, 6),
        "cycles": result.stats.cycles,
        "mcycles_per_s": round(result.stats.cycles / wall / 1e6, 3)
        if wall else 0.0,
        "output_sha256": result.output_sha256,
        "steps": result.stats.steps,
    }


def measure_source(source: str, backends: Iterable[str] = (),
                   repeats: int = 3, name: str = "?",
                   divergences: Optional[List[str]] = None
                   ) -> Tuple[Dict[str, Dict[str, Any]],
                              Dict[str, List[str]]]:
    """Run ``source`` in both check modes: ``({mode: {backend: cell}},
    {mode: output})``, the output being what the interpreter printed.

    The ``interp`` cell is the reference; each of ``backends`` adds a
    cell with its equivalence verdict against it (a divergence is also
    appended to ``divergences``).  Only a run with backends warms each
    form first, the reference included, so that a speedup compares
    like with like.  Instrumentation is off: it charges no cycles, so
    the cells' cycles and check counts are those of an instrumented
    run."""
    backends = tuple(backends)
    analyzed = analyze(source)
    if analyzed.errors:
        raise analyzed.errors[0]
    out: Dict[str, Dict[str, Any]] = {}
    outputs: Dict[str, List[str]] = {}
    for mode, enabled in MODES.items():
        wall, ref, _m = _run_best(analyzed, _options(enabled, "interp"),
                                  repeats, warm=bool(backends))
        outputs[mode] = ref.output
        cells: Dict[str, Any] = {"interp": dict(
            _cell(wall, ref),
            assignment_checks=ref.stats.assignment_checks,
            read_checks=ref.stats.read_checks)}
        ref_summary = ref.stats.summary()
        for backend in backends:
            if backend == "c" and enabled:
                # checks-erased by design: dynamic mode is py territory
                cells[backend] = {"skipped":
                                  "checks-erased (static mode only)"}
                continue
            wall_b, res, machine = _run_best(
                analyzed, _options(enabled, backend), repeats)
            used = (machine.program.backend
                    if machine.program is not None else "interp")
            cell = _cell(wall_b, res)
            cell["backend_used"] = used
            if machine.codegen_fallback:
                cell["fallback"] = machine.codegen_fallback
            if backend == "c" and used != "c":
                note = machine.codegen_fallback or "unsupported"
                if ("toolchain" in note or "cffi" in note
                        or "cc failed" in note):
                    # environmental, not a program property: skip
                    cells[backend] = {"skipped": note}
                    continue
            equivalent = (res.stats.cycles == ref.stats.cycles
                          and res.output == ref.output
                          and res.stats.summary() == ref_summary)
            cell["equivalent"] = equivalent
            if not equivalent and divergences is not None:
                divergences.append(
                    f"{name}/{mode}/{backend}: cycles "
                    f"{ref.stats.cycles} -> {res.stats.cycles}, "
                    f"output "
                    f"{'same' if res.output == ref.output else 'DIFFERS'}")
            cell["speedup_vs_interp"] = (round(wall / wall_b, 2)
                                         if wall_b else 0.0)
            cells[backend] = cell
        out[mode] = cells
    return out, outputs


def measure_benchmark(name: str, backends: Iterable[str] = (),
                      fast: bool = True, repeats: int = 3,
                      divergences: Optional[List[str]] = None
                      ) -> Dict[str, Any]:
    """The cells of :func:`measure_source` of one registry program."""
    cells, _outputs = measure_source(BENCHMARKS[name].source(fast=fast),
                                     backends, repeats, name, divergences)
    return cells


def measure(names: Optional[Iterable[str]] = None,
            backends: Optional[Iterable[str]] = None,
            fast: bool = True, repeats: int = 3) -> Dict[str, Any]:
    """Run the (selected) registry and return the payload."""
    selected = list(names) if names is not None else list(BENCHMARKS)
    chosen = tuple(backends) if backends else DEFAULT_BACKENDS
    divergences: List[str] = []
    results = {name: measure_benchmark(name, chosen, fast=fast,
                                       repeats=repeats,
                                       divergences=divergences)
               for name in selected}
    rows = [r for name, measured in results.items()
            for mode, cells in measured.items()
            for backend, cell in cells.items()
            for r in cell_rows(name, mode, backend, cell,
                               C_JUDGES if backend == "c" else JUDGES)]
    seed_total = sum(SEED_STATIC_WALL_S[n] for n in selected
                     if n in SEED_STATIC_WALL_S)
    interp_total = sum(results[n]["static"]["interp"]["wall_s"]
                       for n in selected)
    for backend in chosen:
        cells = [results[n]["static"].get(backend) for n in selected]
        live = [c for c in cells if c and "wall_s" in c]
        if not live or len(live) != len(cells):
            # a skipped cell would understate the aggregate: only report
            # aggregates over full coverage
            aggregate: Dict[str, Any] = {"skipped": "incomplete coverage"}
        else:
            total = sum(c["wall_s"] for c in live)
            aggregate = {
                "static_wall_s": round(total, 6),
                "speedup_vs_seed": (round(seed_total / total, 2)
                                    if total and seed_total else 0.0),
                "speedup_vs_interp": (round(interp_total / total, 2)
                                      if total else 0.0),
            }
        rows += cell_rows("aggregate", "static", backend, aggregate)
    rows += [row(name, "static", "seed", "wall_s", wall)
             for name, wall in SEED_STATIC_WALL_S.items()]
    rows.append(row("aggregate", "static", "seed", "static_wall_s",
                    round(seed_total, 6)))
    return make_payload("codegen", {
        "fast": fast, "repeats": repeats,
        "python": platform.python_version(),
        "backends": list(chosen)}, rows, divergences)
