"""Differential wall-clock benchmark of the codegen backends.

Two jobs in one suite:

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
import hashlib
import platform
import time
from typing import Any, Dict, Iterable, List, Optional

from ..core.api import analyze
from ..interp.machine import RunOptions, execute
from .compare import cell_rows, make_payload, row
from .suite import BENCHMARKS

__all__ = ["MODES", "DEFAULT_BACKENDS", "SEED_STATIC_WALL_S", "JUDGES",
           "measure", "measure_benchmark"]

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


def _run_best(analyzed, options: RunOptions, repeats: int):
    """Best-of-``repeats`` wall time (min: timer noise is additive).

    One untimed run first builds the backend's form (cc + dlopen for
    C), which ``analyzed.compiled`` keeps, so every timed run measures
    execution alone, even at ``repeats=1``."""
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


def _row(wall: float, result) -> Dict[str, Any]:
    digest = hashlib.sha256(
        "\n".join(result.output).encode()).hexdigest()
    return {
        "wall_s": round(wall, 6),
        "cycles": result.stats.cycles,
        "mcycles_per_s": round(result.stats.cycles / wall / 1e6, 3)
        if wall else 0.0,
        "output_sha256": digest,
        "steps": result.stats.steps,
    }


def measure_benchmark(name: str, backends: Iterable[str],
                      fast: bool = True, repeats: int = 3,
                      divergences: Optional[List[str]] = None
                      ) -> Dict[str, Any]:
    """One benchmark across modes and backends, with the interpreter
    reference row and per-backend equivalence verdicts."""
    bench = BENCHMARKS[name]
    analyzed = analyze(bench.source(fast=fast))
    if analyzed.errors:
        raise analyzed.errors[0]
    out: Dict[str, Any] = {}
    for mode, enabled in MODES.items():
        wall, ref, _m = _run_best(analyzed, _options(enabled, "interp"),
                                  repeats)
        rows: Dict[str, Any] = {"interp": _row(wall, ref)}
        ref_summary = ref.stats.summary()
        for backend in backends:
            if backend == "c" and enabled:
                # checks-erased by design: dynamic mode is py territory
                rows[backend] = {"skipped":
                                 "checks-erased (static mode only)"}
                continue
            wall_b, res, machine = _run_best(
                analyzed, _options(enabled, backend), repeats)
            used = (machine.program.backend
                    if machine.program is not None else "interp")
            row = _row(wall_b, res)
            row["backend_used"] = used
            if machine.codegen_fallback:
                row["fallback"] = machine.codegen_fallback
            if backend == "c" and used != "c":
                note = machine.codegen_fallback or "unsupported"
                if ("toolchain" in note or "cffi" in note
                        or "cc failed" in note):
                    # environmental, not a program property: skip
                    rows[backend] = {"skipped": note}
                    continue
            equivalent = (res.stats.cycles == ref.stats.cycles
                          and res.output == ref.output
                          and res.stats.summary() == ref_summary)
            row["equivalent"] = equivalent
            if not equivalent and divergences is not None:
                divergences.append(
                    f"{name}/{mode}/{backend}: cycles "
                    f"{ref.stats.cycles} -> {res.stats.cycles}, "
                    f"output "
                    f"{'same' if res.output == ref.output else 'DIFFERS'}")
            row["speedup_vs_interp"] = (round(wall / wall_b, 2)
                                        if wall_b else 0.0)
            rows[backend] = row
        out[mode] = rows
    return out


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
