"""Host wall-clock benchmark of the interpreter itself.

The paper's Figure 12 numbers are *simulated* cycles — deterministic and
host-independent (:mod:`repro.bench.timing`).  This module measures the
orthogonal quantity: how fast the *host* interpreter executes those
simulated cycles.  It exists so interpreter performance work (compiled
dispatch, null instrumentation, inline caches — see
``docs/PERFORMANCE.md``) is measured, committed, and guarded against
regression in CI.

``measure()`` runs each registry benchmark in both check modes with
``RunOptions(instrument=False, validate=False)`` — null observability
sinks, no soundness re-validation — so the wall time reflects the
interpreter hot loop alone.  It returns a ``repro-bench/2`` payload
(:mod:`repro.bench.compare`; ``BENCH_interp.json`` at the repo root),
one row per benchmark, mode and quantity.  The ``bench-smoke`` CI job
judges a fresh payload against the committed one, which is how it fails
a PR that slows the interpreter down.

Determinism note: wall seconds vary with the host; simulated cycles and
output hashes must not.  So ``cycles`` and ``output_sha256`` rows are
judged exactly (a difference means the program or cost model changed),
while ``wall_s`` rows are judged against the regression threshold.
"""

from __future__ import annotations

import hashlib
import platform
import time
from typing import Any, Dict, Iterable, List, Optional

from ..core.api import analyze
from ..interp.machine import RunOptions, run_source
from .compare import cell_rows, make_payload
from .suite import BENCHMARKS

__all__ = ["MODES", "JUDGES", "measure", "measure_benchmark"]

#: mode name -> checks_enabled
MODES = {"dynamic": True, "static": False}

#: how each measured quantity is judged (see repro.bench.compare)
JUDGES = {"cycles": "exact", "output_sha256": "exact", "wall_s": "wall"}


def _run_once(analyzed, enabled: bool):
    options = RunOptions(checks_enabled=enabled, validate=False,
                         instrument=False)
    start = time.perf_counter()
    result = run_source(analyzed, options)
    elapsed = time.perf_counter() - start
    return elapsed, result


def measure_benchmark(name: str, fast: bool = True,
                      repeats: int = 3) -> Dict[str, Any]:
    """Measure one benchmark in both modes; wall time is the best of
    ``repeats`` runs (min is the standard estimator for noisy timers —
    noise is strictly additive)."""
    bench = BENCHMARKS[name]
    analyzed = analyze(bench.source(fast=fast))
    if analyzed.errors:
        raise analyzed.errors[0]
    row: Dict[str, Any] = {}
    for mode, enabled in MODES.items():
        best = None
        result = None
        for _ in range(max(repeats, 1)):
            elapsed, result = _run_once(analyzed, enabled)
            best = elapsed if best is None else min(best, elapsed)
        digest = hashlib.sha256(
            "\n".join(result.output).encode()).hexdigest()
        row[mode] = {
            "wall_s": round(best, 6),
            "cycles": result.stats.cycles,
            "mcycles_per_s": round(result.stats.cycles / best / 1e6, 3)
            if best else 0.0,
            "output_sha256": digest,
            "steps": result.stats.steps,
        }
    dyn, sta = row["dynamic"], row["static"]
    row["cycle_overhead"] = (round(dyn["cycles"] / sta["cycles"], 4)
                             if sta["cycles"] else 0.0)
    row["wall_overhead"] = (round(dyn["wall_s"] / sta["wall_s"], 4)
                            if sta["wall_s"] else 0.0)
    return row


def measure(names: Optional[Iterable[str]] = None, fast: bool = True,
            repeats: int = 3) -> Dict[str, Any]:
    """Run the (selected) benchmark registry and return the full
    payload."""
    selected = list(names) if names is not None else list(BENCHMARKS)
    results = {name: measure_benchmark(name, fast=fast, repeats=repeats)
               for name in selected}
    total_wall = sum(measured[mode]["wall_s"]
                     for measured in results.values() for mode in MODES)
    total_cycles = sum(measured[mode]["cycles"]
                       for measured in results.values() for mode in MODES)
    rows: List[Dict[str, Any]] = []
    for name, measured in results.items():
        for mode in MODES:
            rows += cell_rows(name, mode, "interp", measured[mode], JUDGES)
        rows += cell_rows(name, None, "interp", {
            ratio: measured[ratio]
            for ratio in ("cycle_overhead", "wall_overhead")})
    rows += cell_rows("total", None, "interp", {
        "wall_s": round(total_wall, 6),
        "cycles": total_cycles,
        "mcycles_per_s": round(total_cycles / total_wall / 1e6, 3)
        if total_wall else 0.0,
    })
    return make_payload("interp", {
        "fast": fast, "repeats": repeats,
        "python": platform.python_version()}, rows)
