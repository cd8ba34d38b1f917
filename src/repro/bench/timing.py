"""Figure 12 — dynamic checking overhead — and the ``interp`` bench suite.

Both are views of the interpreter cells of
:func:`repro.bench.codegen.measure_source`, which runs a program once
with the RTSJ dynamic checks performed and charged ("Dynamic Checks")
and once with them compiled out ("Static Checks"):

* :func:`figure12` reports the cycle counts of one run per mode and
  their ratio next to the paper's measured overheads.  Output
  determinism is asserted: both runs must print exactly the same thing,
  and that must be the program's expected output.
* :func:`measure` is ``repro bench --suite interp``: the best-of-
  ``repeats`` cells as ``repro-bench/2`` rows (``BENCH_interp.json``
  at the repo root), plus each program's cycle and wall overhead.  The
  ``bench-smoke`` CI job judges a fresh payload against the committed
  one: ``cycles`` and ``output_sha256`` exactly (a difference means
  the program or cost model changed), ``wall_s`` against the
  regression threshold, which is how it fails a PR that slows the
  interpreter down.

The ``codegen`` suite measures the same interpreter cells next to its
backends; this suite keeps its own baseline file because CI judges
interpreter walls at a 30% threshold, and the codegen suite's
sub-millisecond py walls only at 200%.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from .codegen import JUDGES, measure_benchmark, measure_source
from .compare import cell_rows, make_payload
from .suite import BENCHMARKS


@dataclass
class CheckOverheadRow:
    name: str
    static_cycles: int
    dynamic_cycles: int
    assignment_checks: int
    read_checks: int
    paper_overhead: Optional[float]

    @property
    def overhead(self) -> float:
        return (self.dynamic_cycles / self.static_cycles
                if self.static_cycles else float("nan"))


def measure_check_overhead(source: str, name: str = "?",
                           paper_overhead: Optional[float] = None,
                           expected_output: Optional[List[str]] = None
                           ) -> CheckOverheadRow:
    """Run ``source`` once per mode and return the Figure 12 row."""
    cells, outputs = measure_source(source, repeats=1, name=name)
    if outputs["dynamic"] != outputs["static"]:
        raise AssertionError(
            f"{name}: nondeterministic output between modes: "
            f"{outputs['dynamic']!r} vs {outputs['static']!r}")
    if expected_output is not None and outputs["static"] != expected_output:
        raise AssertionError(
            f"{name}: wrong output {outputs['static']!r}, expected "
            f"{expected_output!r}")
    dynamic, static = cells["dynamic"]["interp"], cells["static"]["interp"]
    return CheckOverheadRow(
        name=name,
        static_cycles=static["cycles"],
        dynamic_cycles=dynamic["cycles"],
        assignment_checks=dynamic["assignment_checks"],
        read_checks=dynamic["read_checks"],
        paper_overhead=paper_overhead,
    )


def figure12(fast: bool = True,
             programs: Optional[List[str]] = None) -> List[CheckOverheadRow]:
    """Regenerate Figure 12: every benchmark plus the six ImageRec
    pipeline stages."""
    from .suite import IMAGEREC_STAGES, PAPER_STAGE_OVERHEAD
    rows: List[CheckOverheadRow] = []
    selected = programs or list(BENCHMARKS)
    for name in selected:
        bench = BENCHMARKS[name]
        rows.append(measure_check_overhead(
            bench.source(fast=fast), bench.name,
            paper_overhead=bench.paper_overhead,
            expected_output=bench.expected_output()))
        if name == "ImageRec":
            mod = bench.load()
            for stage in IMAGEREC_STAGES:
                rows.append(measure_check_overhead(
                    bench.source(fast=fast, stage=stage),
                    f"  {stage}",
                    paper_overhead=PAPER_STAGE_OVERHEAD.get(stage),
                    expected_output=mod.stage_expected_output(stage)))
    return rows


def format_figure12(rows: List[CheckOverheadRow]) -> str:
    header = (f"{'Program':<12} {'Static':>12} {'Dynamic':>12} "
              f"{'Overhead':>9} {'Paper':>6}   {'#assign':>8} "
              f"{'#read':>7}")
    lines = [header, "-" * len(header)]
    for row in rows:
        paper = (f"{row.paper_overhead:.2f}"
                 if row.paper_overhead is not None else "-")
        lines.append(
            f"{row.name:<12} {row.static_cycles:>12} "
            f"{row.dynamic_cycles:>12} {row.overhead:>9.2f} "
            f"{paper:>6}   {row.assignment_checks:>8} "
            f"{row.read_checks:>7}")
    return "\n".join(lines)


def figure12_dict(rows: List[CheckOverheadRow]) -> List[Dict]:
    return [
        {
            "program": row.name.strip(),
            "static_cycles": row.static_cycles,
            "dynamic_cycles": row.dynamic_cycles,
            "overhead": round(row.overhead, 3),
            "paper_overhead": row.paper_overhead,
        }
        for row in rows
    ]


def measure(names: Optional[Iterable[str]] = None, fast: bool = True,
            repeats: int = 3) -> Dict[str, Any]:
    """The ``interp`` suite: the interpreter cells of the (selected)
    registry as a ``repro-bench/2`` payload."""
    selected = list(names) if names is not None else list(BENCHMARKS)
    rows: List[Dict[str, Any]] = []
    total_wall = 0.0
    total_cycles = 0
    for name in selected:
        cells = {mode: by_backend["interp"] for mode, by_backend in
                 measure_benchmark(name, fast=fast,
                                   repeats=repeats).items()}
        for mode, cell in cells.items():
            rows += cell_rows(name, mode, "interp", cell, JUDGES)
            total_wall += cell["wall_s"]
            total_cycles += cell["cycles"]
        dyn, sta = cells["dynamic"], cells["static"]
        rows += cell_rows(name, None, "interp", {
            "cycle_overhead": (round(dyn["cycles"] / sta["cycles"], 4)
                               if sta["cycles"] else 0.0),
            "wall_overhead": (round(dyn["wall_s"] / sta["wall_s"], 4)
                              if sta["wall_s"] else 0.0)})
    rows += cell_rows("total", None, "interp", {
        "wall_s": round(total_wall, 6),
        "cycles": total_cycles,
        "mcycles_per_s": round(total_cycles / total_wall / 1e6, 3)
        if total_wall else 0.0,
    })
    return make_payload("interp", {
        "fast": fast, "repeats": repeats,
        "python": platform.python_version()}, rows)
