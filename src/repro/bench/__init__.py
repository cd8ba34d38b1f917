"""Benchmark programs and the Figure 11 / Figure 12 harnesses.

The paper evaluates on eight programs (Section 3): two micro-benchmarks
written to maximize the ratio of assignments to other computation
(``Array``, ``Tree``), two scientific computations (``Water``,
``Barnes``), the components of an image-recognition pipeline
(``ImageRec``: load, cross, threshold, hysteresis, thinning, save), and
three servers (``http``, ``game``, ``phone``).  Each module in
:mod:`repro.bench.programs` carries the same program written in the core
language with the same memory-management structure: primary data
structures live in regions, not in the garbage-collected heap.

* :mod:`repro.bench.suite`    — the registry of all programs.
* :mod:`repro.bench.overhead` — Figure 11: lines of code vs annotated
  lines.
* :mod:`repro.bench.codegen`  — the one runner: a program in both check
  modes on the interpreter and the codegen backends, one cell per mode
  and backend; the ``codegen`` suite reads every cell.
* :mod:`repro.bench.timing`   — Figure 12 (execution with dynamic checks
  vs with static checks only) and the ``interp`` suite, both views of
  the runner's interpreter cells.
* :mod:`repro.bench.compare`  — the ``repro-bench/2`` row format every
  ``repro bench`` suite writes, and the one judge ``repro bench`` and
  ``repro report`` apply to it.
"""

from .suite import BENCHMARKS, Benchmark, get_benchmark
from .overhead import AnnotationReport, count_annotations, figure11
from .timing import CheckOverheadRow, figure12, measure_check_overhead
from .compare import judge, load_payload, render_table, save_payload

__all__ = [
    "BENCHMARKS", "Benchmark", "get_benchmark",
    "AnnotationReport", "count_annotations", "figure11",
    "CheckOverheadRow", "figure12", "measure_check_overhead",
    "judge", "render_table", "load_payload", "save_payload",
]
