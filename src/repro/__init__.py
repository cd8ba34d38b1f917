"""Ownership types for safe region-based memory management in real-time
Java — a full reproduction of Boyapati, Sălcianu, Beebee & Rinard
(PLDI 2003).

The library has four layers:

* :mod:`repro.lang`   — lexer/parser/pretty-printer for the paper's core
  language (Classic Java + owner parameters, region kinds, portals,
  effects, ``fork``/``RT fork``).
* :mod:`repro.core`   — the static type system (Appendix B), Section 2.5
  inference/defaults, and the Figure 6 relation extraction.
* :mod:`repro.rtsj`   — the simulated RTSJ platform: LT/VT/shared regions,
  subregions, portals, dynamic checks, garbage collector, scheduler.
* :mod:`repro.interp` — the execution engine and the Section 2.6
  translation to RTSJ.

Quick start::

    from repro import analyze, run_source, RunOptions

    analyzed = analyze(source_text)      # parse → infer → typecheck
    analyzed.require_well_typed()
    rtsj = run_source(analyzed, RunOptions(checks_enabled=True))
    ours = run_source(analyzed, RunOptions(checks_enabled=False))
    assert rtsj.output == ours.output    # same behaviour, fewer cycles
"""

from .core.api import AnalyzedProgram, analyze, typecheck_source
from .errors import (IllegalAssignmentError, InferenceError,
                     MemoryAccessError, OwnershipTypeError, ParseError,
                     RealtimeViolationError, ReproError)
from .interp.machine import Machine, RunOptions, RunResult, run_source
from .interp.translate import AllocStrategy, Translation, translate
from .lang import parse_program, pretty_program
from .rtsj.stats import CostModel, Stats

__version__ = "1.0.0"

__all__ = [
    "analyze", "typecheck_source", "AnalyzedProgram",
    "parse_program", "pretty_program",
    "run_source", "Machine", "RunOptions", "RunResult",
    "translate", "Translation", "AllocStrategy",
    "CostModel", "Stats",
    "ReproError", "ParseError", "OwnershipTypeError", "InferenceError",
    "IllegalAssignmentError", "MemoryAccessError",
    "RealtimeViolationError",
    "__version__",
]
