"""Execution engine: a deterministic, preemptible interpreter for the core
language running on the simulated RTSJ platform of :mod:`repro.rtsj`.

* :mod:`~repro.interp.values`      — runtime values (region handles).
* :mod:`~repro.interp.interpreter` — generator-based tree-walking
  interpreter; every operation charges its cycle cost against the
  thread's slice budget, so the scheduler can preempt between any two
  operations.
* :mod:`~repro.interp.machine`     — ties program + regions + GC +
  scheduler + checks together; the public ``run_source`` entry point.
* :mod:`~repro.interp.translate`   — the Section 2.6 translation to RTSJ
  (allocation-site strategies, wrapper layout, pseudo-Java output).
"""

from .machine import Machine, RunOptions, RunResult, run_source

__all__ = ["Machine", "RunOptions", "RunResult", "run_source"]
