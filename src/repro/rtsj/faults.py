"""How the simulated runtime degrades when a fault hits.

The paper's theorems say well-typed programs never *fail* the RTSJ
dynamic checks — but a production runtime still has failure paths the
type system says nothing about: LT budgets sized too small, VT chunk
pools under pressure, denied region enters, portal teardown races,
thread-table pressure, GC pause spikes.  The shared fault core
(:mod:`repro.faults`, target ``runtime``) makes those paths
exercisable deterministically; the consult points live in
:mod:`repro.rtsj.regions`, :mod:`repro.rtsj.threads`,
:mod:`repro.rtsj.gc`, :mod:`repro.rtsj.checks` and the interpreter.

This module holds the runtime's side of the contract: the
:class:`RecoveryPolicy` — bounded retries with exponential backoff, VT
overflow spilling to a longer-lived area where the outlives relation
permits, and the LT watchdog that aborts an overrunning thread without
wedging the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the runtime degrades when a fault (injected or organic) hits.

    Retries charge exponential backoff to the simulated clock — attempt
    ``i`` costs ``backoff_base << i`` cycles — so recovery has an honest
    cost in the Figure-12 currency.  ``vt_spill`` allows a VT allocation
    that cannot obtain chunks to fall back to the region's parent (or
    the heap, for non-real-time threads): both outlive the denied
    region, so every previously-checked reference stays safe (R1–R3).
    ``lt_watchdog`` names the degradation for LT overruns: the
    offending thread is aborted with a structured diagnostic while the
    scheduler keeps serving the others (requires the machine's degrade
    mode; otherwise the error propagates as before).
    """

    max_retries: int = 3
    backoff_base: int = 64
    vt_spill: bool = True
    lt_watchdog: bool = True

    def backoff_cycles(self, attempt: int) -> int:
        """Cycles charged before retry number ``attempt`` (0-based)."""
        return self.backoff_base << min(attempt, 16)
