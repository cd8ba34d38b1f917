"""The degradation ladder: healthy → brownout → shed.

Overload and attrition policy for ``repro serve``, in one small state
machine the HTTP frontend consults on every admission:

* **healthy** (rung 0) — everything is admitted;
* **brownout** (rung 1) — expensive modes are disabled: ``run`` and
  ``inspect`` misses are answered ``503 + Retry-After`` (analyze-only
  service), and compiled backends fall one rung down the capability
  ladder (``c`` → ``py-fused`` — observable results are byte-identical
  across backends, so the downgrade is invisible except in
  ``backend_used``);
* **shed** (rung 2) — only fingerprint-exact hot-tier hits, health,
  and metrics are served; every miss is ``503 + Retry-After``.

Escalation is event-driven: worker deaths, stalls, pipe failures
(reported by the pool's ``on_worker_event``) and sustained queue
pressure call :meth:`DegradationLadder.trouble`.  One trouble takes a
healthy service to brownout; a streak of them while already browned
out takes it to shed.  Healing is time-driven: once the service has
been *calm* (no trouble, full worker complement, low queue) for
``heal_after_s``, :meth:`observe` steps down one rung per interval —
shed → brownout → healthy, never straight down.

The hot-results tier stays on at every rung on purpose: those bodies
are fingerprint-exact (the machine is deterministic), so serving them
costs one dict lookup and is always correct — the cheapest possible
request is the last thing to turn off.

Every transition is counted
(``repro_serve_rung_transitions_total{from,to}``) and the current rung
exported as a gauge (``repro_serve_degradation_rung``), which is what
the serve-chaos gate uses to assert the healthy → brownout → healthy
arc actually happened.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

__all__ = ["RUNG_HEALTHY", "RUNG_BROWNOUT", "RUNG_SHED", "RUNG_NAMES",
           "BACKEND_BROWNOUT_FALLBACK", "DegradationLadder"]

RUNG_HEALTHY = 0
RUNG_BROWNOUT = 1
RUNG_SHED = 2
RUNG_NAMES = ("healthy", "brownout", "shed")

#: brownout backend downgrade — one step down the capability ladder
#: that serve's startup probing already uses; results stay
#: byte-identical (the codegen equivalence gate is the proof), so only
#: ``backend_used`` betrays the swap
BACKEND_BROWNOUT_FALLBACK = {"c": "py-fused"}


class DegradationLadder:
    """Tracks the rung, escalates on trouble, heals when calm."""

    #: troubles while already browned out that escalate to shed
    shed_after_troubles = 5

    def __init__(self, heal_after_s: float = 0.5,
                 calm: Optional[Callable[[], bool]] = None,
                 metrics: Optional[Any] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.heal_after_s = max(0.0, heal_after_s)
        #: extra heal precondition (full worker complement, quiet
        #: queue); None means time alone heals
        self._calm = calm
        self._clock = clock
        self._lock = threading.Lock()
        self._rung = RUNG_HEALTHY
        self._streak = 0          # troubles since last step down
        self._last_trouble = 0.0  # clock stamp of the newest trouble
        self._last_reason = ""
        if metrics is not None:
            self._rung_gauge = metrics.gauge(
                "repro_serve_degradation_rung",
                "current degradation rung "
                "(0=healthy 1=brownout 2=shed)")
            self._rung_gauge.set(RUNG_HEALTHY)
            self._transitions = metrics.counter(
                "repro_serve_rung_transitions_total",
                "degradation rung transitions")
        else:
            self._rung_gauge = self._transitions = None

    # -- introspection --------------------------------------------------

    @property
    def rung(self) -> int:
        with self._lock:
            return self._rung

    @property
    def rung_name(self) -> str:
        return RUNG_NAMES[self.rung]

    @property
    def last_reason(self) -> str:
        with self._lock:
            return self._last_reason

    # -- transitions ----------------------------------------------------

    def _move(self, target: int) -> None:
        """Record a rung change; caller holds the lock."""
        if target == self._rung:
            return
        if self._transitions is not None:
            self._transitions.labels(
                src=RUNG_NAMES[self._rung],
                dst=RUNG_NAMES[target]).inc()
        self._rung = target
        if self._rung_gauge is not None:
            self._rung_gauge.set(target)

    def trouble(self, reason: str) -> int:
        """A service-level failure signal (worker death, stall, pipe
        failure, sustained queue pressure).  One trouble browns out a
        healthy service; a streak of ``shed_after_troubles`` while
        already degraded sheds.  Returns the rung after the event."""
        now = self._clock()
        with self._lock:
            self._last_trouble = now
            self._last_reason = reason
            self._streak += 1
            if self._rung == RUNG_HEALTHY:
                self._move(RUNG_BROWNOUT)
            elif (self._rung == RUNG_BROWNOUT
                    and self._streak >= self.shed_after_troubles):
                self._move(RUNG_SHED)
            return self._rung

    def observe(self) -> int:
        """The admission-path consult: heal if the calm window has
        elapsed, then return the current rung.  Healing steps down one
        rung per elapsed window — recovery is gradual by design, so a
        service that sheds doesn't slam straight back into full
        admission while its workers are still warming."""
        with self._lock:
            if self._rung == RUNG_HEALTHY:
                return self._rung
            now = self._clock()
            if now - self._last_trouble < self.heal_after_s:
                return self._rung
            if self._calm is not None and not self._calm():
                # not calm yet: restart the window so flapping load
                # can't oscillate the rung
                self._last_trouble = now
                return self._rung
            self._move(self._rung - 1)
            self._streak = 0
            self._last_trouble = now  # next rung needs its own window
            return self._rung

    def worker_event(self, kind: str) -> None:
        """Pool ``on_worker_event`` hook: failures escalate, respawns
        are neutral (healing is time-based, not event-based)."""
        if kind in ("crash", "stall", "pipe_write"):
            self.trouble(kind)
