"""Exception hierarchy for the whole reproduction.

Static errors (lexing, parsing, typechecking) derive from
:class:`StaticError`; runtime failures of the simulated RTSJ platform derive
from :class:`RuntimeCheckError`.  The paper's central claim is that for
well-typed programs no :class:`RuntimeCheckError` subclass corresponding to
an RTSJ dynamic check (:class:`IllegalAssignmentError`,
:class:`MemoryAccessError`, :class:`ScopedCycleError`) is ever raised; the
test suite asserts exactly that.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .source import Span


class ReproError(Exception):
    """Root of every error raised by this library.

    Every instance can render itself as a *structured diagnostic* — a
    plain dict with the error type, message, and (when the failure
    happened inside a simulated run) the fault site, thread, and cycle
    it occurred at.  The fault-injection core (:mod:`repro.faults`)
    and the chaos driver rely on this: a run must never end in a bare
    traceback, only in a diagnosable record.
    """

    #: fault site this error is associated with (``lt_alloc``,
    #: ``vt_chunk``, ``region_enter``, ``portal_write``,
    #: ``thread_spawn``, ...) or None for organic static/runtime errors
    site: Optional[str] = None
    #: True when the failure was injected by a
    #: :class:`~repro.faults.FaultInjector`
    #: rather than arising organically
    injected: bool = False
    #: simulated thread the failure occurred on (filled by the scheduler)
    thread: Optional[str] = None
    #: global simulated-clock value at failure (filled by the scheduler)
    cycle: Optional[int] = None

    def diagnostic(self) -> Dict[str, Any]:
        """The structured, JSON-able view of this failure."""
        return {
            "type": type(self).__name__,
            "message": str(self),
            "site": self.site,
            "injected": self.injected,
            "thread": self.thread,
            "cycle": self.cycle,
        }


# ---------------------------------------------------------------------------
# Static (compile-time) errors
# ---------------------------------------------------------------------------

class StaticError(ReproError):
    """A compile-time error with an optional source location."""

    def __init__(self, message: str, span: Optional[Span] = None):
        self.message = message
        self.span = span
        where = f"{span}: " if span is not None else ""
        super().__init__(f"{where}{message}")


class LexError(StaticError):
    """Malformed token in the input program."""


class ParseError(StaticError):
    """The input program does not conform to the grammar (Figure 13)."""


class OwnershipTypeError(StaticError):
    """A typing judgment of Appendix B failed.

    ``rule`` names the judgment ([EXPR NEW], [AV HANDLE], ...) whose premise
    was violated, so errors can be audited against the paper.
    """

    def __init__(self, message: str, span: Optional[Span] = None,
                 rule: Optional[str] = None):
        self.rule = rule
        prefix = f"[{rule}] " if rule else ""
        super().__init__(prefix + message, span)


class InferenceError(StaticError):
    """Intra-procedural owner inference (Section 2.5) failed to unify."""


# ---------------------------------------------------------------------------
# Runtime errors of the simulated RTSJ platform
# ---------------------------------------------------------------------------

class RuntimeCheckError(ReproError):
    """Base class for failures of the simulated RTSJ runtime."""


class IllegalAssignmentError(RuntimeCheckError):
    """RTSJ assignment check failed: storing a reference to an object whose
    region does not outlive the target's region would create a dangling
    reference (violates property R3)."""


class MemoryAccessError(RuntimeCheckError):
    """RTSJ heap-access check failed: a no-heap real-time thread read,
    wrote, or received a reference to a heap-allocated object."""


class ScopedCycleError(RuntimeCheckError):
    """A thread attempted to enter scoped regions in a non-LIFO order."""


class OutOfRegionMemoryError(RuntimeCheckError):
    """An LT region's preallocated budget was exhausted (the paper: 'the
    system throws an exception to signal that the region size was too
    small')."""


class OutOfMemoryError(RuntimeCheckError):
    """The simulated machine ran out of backing memory for VT/heap chunks."""


class RealtimeViolationError(RuntimeCheckError):
    """A real-time thread performed an operation with unbounded latency
    (heap allocation, VT allocation, region creation, GC-blocked wait)."""


class RegionEnterError(RuntimeCheckError):
    """Entering a (sub)region failed transiently (the RTSJ analogue of a
    scope stack under teardown or a denied enter).  Recoverable: the
    interpreter retries with exponential backoff before giving up."""

    site = "region_enter"


class PortalWriteError(RuntimeCheckError):
    """A portal store failed transiently — the model of a portal
    teardown race, where the owning region is being flushed while a
    writer holds a handle.  Recoverable via bounded retry."""

    site = "portal_write"


class ThreadSpawnError(RuntimeCheckError):
    """The platform denied a thread spawn (thread table pressure).
    Recoverable via bounded retry; persistent denial surfaces as a
    structured diagnostic rather than a silently missing thread."""

    site = "thread_spawn"


class InterpreterError(ReproError):
    """Internal interpreter failure (null dereference of the simulated
    program, missing method, ...)."""


class SimulatedNullPointerError(InterpreterError):
    """The simulated program dereferenced null."""


class ThreadCrashError(InterpreterError):
    """A simulated thread raised a non-simulated (host-level) exception.

    The scheduler wraps the crash so the run surfaces a structured
    diagnostic — naming the thread and the original exception — instead
    of a bare traceback that abandons the run queue mid-flight."""

    def __init__(self, message: str,
                 cause: Optional[BaseException] = None) -> None:
        super().__init__(message)
        self.cause = cause

    def diagnostic(self) -> Dict[str, Any]:
        out = super().diagnostic()
        if self.cause is not None:
            out["cause"] = type(self.cause).__name__
        return out


class SanitizerViolation(ReproError):
    """The runtime region sanitizer found a broken invariant.

    ``invariant`` names the paper rule that failed (``O1``..``O3``,
    ``R1``..``R3``, ``F1``..``F3`` for the three flush conditions) and
    ``path`` is the offending area/object chain, so a violation is
    immediately diagnosable."""

    def __init__(self, invariant: str, path: str, message: str,
                 checkpoint: str = "") -> None:
        self.invariant = invariant
        self.path = path
        self.checkpoint = checkpoint
        super().__init__(f"[{invariant}] {message} (at {path})")

    def diagnostic(self) -> Dict[str, Any]:
        out = super().diagnostic()
        out["invariant"] = self.invariant
        out["path"] = self.path
        out["checkpoint"] = self.checkpoint
        return out


class DeadlockError(ReproError):
    """The cooperative scheduler found all live threads blocked."""
