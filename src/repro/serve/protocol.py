"""Wire and job shapes for ``repro serve``.

Everything the service coalesces, memoizes, or shards hangs off two
content addresses:

* :func:`program_sha` — the SHA-256 of the program text, which names
  the shared :class:`~repro.core.cache.AnalysisCache` disk shard for
  the program (see :func:`repro.core.cache.shard_path`);
* :func:`job_fingerprint` — the program sha joined with every request
  knob that can change the observable result (endpoint, checks mode,
  backend).  The simulated machine is deterministic, so two jobs with
  equal fingerprints have byte-identical results — which is what makes
  request coalescing and result memoization *correct*, not merely
  fast.  One key is exempt: a ``/v1/analyze`` body's ``cache`` stats
  describe the analysis that answered it, which depends on what its
  worker's class table and the disk shard held, so two bodies of one
  fingerprint may differ there, even from one worker (chaos replay
  identity drops that key).

Jobs travel to the worker pool as plain dicts (they cross a ``Pipe``),
with deadlines as absolute ``time.monotonic()`` instants — on Linux
the monotonic clock is system-wide, so a deadline stamped in the HTTP
thread means the same thing inside a forked worker.

**Trace context** (``repro-trace/1``): every request carries a 128-bit
trace id, a 64-bit span id, and a sampling bit in the
``X-Repro-Trace`` header, formatted
``repro-trace/1;trace=<32 hex>;span=<16 hex>;sampled=<0|1>``.  The
resilient client stamps one per attempt; the server generates a fresh
context at admission when the header is absent or malformed (a bad
header must never shed a request), and always answers with the
resolved id in ``X-Repro-Trace-Id``.  The trace id rides the job dict
across the pool pipe so worker spans join the same tree — and it is
deliberately **not** part of :func:`job_fingerprint`: two jobs from
different traces still have byte-identical results, which is what
keeps coalescing, memoization, and chaos replay identity honest under
tracing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..obs.trace import TRACE_SCHEMA, new_trace_id

SCHEMA = "repro-serve/1"

#: request header carrying the propagated trace context
TRACE_HEADER = "X-Repro-Trace"

#: response header naming the resolved trace id (on *every* response,
#: including shed/rejected ones — errors are the traces worth keeping)
TRACE_ID_HEADER = "X-Repro-Trace-Id"

#: the three job endpoints (``/healthz`` and ``/metrics`` are served
#: in the frontend and never reach the pool)
ENDPOINTS = ("analyze", "run", "inspect")

MODES = ("static", "dynamic")

#: request programs larger than this are rejected with 413 before any
#: hashing or queueing happens
MAX_PROGRAM_BYTES = 1 << 20


def program_sha(source: str) -> str:
    """Content address of the program text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def job_fingerprint(endpoint: str, source_sha: str, mode: str,
                    backend: str) -> str:
    """Content address of one *job*: every knob that can alter the
    result is part of the key, nothing else is."""
    return hashlib.sha256(
        f"{SCHEMA}\x00{endpoint}\x00{source_sha}\x00{mode}\x00{backend}"
        .encode("ascii")).hexdigest()


def format_traceparent(trace_id: str, span_id: str,
                       sampled: bool = True) -> str:
    """Render one trace context for the ``X-Repro-Trace`` header."""
    return (f"{TRACE_SCHEMA};trace={trace_id};span={span_id};"
            f"sampled={1 if sampled else 0}")


def parse_traceparent(value: Optional[str]
                      ) -> Optional[Tuple[str, Optional[str], bool]]:
    """Parse an ``X-Repro-Trace`` header into
    ``(trace_id, parent_span_id, sampled)``.

    Strict on shape, forgiving in consequence: anything malformed —
    wrong schema, short ids, non-hex — returns ``None`` and the server
    starts a fresh trace instead of rejecting the request.
    """
    if not value:
        return None
    parts = value.strip().split(";")
    if not parts or parts[0] != TRACE_SCHEMA:
        return None
    fields: Dict[str, str] = {}
    for part in parts[1:]:
        key, sep, val = part.partition("=")
        if sep:
            fields[key.strip()] = val.strip()
    trace_id = fields.get("trace", "")
    span_id = fields.get("span", "")
    if len(trace_id) != 32 or not _is_hex(trace_id):
        return None
    parent = span_id if (len(span_id) == 16
                         and _is_hex(span_id)) else None
    return trace_id, parent, fields.get("sampled", "1") != "0"


def admit_trace(header_value: Optional[str]
                ) -> Tuple[str, Optional[str], bool]:
    """The admission-side context: the parsed header when sound, a
    freshly generated trace otherwise."""
    parsed = parse_traceparent(header_value)
    if parsed is not None:
        return parsed
    return new_trace_id(), None, True


def _is_hex(value: str) -> bool:
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


@dataclass
class Job:
    """One unit of work bound for a warm worker."""

    endpoint: str                  # "analyze" | "run" | "inspect"
    source: str
    source_sha: str
    fingerprint: str
    mode: str = "static"           # "static" | "dynamic"
    backend: str = "py"            # request's spot on the ladder
    tenant: str = "default"
    #: absolute time.monotonic() instant, or None for no deadline
    deadline: Optional[float] = None
    #: propagated trace context: the request's trace id and the root
    #: ``request`` span id worker/pool spans hang from.  Transport
    #: only — never part of the fingerprint, never part of the body
    #: (equal fingerprints must stay byte-identical across traces)
    trace_id: str = ""
    root_span: str = ""

    def to_wire(self) -> Dict[str, Any]:
        return {"endpoint": self.endpoint, "source": self.source,
                "source_sha": self.source_sha,
                "fingerprint": self.fingerprint, "mode": self.mode,
                "backend": self.backend, "tenant": self.tenant,
                "deadline": self.deadline, "trace_id": self.trace_id,
                "root_span": self.root_span}


@dataclass
class JobOutcome:
    """What came back from the pool for one job."""

    status: int                    # HTTP status the frontend will send
    body: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def error_body(message: str, **extra: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {"ok": False, "error": message}
    out.update(extra)
    return out


def validate_request(payload: Any) -> Optional[str]:
    """Shape-check one decoded request body; returns a complaint or
    ``None`` when the payload is well-formed."""
    if not isinstance(payload, dict):
        return "request body must be a JSON object"
    source = payload.get("program")
    if not isinstance(source, str) or not source.strip():
        return "missing 'program' (the source text)"
    mode = payload.get("mode", "static")
    if mode not in MODES:
        return f"mode must be one of {MODES}, not {mode!r}"
    backend = payload.get("backend", "py")
    from ..cli import BACKEND_CHOICES
    if backend not in BACKEND_CHOICES:
        return (f"backend must be one of {BACKEND_CHOICES}, "
                f"not {backend!r}")
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
            return "deadline_ms must be a positive number"
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        return "tenant must be a non-empty string"
    return None
