"""The resilient serve client: retries, backoff, deadlines.

Every programmatic consumer of ``repro serve`` in this repo — the
``serve`` and ``serve-chaos`` bench suites and the ``repro chaos
--target serve`` campaign — talks through this client rather than raw
``http.client``, so the retry discipline is uniform and testable:

* **bounded retries with exponential backoff + deterministic jitter**
  — the jitter stream comes from a seeded ``random.Random``, so a
  chaos campaign's sleep pattern (and therefore its request order) is
  a pure function of the seed;
* **Retry-After is honored**: a 429/503 naming a wait never retries
  earlier than the server asked (the quota property test guarantees
  the server never names a wait that's too short — together these kill
  the early-retry thundering herd);
* **deadline budgets**: a per-request budget is decremented across
  attempts and propagated to the server as ``deadline_ms``, so the
  server can cancel queued work the client has already given up on.

Transport is pluggable (``transport(method, path, body, headers) →
(status, headers, body)``) so unit tests drive the whole policy
surface without a socket; the default transport is a keep-alive
``http.client.HTTPConnection`` with Nagle off.  The serve bench's warm
loop calls a client's ``transport`` directly with pre-encoded bodies,
so its timed region holds no client-side JSON work.
"""

from __future__ import annotations

import json
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.trace import (TRACE_SCHEMA, end_span, new_trace_id,
                         span_duration_s, start_span)
from .protocol import TRACE_HEADER, format_traceparent

__all__ = ["ClientPolicy", "ClientResult", "ResilientClient",
           "ServeClientError"]

#: statuses worth retrying: overload shedding and server-side failures
#: (client errors — 400/404/411/413/422 — never retry: the same bytes
#: would fail the same way)
RETRY_STATUSES = frozenset({429, 500, 502, 503, 504})

#: synthetic status for transport-level failures (connection refused,
#: reset, short read) — retriable, never confused with a real reply
STATUS_TRANSPORT_ERROR = 599


class ServeClientError(RuntimeError):
    """Transport-level failure the default transport reports."""


@dataclass
class ClientPolicy:
    """Knobs for the retry/backoff discipline."""

    #: attempts beyond the first (0 = fail on first error)
    max_retries: int = 4
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: seed for the jitter stream — same seed, same sleeps
    jitter_seed: int = 0
    #: total budget per logical request, spread across attempts and
    #: propagated to the server (None = no budget)
    deadline_budget_ms: Optional[float] = None
    #: stamp one trace context per attempt (``X-Repro-Trace``) and
    #: keep a client-side span record per logical request — each
    #: retry parents a distinct attempt span, so the server trees it
    #: joins stay distinguishable
    trace: bool = True


@dataclass
class ClientResult:
    """One logical request's outcome, with its retry provenance."""

    status: int
    body: Dict[str, Any]
    attempts: int = 1
    retried: bool = False
    headers: Dict[str, str] = field(default_factory=dict)
    #: the logical request's trace id ("" when tracing is off)
    trace_id: str = ""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def _default_transport(host: str, port: int, timeout: float):
    """A keep-alive HTTP/1.1 connection, rebuilt on any transport
    error (the server may have legitimately dropped it)."""
    import http.client
    import socket as socketlib
    state: Dict[str, Any] = {"conn": None}

    def transport(method: str, path: str, body: Optional[bytes],
                  headers: Dict[str, str]
                  ) -> Tuple[int, Dict[str, str], bytes]:
        conn = state["conn"]
        if conn is None:
            conn = http.client.HTTPConnection(host, port,
                                              timeout=timeout)
            try:
                conn.connect()
                conn.sock.setsockopt(socketlib.IPPROTO_TCP,
                                     socketlib.TCP_NODELAY, 1)
            except OSError as err:
                raise ServeClientError(f"connect: {err}") from err
            state["conn"] = conn
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
            return (response.status,
                    {k.title(): v for k, v in response.getheaders()},
                    payload)
        except (OSError, http.client.HTTPException) as err:
            try:
                conn.close()
            finally:
                state["conn"] = None
            raise ServeClientError(str(err)) from err

    def close() -> None:
        conn = state.pop("conn", None)
        if conn is not None:
            conn.close()
        state["conn"] = None

    transport.close = close  # type: ignore[attr-defined]
    return transport


class ResilientClient:
    """Retrying, deadline-aware serve client."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 policy: Optional[ClientPolicy] = None,
                 transport: Optional[Callable[..., Tuple[int,
                                                         Dict[str, str],
                                                         bytes]]] = None,
                 timeout: float = 30.0,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.policy = policy or ClientPolicy()
        #: one attempt, no retries: ``transport(method, path, body,
        #: headers) -> (status, headers, body)``; raises
        #: :class:`ServeClientError` on a transport failure
        self.transport = (transport
                          or _default_transport(host, port, timeout))
        self._sleep = sleep
        self._clock = clock
        self._rng = random.Random(self.policy.jitter_seed)
        #: counters the bench/chaos harnesses read back
        self.stats: Dict[str, int] = {
            "requests": 0, "attempts": 0, "retries": 0,
            "transport_errors": 0}
        #: finished client-side trace records, newest last (same
        #: record shape as the server's — render_trace_text works)
        self.traces: "deque[Dict[str, Any]]" = deque(maxlen=256)

    # -- one attempt ----------------------------------------------------

    def _attempt(self, method: str, path: str, body: Optional[bytes],
                 trace_hdr: Optional[str] = None
                 ) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
        headers = {"Content-Type": "application/json"}
        if body is not None:
            headers["Content-Length"] = str(len(body))
        if trace_hdr:
            headers[TRACE_HEADER] = trace_hdr
        try:
            status, reply_headers, raw = self.transport(
                method, path, body, headers)
        except ServeClientError as err:
            self.stats["transport_errors"] += 1
            return (STATUS_TRANSPORT_ERROR, {},
                    {"ok": False, "error": str(err)})
        try:
            reply = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError):
            reply = {"ok": False, "error": "unparseable body"}
        return status, reply_headers, reply

    # -- public API -----------------------------------------------------

    def post(self, endpoint: str, payload: Dict[str, Any],
             deadline_ms: Optional[float] = None) -> ClientResult:
        """POST ``/v1/<endpoint>`` with the full retry discipline."""
        policy = self.policy
        budget_ms = (deadline_ms if deadline_ms is not None
                     else policy.deadline_budget_ms)
        start = self._clock()
        path = f"/v1/{endpoint}"
        self.stats["requests"] += 1
        attempts = 0
        tracing = policy.trace
        trace_id = new_trace_id() if tracing else ""
        root = (start_span("client-request", "client",
                           attrs={"endpoint": endpoint})
                if tracing else None)
        spans: List[Dict[str, Any]] = [root] if tracing else []

        def _done(cr: ClientResult) -> ClientResult:
            if tracing:
                cr.trace_id = trace_id
                self._finish_trace(trace_id, root, spans,
                                   cr.status, endpoint)
            return cr

        while True:
            remaining_ms: Optional[float] = None
            if budget_ms is not None:
                remaining_ms = budget_ms - (self._clock()
                                            - start) * 1000.0
                if remaining_ms <= 0:
                    return _done(ClientResult(
                        504, {"ok": False,
                              "error": "client deadline exhausted"},
                        attempts=attempts, retried=attempts > 1))
            wire = dict(payload)
            if remaining_ms is not None:
                # the server sees what's actually left, so it can
                # cancel queued work we've already given up on
                wire["deadline_ms"] = remaining_ms
            body = json.dumps(wire, sort_keys=True).encode("utf-8")
            attempts += 1
            self.stats["attempts"] += 1
            aspan: Optional[Dict[str, Any]] = None
            trace_hdr: Optional[str] = None
            if tracing:
                # one attempt span per wire request: the server's
                # `request` root parents *this* span, so retries show
                # as sibling server trees under one logical request
                aspan = start_span("attempt", "client",
                                   parent=root["span"],
                                   attrs={"n": attempts})
                spans.append(aspan)
                trace_hdr = format_traceparent(trace_id,
                                               aspan["span"])
            status, headers, reply = self._attempt("POST", path, body,
                                                   trace_hdr)
            if aspan is not None:
                end_span(aspan, status=status)
            if (status not in RETRY_STATUSES
                    and status != STATUS_TRANSPORT_ERROR):
                return _done(ClientResult(
                    status, reply, attempts=attempts,
                    retried=attempts > 1, headers=headers))
            if attempts > policy.max_retries:
                return _done(ClientResult(
                    status, reply, attempts=attempts,
                    retried=attempts > 1, headers=headers))
            # exponential backoff with deterministic jitter, never
            # earlier than the server's Retry-After
            wait = min(policy.backoff_cap_s,
                       policy.backoff_base_s * (2 ** (attempts - 1)))
            wait += self._rng.random() * policy.backoff_base_s
            retry_after = headers.get("Retry-After")
            if retry_after:
                try:
                    wait = max(wait, float(retry_after))
                except ValueError:
                    pass
            if budget_ms is not None:
                leftover = (budget_ms
                            - (self._clock() - start) * 1000.0) / 1000.0
                if wait >= leftover:
                    return _done(ClientResult(
                        status, reply, attempts=attempts,
                        retried=attempts > 1, headers=headers))
            self.stats["retries"] += 1
            if tracing:
                bspan = start_span("backoff", "client",
                                   parent=root["span"],
                                   attrs={"wait_s": round(wait, 4)})
                spans.append(bspan)
                self._sleep(wait)
                end_span(bspan)
            else:
                self._sleep(wait)

    def _finish_trace(self, trace_id: str, root: Dict[str, Any],
                      spans: List[Dict[str, Any]], status: int,
                      endpoint: str) -> Dict[str, Any]:
        end_span(root, status=status)
        for span in spans:
            if span.get("end") is None:
                end_span(span, truncated=True)
        record = {"schema": TRACE_SCHEMA, "trace": trace_id,
                  "root": root["span"], "status": status,
                  "endpoint": endpoint, "tenant": "",
                  "duration_s": round(span_duration_s(root), 9),
                  "flags": [], "attrs": {"process": "client"},
                  "time": round(time.time(), 3), "spans": spans}
        self.traces.append(record)
        return record

    def get(self, path: str) -> Tuple[int, bytes]:
        """Raw GET for ``/metrics`` / ``/healthz`` — no retries; the
        read-only routes are the ground truth probes."""
        try:
            status, _, raw = self.transport("GET", path, None, {})
            return status, raw
        except ServeClientError as err:
            return STATUS_TRANSPORT_ERROR, str(err).encode()

    def close(self) -> None:
        closer = getattr(self.transport, "close", None)
        if closer is not None:
            closer()
