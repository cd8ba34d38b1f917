"""``repro serve`` — the analysis-as-a-service HTTP frontend.

Request path, in admission order (each layer sheds before the next
spends anything):

1. **shape + size** — malformed JSON is ``400``, oversized programs
   ``413``, before any hashing happens;
2. **tenant quota** — a token-bucket per tenant (see
   :mod:`repro.serve.quota`); an empty bucket is ``429`` with a
   ``Retry-After`` naming the next token's arrival;
3. **hot results** — a frontend LRU of ``HOT_RESULTS`` finished 2xx
   bodies keyed by job fingerprint, the service's one in-memory home
   for finished bodies.  The machine is deterministic, so a finished
   body is exact forever; warm traffic is answered here without
   touching the pool (this tier is why warm throughput is thousands
   of req/s on one core).  A 4xx repeat, or a fingerprint evicted
   from here, goes to a worker, which analyzes it again through its
   class table (:mod:`repro.serve.worker`);
4. **coalescing** — an identical job already in flight adopts that
   job's outcome instead of queueing a duplicate (N concurrent cold
   requests for one program ⇒ exactly one analysis);
5. **bounded queue** — ``pool.outstanding`` at the queue depth is
   ``429 + Retry-After`` (load shedding), never silent queue growth;
6. **the pool** — one job per dispatch to pre-forked warm workers
   (:mod:`repro.serve.pool`), deadline re-checked at every hop.

The HTTP server underneath, :class:`HTTPEdge`, is the repo's one HTTP
server: ``repro metricsd`` and ``repro run --serve-metrics`` mount the
telemetry routes (:mod:`repro.obs.live`) on it.  Socket tuning that
the throughput gate depends on: HTTP/1.1 keep-alive (persistent client
connections), Nagle off, and one buffered ``wfile`` write per
response — header and body coalesce into a single segment instead of
paying a 40 ms delayed-ACK stall.

The whole service is stdlib-only and single-object: build a
:class:`ServeService`, then ``serve_background()`` (tests) or
``serve_forever()`` (the CLI).  Construction order matters — workers
are forked *before* any HTTP thread starts, so the fork start method
is safe.
"""

from __future__ import annotations

import json
import math
import queue
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from ..faults import FaultInjector
from ..obs.exporters import PROMETHEUS_CONTENT_TYPE, to_prometheus
from ..obs.metrics import MetricsRegistry
from ..obs.trace import RequestTrace, TraceBuffer, queue_compute_ms
from .degrade import (BACKEND_BROWNOUT_FALLBACK, RUNG_BROWNOUT,
                      RUNG_HEALTHY, RUNG_NAMES, RUNG_SHED,
                      DegradationLadder)
from .pool import STALL_TIMEOUT_S, PendingJob, WorkerPool
from .protocol import (ENDPOINTS, MAX_PROGRAM_BYTES, TRACE_HEADER,
                       TRACE_ID_HEADER, Job, admit_trace, error_body,
                       job_fingerprint, program_sha, validate_request)
from .quota import QuotaTable

#: request-latency buckets in seconds (sub-ms to 10 s)
LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: hot-tier size: finished 2xx bodies kept, by job fingerprint
HOT_RESULTS = 1024

#: how long a request without a deadline waits for its job
REQUEST_TIMEOUT_S = 60.0

#: per-connection socket timeout for header/body reads — a slow-loris
#: client times out instead of pinning a handler thread
READ_TIMEOUT_S = 30.0

#: queue-pressure ratio (outstanding / queue_depth) that counts as
#: trouble for the degradation ladder
BROWNOUT_RATIO = 0.9

#: a GET route of :class:`HTTPEdge`: ``(tail, query) -> (status,
#: body)``.  ``tail`` is the path past a prefix route's key ("" for an
#: exact route) and ``query`` the parsed query string; a ``str`` body
#: is Prometheus text, any other body is JSON
Route = Callable[[str, Dict[str, List[str]]], Tuple[int, Any]]


@dataclass
class ServeConfig:
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    #: admission bound: queued + in-flight jobs past this shed with 429
    queue_depth: int = 64
    #: per-tenant token-bucket refill rate (req/s); 0 disables quotas
    quota_rate: float = 0.0
    #: bucket capacity (burst); defaults to max(rate, 1)
    quota_burst: float = 0.0
    #: shared content-addressed AnalysisCache tree (None = memory only)
    cache_dir: Optional[str] = None
    #: default backend when the request names none
    default_backend: str = "py"
    #: deadline applied when the request names none (None = unbounded)
    default_deadline_ms: Optional[float] = None
    #: pool stall watchdog: a worker that doesn't reply within this is
    #: killed and replaced
    stall_timeout_s: float = STALL_TIMEOUT_S
    #: calm seconds before the ladder steps down one rung
    heal_after_s: float = 0.5
    #: request tracing (span trees + tail-based sampling); per-request
    #: cost is a handful of dict allocations — see obs/trace.py
    tracing: bool = True
    #: retained-trace ring capacity (completed traces kept in memory)
    trace_capacity: int = 512
    #: 1-in-N retention for healthy fast traces (the tail — errors,
    #: faults, degradation, slower-than-p99 — is always kept)
    trace_sample: int = 16
    #: structured JSONL access-log path (None disables), opened when
    #: the service is built; writes happen on a dedicated thread, never
    #: on the response path
    access_log: Optional[str] = None
    #: directory where traced /v1/inspect jobs dump their flight
    #: records, keyed by trace id (None disables)
    flight_dir: Optional[str] = None


class _AccessLog:
    """Structured JSONL access log on a dedicated writer thread.

    Handler threads enqueue a dict and return immediately — disk
    latency (or a full disk) never blocks the response path.  One
    line per request: timestamp, trace id, tenant, endpoint, status,
    degradation rung, queue/compute decomposition, duration, flags.
    """

    _CLOSE = object()

    def __init__(self, path: str) -> None:
        # opened here, not on the writer thread: an unwritable path
        # fails the service's construction, before any worker forks
        self._handle = open(path, "a", encoding="utf-8")
        self._queue: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-accesslog",
            daemon=True)
        self._thread.start()

    def write(self, entry: Dict[str, Any]) -> None:
        self._queue.put(entry)

    def _run(self) -> None:
        handle = self._handle
        try:
            while True:
                entry = self._queue.get()
                if entry is self._CLOSE:
                    break
                try:
                    handle.write(json.dumps(entry, sort_keys=True)
                                 + "\n")
                    handle.flush()  # each line lands whole, promptly
                except (OSError, ValueError):
                    pass  # a full disk must not stop the writer
        finally:
            try:
                handle.close()
            except OSError:
                pass

    def close(self, timeout: float = 2.0) -> None:
        self._queue.put(self._CLOSE)
        self._thread.join(timeout=timeout)


class HTTPEdge:
    """The one HTTP server, tuned as the module docstring says, with a
    per-connection read timeout of ``READ_TIMEOUT_S``.

    It serves a table of GET ``routes``: each key is an exact path,
    and a key ending in ``/`` is the prefix of a path family
    (``/runs/`` answers ``/runs/<sha>``, passing ``<sha>`` as the
    route's tail).  Given a ``service``, it also serves that service's
    ``/v1/*`` POSTs.
    """

    def __init__(self, host: str, port: int, routes: Dict[str, Route],
                 service: Optional[ServeService] = None) -> None:
        self._httpd = _EdgeHTTPServer(
            (host, port), _make_handler(routes, service))
        self.host = self._httpd.server_address[0]
        #: the bound port (resolves port 0 to the kernel's choice);
        #: the listen backlog queues connections from here on, so
        #: publishing this value *is* the readiness signal
        self.port = self._httpd.server_address[1]
        self._thread: Optional[threading.Thread] = None

    def serve_background(self) -> "HTTPEdge":
        """Serve on a daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-http:{self.port}", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._httpd.serve_forever()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "HTTPEdge":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class _EdgeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    #: deep listen backlog: bursts of new connections queue in the
    #: kernel instead of getting connection-refused
    request_queue_size = 128


class ServeService(HTTPEdge):
    """The served frontend: HTTP threads over one shared pool."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 fault_injector: Optional[FaultInjector] = None
                 ) -> None:
        self.config = config or ServeConfig()
        self.metrics = registry if registry is not None \
            else MetricsRegistry()
        self._started = time.monotonic()
        # instruments (created eagerly so /metrics shows zeros, not
        # absences, before the first request)
        m = self.metrics
        self._requests = m.counter(
            "repro_serve_requests_total",
            "served requests by endpoint and status")
        self._latency = m.histogram(
            "repro_serve_request_seconds",
            "request latency by endpoint (seconds)",
            buckets=LATENCY_BUCKETS)
        self._queue_gauge = m.gauge(
            "repro_serve_queue_depth",
            "jobs queued or in flight in the worker pool")
        self._coalesced = m.counter(
            "repro_serve_coalesced_total",
            "requests that adopted an identical in-flight job")
        self._shed = m.counter(
            "repro_serve_shed_total",
            "requests shed by admission control, by reason")
        self._hits = m.counter(
            "repro_serve_result_cache_hits_total",
            "requests answered from the frontend hot tier")
        self._cancelled = m.counter(
            "repro_serve_deadline_cancelled_total",
            "jobs cancelled before execution (deadline expired)")
        self._analyses = m.counter(
            "repro_serve_analyses_total",
            "frontend analyses actually performed by workers")
        #: completed request traces with tail-based retention (None
        #: when tracing is off — e.g. for overhead A/B benches)
        self.traces: Optional[TraceBuffer] = (
            TraceBuffer(capacity=self.config.trace_capacity,
                        sample=self.config.trace_sample, metrics=m)
            if self.config.tracing else None)
        self._access_log: Optional[_AccessLog] = (
            _AccessLog(self.config.access_log)
            if self.config.access_log else None)
        # the ladder exists before the pool so worker-lifecycle
        # events have somewhere to land from the first fork on
        self.ladder = DegradationLadder(
            heal_after_s=self.config.heal_after_s,
            calm=self._calm, metrics=m)
        # the pool forks before any HTTP thread exists
        self.pool = WorkerPool(
            workers=self.config.workers,
            cache_root=self.config.cache_dir, metrics=m,
            fault_injector=fault_injector,
            stall_timeout_s=self.config.stall_timeout_s,
            on_worker_event=self.ladder.worker_event,
            flight_dir=self.config.flight_dir)
        self.quotas = QuotaTable(self.config.quota_rate,
                                 self.config.quota_burst)
        self._lock = threading.Lock()
        self._inflight: Dict[str, PendingJob] = {}
        self._hot: "OrderedDict[str, Tuple[int, Dict[str, Any]]]" = \
            OrderedDict()
        try:
            super().__init__(self.config.host, self.config.port,
                             self._routes(), service=self)
        except OSError:
            # the bind failed after the fork: reap the workers here, or
            # they outlive the frontend that never served
            self.pool.close()
            if self._access_log is not None:
                self._access_log.close()
            raise

    # -- degradation ---------------------------------------------------

    def _pressure_line(self) -> float:
        """Outstanding-job count that counts as queue pressure. A
        non-positive line (queue_depth=0 shed-everything configs) is
        degenerate: pressure never fires and never blocks healing —
        the queue-full 429 branch owns that regime."""
        return BROWNOUT_RATIO * self.config.queue_depth

    def _calm(self) -> bool:
        """Heal precondition for the ladder: every worker alive and
        the queue back under the pressure line."""
        line = self._pressure_line()
        return (self.pool.alive_workers() >= self.pool.workers
                and (line <= 0 or self.pool.outstanding < line))

    # -- request handling ----------------------------------------------

    def handle_job(self, endpoint: str, payload: Any,
                   trace: Optional[Tuple[str, Optional[str], bool]]
                   = None
                   ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """The full admission + execution path for one POST body.
        Returns ``(status, body, extra_headers)``.

        ``trace`` is the admitted ``(trace_id, parent_span, sampled)``
        context from :func:`admit_trace`; when tracing is on, the
        request's span tree is assembled here, offered to the tail
        sampler on completion, and the resolved trace id is added to
        the response headers.
        """
        if self.traces is None:
            started = time.perf_counter()
            status, body, extra = self._admit(endpoint, payload, None)
            self.log_untraced("", payload, endpoint, status, started)
            return status, body, extra
        trace_id, parent, _sampled = trace or admit_trace(None)
        rt = RequestTrace(trace_id, endpoint, parent=parent)
        try:
            status, body, extra = self._admit(endpoint, payload, rt)
        except Exception:
            record = rt.finish(500)
            self.traces.offer(record)  # crashes are tail, kept
            self._log_access(record)
            raise
        record = rt.finish(status)
        self.traces.offer(record)
        self._log_access(record)
        extra = dict(extra)
        extra[TRACE_ID_HEADER] = trace_id
        return status, body, extra

    def log_untraced(self, trace_id: str, payload: Any, endpoint: str,
                     status: int, started: float) -> None:
        """The access-log line of a request without a span record: an
        untraced request, or a POST refused before admission."""
        if self._access_log is None:
            return
        self._access_log.write({
            "ts": round(time.time(), 6), "trace": trace_id,
            "tenant": (payload.get("tenant", "default")
                       if isinstance(payload, dict) else ""),
            "endpoint": endpoint, "status": status, "rung": None,
            "queue_ms": 0.0, "compute_ms": 0.0,
            "duration_ms": round(
                (time.perf_counter() - started) * 1e3, 3),
            "flags": []})

    def _log_access(self, record: Dict[str, Any]) -> None:
        if self._access_log is None:
            return
        queue_ms, compute_ms = queue_compute_ms(record)
        self._access_log.write({
            "ts": round(time.time(), 6),
            "trace": record["trace"],
            "tenant": record.get("tenant", ""),
            "endpoint": record.get("endpoint", ""),
            "status": record.get("status"),
            "rung": (record.get("attrs") or {}).get("rung"),
            "queue_ms": round(queue_ms, 3),
            "compute_ms": round(compute_ms, 3),
            "duration_ms": round(
                record.get("duration_s", 0.0) * 1e3, 3),
            "flags": record.get("flags") or []})

    def _admit(self, endpoint: str, payload: Any,
               rt: Optional[RequestTrace]
               ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        complaint = validate_request(payload)
        if complaint is not None:
            return 400, error_body(complaint), {}
        source = payload["program"]
        if len(source.encode("utf-8", "ignore")) > MAX_PROGRAM_BYTES:
            return 413, error_body(
                f"program exceeds {MAX_PROGRAM_BYTES} bytes"), {}
        tenant = payload.get("tenant", "default")
        adm = rt.begin("admission") if rt is not None else None
        if rt is not None:
            rt.note(tenant=tenant)
        admitted, wait = self.quotas.allow(tenant)
        if not admitted:
            self._shed.labels(reason="quota").inc()
            if rt is not None:
                rt.end(adm, outcome="quota")
                rt.flag("shed")
            return (429, error_body("tenant quota exhausted",
                                    retry_after_s=round(wait, 3)),
                    {"Retry-After": _retry_after(wait)})
        mode = payload.get("mode", "static")
        backend = payload.get("backend", self.config.default_backend)
        # degradation: heal if calm, count sustained queue pressure as
        # trouble, and in brownout drop compiled backends one rung
        # down the capability ladder (results stay byte-identical, so
        # the swap is honest) — *before* the fingerprint is computed,
        # so hot-tier entries stay exact
        rung = self.ladder.observe()
        line = self._pressure_line()
        if line > 0 and self.pool.outstanding >= line:
            rung = self.ladder.trouble("queue_pressure")
        if rt is not None:
            rt.note(rung=RUNG_NAMES[rung])
            if rung > RUNG_HEALTHY:
                rt.flag("degraded")
        if rung >= RUNG_BROWNOUT:
            backend = BACKEND_BROWNOUT_FALLBACK.get(backend, backend)
        sha = program_sha(source)
        fingerprint = job_fingerprint(endpoint, sha, mode, backend)
        deadline_ms = payload.get("deadline_ms",
                                  self.config.default_deadline_ms)
        deadline = (time.monotonic() + deadline_ms / 1000.0
                    if deadline_ms else None)
        retry_degraded = {"Retry-After":
                          _retry_after(self.config.heal_after_s)}
        wait_span = None  # the coalesce-wait span, followers only
        leader = False
        with self._lock:
            hot = self._hot.get(fingerprint)
            if hot is not None:
                # the hot tier is fingerprint-exact and one dict
                # lookup — it stays on at every rung
                self._hot.move_to_end(fingerprint)
                self._hits.labels(tier="frontend").inc()
                if rt is not None:
                    rt.end(adm, outcome="hot")
                    rt.instant("cache-hot", tier="frontend")
                return hot[0], hot[1], {}
            if rung >= RUNG_SHED:
                self._shed.labels(reason="degraded").inc()
                if rt is not None:
                    rt.end(adm, outcome="shed")
                    rt.flag("shed")
                return (503, error_body(
                    "service shedding load (degraded)",
                    rung=RUNG_NAMES[rung]), retry_degraded)
            if rung >= RUNG_BROWNOUT and endpoint != "analyze":
                self._shed.labels(reason="degraded").inc()
                if rt is not None:
                    rt.end(adm, outcome="shed")
                    rt.flag("shed")
                return (503, error_body(
                    "service degraded: analyze-only (brownout)",
                    rung=RUNG_NAMES[rung]), retry_degraded)
            pending = self._inflight.get(fingerprint)
            if pending is not None:
                self._coalesced.inc()
                if rt is not None:
                    # a follower: its trace shows one coalesce-wait
                    # span naming the leader's trace, where the full
                    # pool/worker subtree lives
                    rt.end(adm, outcome="coalesced")
                    rt.flag("coalesced")
                    wait_span = rt.begin(
                        "coalesce-wait",
                        leader_trace=pending.job.trace_id)
            else:
                if self.pool.outstanding >= self.config.queue_depth:
                    self._shed.labels(reason="queue_full").inc()
                    if rt is not None:
                        rt.end(adm, outcome="queue_full")
                        rt.flag("shed")
                    return (429, error_body("service overloaded"),
                            {"Retry-After": _retry_after(1.0)})
                job = Job(endpoint=endpoint, source=source,
                          source_sha=sha, fingerprint=fingerprint,
                          mode=mode, backend=backend, tenant=tenant,
                          deadline=deadline,
                          trace_id=rt.trace_id if rt else "",
                          root_span=rt.root["span"] if rt else "")
                pending = PendingJob(job, on_resolve=self._complete)
                self._inflight[fingerprint] = pending
                leader = True
                if rt is not None:
                    rt.end(adm, outcome="admitted")
                self.pool.submit(pending)
                self._queue_gauge.set(self.pool.outstanding)
        budget = (max(0.0, deadline - time.monotonic()) + 5.0
                  if deadline is not None
                  else REQUEST_TIMEOUT_S)
        if not pending.done.wait(timeout=budget):
            # the job is still running; it will land in the hot tier
            # for whoever retries.  Don't adopt spans here — the
            # dispatcher still owns them
            if rt is not None:
                if wait_span is not None:
                    rt.end(wait_span, outcome="timeout")
                rt.flag("timeout")
            return 504, error_body("request timed out"), {}
        outcome = pending.outcome
        if rt is not None:
            if wait_span is not None:
                rt.end(wait_span, status=outcome.status)
            elif leader:
                # the dispatcher finished writing before done was
                # set, so this read is safe without the pool lock
                rt.adopt(pending.spans)
                if pending.faulted:
                    rt.flag("faulted")
                if pending.requeued:
                    rt.flag("requeued")
        return outcome.status, outcome.body, {}

    def _complete(self, pending: PendingJob) -> None:
        """Runs in a dispatcher thread the moment a job resolves."""
        outcome = pending.outcome
        with self._lock:
            self._inflight.pop(pending.job.fingerprint, None)
            if outcome is not None and outcome.ok:
                self._hot[pending.job.fingerprint] = (outcome.status,
                                                      outcome.body)
                self._hot.move_to_end(pending.job.fingerprint)
                while len(self._hot) > HOT_RESULTS:
                    self._hot.popitem(last=False)
        if pending.computed:
            self._analyses.inc()
        if pending.cancelled:
            self._cancelled.inc()
        self._queue_gauge.set(self.pool.outstanding)

    # -- read-only routes ----------------------------------------------

    def _routes(self) -> Dict[str, Route]:
        routes: Dict[str, Route] = {
            "/metrics": lambda *_: (200, to_prometheus(self.metrics)),
            "/healthz": lambda *_: (200, self.health()),
            # liveness: the process answers — always 200 while the
            # HTTP loop runs, whatever the rung
            "/livez": lambda *_: (200, {"status": "alive"}),
            "/readyz": self._readiness,
        }
        traces = self.traces
        if traces is not None:
            routes["/traces"] = lambda *_: (200, {
                "stats": traces.stats(), "traces": traces.snapshot()})
            routes["/traces/"] = self._trace
        return routes

    def _trace(self, trace_id: str, _query: Any) -> Tuple[int, Any]:
        record = self.traces.get(trace_id)
        if record is None:
            return 404, error_body(f"no retained trace {trace_id!r}")
        return 200, record

    def _readiness(self, *_: Any) -> Tuple[int, Dict[str, Any]]:
        """Only the healthy rung accepts full traffic; load balancers
        drain on 503 here while /livez keeps the process from being
        killed."""
        rung = self.ladder.observe()
        return (200 if rung == RUNG_HEALTHY else 503,
                {"status": ("ready" if rung == RUNG_HEALTHY
                            else "degraded"),
                 "rung": RUNG_NAMES[rung]})

    def health(self) -> Dict[str, Any]:
        rung = self.ladder.observe()
        return {
            "status": "ok",
            "rung": RUNG_NAMES[rung],
            "ready": rung == RUNG_HEALTHY,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "workers": self.pool.workers,
            "workers_alive": self.pool.alive_workers(),
            "worker_restarts": self.pool.restarts,
            "outstanding": self.pool.outstanding,
            "inflight_fingerprints": len(self._inflight),
            "hot_results": len(self._hot),
            "queue_depth": self.config.queue_depth,
            "cache_dir": self.config.cache_dir,
        }

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        super().close()
        self.pool.close()
        if self._access_log is not None:
            self._access_log.close()


def _retry_after(seconds: float) -> str:
    # a true ceiling: the header must never name a wait shorter than
    # the bucket's (int(s + 0.999) under-waits for s just above an
    # integer, inviting a guaranteed-futile retry)
    return str(max(1, math.ceil(seconds)))


def _make_handler(routes: Dict[str, Route],
                  service: Optional[ServeService]):
    class Handler(BaseHTTPRequestHandler):
        #: keep-alive is the throughput contract: closed-loop clients
        #: reuse one connection per thread
        protocol_version = "HTTP/1.1"
        #: one buffered write per response — with Nagle disabled this
        #: puts header+body in a single segment (no delayed-ACK stall)
        wbufsize = 1 << 16
        disable_nagle_algorithm = True
        #: per-connection socket timeout (slow-loris defence): header
        #: and body reads that stall past this drop the connection
        #: instead of pinning a handler thread forever
        timeout = READ_TIMEOUT_S

        def log_message(self, fmt: str, *args: Any) -> None:
            pass  # request logging is the metrics registry's job

        def _send(self, status: int, body: bytes, content_type: str,
                  extra: Optional[Dict[str, str]] = None) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for key, value in (extra or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, status: int, payload: Any,
                       extra: Optional[Dict[str, str]] = None) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self._send(status, body, "application/json", extra)

        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            target, _, query = self.path.partition("?")
            path = target.rstrip("/") or "/"
            route, tail = routes.get(path), ""
            if route is None:
                head, nested, tail = path[1:].partition("/")
                route = routes.get(f"/{head}/") if nested else None
            try:
                if route is None:
                    self._send_json(
                        404, error_body(f"no route {path!r}"))
                    return
                status, body = route(tail, parse_qs(query))
                if isinstance(body, str):
                    self._send(status, body.encode("utf-8"),
                               PROMETHEUS_CONTENT_TYPE)
                else:
                    self._send_json(status, body)
            except BrokenPipeError:
                pass
            except Exception as err:
                self._send_json(500, error_body(str(err)))

        if service is not None:
            # the /v1/* POST path; an edge without a service
            # answers POST with the stdlib's 501
            def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
                started = time.perf_counter()
                # admit the trace context first: every response — shed,
                # rejected, crashed — names its trace id, because the
                # rejects are exactly the traces worth pulling up
                trace_ctx = (admit_trace(self.headers.get(TRACE_HEADER))
                             if service.traces is not None else None)
                trace_hdr = ({TRACE_ID_HEADER: trace_ctx[0]}
                             if trace_ctx is not None else {})
                path = self.path.split("?", 1)[0].rstrip("/")
                endpoint = path[len("/v1/"):] if path.startswith("/v1/") \
                    else None

                def reject(status: int, message: str) -> None:
                    # refused before admission: still one access-log line
                    service.log_untraced(trace_hdr.get(TRACE_ID_HEADER, ""),
                                         None, endpoint or path, status,
                                         started)
                    self._send_json(status, error_body(message), trace_hdr)

                if endpoint not in ENDPOINTS:
                    reject(404, f"no route {path!r}")
                    return
                # body hygiene: a declared, bounded length is the price of
                # admission — chunked or lengthless bodies are 411 (we
                # never read unbounded), oversized declarations are 413
                # before a single body byte is read
                if self.headers.get("Transfer-Encoding"):
                    self.close_connection = True
                    reject(411, "chunked bodies not accepted; "
                                "send Content-Length")
                    return
                declared = self.headers.get("Content-Length")
                if declared is None:
                    self.close_connection = True
                    reject(411, "Content-Length required")
                    return
                try:
                    length = int(declared)
                except ValueError:
                    length = -1
                if length < 0 or length > MAX_PROGRAM_BYTES * 2:
                    self.close_connection = True
                    reject(413, "bad request length")
                    return
                try:
                    raw = self.rfile.read(length)
                except socket.timeout:
                    # slow-loris body: drop the connection rather than
                    # wait out a client that trickles bytes forever
                    self.close_connection = True
                    reject(408, "body read timed out")
                    return
                if len(raw) < length:
                    self.close_connection = True
                    reject(400, "truncated body")
                    return
                try:
                    payload = json.loads(raw.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    service._requests.labels(endpoint=endpoint,
                                             status="400").inc()
                    reject(400, "invalid JSON body")
                    return
                try:
                    status, body, extra = service.handle_job(
                        endpoint, payload, trace=trace_ctx)
                except Exception as err:  # the service must stay up
                    status, body, extra = 500, error_body(
                        f"{type(err).__name__}: {err}"), dict(trace_hdr)
                service._requests.labels(endpoint=endpoint,
                                         status=str(status)).inc()
                # a latency observation carries its trace id as an
                # exemplar only when the tail sampler retained the trace
                # — a scraped tail bucket then names a pullable trace
                exemplar = None
                if (trace_ctx is not None
                        and service.traces.get(trace_ctx[0]) is not None):
                    exemplar = trace_ctx[0]
                service._latency.labels(endpoint=endpoint).observe(
                    time.perf_counter() - started, exemplar=exemplar)
                try:
                    self._send_json(status, body, extra)
                except BrokenPipeError:
                    pass

    return Handler
