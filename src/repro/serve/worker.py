"""The warm worker: one forked process, three cache tiers.

Each worker keeps, in process memory:

* an :class:`~repro.core.cache.AnalysisCache` per program fingerprint
  (LRU-bounded), whose disk shard lives in the *shared* content-
  addressed tree (``shard_path(root, sha)``) — so a program analyzed
  by one worker is a warm disk hit on every sibling;
* the post-inference :class:`AnalyzedProgram` itself, keyed by program
  sha — a repeat of the same program skips the frontend entirely;
* a result memo keyed by job fingerprint.  The simulated machine is
  deterministic (same program + options ⇒ same cycles, same output),
  so replaying a finished body is *exact*, not approximate — this memo
  is what turns warm traffic into dictionary lookups.

The worker talks to the pool over a ``multiprocessing.Pipe``: the
parent sends a micro-batch (list of job dicts), the worker replies
with one result dict per job, order-preserving.  A ``None`` message is
the shutdown sentinel.  Deadlines are re-checked here before each job
starts: a job whose deadline passed while queued is answered 504
*without executing* (``computed: false`` in the reply lets the
frontend count real analyses exactly).

Tracing: a job carrying a ``trace_id`` gets worker-side spans
(``batch-wait``, cache-tier hits, ``analyze``, ``execute``,
``serialize``) returned in the reply's top-level ``spans`` list —
*never* in the body, so memoized and fresh bodies stay byte-identical
and chaos replay digests are unaffected.  When the pool was built with
a ``flight_dir``, each *computed* ``/v1/inspect`` job additionally
dumps its flight record there with the trace id stamped into the
header meta — the join key ``repro inspect --trace`` stitches service
spans to runtime events with.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from ..core.cache import AnalysisCache, shard_path
from ..errors import ReproError
from ..obs.trace import end_span, instant_span, start_span
from .protocol import error_body

#: LRU bounds — per worker, so memory stays flat under program churn:
#: an AnalyzedProgram carries its lowered and bound compiled forms
#: (``analyzed.compiled``), so evicting it frees them too
MAX_PROGRAMS = 128
MAX_RESULTS = 512

#: flight-recorder ring capacity for served /v1/inspect jobs
INSPECT_CAPACITY = 1 << 14


class WarmWorker:
    """The per-process execution engine behind the pool."""

    def __init__(self, cache_root: Optional[str] = None,
                 flight_dir: Optional[str] = None) -> None:
        self.cache_root = cache_root
        #: when set, computed inspect jobs dump their trace-id-stamped
        #: flight record here (side channel — never in the body)
        self.flight_dir = flight_dir
        self._caches: "OrderedDict[str, AnalysisCache]" = OrderedDict()
        self._analyzed: "OrderedDict[str, Any]" = OrderedDict()
        self._results: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    # -- cache tiers ----------------------------------------------------

    def _touch(self, lru: OrderedDict, key: str, limit: int) -> None:
        lru.move_to_end(key)
        while len(lru) > limit:
            lru.popitem(last=False)

    def _analyze(self, source: str, sha: str,
                 spans: Optional[List[Dict[str, Any]]] = None,
                 parent: Optional[str] = None):
        """Frontend with all three tiers consulted; returns
        ``(analyzed, computed)`` where ``computed`` says whether any
        real frontend work ran (vs a pure in-memory replay)."""
        hit = self._analyzed.get(sha)
        if hit is not None:
            self._touch(self._analyzed, sha, MAX_PROGRAMS)
            if spans is not None:
                spans.append(instant_span("cache-lru", "worker",
                                          parent, tier="analyzed-lru"))
            return hit, False
        from ..core.api import analyze
        span = (start_span("analyze", "worker", parent)
                if spans is not None else None)
        cache = self._caches.get(sha)
        if cache is None:
            path = (shard_path(self.cache_root, sha)
                    if self.cache_root else None)
            cache = AnalysisCache(path)
            self._caches[sha] = cache
        self._touch(self._caches, sha, MAX_PROGRAMS)
        try:
            analyzed = analyze(source, cache=cache)
        except Exception:
            if span is not None:
                spans.append(end_span(span, outcome="raised"))
            raise
        stats = analyzed.cache_stats or {}
        if cache.path and stats.get("check_misses", 0) > 0:
            # something was genuinely re-checked: publish the shard so
            # siblings warm from it (atomic rename, last-write-wins)
            cache.save()
        self._analyzed[sha] = analyzed
        self._touch(self._analyzed, sha, MAX_PROGRAMS)
        if span is not None:
            replayed = stats.get("replay_hits", 0)
            spans.append(end_span(
                span, tier="disk" if replayed else "computed",
                replay_hits=replayed,
                check_misses=stats.get("check_misses", 0)))
        return analyzed, True

    # -- job execution --------------------------------------------------

    def handle(self, job: Dict[str, Any],
               batch_received: Optional[float] = None
               ) -> Dict[str, Any]:
        delay_ms = job.get("_delay_ms")
        if delay_ms:
            # fault-injected slow analysis (latency spike) or wedge
            # (stall past the pool watchdog); see WorkerPool._consult_faults
            time.sleep(float(delay_ms) / 1000.0)
        parent = job.get("parent_span")
        spans: Optional[List[Dict[str, Any]]] = (
            [] if job.get("trace_id") else None)
        if spans is not None and batch_received is not None:
            # time this job spent waiting behind earlier batch members
            wait = start_span("batch-wait", "worker", parent)
            wait["start"] = batch_received
            spans.append(end_span(wait, pid=os.getpid()))
        deadline = job.get("deadline")
        if deadline is not None and time.monotonic() >= deadline:
            return {"status": 504,
                    "body": error_body("deadline exceeded"),
                    "memo": False, "computed": False,
                    "cancelled": True, "spans": spans or []}
        fingerprint = job["fingerprint"]
        memo = self._results.get(fingerprint)
        if memo is not None:
            self._touch(self._results, fingerprint, MAX_RESULTS)
            if spans is not None:
                spans.append(instant_span("cache-memo", "worker",
                                          parent, tier="memo"))
            return {"status": memo["status"], "body": memo["body"],
                    "memo": True, "computed": False,
                    "spans": spans or []}
        try:
            reply = self._execute(job, spans, parent)
        except Exception as err:  # a job must never kill the worker
            reply = {"status": 500,
                     "body": error_body(
                         f"{type(err).__name__}: {err}"),
                     "computed": True}
        reply.setdefault("memo", False)
        reply.setdefault("computed", True)
        reply["spans"] = spans or []
        if reply["status"] != 500:
            self._results[fingerprint] = {"status": reply["status"],
                                          "body": reply["body"]}
            self._touch(self._results, fingerprint, MAX_RESULTS)
        return reply

    def _execute(self, job: Dict[str, Any],
                 spans: Optional[List[Dict[str, Any]]] = None,
                 parent: Optional[str] = None) -> Dict[str, Any]:
        endpoint = job["endpoint"]
        sha = job["source_sha"]
        try:
            analyzed, computed = self._analyze(job["source"], sha,
                                               spans, parent)
        except ReproError as err:
            # lexer/parser rejections raise instead of populating
            # .errors — still the client's fault, so 422 (and
            # memoizable: the same text will fail the same way), never
            # a 500
            return {"status": 422,
                    "body": error_body("program does not parse",
                                       errors=[str(err)],
                                       source_sha=sha),
                    "computed": True}
        errors = [str(e) for e in analyzed.errors]
        if endpoint == "analyze":
            stats = analyzed.cache_stats or {}
            return {"status": 200,
                    "body": {"ok": True, "source_sha": sha,
                             "well_typed": not errors,
                             "errors": errors,
                             "classes": len(analyzed.program.classes),
                             "cache": dict(stats)},
                    "computed": computed}
        if errors:
            return {"status": 422,
                    "body": error_body("program is not well-typed",
                                       errors=errors, source_sha=sha),
                    "computed": computed}
        from ..interp.machine import RunOptions, execute
        options = RunOptions(
            checks_enabled=(job["mode"] == "dynamic"),
            validate=False, instrument=False,
            backend=job["backend"],
            record=(endpoint == "inspect"),
            record_capacity=INSPECT_CAPACITY)
        exec_span = (start_span("execute", "worker", parent)
                     if spans is not None else None)
        try:
            result, machine = execute(analyzed, options)
        finally:
            if exec_span is not None:
                spans.append(end_span(exec_span,
                                      backend=job["backend"]))
        ser_span = (start_span("serialize", "worker", parent)
                    if spans is not None else None)
        body: Dict[str, Any] = {
            "ok": True, "source_sha": sha, "mode": job["mode"],
            "backend": job["backend"],
            "backend_used": (machine.program.backend
                             if machine.program is not None
                             else "interp"),
            "cycles": result.stats.cycles,
            "steps": result.stats.steps,
            "output_lines": len(result.output),
            "output_sha256": hashlib.sha256(
                "\n".join(result.output).encode()).hexdigest(),
            "output": result.output,
        }
        if endpoint == "inspect":
            from ..obs.analyze import build_report
            recorder = machine.recorder
            header = recorder.header(meta={
                "source_sha": sha, "mode": job["mode"]})
            body["report"] = build_report(
                header, recorder.records()).to_dict()
            del body["output"]  # the report subsumes raw output
            self._dump_flight(recorder, job, sha)
        if ser_span is not None:
            spans.append(end_span(ser_span))
        return {"status": 200, "body": body, "computed": computed}

    def _dump_flight(self, recorder: Any, job: Dict[str, Any],
                     sha: str) -> None:
        """Side-channel flight dump for a traced inspect job: the
        header meta carries the trace id (the ``--trace`` join key).
        The *body's* report stays trace-free — bodies are memoized and
        digested, so a trace id there would break the determinism
        contract."""
        trace_id = job.get("trace_id")
        if not self.flight_dir or not trace_id:
            return
        from ..obs.flightrec import dump_flight
        try:
            os.makedirs(self.flight_dir, exist_ok=True)
            path = os.path.join(self.flight_dir,
                                f"{trace_id}.flight.jsonl")
            dump_flight(recorder, path,
                        meta={"source_sha": sha, "mode": job["mode"],
                              "trace_id": trace_id,
                              "fingerprint": job["fingerprint"]})
        except OSError:
            pass  # a full disk must not fail the request


def worker_main(conn, cache_root: Optional[str] = None,
                unwanted=(), flight_dir: Optional[str] = None) -> None:
    """Child-process entry: serve micro-batches until the sentinel."""
    # the parent owns shutdown; a terminal Ctrl-C must not race it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # fork-inherited parent-side pipe ends (this worker's own and any
    # earlier siblings'): closed immediately so a vanished parent
    # surfaces as EOF on recv, not a pipe held open by ourselves
    for stale in unwanted:
        try:
            stale.close()
        except OSError:
            pass
    worker = WarmWorker(cache_root, flight_dir=flight_dir)
    try:
        while True:
            try:
                batch = conn.recv()
            except (EOFError, OSError):
                break
            if batch is None:
                break
            received = time.monotonic()
            conn.send([worker.handle(job, batch_received=received)
                       for job in batch])
    finally:
        conn.close()
