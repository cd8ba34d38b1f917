"""The warm worker: one forked process, one in-memory tier.

Each serve fact has one in-memory home.  The worker's is class
analyses, in one :class:`~repro.core.cache.ClassTable` of
``MAX_CLASSES`` entries keyed by class fingerprint that lasts as long
as the worker.  Every analysis looks a class up there first, so a
program re-infers and re-checks only the classes no earlier program
had, and re-parses only those and the ones that moved (paper §2.5:
inference is intra-procedural, so a class's analysis depends only on
what its fingerprint names).  The :class:`AnalyzedProgram` and the
compiled forms it carries (``analyzed.compiled``) die with the reply.

The other facts live elsewhere:

* finished bodies live in the frontend's hot tier
  (:mod:`repro.serve.server`), which answers a 2xx repeat without
  reaching the pool;
* the durable copy of class analyses lives in the shared
  content-addressed disk tree, one shard per program
  (``shard_path(root, sha)``), so a program analyzed by one worker is
  a warm disk hit on every sibling.  Each analysis builds one
  transient :class:`~repro.core.cache.AnalysisCache` over its shard
  and the worker's table (a memory-only worker builds one over no
  path, so ``/v1/analyze`` bodies always carry ``cache`` stats),
  publishes the shard when it lacks one of the program's classes, and
  drops the cache with the reply.

So a repeat that reaches a worker (a 4xx, which the hot tier does not
hold, a fingerprint the hot tier has evicted, or the same program in
another mode, backend or endpoint) is analyzed again through the
table: each class the table still holds sits where it sat, so its
stored decl is reused without a parse and only the whole-program
phases run live; a run builds its compiled forms again.

The worker talks to the pool over a ``multiprocessing.Pipe``: the
parent sends one job dict, the worker replies with one result dict.  A
``None`` message is the shutdown sentinel.  The deadline is re-checked
here before the job starts: a job whose deadline passed during an
injected delay or the pipe hop is answered 504 *without executing*
(``cancelled: true`` in the reply lets the frontend count real
analyses exactly).

Tracing: a job carrying a ``trace_id`` gets worker-side spans
(``analyze``, ``execute``, ``serialize``) returned in
the reply's top-level ``spans`` list — *never* in the body, so
replayed and fresh bodies stay byte-identical and chaos replay digests
are unaffected.  When the pool was built with a ``flight_dir``, each
``/v1/inspect`` job additionally dumps its flight record there with
the trace id stamped into the header meta — the join key
``repro inspect --trace`` stitches service spans to runtime events
with.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from typing import Any, Dict, List, Optional

from ..core.cache import AnalysisCache, ClassTable, shard_path
from ..errors import ReproError
from ..obs.trace import end_span, start_span
from .protocol import error_body

#: class-table bound, per worker, in entries (an annotated ClassDecl with
#: its diagnostics and annotations each).  Measured on one worker's
#: 500-request share of perfbench ``cold`` (seed 7, in process): 16 to
#: 256 entries all replay 1,120-1,121 of its 1,625 classes, and the share
#: ends with 30.9k/37.6k/51.0k/77.8k/131.5k tracked objects and a
#: 38.9/40.5/43.5/48.3/59.0 MB peak RSS at 16/32/64/128/256 entries.
#: Those programs draw on the registry's 25 classes only; 128 leaves room
#: for a wider mix, where a bound sized to 25 would thrash
MAX_CLASSES = 128

#: flight-recorder ring capacity for served /v1/inspect jobs
INSPECT_CAPACITY = 1 << 14


class WarmWorker:
    """The per-process execution engine behind the pool."""

    def __init__(self, cache_root: Optional[str] = None,
                 flight_dir: Optional[str] = None) -> None:
        self.cache_root = cache_root
        #: when set, inspect jobs dump their trace-id-stamped flight
        #: record here (side channel — never in the body)
        self.flight_dir = flight_dir
        self._classes = ClassTable(MAX_CLASSES)

    def _analyze(self, source: str, sha: str,
                 spans: Optional[List[Dict[str, Any]]] = None,
                 parent: Optional[str] = None):
        """The frontend over the worker's class table and the program's
        disk shard."""
        from ..core.api import analyze
        span = (start_span("analyze", "worker", parent)
                if spans is not None else None)
        cache = AnalysisCache(shard_path(self.cache_root, sha)
                              if self.cache_root else None,
                              table=self._classes)
        try:
            analyzed = analyze(source, cache=cache)
        except Exception:
            if span is not None:
                spans.append(end_span(span, outcome="raised"))
            raise
        if cache.unsaved:
            # the shard lacks one of this program's classes: publish it
            # so siblings warm from it (atomic rename, last-write-wins)
            try:
                cache.save()
            except OSError:
                pass  # a failed write costs the shard, not the reply
        if span is not None:
            stats = analyzed.cache_stats or {}
            tier = ("memory" if stats.get("memory_hits") else
                    "disk" if stats.get("replay_hits") else "computed")
            spans.append(end_span(
                span, tier=tier, ast_hits=stats.get("ast_hits", 0),
                replay_hits=stats.get("replay_hits", 0),
                check_misses=stats.get("check_misses", 0)))
        return analyzed

    # -- job execution --------------------------------------------------

    def handle(self, job: Dict[str, Any]) -> Dict[str, Any]:
        delay_ms = job.get("_delay_ms")
        if delay_ms:
            # fault-injected slow analysis (latency spike) or wedge
            # (stall past the pool watchdog); see WorkerPool._consult_faults
            time.sleep(float(delay_ms) / 1000.0)
        parent = job.get("parent_span")
        spans: Optional[List[Dict[str, Any]]] = (
            [] if job.get("trace_id") else None)
        deadline = job.get("deadline")
        if deadline is not None and time.monotonic() >= deadline:
            return {"status": 504,
                    "body": error_body("deadline exceeded"),
                    "cancelled": True,
                    "spans": spans or []}
        try:
            reply = self._execute(job, spans, parent)
        except Exception as err:  # a job must never kill the worker
            reply = {"status": 500,
                     "body": error_body(
                         f"{type(err).__name__}: {err}")}
        reply["spans"] = spans or []
        return reply

    def _execute(self, job: Dict[str, Any],
                 spans: Optional[List[Dict[str, Any]]] = None,
                 parent: Optional[str] = None) -> Dict[str, Any]:
        endpoint = job["endpoint"]
        sha = job["source_sha"]
        try:
            analyzed = self._analyze(job["source"], sha, spans, parent)
        except ReproError as err:
            # lexer/parser rejections raise instead of populating
            # .errors — still the client's fault, so 422, never a 500
            return {"status": 422,
                    "body": error_body("program does not parse",
                                       errors=[str(err)],
                                       source_sha=sha)}
        errors = [str(e) for e in analyzed.errors]
        if endpoint == "analyze":
            stats = analyzed.cache_stats or {}
            return {"status": 200,
                    "body": {"ok": True, "source_sha": sha,
                             "well_typed": not errors,
                             "errors": errors,
                             "classes": len(analyzed.program.classes),
                             "cache": dict(stats)}}
        if errors:
            return {"status": 422,
                    "body": error_body("program is not well-typed",
                                       errors=errors, source_sha=sha)}
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
        return {"status": 200, "body": body}

    def _dump_flight(self, recorder: Any, job: Dict[str, Any],
                     sha: str) -> None:
        """Side-channel flight dump for a traced inspect job: the
        header meta carries the trace id (the ``--trace`` join key).
        The *body's* report stays trace-free — bodies are replayed and
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
    """Child-process entry: serve one job per message until the
    sentinel."""
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
                job = conn.recv()
            except (EOFError, OSError):
                break
            if job is None:
                break
            conn.send(worker.handle(job))
    finally:
        conn.close()
