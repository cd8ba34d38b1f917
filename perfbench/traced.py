"""The traced run's replay: the workload's lists replayed with a span
around every layer call, and the per-layer metrics.

The replay mirrors what the service does for each request:

* ``edge.decode``   — ``json.loads`` of the request body;
* ``edge.address``  — ``validate_request`` + ``program_sha`` +
  ``job_fingerprint``;
* the frontend hot tier (a dict keyed by fingerprint, as in
  ``serve/server.py``); a miss goes to the pool:
* ``pool.pipe``     — ``pickle`` dumps+loads of the job batch, and
  again of the reply batch, as the worker pipe does;
* ``worker.handle`` — ``WarmWorker.handle(job)``;
* ``edge.encode``   — ``json.dumps(body, sort_keys=True)``.

Inside ``worker.handle`` the program's own entry points are wrapped
for the duration of the replay: ``lang.parse`` (``parse_program``),
``core.analyze`` (``analyze``), ``core.tables`` / ``core.infer`` /
``core.check`` (the ``PhaseClock`` laps behind ``phase_seconds``),
``cache.save`` (``AnalysisCache.save``), ``lower``, ``codegen``
(``select_program``), ``exec`` (``Machine.run``) and ``obs.report``
(``build_report``).  Gen-2 garbage collections become ``gc`` spans, so
no layer's self time includes a collector pause.  A layer's self time
is its span's duration minus its children's; per request the self
times of all spans sum to the root span, and ``edge.http`` is the
end-to-end latency of the same request minus that sum.

With one caller the service's two workers take alternate requests, so
each worker's share is replayed through one fresh ``WarmWorker`` in a
fresh interpreter of its own: a fresh heap with fresh module caches, as
a forked worker has, which is what ``worker.gc_ms`` needs.  Spans are
kept in memory as tuples and written to one JSONL file at the end.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .workloads import (Plan, Reference, Request, base_sources,
                        build_plan, check_body, references)

SPAN_SCHEMA = "perfbench-spans/1"

#: worker shares: the service's two workers take alternate requests
SHARES = 2

#: a share's replay process is killed after this many seconds
REPLAY_TIMEOUT_S = 150.0

#: span ids of share ``k`` start at ``k * _IDS_PER_SHARE``
_IDS_PER_SHARE = 10 ** 9

#: span name -> per-layer metric of its median per-request self time
SELF_TIME_METRICS = {
    "edge.decode": "edge.decode_ms",
    "edge.address": "edge.address_ms",
    "edge.encode": "edge.encode_ms",
    "pool.pipe": "pool.pipe_ms",
    "worker.handle": "worker.handle_ms",
    "lang.parse": "lang.parse_ms",
    "core.analyze": "core.analyze_ms",
    "core.tables": "core.tables_ms",
    "core.infer": "core.infer_ms",
    "core.check": "core.check_ms",
    "cache.save": "cache.save_ms",
    "lower": "lower.ms",
    "codegen": "codegen.ms",
    "exec": "exec.ms",
    "obs.report": "obs.report_ms",
}

#: ``PhaseClock`` lap name -> span name (the ``parse`` lap is covered
#: by the ``lang.parse`` spans inside it and by ``core.analyze``)
_PHASE_SPANS = {"tables": "core.tables", "infer": "core.infer",
                "wellformed": "core.check", "region-kinds": "core.check",
                "classes": "core.check", "main-block": "core.check"}

#: a span: (id, parent id or -1, request id, name, start, end)
Span = Tuple[int, int, str, str, float, float]


class SpanRecorder:
    """Nested spans for one request at a time, kept in memory."""

    def __init__(self, first_id: int = 0) -> None:
        self.spans: List[Span] = []
        self.request = ""
        self._stack: List[Tuple[int, str, float]] = []
        self._next = first_id
        #: per-request facts the wrappers observe (cycles, flags, ...)
        self.facts: Dict[str, Dict[str, Any]] = {}

    def fact(self, key: str, value: Any) -> None:
        self.facts.setdefault(self.request, {})[key] = value

    def bump(self, key: str, by: int) -> None:
        facts = self.facts.setdefault(self.request, {})
        facts[key] = facts.get(key, 0) + by

    def open(self, name: str) -> None:
        # take the id before allocating: a collection can start inside
        # any allocation, and its span takes the next id re-entrantly
        sid = self._next
        self._next += 1
        self._stack.append((sid, name, time.perf_counter()))

    def close(self) -> None:
        end = time.perf_counter()
        sid, name, start = self._stack.pop()
        self._add(sid, name, start, end)

    def _add(self, sid: int, name: str, start: float, end: float) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((sid, parent, self.request, name, start, end))

    def completed(self, name: str, start: float, end: float) -> None:
        """Record a span that has already ended (a ``PhaseClock`` lap
        or a collector pause) as a child of the open span, adopting
        the open span's children that lie inside it."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else -1
        for i in range(len(self.spans) - 1, -1, -1):
            span = self.spans[i]
            if span[5] < start:
                break
            if span[1] == parent and span[4] >= start:
                self.spans[i] = (span[0], sid) + span[2:]
        self._add(sid, name, start, end)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def wrap(self, name: str, fn: Any, after: Any = None) -> Any:
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(args, result)
            return result
        return traced


@contextmanager
def instrumented(rec: SpanRecorder) -> Iterator[List[str]]:
    """Wrap the program's layer entry points for the replay; yields
    the entry points that could not be found (reported, not fatal)."""
    import repro.core.api as api
    import repro.interp.codegen_py as codegen_py
    import repro.interp.codegen_py_faithful as codegen_faithful
    import repro.interp.machine as machine
    import repro.obs.analyze as obs_analyze
    from repro.core.cache import AnalysisCache
    from repro.core.phases import PhaseClock

    def analyzed(_args: Any, result: Any) -> None:
        stats = result.cache_stats or {}
        rec.bump("classes", stats.get("ast_hits", 0)
                 + stats.get("ast_misses", 0))
        rec.bump("replayed", stats.get("replay_hits", 0))

    def lowered(_args: Any, _result: Any) -> None:
        rec.fact("lowered", True)

    def compiled(_args: Any, _result: Any) -> None:
        rec.fact("compiled", True)

    def ran(args: Any, result: Any) -> None:
        recorder = args[0].recorder
        rec.fact("cycles", result.stats.cycles)
        rec.fact("events", recorder.events_seen if recorder else 0)

    original_lap = PhaseClock.lap

    def lap(clock: Any, name: str, *args: Any, **kwargs: Any) -> float:
        start = clock._mark
        now = original_lap(clock, name, *args, **kwargs)
        if name in _PHASE_SPANS:
            rec.completed(_PHASE_SPANS[name], start, now)
        return now

    targets = [
        (api, "parse_program", "lang.parse", None),
        (api, "analyze", "core.analyze", analyzed),
        (AnalysisCache, "save", "cache.save", None),
        (codegen_py, "lower", "lower", lowered),
        (codegen_faithful, "lower", "lower", lowered),
        (codegen_py, "select_program", "codegen", compiled),
        (machine.Machine, "run", "exec", ran),
        (obs_analyze, "build_report", "obs.report", None),
    ]
    saved: List[Tuple[Any, str, Any]] = [(PhaseClock, "lap", original_lap)]
    PhaseClock.lap = lap
    missing: List[str] = []
    for owner, attr, span_name, after in targets:
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{owner.__name__}.{attr}")
            continue
        saved.append((owner, attr, fn))
        setattr(owner, attr, rec.wrap(span_name, fn, after))
    try:
        yield missing
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


@contextmanager
def gen2_pauses(on_pause: Any) -> Iterator[None]:
    """Call ``on_pause(start, end)`` after every gen-2 collection."""
    began: List[float] = []

    def callback(phase: str, info: Dict[str, Any]) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            began.append(time.perf_counter())
        elif began:
            on_pause(began.pop(), time.perf_counter())

    gc.callbacks.append(callback)
    try:
        yield
    finally:
        gc.callbacks.remove(callback)


class Replay:
    """The service's request path for one worker's share: the frontend
    hot tier, and this share's fresh worker.  Set-up requests of the
    other share go to a second worker, dropped before the timed list,
    so that the hot tier holds every primed body as the service's
    does."""

    def __init__(self, rec: SpanRecorder, cache_root: str,
                 refs: Dict[str, Reference]) -> None:
        from repro.serve.worker import WarmWorker
        self.rec = rec
        self.refs = refs
        self.worker = WarmWorker(cache_root)
        self.other: Optional[Any] = WarmWorker(cache_root)
        self.hot: Dict[str, Any] = {}

    def request(self, rid: str, req: Request, raw: bytes,
                other: bool = False) -> Optional[str]:
        """Replay one request; returns a complaint or ``None``."""
        from repro.serve.protocol import (Job, job_fingerprint,
                                          program_sha, validate_request)
        rec = self.rec
        rec.request = rid
        rec.open("request")
        try:
            with rec.span("edge.decode"):
                payload = json.loads(raw.decode("utf-8"))
            with rec.span("edge.address"):
                complaint = validate_request(payload)
                source = payload["program"]
                sha = program_sha(source)
                fingerprint = job_fingerprint(
                    req.endpoint, sha, payload["mode"],
                    payload["backend"])
            if complaint is not None:
                return f"rejected: {complaint}"
            hot = self.hot.get(fingerprint)
            if hot is None:
                job = Job(endpoint=req.endpoint, source=source,
                          source_sha=sha, fingerprint=fingerprint,
                          mode=payload["mode"], backend=payload["backend"])
                status, body = self._dispatch(
                    job, self.other if other else self.worker)
                if status == 200:
                    self.hot[fingerprint] = body
            else:
                status, body = 200, hot
            with rec.span("edge.encode"):
                out = json.dumps(body, sort_keys=True).encode("utf-8")
        finally:
            rec.close()
        if status != 200:
            return f"HTTP {status}: {out[:200]!r}"
        return check_body(body, self.refs[req.program])

    def _dispatch(self, job: Any, worker: Any
                  ) -> Tuple[int, Dict[str, Any]]:
        rec = self.rec
        with rec.span("pool.pipe"):
            batch = pickle.loads(pickle.dumps([job.to_wire()]))
        with rec.span("worker.handle"):
            reply = worker.handle(batch[0])
        with rec.span("pool.pipe"):
            reply = pickle.loads(pickle.dumps([reply]))[0]
        return reply["status"], reply["body"]


def replay_share(plan: Plan, share: int, refs: Dict[str, Reference],
                 cache_root: str, out_path: str) -> None:
    """Replay worker ``share``'s requests in this process and write its
    spans, facts and failures to ``out_path``.

    The whole set-up list runs first (the frontend tier needs every
    primed body); then only this share's timed requests.  Only this
    share's spans and facts are written out."""
    import repro.cli  # noqa: F401  (a forked service worker has these
    import repro.serve.server  # noqa: F401  modules in its heap too)

    rec = SpanRecorder(first_id=share * _IDS_PER_SHARE)
    replay = Replay(rec, cache_root, refs)
    failures: List[str] = []
    with instrumented(rec) as missing, \
            gen2_pauses(lambda s, e: rec.completed("gc", s, e)):
        for p, (req, raw) in enumerate(zip(plan.setup,
                                           _payloads(plan.setup))):
            why = replay.request(f"s{p}", req, raw,
                                 other=p % SHARES != share)
            if why is not None:
                failures.append(f"FAIL replay set-up {req.label()}: "
                                f"{why}")
        replay.other = None
        timed = plan.timed[share::SHARES]
        for k, (req, raw) in enumerate(zip(timed, _payloads(timed))):
            p = share + k * SHARES
            why = replay.request(f"t{p}", req, raw)
            if why is not None:
                failures.append(f"FAIL replay #{p} {req.label()}: {why}")

    def own(rid: str) -> bool:
        return int(rid[1:]) % SHARES == share

    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": [s for s in rec.spans if own(s[2])],
                   "facts": {rid: f for rid, f in rec.facts.items()
                             if own(rid)},
                   "failures": failures, "missing": missing}, handle)


def replay_shares(plan: Plan, root: str, work: str
                  ) -> Tuple[List[Span], Dict[str, Dict[str, Any]],
                             List[str], List[str]]:
    """Replay each worker share in a fresh interpreter of its own, one
    after the other (side by side they slow each other down, while the
    service's alternating workers never run at once); returns the
    merged spans, facts, failure lines and missing entry points."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    env["PYTHONHASHSEED"] = "0"
    spans: List[Span] = []
    facts: Dict[str, Dict[str, Any]] = {}
    failures: List[str] = []
    missing: List[str] = []
    for share in range(SHARES):
        out_path = os.path.join(work, f"replay-share{share}.json")
        subprocess.run(
            [sys.executable, "-m", "perfbench.traced", plan.workload,
             str(plan.seed), str(len(plan.timed)), str(share),
             os.path.join(work, f"replay-cache{share}"), out_path],
            cwd=root, env=env, check=True, timeout=REPLAY_TIMEOUT_S)
        with open(out_path, encoding="utf-8") as handle:
            part = json.load(handle)
        spans.extend(tuple(span) for span in part["spans"])
        facts.update(part["facts"])
        failures.extend(part["failures"])
        missing = part["missing"]
    return spans, facts, failures, missing


def _payloads(requests: List[Request]) -> List[bytes]:
    """Request bodies, encoded before the replay starts."""
    encoded: Dict[str, bytes] = {}
    return [encoded.get(req.source) or encoded.setdefault(
        req.source, req.payload()) for req in requests]


def self_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per request: summed self seconds by span name."""
    child_time: Dict[int, float] = {}
    for sid, parent, _rid, _name, start, end in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    out: Dict[str, Dict[str, float]] = {}
    for sid, _parent, rid, name, start, end in spans:
        per = out.setdefault(rid, {})
        per[name] = (per.get(name, 0.0) + end - start
                     - child_time.get(sid, 0.0))
    return out


def write_spans(path: str, plan: Plan, spans: List[Span],
                latency_ms: Dict[str, float]) -> None:
    """The span file (format in ``perfbench/README.md``)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    t0 = min((span[4] for span in spans), default=0.0)
    roots = [(rid, end - start) for _sid, parent, rid, _n, start, end
             in spans if parent < 0]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "kind": "header", "schema": SPAN_SCHEMA,
            "workload": plan.workload, "seed": plan.seed,
            "requests": len(roots), "timed": len(plan.timed)}) + "\n")
        for sid, parent, rid, name, start, end in spans:
            handle.write(json.dumps({
                "kind": "span", "request": rid, "span": sid,
                "parent": parent if parent >= 0 else None,
                "name": name, "start_ms": round((start - t0) * 1e3, 6),
                "end_ms": round((end - t0) * 1e3, 6)}) + "\n")
        for rid, traced in roots:
            if rid in latency_ms:
                handle.write(json.dumps({
                    "kind": "request", "request": rid,
                    "latency_ms": round(latency_ms[rid], 6),
                    "traced_ms": round(traced * 1e3, 6),
                    "edge.http_ms": round(latency_ms[rid]
                                          - traced * 1e3, 6)}) + "\n")


def worker_gc(spans: List[Span], timed_ids: List[str]
              ) -> Tuple[float, int]:
    """Gen-2 pause seconds and collections inside ``worker.handle``
    over the timed requests."""
    by_id = {span[0]: span for span in spans}
    timed = set(timed_ids)
    seconds, count = 0.0, 0
    for sid, parent, rid, name, start, end in spans:
        if name != "gc" or rid not in timed:
            continue
        while parent >= 0 and by_id[parent][3] != "worker.handle":
            parent = by_id[parent][1]
        if parent >= 0:
            seconds += end - start
            count += 1
    return seconds, count


def per_layer(plan: Plan, context: Dict[str, Any], root: str, work: str
              ) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Replay the plan; returns ``{metric: (value, unit)}`` and the
    replay's failure lines."""
    spans, facts_by_id, failures, missing = replay_shares(plan, root, work)
    span_path = os.path.join(root, ".perfbench", f"spans-{plan.workload}"
                             f"-seed{plan.seed}.jsonl")
    for name in missing:
        print(f"perfbench: entry point {name} not found; its time "
              f"stays in its caller's self time")

    timed_ids = [f"t{i}" for i in range(len(plan.timed))]
    latency_ms = {rid: lat * 1e3 for rid, lat
                  in zip(timed_ids, context["latency_s"])
                  if lat is not None}
    write_spans(span_path, plan, spans, latency_ms)
    selfs = self_times(spans)
    names = sorted({name for per in selfs.values() for name in per})

    def column(name: str) -> List[float]:
        return [selfs[rid].get(name, 0.0) * 1e3 for rid in timed_ids]

    http = [latency_ms[rid] - sum(selfs[rid].values()) * 1e3
            for rid in timed_ids if rid in latency_ms]
    n = len(timed_ids)
    mean_latency = statistics.fmean(latency_ms.values())
    print(f"per-request self time, {n} timed requests "
          f"(mean e2e latency {mean_latency:.4f} ms):")
    print(f"  {'layer':<16}{'median ms':>12}{'mean ms':>12}{'share':>8}")
    rows = [(name, column(name)) for name in names]
    rows.append(("edge.http", http))
    for name, values in sorted(rows, key=lambda r: -statistics.fmean(
            r[1])):
        mean = statistics.fmean(values)
        print(f"  {name:<16}{statistics.median(values):>12.4f}"
              f"{mean:>12.4f}{100 * mean / mean_latency:>7.1f}%")
    print(f"spans written to {span_path}")

    facts = [facts_by_id.get(rid, {}) for rid in timed_ids]
    lowered = [f for f in facts if f.get("lowered")]
    ran = [(f["cycles"], selfs[rid].get("exec", 0.0))
           for rid, f in zip(timed_ids, facts) if "cycles" in f]
    classes = sum(f.get("classes", 0) for f in facts)
    gc_s, gc_count = worker_gc(spans, timed_ids)
    metrics: Dict[str, Tuple[float, str]] = {}
    for span_name, metric in SELF_TIME_METRICS.items():
        metrics[metric] = (statistics.median(column(span_name)), "ms")
    metrics.update({
        "edge.http_ms": (statistics.median(http), "ms"),
        "edge.cpu_ms_per_req": (context["edge_cpu_ms"], "ms"),
        "edge.hot_hit_ratio": (context["hot_hit_ratio"], "ratio"),
        "worker.cpu_ms_per_req": (context["worker_cpu_ms"], "ms"),
        "worker.gc_ms": (gc_s * 1e3 / n, "ms"),
        "worker.gc_gen2": (gc_count * 1e3 / n, "count"),
        "worker.rss_mb": (context["worker_rss_mb"], "MB"),
        "cache.replay_ratio": (
            sum(f.get("replayed", 0) for f in facts) / classes
            if classes else 0.0, "ratio"),
        "lower.useful_ratio": (
            sum(1 for f in lowered if f.get("compiled")) / len(lowered)
            if lowered else 0.0, "ratio"),
        "exec.mcycles_per_s": (
            statistics.median(c / s / 1e6 for c, s in ran if s > 0)
            if ran else 0.0, "Mcycles/s"),
        "obs.flight_events": (
            statistics.median(f.get("events", 0) for f in facts),
            "count"),
        "trace.overhead_pct": (context["trace_overhead_pct"], "%"),
    })
    for name, (value, unit) in metrics.items():
        print(f"{plan.workload}/{name} = {value:.6g} {unit}")
    return metrics, failures


def main(argv: List[str]) -> None:
    """``python -m perfbench.traced WORKLOAD SEED COUNT SHARE CACHE OUT``:
    rebuild the seeded plan and replay one worker share."""
    workload, seed, count, share, cache_root, out_path = argv
    sources = base_sources()
    plan = build_plan(workload, int(seed), int(count), sources)
    replay_share(plan, int(share), references(sources), cache_root,
                 out_path)


if __name__ == "__main__":
    main(sys.argv[1:])
