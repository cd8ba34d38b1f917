"""Request tracing: span trees, tail-based sampling, critical paths.

The single-run observability stack (the flight recorder) explains
*one* execution.  This module explains *requests*: a ``repro serve``
request crosses three processes — the client, the HTTP frontend (and
its pool dispatcher threads), and a forked warm worker — and every
hop contributes latency that an aggregate histogram cannot attribute.
Each request therefore carries a **trace context** (a 128-bit trace
id, propagated as an HTTP header; see
:mod:`repro.serve.protocol`), and every component records **spans**
against it:

===============  ========  ============================================
span             process   covers
===============  ========  ============================================
client-request   client    the whole logical request (retries included)
attempt          client    one HTTP attempt (``n``, ``status`` attrs)
hedge            client    the duplicate fired at observed p99
backoff          client    the sleep between retries
request          frontend  the served request (root of the server tree)
admission        frontend  shape/size/quota/degradation checks
cache-hot        frontend  a frontend hot-tier answer
coalesce-wait    frontend  a follower adopting the leader's in-flight
                           job (``leader_trace`` attr)
queue-wait       pool      submit → dispatcher pickup (one per attempt)
dispatch         pool      pipe send → reply (``worker``, ``attempt``)
batch-wait       worker    batch receipt → this job's turn
cache-memo       worker    a worker result-memo answer
cache-lru        worker    an analyzed-program LRU hit (no frontend)
analyze          worker    the real frontend pass (cache-stats attrs)
execute          worker    machine/back-end execution
serialize        worker    body construction (inspect report build)
===============  ========  ============================================

Span timestamps are ``time.monotonic()`` instants: on Linux the
monotonic clock is system-wide, so spans stamped in a forked worker
nest correctly inside the dispatch span stamped in the parent — the
same property the serve deadline propagation already relies on.

**Tail-based sampling** (:class:`TraceBuffer`): the retention decision
is made when the trace *completes*, so the interesting tail is never
lost — errors (status ≥ 400), fault-affected and requeued jobs,
degradation-rung casualties, and slower-than-p99 requests are always
retained; the healthy fast majority is sampled 1-in-N with the same
counter-based, replay-stable scheme the flight recorder uses (no RNG:
the decision is a pure function of arrival order).

The **critical-path analyzer** (:func:`analyze_traces` /
:func:`render_report_text`) attributes each retained trace's wall time
to spans by *self-time* (a span's duration minus its children's), so
the per-trace breakdown sums to the measured request latency by
construction, then aggregates the slowest percentile into a
where-does-p99-go table and a queue-vs-compute decomposition.  The
``repro trace`` command is a thin CLI over these functions.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import OrderedDict, deque
from typing import (IO, Any, Dict, Iterable, List, Optional, Tuple,
                    Union)

__all__ = [
    "TRACE_SCHEMA", "new_trace_id", "new_span_id", "start_span",
    "end_span", "instant_span", "RequestTrace", "TraceBuffer",
    "validate_trace", "span_tree", "self_times", "queue_compute_ms",
    "analyze_traces", "render_trace_text", "render_report_text",
    "render_report_html", "dump_traces", "load_traces",
]

TRACE_SCHEMA = "repro-trace/1"

#: span names that are time spent *waiting* (admission machinery,
#: queues, batching) vs *working* — the queue-vs-compute decomposition
QUEUE_SPAN_NAMES = frozenset({
    "admission", "coalesce-wait", "queue-wait", "batch-wait",
    "backoff"})
COMPUTE_SPAN_NAMES = frozenset({
    "analyze", "execute", "serialize", "cache-hot", "cache-memo",
    "cache-lru"})

#: how many duration samples feed the slow-tail (p99) estimate, and how
#: many offers between re-estimates (sorting amortized off the hot path)
_SLOW_WINDOW = 1024
_SLOW_REFRESH = 64
#: observations required before "slower than p99" can fire at all
_SLOW_MIN_SAMPLES = 100

# span ids only need uniqueness, not unpredictability: a per-process
# random prefix plus a counter avoids an os.urandom syscall per span.
# The prefix is keyed to the pid because a forked worker inherits the
# module state — without the re-derivation, parent and worker would
# mint identical ids into the same trace (os.urandom reseeds itself
# after fork, so the child's fresh prefix never matches the parent's)
_SPAN_STATE: Dict[str, Any] = {"pid": None, "prefix": ""}
_SPAN_COUNTER = itertools.count(1)


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 hex chars)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (16 hex chars), cheap enough for the
    serve hot path and collision-free across forked workers."""
    pid = os.getpid()
    if _SPAN_STATE["pid"] != pid:
        _SPAN_STATE["pid"] = pid
        _SPAN_STATE["prefix"] = os.urandom(4).hex()
    return (f"{_SPAN_STATE['prefix']}"
            f"{next(_SPAN_COUNTER) & 0xFFFFFFFF:08x}")


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def start_span(name: str, process: str,
               parent: Optional[str] = None,
               attrs: Optional[Dict[str, Any]] = None
               ) -> Dict[str, Any]:
    """Open one span (a plain dict — spans cross a ``Pipe``)."""
    return {"name": name, "span": new_span_id(), "parent": parent,
            "process": process, "start": time.monotonic(),
            "end": None, "attrs": dict(attrs) if attrs else {}}


def end_span(span: Dict[str, Any], **attrs: Any) -> Dict[str, Any]:
    """Close a span (idempotent: the first end wins)."""
    if span["end"] is None:
        span["end"] = time.monotonic()
    if attrs:
        span["attrs"].update(attrs)
    return span


def instant_span(name: str, process: str,
                 parent: Optional[str] = None,
                 **attrs: Any) -> Dict[str, Any]:
    """A zero-ish-duration marker span (cache hits, decisions)."""
    span = start_span(name, process, parent, attrs)
    span["end"] = span["start"]
    return span


def span_duration_s(span: Dict[str, Any]) -> float:
    end = span.get("end")
    if end is None:
        return 0.0
    return max(0.0, end - span["start"])


class RequestTrace:
    """Collects one server-side span tree for one request.

    Created at admission; the root ``request`` span parents every
    frontend span, the pool spans adopt the root via the job's
    ``root_span`` field, and worker spans parent the dispatch span
    they rode — :meth:`finish` flattens the lot into one JSON-able
    trace record.
    """

    __slots__ = ("trace_id", "root", "spans", "flags", "attrs")

    def __init__(self, trace_id: str, endpoint: str,
                 parent: Optional[str] = None) -> None:
        self.trace_id = trace_id
        self.root = start_span("request", "frontend", parent=parent,
                               attrs={"endpoint": endpoint})
        self.spans: List[Dict[str, Any]] = [self.root]
        self.flags: List[str] = []
        self.attrs: Dict[str, Any] = {"endpoint": endpoint}

    def begin(self, name: str, **attrs: Any) -> Dict[str, Any]:
        span = start_span(name, "frontend", parent=self.root["span"],
                          attrs=attrs)
        self.spans.append(span)
        return span

    def end(self, span: Dict[str, Any], **attrs: Any) -> None:
        end_span(span, **attrs)

    def instant(self, name: str, **attrs: Any) -> Dict[str, Any]:
        span = instant_span(name, "frontend", self.root["span"],
                            **attrs)
        self.spans.append(span)
        return span

    def adopt(self, spans: Iterable[Dict[str, Any]]) -> None:
        """Take ownership of pool/worker spans for this request."""
        self.spans.extend(spans)

    def flag(self, name: str) -> None:
        if name not in self.flags:
            self.flags.append(name)

    def note(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def finish(self, status: int, **attrs: Any) -> Dict[str, Any]:
        end_span(self.root, status=status)
        self.note(**attrs)
        for span in self.spans:
            if span.get("end") is None:  # crash-path hygiene
                end_span(span, truncated=True)
        return {
            "schema": TRACE_SCHEMA,
            "trace": self.trace_id,
            "root": self.root["span"],
            "status": status,
            "endpoint": self.attrs.get("endpoint", ""),
            "tenant": self.attrs.get("tenant", ""),
            "duration_s": round(span_duration_s(self.root), 9),
            "flags": list(self.flags),
            "attrs": {k: v for k, v in self.attrs.items()
                      if k not in ("endpoint", "tenant")},
            "time": round(time.time(), 3),
            "spans": self.spans,
        }


# ---------------------------------------------------------------------------
# tail-based sampling
# ---------------------------------------------------------------------------

class TraceBuffer:
    """Bounded store of completed traces with tail-based retention.

    ``offer()`` decides, per completed trace, whether to retain:

    * ``status >= 400`` → always (``"error"``);
    * fault-affected (chaos-faulted, requeued after a crash) →
      always (``"faulted"``);
    * admitted under a degraded rung or shed → always (``"degraded"``);
    * slower than the running p99 estimate → always (``"slow"``);
    * otherwise 1-in-``sample`` by arrival counter — the same
      replay-stable scheme as the flight recorder's detail sampling
      (``sample <= 1`` retains everything).

    Retained traces live in an insertion-ordered ring of ``capacity``;
    eviction is oldest-first.  Thread-safe: offers come from every
    HTTP handler thread, snapshots from scrape/CLI threads.
    """

    def __init__(self, capacity: int = 512, sample: int = 16,
                 metrics: Optional[Any] = None) -> None:
        self.capacity = max(1, capacity)
        self.sample = max(1, int(sample))
        self._lock = threading.Lock()
        self._ring: "OrderedDict[int, Dict[str, Any]]" = OrderedDict()
        self._by_trace: Dict[str, int] = {}
        self._seq = 0
        self._seen = 0
        self._by_reason: Dict[str, int] = {}
        self._window: deque = deque(maxlen=_SLOW_WINDOW)
        self._p99: Optional[float] = None
        if metrics is not None:
            self._offered = metrics.counter(
                "repro_serve_traces_total",
                "completed request traces by retention decision")
            self._retained_ctr = metrics.counter(
                "repro_serve_traces_retained_total",
                "retained request traces by reason")
        else:
            self._offered = self._retained_ctr = None

    # -- retention policy ----------------------------------------------

    def _reason(self, record: Dict[str, Any]) -> Optional[str]:
        if record.get("status", 0) >= 400:
            return "error"
        flags = set(record.get("flags") or ())
        if flags & {"faulted", "requeued"}:
            return "faulted"
        if flags & {"degraded", "shed"}:
            return "degraded"
        duration = record.get("duration_s", 0.0)
        if (self._p99 is not None
                and len(self._window) >= _SLOW_MIN_SAMPLES
                and duration > self._p99):
            return "slow"
        # counter-based 1-in-N: deterministic in arrival order, the
        # flight recorder's exact scheme (sample<=1 keeps everything)
        if self.sample <= 1 or self._seen % self.sample == 1:
            return "sampled"
        return None

    def offer(self, record: Dict[str, Any]) -> Tuple[bool, str]:
        """Decide retention for one completed trace; returns
        ``(retained, reason)`` (reason ``"dropped"`` when not)."""
        with self._lock:
            self._seen += 1
            reason = self._reason(record)
            self._window.append(record.get("duration_s", 0.0))
            if self._seen % _SLOW_REFRESH == 0 and self._window:
                ordered = sorted(self._window)
                self._p99 = ordered[int(0.99 * (len(ordered) - 1))]
            if reason is None:
                if self._offered is not None:
                    self._offered.labels(retained="no").inc()
                return False, "dropped"
            record = dict(record)
            record["retained"] = reason
            self._seq += 1
            self._ring[self._seq] = record
            self._by_trace[record["trace"]] = self._seq
            self._by_reason[reason] = (
                self._by_reason.get(reason, 0) + 1)
            while len(self._ring) > self.capacity:
                _, evicted = self._ring.popitem(last=False)
                key = evicted["trace"]
                if key in self._by_trace \
                        and self._by_trace[key] not in self._ring:
                    self._by_trace.pop(key, None)
        if self._offered is not None:
            self._offered.labels(retained="yes").inc()
            self._retained_ctr.labels(reason=reason).inc()
        return True, reason

    # -- reads ----------------------------------------------------------

    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """The newest retained record for one trace id."""
        with self._lock:
            seq = self._by_trace.get(trace_id)
            return self._ring.get(seq) if seq is not None else None

    def snapshot(self) -> List[Dict[str, Any]]:
        """Retained traces, oldest first."""
        with self._lock:
            return list(self._ring.values())

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {"seen": self._seen, "retained": len(self._ring),
                    "capacity": self.capacity, "sample": self.sample,
                    "by_reason": dict(self._by_reason),
                    "p99_estimate_s": self._p99}


# ---------------------------------------------------------------------------
# validation and analysis
# ---------------------------------------------------------------------------

def validate_trace(record: Dict[str, Any]) -> List[str]:
    """Structural complaints for one trace record (empty = sound).

    The root span's parent may point outside the record (the client's
    attempt span); every *other* span must parent a span in the
    record — an unparented span is an orphan, which is exactly the
    cross-process propagation bug this check exists to catch.
    """
    problems: List[str] = []
    spans = record.get("spans") or []
    if not spans:
        return [f"trace {record.get('trace', '?')[:12]}: no spans"]
    ids = {s["span"] for s in spans}
    if len(ids) != len(spans):
        problems.append("duplicate span ids")
    root = record.get("root")
    if root not in ids:
        problems.append(f"root span {root!r} not present")
    for span in spans:
        label = f"span {span.get('name')}/{str(span.get('span'))[:8]}"
        if span.get("end") is None:
            problems.append(f"{label}: never ended")
        elif span["end"] < span["start"]:
            problems.append(f"{label}: ends before it starts")
        parent = span.get("parent")
        if span["span"] == root:
            continue  # the root's parent is the client's span (or None)
        if parent is None or parent not in ids:
            problems.append(f"{label}: orphan (parent {parent!r} "
                            f"not in trace)")
    return problems


def span_tree(record: Dict[str, Any]
              ) -> Dict[Optional[str], List[Dict[str, Any]]]:
    """Children-by-parent-id map, children in start order."""
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    ids = {s["span"] for s in record.get("spans") or []}
    root = record.get("root")
    for span in record.get("spans") or []:
        parent = span.get("parent")
        if span["span"] == root or parent not in ids:
            parent = None
        children.setdefault(parent, []).append(span)
    for kids in children.values():
        kids.sort(key=lambda s: s["start"])
    return children


def self_times(record: Dict[str, Any]) -> Dict[str, float]:
    """Per-span self-time (duration minus direct children's), keyed by
    span id.  Summed over a sound tree this reproduces the root span's
    duration, so the critical-path table accounts for every measured
    second — gaps between child spans surface as parent self-time
    instead of silently vanishing."""
    children = span_tree(record)
    out: Dict[str, float] = {}
    for span in record.get("spans") or []:
        kids = children.get(span["span"], ())
        covered = sum(span_duration_s(k) for k in kids)
        out[span["span"]] = max(0.0,
                                span_duration_s(span) - covered)
    return out


def queue_compute_ms(record: Dict[str, Any]) -> Tuple[float, float]:
    """(queue_ms, compute_ms) for one trace: self-time of waiting
    spans vs working spans (everything else — dispatch envelope, root
    slack — is coordination and belongs to neither)."""
    selfs = self_times(record)
    by_id = {s["span"]: s for s in record.get("spans") or []}
    queue = compute = 0.0
    for span_id, self_s in selfs.items():
        name = by_id[span_id]["name"]
        if name in QUEUE_SPAN_NAMES:
            queue += self_s
        elif name in COMPUTE_SPAN_NAMES:
            compute += self_s
    return queue * 1e3, compute * 1e3


def analyze_traces(records: List[Dict[str, Any]],
                   tail: float = 0.99) -> Dict[str, Any]:
    """The aggregate critical-path report over retained traces.

    * latency percentiles over every trace;
    * **where does the tail go**: mean self-time per span name over
      the slowest ``1 - tail`` fraction (at least one trace), plus the
      same table over all traces for contrast;
    * queue-vs-compute decomposition of the tail;
    * the slowest traces as exemplars (id, status, duration, flags).
    """
    records = [r for r in records if r.get("spans")]
    if not records:
        return {"schema": TRACE_SCHEMA, "traces": 0, "problems": [],
                "percentiles": {}, "tail": {}, "overall": {},
                "exemplars": [], "statuses": {}, "flags": {}}
    problems: List[str] = []
    for record in records:
        for problem in validate_trace(record):
            problems.append(
                f"{record.get('trace', '?')[:12]}: {problem}")
    by_duration = sorted(records, key=lambda r: r["duration_s"])
    durations = [r["duration_s"] for r in by_duration]

    def pct(q: float) -> float:
        idx = min(len(durations) - 1,
                  max(0, int(q * (len(durations) - 1) + 0.5)))
        return durations[idx]

    cut = max(1, int(round(len(by_duration) * (1.0 - tail))))
    slowest = by_duration[-cut:]

    def breakdown(subset: List[Dict[str, Any]]) -> Dict[str, Any]:
        total: Dict[str, float] = {}
        for record in subset:
            selfs = self_times(record)
            by_id = {s["span"]: s for s in record["spans"]}
            for span_id, self_s in selfs.items():
                name = by_id[span_id]["name"]
                total[name] = total.get(name, 0.0) + self_s
        n = len(subset)
        mean_total = sum(r["duration_s"] for r in subset) / n
        rows = [{"span": name,
                 "mean_ms": round(secs / n * 1e3, 4),
                 "share": round((secs / n) / mean_total, 4)
                 if mean_total else 0.0}
                for name, secs in total.items()]
        rows.sort(key=lambda row: -row["mean_ms"])
        queue = sum(r["mean_ms"] for r in rows
                    if r["span"] in QUEUE_SPAN_NAMES)
        compute = sum(r["mean_ms"] for r in rows
                      if r["span"] in COMPUTE_SPAN_NAMES)
        return {"count": n, "mean_ms": round(mean_total * 1e3, 4),
                "rows": rows,
                "queue_ms": round(queue, 4),
                "compute_ms": round(compute, 4),
                "other_ms": round(mean_total * 1e3 - queue - compute,
                                  4)}

    statuses: Dict[str, int] = {}
    flags: Dict[str, int] = {}
    retained: Dict[str, int] = {}
    for record in records:
        statuses[str(record.get("status"))] = (
            statuses.get(str(record.get("status")), 0) + 1)
        for flag in record.get("flags") or ():
            flags[flag] = flags.get(flag, 0) + 1
        why = record.get("retained", "?")
        retained[why] = retained.get(why, 0) + 1
    return {
        "schema": TRACE_SCHEMA,
        "traces": len(records),
        "problems": problems,
        "percentiles": {"p50": round(pct(0.50), 6),
                        "p95": round(pct(0.95), 6),
                        "p99": round(pct(0.99), 6)},
        "statuses": statuses,
        "flags": flags,
        "retained": retained,
        "tail": breakdown(slowest),
        "overall": breakdown(by_duration),
        "exemplars": [{"trace": r["trace"],
                       "endpoint": r.get("endpoint", ""),
                       "status": r.get("status"),
                       "duration_ms": round(r["duration_s"] * 1e3, 3),
                       "flags": r.get("flags") or [],
                       "retained": r.get("retained", "?")}
                      for r in reversed(slowest[-8:])],
    }


# ---------------------------------------------------------------------------
# renderings
# ---------------------------------------------------------------------------

def render_trace_text(record: Dict[str, Any]) -> str:
    """One trace as an indented span tree with self-time columns."""
    children = span_tree(record)
    selfs = self_times(record)
    lines = [f"trace {record.get('trace', '?')}  "
             f"endpoint={record.get('endpoint', '?')} "
             f"status={record.get('status', '?')} "
             f"duration={record.get('duration_s', 0) * 1e3:.3f}ms "
             f"flags={','.join(record.get('flags') or ()) or '-'} "
             f"retained={record.get('retained', '?')}"]
    base = min((s["start"] for s in record.get("spans") or ()),
               default=0.0)

    def walk(parent: Optional[str], depth: int) -> None:
        for span in children.get(parent, ()):
            dur = span_duration_s(span) * 1e3
            lines.append(
                f"  {'  ' * depth}{span['name']:<16} "
                f"[{span['process']:<8}] "
                f"+{(span['start'] - base) * 1e3:8.3f}ms "
                f"dur={dur:9.3f}ms self={selfs[span['span']] * 1e3:9.3f}ms"
                + (f"  {_fmt_attrs(span['attrs'])}"
                   if span.get("attrs") else ""))
            walk(span["span"], depth + 1)

    walk(None, 0)
    return "\n".join(lines)


def _fmt_attrs(attrs: Dict[str, Any]) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))


def render_report_text(report: Dict[str, Any]) -> str:
    if not report["traces"]:
        return "no traces retained (is tracing enabled?)"
    p = report["percentiles"]
    lines = [
        f"== request traces: {report['traces']} retained ==",
        f"latency: p50={p['p50'] * 1e3:.3f}ms "
        f"p95={p['p95'] * 1e3:.3f}ms p99={p['p99'] * 1e3:.3f}ms",
        "statuses: " + " ".join(
            f"{k}={v}" for k, v in sorted(report["statuses"].items())),
        "retained: " + " ".join(
            f"{k}={v}" for k, v in sorted(
                report.get("retained", {}).items())),
    ]
    if report.get("flags"):
        lines.append("flags: " + " ".join(
            f"{k}={v}" for k, v in sorted(report["flags"].items())))
    for title, key in (("where the tail goes (slowest "
                        f"{report['tail']['count']})", "tail"),
                       ("overall", "overall")):
        section = report[key]
        lines.append(f"-- {title}: mean={section['mean_ms']:.3f}ms "
                     f"queue={section['queue_ms']:.3f}ms "
                     f"compute={section['compute_ms']:.3f}ms "
                     f"other={section['other_ms']:.3f}ms --")
        for row in section["rows"]:
            lines.append(f"  {row['span']:<16} {row['mean_ms']:9.3f}ms "
                         f"{row['share'] * 100:5.1f}%")
    lines.append("-- slowest exemplars --")
    for ex in report["exemplars"]:
        lines.append(f"  {ex['trace'][:16]}  {ex['endpoint']:<8} "
                     f"{ex['status']}  {ex['duration_ms']:9.3f}ms  "
                     f"{','.join(ex['flags']) or '-'}  "
                     f"[{ex['retained']}]")
    if report["problems"]:
        lines.append(f"-- {len(report['problems'])} structural "
                     f"problem(s) --")
        lines.extend(f"  {p}" for p in report["problems"])
    return "\n".join(lines)


def render_report_html(report: Dict[str, Any],
                       records: Optional[List[Dict[str, Any]]] = None
                       ) -> str:
    """Self-contained HTML: the aggregate tables plus (optionally)
    each exemplar's span tree in a <pre> block."""
    def esc(value: Any) -> str:
        return (str(value).replace("&", "&amp;").replace("<", "&lt;")
                .replace(">", "&gt;"))

    parts = ["<!doctype html><html><head><meta charset='utf-8'>"
             "<title>repro trace</title><style>"
             "body{font-family:system-ui,sans-serif;margin:2em}"
             "table{border-collapse:collapse;margin:1em 0}"
             "td,th{border:1px solid #ccc;padding:4px 8px;"
             "text-align:right}th{background:#eee}"
             "td:first-child{text-align:left}"
             "pre{background:#f6f6f6;padding:1em;overflow-x:auto}"
             "</style></head><body>",
             f"<h1>request traces ({report['traces']} retained)</h1>"]
    p = report.get("percentiles") or {}
    if p:
        parts.append(
            f"<p>p50 {p['p50'] * 1e3:.3f}ms · p95 "
            f"{p['p95'] * 1e3:.3f}ms · p99 {p['p99'] * 1e3:.3f}ms</p>")
    for title, key in (("Where the tail goes", "tail"),
                       ("Overall", "overall")):
        section = report.get(key) or {}
        if not section:
            continue
        parts.append(f"<h2>{title} ({section['count']} traces, mean "
                     f"{section['mean_ms']:.3f}ms — queue "
                     f"{section['queue_ms']:.3f}ms / compute "
                     f"{section['compute_ms']:.3f}ms)</h2>"
                     "<table><tr><th>span</th><th>mean ms</th>"
                     "<th>share</th></tr>")
        for row in section["rows"]:
            parts.append(f"<tr><td>{esc(row['span'])}</td>"
                         f"<td>{row['mean_ms']:.3f}</td>"
                         f"<td>{row['share'] * 100:.1f}%</td></tr>")
        parts.append("</table>")
    if report.get("exemplars"):
        parts.append("<h2>Slowest exemplars</h2><table><tr>"
                     "<th>trace</th><th>endpoint</th><th>status</th>"
                     "<th>ms</th><th>flags</th></tr>")
        for ex in report["exemplars"]:
            parts.append(
                f"<tr><td><code>{esc(ex['trace'][:16])}</code></td>"
                f"<td>{esc(ex['endpoint'])}</td><td>{ex['status']}</td>"
                f"<td>{ex['duration_ms']:.3f}</td>"
                f"<td>{esc(','.join(ex['flags']) or '-')}</td></tr>")
        parts.append("</table>")
    if records:
        by_id = {r["trace"]: r for r in records}
        shown = [by_id[ex["trace"]] for ex in report.get("exemplars",
                                                         ())
                 if ex["trace"] in by_id]
        for record in shown[:4]:
            parts.append(f"<pre>{esc(render_trace_text(record))}</pre>")
    parts.append("</body></html>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def dump_traces(records: List[Dict[str, Any]],
                dest: Union[str, IO[str]],
                meta: Optional[Dict[str, Any]] = None) -> int:
    """Write retained traces as JSONL (header line + one trace per
    line); returns the number of lines written."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as handle:
            return dump_traces(records, handle, meta)
    header = {"schema": TRACE_SCHEMA, "kind": "header",
              "count": len(records)}
    if meta:
        header["meta"] = meta
    dest.write(json.dumps(header, sort_keys=True) + "\n")
    n = 1
    for record in records:
        dest.write(json.dumps(record, sort_keys=True) + "\n")
        n += 1
    return n


def load_traces(source: Union[str, IO[str]]
                ) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Load ``(header, records)`` from a trace dump.

    Accepts the JSONL format from :func:`dump_traces` *and* a saved
    ``GET /traces`` JSON response (a single object with a ``traces``
    list) — both ``repro trace`` inputs.  Raises ``ValueError`` on
    anything else.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return load_traces(handle)
    text = source.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty trace dump")
    if stripped.startswith("{") and "\n" not in stripped.strip():
        payload = json.loads(stripped)
        return _from_traces_response(payload)
    lines = [line for line in text.splitlines() if line.strip()]
    first = json.loads(lines[0])
    if first.get("kind") == "header":
        if first.get("schema") != TRACE_SCHEMA:
            raise ValueError(f"schema {first.get('schema')!r} != "
                             f"{TRACE_SCHEMA!r}")
        return first, [json.loads(line) for line in lines[1:]]
    if "traces" in first:
        return _from_traces_response(first)
    raise ValueError("not a trace dump (no header line and no "
                     "'traces' key)")


def _from_traces_response(payload: Dict[str, Any]
                          ) -> Tuple[Dict[str, Any],
                                     List[Dict[str, Any]]]:
    records = payload.get("traces")
    if not isinstance(records, list):
        raise ValueError("'traces' is not a list")
    header = {"schema": TRACE_SCHEMA, "kind": "header",
              "count": len(records),
              "meta": payload.get("stats") or {}}
    return header, records
