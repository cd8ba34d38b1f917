"""The cross-run regression observatory behind ``repro report``.

One run's bench payload answers "is this commit slower than the
committed baseline?".  The observatory answers the longitudinal
question: *how has each row moved across the recorded runs, and is the
latest measurement a statistically defensible regression?*  It joins
three sources:

* the committed baselines (the five ``BENCH_*.json`` files at the repo
  root, each replaced by a ``--baseline FILE`` that names the same
  suite) — the references the bench CI jobs already guard;
* the telemetry store (:mod:`repro.obs.telemetry`) — every recorded
  ``repro bench`` envelope contributes one point of history per row;
* optionally explicit *current* payloads (``--current FILE``,
  repeatable; each file names its suite) — the measurements under
  judgment; without one, the newest recorded payload of each suite is
  judged.

Verdicts come from the one bench judge,
:func:`repro.bench.compare.judge` — the same call ``repro bench`` makes,
so the two commands cannot disagree on a payload.  The report passes
the recorded history, which **widens each wall row's threshold by the
history's spread** (median absolute deviation): a row whose history is
noisy needs a proportionally larger slowdown to page, while a
rock-stable one keeps the base threshold.  Exact rows, bounds and
divergences stay binary.  A current payload taken from the store may be
a deliberate ``--only`` subset, so its missing rows do not fail; a
recorded envelope whose payload is not ``repro-bench/2`` is skipped and
counted.

Renderings: aligned text (``--format text``), the raw report JSON
(``--format json``), and a self-contained HTML page with inline
sparklines (``--format html``).  ``repro report`` exits 3 when
``report["ok"]`` is false, which is how the report-gate CI job fails a
PR that slowed a benchmark down.
"""

from __future__ import annotations

import html
import json
from typing import Any, Dict, List, Optional, Tuple

from ..bench.compare import (DEFAULT_THRESHOLD, align, failures, judge,
                             payload_problem, show)
from .telemetry import TelemetryStore

#: report schema tag (the ``--format json`` output)
REPORT_SCHEMA = "repro-report/2"

#: the committed baseline of each suite, relative to the repo root
BASELINE_FILES = {"interp": "BENCH_interp.json",
                  "frontend": "BENCH_frontend.json",
                  "codegen": "BENCH_codegen.json",
                  "serve": "BENCH_serve.json",
                  "serve-chaos": "BENCH_serve_chaos.json"}

#: recorded bench envelopes consulted (newest last)
DEFAULT_HISTORY = 50


def _recorded(store: TelemetryStore, limit: int
              ) -> Tuple[Dict[str, List[Dict[str, Any]]], int]:
    """The newest ``limit`` recorded bench payloads by suite, oldest
    first (so history series read left-to-right in time), and how many
    envelopes were skipped because their payload is not a usable
    ``repro-bench/2`` payload."""
    by_suite: Dict[str, List[Dict[str, Any]]] = {}
    skipped = 0
    for envelope in reversed(store.load_recent(limit, kind="bench")):
        payload = (envelope.get("bench") or {}).get("payload")
        if payload_problem(payload):
            skipped += 1
            continue
        by_suite.setdefault(payload["suite"], []).append(payload)
    return by_suite, skipped


def _trace_section(store: TelemetryStore) -> Optional[Dict[str, Any]]:
    """A condensed view of the newest recorded ``repro trace`` report
    (kind ``trace``), joined into the observatory for context.  Trace
    analyses are diagnostic, not a gate: nothing here ever contributes
    to ``report["ok"]`` — latency regressions are the bench suites'
    territory; this section says *where* the tail went when they fire."""
    envelopes = store.load_recent(1, kind="trace")
    if not envelopes:
        return None
    envelope = envelopes[0]
    summary = envelope.get("summary") or {}
    percentiles = summary.get("percentiles") or {}
    tail = summary.get("tail") or {}
    section: Dict[str, Any] = {
        "label": envelope.get("label", "trace"),
        "created_at": envelope.get("created_at"),
        "traces": summary.get("traces", 0),
        "problems": len(summary.get("problems") or []),
        "percentiles": percentiles,
        "tail_rows": (tail.get("rows") or [])[:5],
        "tail_queue_ms": tail.get("queue_ms"),
        "tail_compute_ms": tail.get("compute_ms"),
        "exemplars": (summary.get("exemplars") or [])[:3],
    }
    return section


# ---------------------------------------------------------------------------
# report construction
# ---------------------------------------------------------------------------

def build_report(store: Optional[TelemetryStore] = None,
                 baselines: Optional[Dict[str, Dict[str, Any]]] = None,
                 current: Optional[Dict[str, Dict[str, Any]]] = None,
                 history: int = DEFAULT_HISTORY,
                 threshold: float = DEFAULT_THRESHOLD
                 ) -> Dict[str, Any]:
    """Assemble the full observatory report.

    ``baselines`` / ``current`` map suite name to a ``repro-bench/2``
    payload; a suite absent from ``current`` is judged on its newest
    recorded payload.
    """
    store = store if store is not None else TelemetryStore()
    baselines = baselines or {}
    current = current or {}
    recorded, skipped = _recorded(store, history)
    suites: Dict[str, Any] = {}
    for suite in sorted(set(baselines) | set(current) | set(recorded)):
        past = recorded.get(suite, [])
        cur = current.get(suite)
        if cur is None and past:
            cur, past = past[-1], past[:-1]
        verdicts = judge(cur or {}, baselines.get(suite), threshold,
                         history=past, strict=suite in current)
        suites[suite] = {"baseline": suite in baselines,
                         "current": cur is not None,
                         "history_runs": len(past),
                         "rows": verdicts,
                         "failures": failures(verdicts)}
    regressions = sum(len(s["failures"]) for s in suites.values())
    report: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "store": store.root,
        "threshold": threshold,
        "suites": suites,
        "skipped_envelopes": skipped,
        "regressions": regressions,
        "ok": regressions == 0,
    }
    traces = _trace_section(store)
    if traces is not None:
        report["traces"] = traces
    return report


# ---------------------------------------------------------------------------
# renderings
# ---------------------------------------------------------------------------

_COLUMNS = ("row", "judge", "baseline", "current", "delta", "thresh",
            "n", "verdict")


def _cells(verdict: Dict[str, Any]) -> List[str]:
    """One verdict as the cells of :data:`_COLUMNS`."""
    metric = verdict.get("metric")
    base, cur = verdict.get("baseline"), verdict.get("current")
    wall = "threshold" in verdict
    return [verdict["label"], verdict.get("judge") or "-",
            show(metric, base), show(metric, cur),
            f"{(cur / base - 1.0) * 100.0:+.1f}%"
            if wall and base and cur else "-",
            f"+{verdict['threshold'] * 100:.1f}%" if wall else "-",
            str(len(verdict["history"])) if wall else "-",
            verdict["verdict"]]


def render_text(report: Dict[str, Any]) -> str:
    lines: List[str] = []
    for suite, data in report["suites"].items():
        lines.append(f"== {suite} "
                     f"(history: {data['history_runs']} runs) ==")
        lines += align(_COLUMNS, [_cells(v) for v in data["rows"]])
        lines += [f"  FAIL {failure}" for failure in data["failures"]]
        lines.append("")
    traces = report.get("traces")
    if traces:
        pct = traces.get("percentiles") or {}
        lines.append(f"== request traces ({traces['label']}: "
                     f"{traces['traces']} retained) ==")
        lines.append(
            "p50/p95/p99: "
            + "/".join(f"{pct.get(k, 0.0) * 1000:.1f}ms"
                       for k in ("p50", "p95", "p99")))
        for row in traces.get("tail_rows") or []:
            lines.append(f"  tail {row['span']:<14} "
                         f"{row['mean_ms']:>8.2f}ms "
                         f"{row['share'] * 100:>5.1f}%")
        if traces.get("problems"):
            lines.append(f"  WARN {traces['problems']} incomplete "
                         f"trace(s) in last analysis")
        lines.append("")
    lines.append(f"regressions: {report['regressions']} "
                 f"({'ok' if report['ok'] else 'FAILING'})")
    return "\n".join(lines)


def render_json(report: Dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _sparkline_svg(values: List[float], width: int = 120,
                   height: int = 24) -> str:
    """A tiny inline SVG polyline of the history series."""
    if len(values) < 2:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = width / (len(values) - 1)
    points = " ".join(
        f"{i * step:.1f},{height - 2 - (v - lo) / span * (height - 4):.1f}"
        for i, v in enumerate(values))
    return (f'<svg width="{width}" height="{height}">'
            f'<polyline fill="none" stroke="#57f" stroke-width="1.5" '
            f'points="{points}"/></svg>')


_HTML_STYLE = """
body { font: 14px system-ui, sans-serif; margin: 2em; color: #222; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { padding: 4px 10px; border-bottom: 1px solid #ddd;
         text-align: right; }
th { border-bottom: 2px solid #999; }
td:first-child, th:first-child { text-align: left;
                                 font-family: monospace; }
td.v-ok { color: #2a7; }
td.v-regression, td.v-determinism-break, td.v-out-of-bounds,
td.v-missing, td.v-divergence { color: #c33; font-weight: bold; }
td.v-no-baseline, td.v-no-current { color: #888; }
.fail { color: #c33; font-family: monospace; }
"""


def render_html(report: Dict[str, Any]) -> str:
    parts = ["<!doctype html><html><head><meta charset='utf-8'>",
             "<title>repro report</title>",
             f"<style>{_HTML_STYLE}</style></head><body>",
             "<h1>repro regression observatory</h1>",
             f"<p>store: <code>{html.escape(report['store'])}</code> — "
             f"regressions: <b>{report['regressions']}</b> "
             f"({'ok' if report['ok'] else 'FAILING'})</p>"]
    header = "".join(f"<th>{c}</th>" for c in _COLUMNS[:-1])
    for suite, data in report["suites"].items():
        parts.append(f"<h2>{suite}</h2>")
        parts.append(f"<p>history: {data['history_runs']} recorded "
                     f"runs</p>")
        parts.append(f"<table><tr>{header}<th>history</th>"
                     f"<th>verdict</th></tr>")
        for verdict in data["rows"]:
            cells = _cells(verdict)
            parts.append(
                "<tr>" + "".join(f"<td>{html.escape(c)}</td>"
                                 for c in cells[:-1])
                + f"<td>{_sparkline_svg(verdict.get('history') or [])}"
                  f"</td><td class='v-{cells[-1]}'>{cells[-1]}</td></tr>")
        parts.append("</table>")
        for failure in data["failures"]:
            parts.append(f"<p class='fail'>FAIL {html.escape(failure)}"
                         f"</p>")
    traces = report.get("traces")
    if traces:
        pct = traces.get("percentiles") or {}
        parts.append("<h2>request traces</h2>")
        parts.append(
            f"<p>{traces['label']}: {traces['traces']} retained — "
            f"p50/p95/p99 "
            + "/".join(f"{pct.get(k, 0.0) * 1000:.1f}ms"
                       for k in ("p50", "p95", "p99"))
            + "</p>")
        rows = traces.get("tail_rows") or []
        if rows:
            parts.append("<table><tr><th class='label'>span</th>"
                         "<th>tail mean</th><th>share</th></tr>")
            for row in rows:
                parts.append(
                    f"<tr><td class='label'>{row['span']}</td>"
                    f"<td>{row['mean_ms']:.2f}ms</td>"
                    f"<td>{row['share'] * 100:.1f}%</td></tr>")
            parts.append("</table>")
        if traces.get("problems"):
            parts.append(f"<p class='fail'>WARN {traces['problems']} "
                         f"incomplete trace(s)</p>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


RENDERERS = {"text": render_text, "json": render_json,
             "html": render_html}
