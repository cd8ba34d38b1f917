"""Exporters: JSON Lines traces and Prometheus text metrics.

Two on-disk formats, both line-oriented and tool-friendly:

* **JSON Lines trace** — a view of the flight recorder's window: one
  JSON object per stored :class:`~repro.obs.flightrec.FlightRecord`,
  in record order (which is simulated-time order).  Consumers rebuild
  span nesting with a per-thread stack over the ``ph`` field
  (``"B"``/``"E"``; ``"i"`` is an instant).  See
  ``docs/OBSERVABILITY.md`` for the schema.
* **Prometheus text exposition** — the ``# HELP`` / ``# TYPE`` /
  sample-line format, suitable for ``promtool check metrics`` or a
  file-based scrape.  Histograms render cumulative ``_bucket`` series
  plus ``_sum`` and ``_count``.
"""

from __future__ import annotations

import json
import re
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple, Union

from .flightrec import FlightRecord, FlightRecorder
from .metrics import (MetricsRegistry, QUANTILES, _HistogramChild,
                      quantile_from_counts)


# ---------------------------------------------------------------------------
# JSON Lines traces
# ---------------------------------------------------------------------------

#: record kinds that open and close a span; every other kind exports
#: as an instant (``"i"``)
_SPAN_PHASES = {"region-enter": "B", "region-exit": "E"}


def _trace_line(record: FlightRecord, phase: str) -> str:
    out: Dict[str, Any] = {"id": record.id, "parent": record.parent,
                           "cycle": record.cycle, "kind": record.kind,
                           "ph": phase, "subject": record.subject,
                           "thread": record.thread}
    if record.attrs:
        out["attrs"] = record.attrs
    return json.dumps(out, sort_keys=True)


def _close_spans(stack: List[FlightRecord], cycle: int
                 ) -> Iterator[str]:
    """End lines for the spans a thread left open, innermost first.
    Synthesized, not recorded: ``id`` 0, parented to the span's
    ``region-enter``, ``aborted`` set."""
    while stack:
        begin = stack.pop()
        yield _trace_line(
            FlightRecord(0, begin.id, cycle, begin.thread, "region-exit",
                         begin.subject, {"aborted": True}), "E")


def _marker(kind: str, subject: str, attrs: Dict[str, int]) -> str:
    return json.dumps({"kind": kind, "ph": "i", "cycle": -1,
                       "thread": "<recorder>", "subject": subject,
                       "attrs": attrs}, sort_keys=True)


def trace_lines(recorder: FlightRecorder) -> Iterator[str]:
    """The recorder's window as a JSON Lines span trace (no trailing
    newlines).

    ``ph`` is derived here, at export time, and so is span repair,
    which keeps each thread's spans nested: a ``region-exit`` whose
    ``region-enter`` the ring evicted exports as an instant, and the
    spans a thread still has open when it finishes (or when the window
    ends) are closed by synthesized ends.  ``trace-sampled`` and
    ``trace-truncated`` marker lines close the trace when the sampling
    stride skipped records or the ring evicted some."""
    open_spans: Dict[str, List[FlightRecord]] = {}
    cycle = 0
    for record in recorder.records():
        cycle = record.cycle
        phase = _SPAN_PHASES.get(record.kind, "i")
        if phase == "B":
            open_spans.setdefault(record.thread, []).append(record)
        elif phase == "E":
            stack = open_spans.get(record.thread)
            if stack:
                stack.pop()
            else:
                phase = "i"
        elif record.kind == "thread-finished":
            yield from _close_spans(open_spans.pop(record.thread, []),
                                    cycle)
        yield _trace_line(record, phase)
    for stack in open_spans.values():
        yield from _close_spans(stack, cycle)
    if recorder.sampled_out:
        yield _marker("trace-sampled",
                      f"{recorder.sampled_out} high-volume records "
                      f"sampled out (1-in-{recorder.sample})",
                      {"sampled_out": recorder.sampled_out,
                       "sample": recorder.sample})
    if recorder.dropped:
        yield _marker("trace-truncated",
                      f"{recorder.dropped} oldest records evicted",
                      {"dropped": recorder.dropped})


def write_trace(recorder: FlightRecorder,
                dest: Union[str, IO[str]]) -> int:
    """Write the JSONL trace to a path or open file; returns the number
    of lines written."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as handle:
            return write_trace(recorder, handle)
    n = 0
    for line in trace_lines(recorder):
        dest.write(line + "\n")
        n += 1
    return n


# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------

#: content type mandated by the Prometheus text exposition format
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label_value(value: str) -> str:
    # exposition format: label values escape backslash, double-quote,
    # and line feed (backslash first so the others stay single-escaped)
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    # HELP text escapes only backslash and line feed (no quote escaping
    # — HELP is not quoted in the exposition format)
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: dict, extra: dict = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(str(v))}"'
                    for k, v in sorted(merged.items()))
    return "{" + body + "}"


def _format_number(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the whole registry in Prometheus text exposition format."""
    lines = []
    for inst in registry.instruments():
        lines.append(f"# HELP {inst.name} {_escape_help(inst.help_text)}")
        lines.append(f"# TYPE {inst.name} {inst.metric_type}")
        for key, child in inst.children():
            labels = dict(key)
            if isinstance(child, _HistogramChild):
                # one consistent snapshot per series: bucket counts,
                # sum, count, and exemplars all from the same instant
                counts, total_sum, total, exemplars = child.snapshot()
                cumulative, running = [], 0
                for c in counts:
                    running += c
                    cumulative.append(running)
                bounds = [str(b) for b in child.bounds] + ["+Inf"]
                for i, (bound, count) in enumerate(zip(bounds,
                                                       cumulative)):
                    suffix = _format_labels(labels, {"le": bound})
                    line = f"{inst.name}_bucket{suffix} {count}"
                    exemplar = exemplars[i]
                    if exemplar is not None:
                        # OpenMetrics-style exemplar: the last trace id
                        # observed into this bucket, so a tail bucket
                        # names a concrete retained trace to pull up
                        ident, value = exemplar
                        line += (f" # {{trace_id=\""
                                 f"{_escape_label_value(str(ident))}"
                                 f"\"}} {_format_number(value)}")
                    lines.append(line)
                if total:
                    # quantile estimates derived from the buckets, in
                    # the summary-type `{quantile="..."}` convention —
                    # no collection cost beyond what the buckets paid
                    for q in QUANTILES:
                        suffix = _format_labels(
                            labels, {"quantile": _format_number(q)})
                        lines.append(
                            f"{inst.name}{suffix} "
                            f"{_format_number(quantile_from_counts(child.bounds, counts, total, q))}")
                lines.append(f"{inst.name}_sum{_format_labels(labels)} "
                             f"{_format_number(total_sum)}")
                lines.append(f"{inst.name}_count{_format_labels(labels)} "
                             f"{total}")
            else:
                lines.append(f"{inst.name}{_format_labels(labels)} "
                             f"{_format_number(child.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_to_prometheus(snapshot: Dict[str, Any]) -> str:
    """Render a ``MetricsRegistry.to_dict()`` snapshot (e.g. the
    ``metrics`` section of a telemetry envelope, after a JSON
    round-trip) back into the Prometheus text exposition format.

    The inverse-direction sibling of :func:`to_prometheus`: the
    ``repro metricsd`` daemon uses it to serve ``/metrics`` for the
    most recent run in the telemetry store.
    """
    lines = []
    for name in sorted(snapshot):
        family = snapshot[name] or {}
        lines.append(
            f"# HELP {name} {_escape_help(str(family.get('help', '')))}")
        lines.append(f"# TYPE {name} {family.get('type', 'untyped')}")
        for series in family.get("series", []):
            labels = series.get("labels") or {}
            if "buckets" in series:
                buckets = series["buckets"]
                finite = sorted((b for b in buckets if b != "+Inf"),
                                key=float)
                for bound in finite + ["+Inf"]:
                    suffix = _format_labels(labels, {"le": bound})
                    lines.append(
                        f"{name}_bucket{suffix} {buckets[bound]}")
                lines.append(f"{name}_sum{_format_labels(labels)} "
                             f"{_format_number(series.get('sum', 0))}")
                lines.append(f"{name}_count{_format_labels(labels)} "
                             f"{series.get('count', 0)}")
            else:
                lines.append(f"{name}{_format_labels(labels)} "
                             f"{_format_number(series.get('value', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")


_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(raw: str) -> str:
    return (raw.replace("\\\\", "\x00").replace('\\"', '"')
            .replace("\\n", "\n").replace("\x00", "\\"))


def parse_prometheus(text: str) -> Tuple[Dict[str, str], Dict[str, str],
                                         Dict[Tuple[str, Tuple[Tuple[str,
                                              str], ...]], float]]:
    """Parse the exposition format back into ``(help, types, samples)``.

    ``samples`` maps ``(sample_name, sorted_label_items)`` to the float
    value.  The exact inverse of :func:`to_prometheus` for everything it
    emits; used by the CI scrape-validation job (and anyone else) to
    round-trip a live ``/metrics`` response.  Raises ``ValueError`` on a
    malformed line.
    """
    help_text: Dict[str, str] = {}
    types: Dict[str, str] = {}
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            name, _, rest = line[len("# HELP "):].partition(" ")
            help_text[name] = (rest.replace("\\n", "\n")
                               .replace("\\\\", "\\"))
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue  # other comments are legal exposition noise
        if " # {" in line:
            # OpenMetrics-style exemplar suffix on a bucket sample:
            # `name_bucket{le="x"} 7 # {trace_id="..."} 0.0042` — the
            # sample value is everything before the suffix
            line = line[:line.index(" # {")]
        if "{" in line:
            name, _, rest = line.partition("{")
            body, sep, value = rest.rpartition("} ")
            if not sep:
                raise ValueError(f"malformed sample line: {line!r}")
            labels = {key: _unescape_label_value(raw)
                      for key, raw in _LABEL_RE.findall(body)}
        else:
            name, sep, value = line.partition(" ")
            if not sep:
                raise ValueError(f"malformed sample line: {line!r}")
            labels = {}
        try:
            samples[(name, tuple(sorted(labels.items())))] = float(value)
        except ValueError:
            raise ValueError(f"non-numeric sample value in {line!r}")
    return help_text, types, samples


def sample_total(text: str, name: str,
                 labels: Optional[Dict[str, str]] = None) -> float:
    """Sum of the samples of ``name`` in exposition ``text`` whose labels
    include ``labels``."""
    want = set((labels or {}).items())
    return sum((value for (sample, items), value
                in parse_prometheus(text)[2].items()
                if sample == name and want <= set(items)), 0.0)


def write_metrics(registry: MetricsRegistry,
                  dest: Union[str, IO[str]]) -> None:
    """Write the Prometheus rendering to a path or open file."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as handle:
            handle.write(to_prometheus(registry))
    else:
        dest.write(to_prometheus(registry))
