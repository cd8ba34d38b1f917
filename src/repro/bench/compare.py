"""One row format and one judge for every bench suite.

All five suites (``interp``, ``frontend``, ``codegen``, ``serve``,
``serve-chaos``) write the same payload, ``repro-bench/2``::

    {"schema": "repro-bench/2", "suite": "interp",
     "meta": {"fast": true, "repeats": 5, "python": "3.11.7"},
     "rows": [{"program": "Array", "mode": "static", "backend": "interp",
               "metric": "cycles", "value": 3959, "judge": "exact"}],
     "baseline": null, "divergences": []}

``meta`` holds the run parameters.  A row is one measured value;
``(program, mode, backend, metric)`` is its key, and a field that does
not apply is null.  The suite that measured a row attaches its
judgment:

* ``"judge": "exact"`` — the value must equal the baseline's (simulated
  cycles, output hashes, error and fault counts); a difference is a
  determinism break;
* ``"judge": "wall"`` — a host timing in seconds; it fails when slower
  than the baseline by more than the threshold;
* ``"min"`` / ``"max"`` — bounds checked on every run, with or without
  a baseline.  When comparing, the baseline row's bounds apply to the
  current value too.

The baseline decides what is pinned: a baseline row with a judgment
must be present in the current payload (C-backend rows excepted, since
a host may have no C toolchain), and exact/wall judgments are read from
it.  Every ``divergences`` entry fails.  The payload's own ``baseline``
is an older payload embedded for the table's ratio column; it is never
judged.

:func:`judge` is the one judge: ``repro bench`` (with or without
``--compare``) and ``repro report`` both call it.  The report differs
only in passing the recorded history, which widens each wall row's
threshold by the history's spread (:func:`robust_threshold`).
:func:`render_table` prints any payload.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: the payload schema every suite writes
SCHEMA = "repro-bench/2"

#: the fields that identify a row
KEY = ("program", "mode", "backend", "metric")

#: default fractional wall-clock regression threshold (+30%) — generous
#: because CI runners are noisy; the observatory widens it further from
#: history spread (see :func:`robust_threshold`)
DEFAULT_THRESHOLD = 0.30

#: how many history MADs (relative to the median) widen the threshold;
#: 3 MADs ~ 2 sigma for normal noise, conservative for heavier tails
MAD_WIDENING = 3.0

OK, REGRESSION, BREAK, BOUND = ("ok", "regression", "determinism-break",
                                "out-of-bounds")
MISSING, DIVERGENCE = "missing", "divergence"
NO_CURRENT, NO_BASELINE = "no-current", "no-baseline"


# ---------------------------------------------------------------------------
# robust statistics
# ---------------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    """The sample median; 0.0 for an empty sequence."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation from the median; 0.0 when fewer than
    two samples (no spread to estimate)."""
    if len(values) < 2:
        return 0.0
    center = median(values)
    return median([abs(v - center) for v in values])


def robust_threshold(base: float, history: Sequence[float],
                     widening: float = MAD_WIDENING) -> float:
    """The effective fractional regression threshold given a history of
    measurements: the base threshold widened by ``widening`` history
    MADs relative to the history median.  A stable history leaves the
    threshold at ``base``; a noisy one widens it so the observatory
    does not page on noise the baseline pair cannot see."""
    center = median(history)
    if center <= 0:
        return base
    return base + widening * (mad(history) / center)


# ---------------------------------------------------------------------------
# rows and payloads
# ---------------------------------------------------------------------------

def row(program: Optional[str], mode: Optional[str],
        backend: Optional[str], metric: str, value: Any,
        judge: Optional[str] = None, floor: Any = None,
        ceiling: Any = None) -> Dict[str, Any]:
    out = {"program": program, "mode": mode, "backend": backend,
           "metric": metric, "value": value}
    if judge:
        out["judge"] = judge
    if floor is not None:
        out["min"] = floor
    if ceiling is not None:
        out["max"] = ceiling
    return out


def cell_rows(program: Optional[str], mode: Optional[str],
              backend: Optional[str], cell: Dict[str, Any],
              judges: Optional[Dict[str, str]] = None
              ) -> List[Dict[str, Any]]:
    """One row per ``metric: value`` of ``cell``, judged by
    ``judges[metric]`` where given."""
    judges = judges or {}
    return [row(program, mode, backend, metric, value,
                judges.get(metric))
            for metric, value in cell.items()]


def make_payload(suite: str, meta: Dict[str, Any],
                 rows: List[Dict[str, Any]],
                 divergences: Iterable[str] = ()) -> Dict[str, Any]:
    return {"schema": SCHEMA, "suite": suite, "meta": meta,
            "rows": rows, "baseline": None,
            "divergences": list(divergences)}


def key(r: Dict[str, Any]) -> Tuple:
    return tuple(r.get(field) for field in KEY)


def label(r: Dict[str, Any]) -> str:
    return "/".join(str(r.get(field)) for field in KEY
                    if r.get(field) is not None)


def set_bound(payload: Dict[str, Any], program: Optional[str],
              mode: Optional[str], backend: Optional[str], metric: str,
              floor: Any = None, ceiling: Any = None) -> None:
    """Attach a bound to one row.  A payload without that row gets it
    with a null value, so the bound fails instead of vanishing."""
    target = (program, mode, backend, metric)
    found = [r for r in payload["rows"] if key(r) == target]
    if not found:
        found = [row(program, mode, backend, metric, None)]
        payload["rows"].append(found[0])
    if floor is not None:
        found[0]["min"] = floor
    if ceiling is not None:
        found[0]["max"] = ceiling


def judgment(r: Dict[str, Any]) -> str:
    """The row's judgment in words: ``exact``, ``wall``, ``>= 1000``."""
    parts = [r["judge"]] if r.get("judge") else []
    if "min" in r:
        parts.append(f">= {r['min']}")
    if "max" in r:
        parts.append(f"<= {r['max']}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# the one judge
# ---------------------------------------------------------------------------

def _judged(r: Optional[Dict[str, Any]]) -> bool:
    return bool(r) and ("judge" in r or "min" in r or "max" in r)


def _bound_messages(name: str, value: Any,
                    rows: Iterable[Optional[Dict[str, Any]]]) -> List[str]:
    floors = sorted({r["min"] for r in rows if r and "min" in r})
    ceilings = sorted({r["max"] for r in rows if r and "max" in r})
    messages = []
    for floor in floors:
        if value is None:
            messages.append(f"{name}: no value recorded (floor {floor})")
        elif value < floor:
            messages.append(f"{name}: {value} is below the {floor} floor")
    for ceiling in ceilings:
        if value is None:
            messages.append(f"{name}: no value recorded "
                            f"(ceiling {ceiling})")
        elif value > ceiling:
            messages.append(f"{name}: {value} exceeds the {ceiling} "
                            f"ceiling")
    return messages


def _slower(name: str, base: Any, cur: Any,
            threshold: float) -> Optional[str]:
    if not base or not cur or cur <= base * (1.0 + threshold):
        return None
    slow = (cur / base - 1.0) * 100.0
    return (f"{name}: wall-clock regression {base:.6f}s -> {cur:.6f}s "
            f"(+{slow:.0f}%, threshold +{threshold * 100:.0f}%)")


def judge(current: Dict[str, Any],
          baseline: Optional[Dict[str, Any]] = None,
          threshold: float = DEFAULT_THRESHOLD,
          history: Sequence[Dict[str, Any]] = (),
          strict: bool = True) -> List[Dict[str, Any]]:
    """One verdict per judged row of ``current`` against ``baseline``.

    ``history`` (older payloads of the same suite) widens each wall
    row's threshold by its spread.  ``strict=False`` lets judged
    baseline rows be absent (a deliberate ``--only`` subset).  Each
    verdict carries the row key, ``baseline``/``current`` values, a
    ``verdict`` word and the failure ``messages`` (empty when it
    passed); wall verdicts add ``threshold`` and ``history``.
    """
    verdicts: List[Dict[str, Any]] = [
        {"label": "divergence", "verdict": DIVERGENCE,
         "messages": [entry]}
        for entry in current.get("divergences") or []]
    base_rows = {key(r): r for r in (baseline or {}).get("rows", [])}
    past = [{key(r): r.get("value") for r in p.get("rows", [])}
            for p in history]
    seen = set()
    for cur in current.get("rows", []):
        k = key(cur)
        seen.add(k)
        base = base_rows.get(k)
        if not (_judged(cur) or _judged(base)):
            continue
        name = label(cur)
        value = cur.get("value")
        kind = base.get("judge") if base else cur.get("judge")
        verdict = {"label": name, **{f: cur.get(f) for f in KEY},
                   "judge": judgment(base or cur),
                   "baseline": base.get("value") if base else None,
                   "current": value}
        failed = [(BOUND, m) for m in _bound_messages(name, value,
                                                      (cur, base))]
        was = verdict["baseline"]
        if base and kind == "exact" and was != value:
            failed.append((BREAK, f"{name}: changed {was} -> {value} "
                                  f"(determinism break)"))
        elif base and kind == "wall":
            series = [p[k] for p in past if p.get(k)]
            effective = robust_threshold(threshold, series)
            verdict["threshold"] = round(effective, 4)
            verdict["history"] = series
            message = _slower(name, was, value, effective)
            if message:
                failed.append((REGRESSION, message))
        verdict["verdict"] = failed[0][0] if failed else (
            NO_BASELINE if kind and base is None else OK)
        verdict["messages"] = [m for _, m in failed]
        verdicts.append(verdict)
    for k, base in base_rows.items():
        if k in seen or not _judged(base):
            continue
        name = label(base)
        tolerated = not strict or base.get("backend") == "c"
        verdicts.append({
            "label": name, **{f: base.get(f) for f in KEY},
            "judge": judgment(base), "baseline": base.get("value"),
            "current": None,
            "verdict": NO_CURRENT if tolerated else MISSING,
            "messages": [] if tolerated else
            [f"{name}: missing from current results"]})
    return verdicts


def failures(verdicts: Iterable[Dict[str, Any]]) -> List[str]:
    return [m for v in verdicts for m in v["messages"]]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def show(metric: Optional[str], value: Any) -> str:
    """One table cell: hashes shortened to 12 hex digits, null as -."""
    if value is None:
        return "-"
    if isinstance(value, str):
        return value[:12] if (metric or "").endswith("sha256") else value
    return json.dumps(value)


def align(header: Sequence[str],
          records: Sequence[Sequence[str]]) -> List[str]:
    """Left-aligned text columns, two spaces apart."""
    widths = [max([len(h)] + [len(r[i]) for r in records])
              for i, h in enumerate(header)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(line, widths))
            .rstrip() for line in [list(header)] + list(records)]


def render_table(payload: Dict[str, Any],
                 baseline: Optional[Dict[str, Any]] = None) -> str:
    """Any payload as a table, one line per row.  With a baseline, the
    baseline value and, for wall rows, the speedup against it."""
    base = {key(r): r.get("value")
            for r in (baseline or {}).get("rows", [])}
    header = ["program", "mode", "backend", "metric", "judge", "value"]
    if baseline:
        header += ["baseline", "vs base"]
    records = []
    for r in payload["rows"]:
        metric, value = r.get("metric"), r.get("value")
        cells = [show(None, r.get(f)) for f in KEY] + [
            judgment(r) or "-", show(metric, value)]
        if baseline:
            was = base.get(key(r))
            ratio = (f"{was / value:.2f}x"
                     if r.get("judge") == "wall" and was and value
                     else "-")
            cells += [show(metric, was), ratio]
        records.append(cells)
    lines = align(header, records)
    lines += [f"DIVERGENCE {d}" for d in payload.get("divergences") or []]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# payload I/O
# ---------------------------------------------------------------------------

def payload_problem(payload: Any) -> Optional[str]:
    """Why ``payload`` is not a usable ``repro-bench/2`` payload, or
    None when it is."""
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != SCHEMA:
        return (f"not a {SCHEMA} payload (schema {schema!r}); re-run "
                f"the bench to rewrite it")
    if not isinstance(payload.get("suite"), str) or \
            not isinstance(payload.get("rows"), list):
        return f"a {SCHEMA} payload needs a suite name and a rows list"
    return None


def load_payload(path: str) -> Dict[str, Any]:
    """A ``repro-bench/2`` payload; ValueError for any other file."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    problem = payload_problem(payload)
    if problem:
        raise ValueError(problem)
    return payload


def dumps_payload(payload: Dict[str, Any], indent: str = "") -> str:
    """JSON text with one row per line, so a changed value is a
    one-line diff."""
    inner = indent + "  "
    fields = []
    for name in sorted(payload):
        value = payload[name]
        if name == "rows" and value:
            body = ",\n".join(f"{inner}  {json.dumps(r)}" for r in value)
            text = f"[\n{body}\n{inner}]"
        elif name == "baseline" and value:
            text = dumps_payload(value, inner)
        else:
            text = json.dumps(value, indent=2, sort_keys=True).replace(
                "\n", "\n" + inner)
        fields.append(f"{inner}{json.dumps(name)}: {text}")
    return "{\n" + ",\n".join(fields) + f"\n{indent}}}"


def save_payload(payload: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_payload(payload) + "\n")
