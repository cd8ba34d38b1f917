"""Post-mortem analysis of flight-recorder dumps (``repro inspect``).

Takes the (header, records) pair produced by
:func:`repro.obs.flightrec.load_flight` and reconstructs what the run
did, without re-running it:

* **region lifetimes** — created/entered/flushed/destroyed cycles and a
  live-byte *watermark curve* per memory area, rebuilt from ``alloc`` /
  ``region-flushed`` / ``region-destroyed`` / ``gc`` events;
* **leak suspects** — long-lived regions whose live bytes grew
  monotonically and were never flushed or destroyed inside the recorded
  window: exactly the failure mode the paper's subregions (Section 2.2)
  exist to prevent;
* **portal contention** — per-portal read/write counts and the set of
  threads touching each, flagging multi-thread portals;
* **per-thread stall attribution** — recovery-backoff cycles charged to
  each thread plus GC pauses overlapping its lifetime;
* the **check-elimination ledger** — checks performed vs checks elided
  and the cycles each cost/saved (the Figure 12 reproduction).  The
  ledger is computed from the recorder's aggregate ``check_totals`` (so
  it is exact even when the ring evicted records) and cross-checked
  against the ``Stats.summary()`` embedded in the dump header;
* the **fault join** — given the chaos plane's JSONL schedule, maps
  each injected fault to the recovery (or crash) events it caused.

Reports render as text (:meth:`InspectReport.format`), JSON
(:meth:`InspectReport.to_dict`), and a self-contained HTML page with
inline SVG watermark sparklines (:meth:`InspectReport.to_html`).
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..faults import FaultRecord
from .flightrec import FlightRecord

#: kinds that count as "the runtime reacted to a fault" for the join
_RECOVERY_KINDS = ("recovery", "vt-spill", "policy")
_CRASH_KINDS = ("thread-aborted",)

#: watermark curves are downsampled to at most this many points
MAX_CURVE_POINTS = 200


# ---------------------------------------------------------------------------
# per-region lifetime + watermark reconstruction
# ---------------------------------------------------------------------------

@dataclass
class RegionLife:
    """One region's reconstructed lifetime."""

    name: str
    policy: str = "?"
    kind: str = "?"
    created_cycle: Optional[int] = None
    destroyed_cycle: Optional[int] = None
    enters: int = 0
    flushes: int = 0
    allocations: int = 0
    alloc_bytes: int = 0
    live_bytes: int = 0
    peak_bytes: int = 0
    #: (cycle, live-bytes) watermark curve, chronological
    curve: List[Tuple[int, int]] = field(default_factory=list)
    first_cycle: int = 0
    last_cycle: int = 0
    #: False once live bytes ever decreased (flush/destroy/GC)
    monotone: bool = True
    leak_suspect: bool = False
    leak_reasons: List[str] = field(default_factory=list)

    def _point(self, cycle: int) -> None:
        self.curve.append((cycle, self.live_bytes))
        self.last_cycle = max(self.last_cycle, cycle)

    def lifetime(self) -> int:
        start = (self.created_cycle if self.created_cycle is not None
                 else self.first_cycle)
        return max(0, self.last_cycle - start)

    def sampled_curve(self, limit: int = MAX_CURVE_POINTS
                      ) -> List[Tuple[int, int]]:
        curve = self.curve
        if len(curve) <= limit:
            return list(curve)
        step = len(curve) / float(limit - 1)
        picked = [curve[min(len(curve) - 1, int(i * step))]
                  for i in range(limit - 1)]
        picked.append(curve[-1])
        return picked

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "policy": self.policy, "kind": self.kind,
            "created_cycle": self.created_cycle,
            "destroyed_cycle": self.destroyed_cycle,
            "enters": self.enters, "flushes": self.flushes,
            "allocations": self.allocations,
            "alloc_bytes": self.alloc_bytes,
            "live_bytes": self.live_bytes, "peak_bytes": self.peak_bytes,
            "lifetime": self.lifetime(),
            "monotone": self.monotone,
            "leak_suspect": self.leak_suspect,
            "leak_reasons": list(self.leak_reasons),
            "curve": self.sampled_curve(),
        }


def build_region_lives(records: Sequence[FlightRecord]
                       ) -> Dict[str, RegionLife]:
    lives: Dict[str, RegionLife] = {}

    def get(name: str, cycle: int) -> RegionLife:
        life = lives.get(name)
        if life is None:
            life = lives[name] = RegionLife(name=name, first_cycle=cycle,
                                            last_cycle=cycle)
        return life

    for rec in records:
        kind, attrs = rec.kind, rec.attrs or {}
        if kind == "region-created":
            life = get(rec.subject, rec.cycle)
            life.created_cycle = rec.cycle
            life.policy = attrs.get("policy", life.policy)
            life.kind = attrs.get("kind", life.kind)
            life._point(rec.cycle)
        elif kind == "alloc":
            region = attrs.get("region")
            if region is None:
                continue
            life = get(region, rec.cycle)
            size = int(attrs.get("bytes", 0))
            life.allocations += 1
            life.alloc_bytes += size
            life.live_bytes += size
            life.peak_bytes = max(life.peak_bytes, life.live_bytes)
            life._point(rec.cycle)
        elif kind == "region-flushed":
            life = get(rec.subject, rec.cycle)
            life.flushes += 1
            if life.live_bytes > 0:
                life.monotone = False
            life.live_bytes = 0
            life._point(rec.cycle)
        elif kind == "region-destroyed":
            life = get(rec.subject, rec.cycle)
            life.destroyed_cycle = rec.cycle
            if life.live_bytes > 0:
                life.monotone = False
            life.live_bytes = 0
            life._point(rec.cycle)
        elif kind == "region-enter":
            life = get(rec.subject, rec.cycle)
            life.enters += 1
            life.last_cycle = max(life.last_cycle, rec.cycle)
        elif kind == "region-exit":
            life = get(rec.subject, rec.cycle)
            life.last_cycle = max(life.last_cycle, rec.cycle)
        elif kind == "gc":
            life = get("heap", rec.cycle)
            heap_bytes = int(attrs.get("heap_bytes", life.live_bytes))
            if heap_bytes < life.live_bytes:
                life.monotone = False
            life.live_bytes = heap_bytes
            life.peak_bytes = max(life.peak_bytes, heap_bytes)
            life._point(rec.cycle)
    return lives


def flag_leak_suspects(lives: Dict[str, RegionLife], horizon: int,
                       min_allocations: int = 3,
                       lifetime_fraction: float = 0.25) -> List[RegionLife]:
    """Mark and return the leak suspects among ``lives``.

    A suspect is a non-heap region that, inside the recorded window,
    (a) was never flushed or destroyed, (b) grew monotonically to a
    nonzero live size over ``min_allocations``+ allocations, and
    (c) lived at least ``lifetime_fraction`` of the run — i.e. a
    long-lived/shared region that only ever gets bigger, which is the
    unbounded-growth mode subregion flushing exists to prevent.
    """
    suspects: List[RegionLife] = []
    for life in lives.values():
        if life.name == "heap":
            continue  # the collector owns heap growth
        reasons: List[str] = []
        if life.destroyed_cycle is not None or life.flushes:
            continue
        if life.allocations < min_allocations:
            continue
        if not life.monotone or life.live_bytes <= 0:
            continue
        if horizon > 0 and life.lifetime() < lifetime_fraction * horizon:
            continue
        reasons.append(f"never flushed or destroyed in window")
        reasons.append(
            f"monotone growth to {life.live_bytes} live bytes over "
            f"{life.allocations} allocations")
        reasons.append(
            f"lived {life.lifetime()} of {horizon} recorded cycles")
        life.leak_suspect = True
        life.leak_reasons = reasons
        suspects.append(life)
    suspects.sort(key=lambda l: -l.live_bytes)
    return suspects


# ---------------------------------------------------------------------------
# portals and threads
# ---------------------------------------------------------------------------

@dataclass
class PortalStat:
    subject: str               # "<region>.<field>"
    reads: int = 0
    writes: int = 0
    threads: List[str] = field(default_factory=list)
    first_cycle: int = 0
    last_cycle: int = 0

    @property
    def contended(self) -> bool:
        return len(self.threads) > 1

    def to_dict(self) -> Dict[str, Any]:
        return {"portal": self.subject, "reads": self.reads,
                "writes": self.writes, "threads": list(self.threads),
                "contended": self.contended,
                "first_cycle": self.first_cycle,
                "last_cycle": self.last_cycle}


def build_portal_stats(records: Sequence[FlightRecord]
                       ) -> Dict[str, PortalStat]:
    portals: Dict[str, PortalStat] = {}
    for rec in records:
        if rec.kind not in ("portal-read", "portal-write"):
            continue
        stat = portals.get(rec.subject)
        if stat is None:
            stat = portals[rec.subject] = PortalStat(
                subject=rec.subject, first_cycle=rec.cycle)
        if rec.kind == "portal-read":
            stat.reads += 1
        else:
            stat.writes += 1
        if rec.thread not in stat.threads:
            stat.threads.append(rec.thread)
        stat.last_cycle = rec.cycle
    return portals


@dataclass
class ThreadStat:
    name: str
    spawned_cycle: Optional[int] = None
    end_cycle: Optional[int] = None
    status: str = "running"    # running | finished | aborted
    realtime: bool = False
    error: Optional[str] = None
    events: int = 0
    cycles: Optional[int] = None
    backoff_cycles: int = 0    # recovery-retry stall
    gc_stall_cycles: int = 0   # GC pauses overlapping the lifetime

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "spawned_cycle": self.spawned_cycle,
                "end_cycle": self.end_cycle, "status": self.status,
                "realtime": self.realtime, "error": self.error,
                "events": self.events, "cycles": self.cycles,
                "backoff_cycles": self.backoff_cycles,
                "gc_stall_cycles": self.gc_stall_cycles}


def build_thread_stats(records: Sequence[FlightRecord], horizon: int
                       ) -> Dict[str, ThreadStat]:
    threads: Dict[str, ThreadStat] = {}

    def get(name: str) -> ThreadStat:
        stat = threads.get(name)
        if stat is None:
            stat = threads[name] = ThreadStat(name=name)
        return stat

    gc_pauses: List[Tuple[int, int]] = []   # (cycle, pause)
    for rec in records:
        attrs = rec.attrs or {}
        if rec.kind == "thread-spawned":
            stat = get(rec.subject)
            stat.spawned_cycle = rec.cycle
            stat.realtime = bool(attrs.get("realtime", False))
        elif rec.kind == "thread-finished":
            stat = get(rec.subject)
            stat.end_cycle = rec.cycle
            if stat.status == "running":
                stat.status = "finished"
            stat.cycles = attrs.get("cycles", stat.cycles)
        elif rec.kind == "thread-aborted":
            stat = get(rec.subject)
            stat.end_cycle = rec.cycle
            stat.status = "aborted"
            stat.error = attrs.get("error")
        elif rec.kind == "recovery":
            get(rec.thread).backoff_cycles += int(attrs.get("backoff", 0))
        elif rec.kind == "gc":
            gc_pauses.append((rec.cycle, int(attrs.get("pause", 0))))
        if not rec.thread.startswith("<"):
            get(rec.thread).events += 1
    # stall attribution: a GC pause stops the world, so charge it to
    # every thread alive at that cycle
    for cycle, pause in gc_pauses:
        for stat in threads.values():
            start = stat.spawned_cycle or 0
            end = stat.end_cycle if stat.end_cycle is not None else horizon
            if start <= cycle <= end:
                stat.gc_stall_cycles += pause
    return threads


# ---------------------------------------------------------------------------
# the check-elimination ledger (Figure 12)
# ---------------------------------------------------------------------------

def build_ledger(header: Dict[str, Any]) -> Dict[str, Any]:
    """The ledger for one dump, from the aggregate ``check_totals``."""
    totals = header.get("check_totals") or {}

    def pair(kind: str) -> Tuple[int, int]:
        count, cycles = totals.get(kind, (0, 0))
        return int(count), int(cycles)

    pa, ca = pair("check-assign")
    pr, cr = pair("check-read")
    ea, sa = pair("check-elide-assign")
    er, sr = pair("check-elide-read")
    meta = header.get("meta") or {}
    summary = meta.get("summary") or {}
    return {
        "mode": meta.get("mode"),
        "performed": {"assign": pa, "read": pr, "total": pa + pr},
        "check_cycles": {"assign": ca, "read": cr, "total": ca + cr},
        "elided": {"assign": ea, "read": er, "total": ea + er},
        "cycles_saved": {"assign": sa, "read": sr, "total": sa + sr},
        "run_cycles": summary.get("cycles"),
    }


def ledger_mismatches(header: Dict[str, Any]) -> List[str]:
    """Cross-check the ledger against the ``Stats.summary()`` embedded
    in the dump header.  Any mismatch means the recorder missed or
    double-counted a check — a bug, not a report."""
    summary = (header.get("meta") or {}).get("summary")
    if not summary:
        return []
    ledger = build_ledger(header)
    problems: List[str] = []
    checks = [
        ("assignment_checks", ledger["performed"]["assign"]),
        ("read_checks", ledger["performed"]["read"]),
        ("check_cycles", ledger["check_cycles"]["total"]),
    ]
    for key, got in checks:
        want = summary.get(key)
        if want is not None and int(want) != got:
            problems.append(
                f"ledger/summary mismatch: {key} — flight record says "
                f"{got}, Stats.summary() says {want}")
    return problems


def combine_ledgers(primary: Dict[str, Any],
                    secondary: Dict[str, Any]) -> Dict[str, Any]:
    """Merge a dynamic-mode and a static-mode ledger into the Figure 12
    comparison.  Which dump is which is inferred from the check counts
    (``meta.mode`` wins when present)."""

    def looks_dynamic(ledger: Dict[str, Any]) -> bool:
        mode = ledger.get("mode")
        if mode is not None:
            return str(mode).startswith("dynamic")
        return ledger["performed"]["total"] >= ledger["elided"]["total"]

    if looks_dynamic(primary) and not looks_dynamic(secondary):
        dynamic, static = primary, secondary
    elif looks_dynamic(secondary) and not looks_dynamic(primary):
        dynamic, static = secondary, primary
    else:
        dynamic, static = primary, secondary
    out: Dict[str, Any] = {
        "dynamic": dynamic,
        "static": static,
        "checks_performed": dynamic["performed"]["total"],
        "checks_elided": static["elided"]["total"],
        "check_cycles": dynamic["check_cycles"]["total"],
        "cycles_saved": static["cycles_saved"]["total"],
    }
    dyn_cycles, sta_cycles = dynamic.get("run_cycles"), static.get(
        "run_cycles")
    if dyn_cycles and sta_cycles:
        out["dynamic_run_cycles"] = dyn_cycles
        out["static_run_cycles"] = sta_cycles
        out["overhead_ratio"] = dyn_cycles / float(sta_cycles)
    return out


# ---------------------------------------------------------------------------
# fault join (chaos schedule <-> flight record)
# ---------------------------------------------------------------------------

def join_faults(records: Sequence[FlightRecord],
                schedule: Sequence[FaultRecord]) -> List[Dict[str, Any]]:
    """Map each fault of a chaos schedule (a list of
    :class:`repro.faults.FaultRecord`) to the flight events it caused.

    Faults are matched to ``fault-injected`` flight records by
    ``(site, seq)``; the *reaction* is the first subsequent record whose
    kind is a recovery (``recovery``/``vt-spill``/``policy``) or a crash
    (``thread-aborted``).  Runs are deterministic and reactions are
    recorded immediately after the injection point, so ordinal matching
    is exact.
    """
    injected: Dict[Tuple[str, int], FlightRecord] = {}
    by_id = sorted(records, key=lambda r: r.id)
    for rec in by_id:
        if rec.kind == "fault-injected":
            attrs = rec.attrs or {}
            key = (str(attrs.get("site", rec.subject)),
                   int(attrs.get("seq", -1)))
            injected.setdefault(key, rec)

    joins: List[Dict[str, Any]] = []
    for item in schedule:
        site, seq, detail = item.site, item.seq, item.detail
        event = injected.get((site, seq))
        entry: Dict[str, Any] = {"site": site, "seq": seq,
                                 "detail": detail}
        if event is None:
            entry["matched"] = False
            entry["outcome"] = "not-in-window"
            joins.append(entry)
            continue
        entry["matched"] = True
        entry["event_id"] = event.id
        entry["cycle"] = event.cycle
        outcome, outcome_id = "unobserved", None
        for rec in by_id:
            if rec.id <= event.id:
                continue
            if rec.kind in _RECOVERY_KINDS:
                outcome, outcome_id = f"recovered:{rec.kind}", rec.id
                break
            if rec.kind in _CRASH_KINDS:
                outcome, outcome_id = f"crashed:{rec.subject}", rec.id
                break
        entry["outcome"] = outcome
        if outcome_id is not None:
            entry["outcome_event_id"] = outcome_id
        joins.append(entry)
    return joins


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

@dataclass
class InspectReport:
    header: Dict[str, Any]
    regions: Dict[str, RegionLife]
    suspects: List[RegionLife]
    portals: Dict[str, PortalStat]
    threads: Dict[str, ThreadStat]
    ledger: Dict[str, Any]
    horizon: int
    record_count: int
    mismatches: List[str] = field(default_factory=list)
    figure12: Optional[Dict[str, Any]] = None
    fault_join: Optional[List[Dict[str, Any]]] = None

    # -- JSON ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        meta = self.header.get("meta") or {}
        out: Dict[str, Any] = {
            "schema": self.header.get("schema"),
            "meta": meta,
            "horizon_cycles": self.horizon,
            "records": self.record_count,
            "dropped": self.header.get("dropped", 0),
            "capacity": self.header.get("capacity"),
            "kind_counts": self.header.get("kind_counts", {}),
            "regions": [life.to_dict()
                        for life in self._regions_by_peak()],
            "leak_suspects": [life.name for life in self.suspects],
            "portals": [p.to_dict() for p in self.portals.values()],
            "threads": [t.to_dict() for t in self.threads.values()],
            "ledger": self.ledger,
            "ledger_mismatches": list(self.mismatches),
        }
        if self.figure12 is not None:
            out["figure12"] = self.figure12
        if self.fault_join is not None:
            out["fault_join"] = self.fault_join
        return out

    def _regions_by_peak(self) -> List[RegionLife]:
        return sorted(self.regions.values(),
                      key=lambda l: (-l.peak_bytes, l.name))

    # -- text ----------------------------------------------------------

    def format_ledger(self) -> str:
        led = self.ledger
        lines = ["check-elimination ledger"
                 + (f" (mode: {led['mode']})" if led.get("mode") else "")]
        lines.append(f"  checks performed : "
                     f"{led['performed']['total']:>8} "
                     f"(assign {led['performed']['assign']}, "
                     f"read {led['performed']['read']})")
        lines.append(f"  check cycles     : "
                     f"{led['check_cycles']['total']:>8}")
        lines.append(f"  checks elided    : "
                     f"{led['elided']['total']:>8} "
                     f"(assign {led['elided']['assign']}, "
                     f"read {led['elided']['read']})")
        lines.append(f"  cycles saved     : "
                     f"{led['cycles_saved']['total']:>8}")
        fig = self.figure12
        if fig:
            lines.append("figure-12 comparison (dynamic vs static)")
            lines.append(f"  dynamic: {fig['checks_performed']} checks, "
                         f"{fig['check_cycles']} check cycles")
            lines.append(f"  static : {fig['checks_elided']} elided, "
                         f"{fig['cycles_saved']} cycles saved")
            if "overhead_ratio" in fig:
                lines.append(
                    f"  run cycles {fig['dynamic_run_cycles']} vs "
                    f"{fig['static_run_cycles']}  "
                    f"(overhead x{fig['overhead_ratio']:.3f})")
        return "\n".join(lines)

    def format(self) -> str:
        meta = self.header.get("meta") or {}
        lines: List[str] = []
        title = meta.get("program") or "<run>"
        lines.append(f"flight record: {title}")
        lines.append(
            f"  {self.record_count} records in window "
            f"({self.header.get('dropped', 0)} dropped, capacity "
            f"{self.header.get('capacity')}), horizon "
            f"{self.horizon} cycles")
        if meta.get("status"):
            lines.append(f"  run status: {meta['status']}"
                         + (f" ({meta.get('error')})"
                            if meta.get("error") else ""))
        lines.append("")
        lines.append(self.format_ledger())
        lines.append("")
        lines.append("regions (by peak live bytes)")
        lines.append(f"  {'region':<18} {'policy':<7} {'peak':>9} "
                     f"{'live':>9} {'allocs':>7} {'flushes':>7} "
                     f"{'lifetime':>9}  fate")
        for life in self._regions_by_peak()[:20]:
            fate = ("destroyed" if life.destroyed_cycle is not None
                    else "live-at-end")
            if life.leak_suspect:
                fate = "LEAK SUSPECT"
            lines.append(
                f"  {life.name:<18} {life.policy:<7} "
                f"{life.peak_bytes:>9} {life.live_bytes:>9} "
                f"{life.allocations:>7} {life.flushes:>7} "
                f"{life.lifetime():>9}  {fate}")
        if self.suspects:
            lines.append("")
            lines.append("leak suspects")
            for life in self.suspects:
                lines.append(f"  {life.name}:")
                for reason in life.leak_reasons:
                    lines.append(f"    - {reason}")
        if self.portals:
            lines.append("")
            lines.append("portals")
            for stat in sorted(self.portals.values(),
                               key=lambda p: -(p.reads + p.writes)):
                mark = "  CONTENDED" if stat.contended else ""
                lines.append(
                    f"  {stat.subject:<24} reads {stat.reads:>5}  "
                    f"writes {stat.writes:>5}  threads "
                    f"{len(stat.threads)}{mark}")
        if self.threads:
            lines.append("")
            lines.append("threads (stall attribution)")
            for stat in self.threads.values():
                stall = stat.backoff_cycles + stat.gc_stall_cycles
                lines.append(
                    f"  {stat.name:<16} {stat.status:<9} "
                    f"events {stat.events:>6}  backoff "
                    f"{stat.backoff_cycles:>7}  gc-stall "
                    f"{stat.gc_stall_cycles:>7}  total-stall {stall:>7}"
                    + (f"  [{stat.error}]" if stat.error else ""))
        if self.fault_join is not None:
            lines.append("")
            lines.append("injected faults (schedule join)")
            for entry in self.fault_join:
                lines.append(
                    f"  {entry['site']}#{entry['seq']:<4} "
                    f"-> {entry['outcome']}"
                    + (f" @cycle {entry['cycle']}"
                       if entry.get("matched") else ""))
        if self.mismatches:
            lines.append("")
            lines.append("LEDGER MISMATCHES")
            for problem in self.mismatches:
                lines.append(f"  ! {problem}")
        return "\n".join(lines)

    # -- HTML ----------------------------------------------------------

    def to_html(self) -> str:
        esc = _html.escape
        meta = self.header.get("meta") or {}
        parts: List[str] = []
        parts.append("<!DOCTYPE html><html><head><meta charset='utf-8'>")
        parts.append(f"<title>repro inspect — "
                     f"{esc(str(meta.get('program') or 'run'))}</title>")
        parts.append(
            "<style>body{font-family:ui-monospace,monospace;margin:2em;"
            "background:#fafafa;color:#222}table{border-collapse:collapse;"
            "margin:1em 0}td,th{border:1px solid #ccc;padding:4px 10px;"
            "text-align:right}th{background:#eee}td.l,th.l{text-align:left}"
            "tr.leak{background:#ffe3e3}h2{border-bottom:2px solid #ddd}"
            ".ok{color:#2a7}.bad{color:#c22;font-weight:bold}"
            "svg{background:#fff;border:1px solid #ddd}</style></head><body>")
        parts.append(f"<h1>Flight record: "
                     f"{esc(str(meta.get('program') or '&lt;run&gt;'))}</h1>")
        parts.append(
            f"<p>{self.record_count} records in window "
            f"({self.header.get('dropped', 0)} dropped, capacity "
            f"{self.header.get('capacity')}); horizon {self.horizon} "
            f"cycles; mode "
            f"{esc(str(meta.get('mode') or '?'))}.</p>")
        # ledger
        led = self.ledger
        parts.append("<h2>Check-elimination ledger</h2><table>")
        parts.append("<tr><th class='l'></th><th>assign</th><th>read</th>"
                     "<th>total</th></tr>")
        for label, key in (("checks performed", "performed"),
                           ("check cycles", "check_cycles"),
                           ("checks elided", "elided"),
                           ("cycles saved", "cycles_saved")):
            row = led[key]
            parts.append(f"<tr><td class='l'>{label}</td>"
                         f"<td>{row['assign']}</td><td>{row['read']}</td>"
                         f"<td>{row['total']}</td></tr>")
        parts.append("</table>")
        fig = self.figure12
        if fig and "overhead_ratio" in fig:
            parts.append(
                f"<p>Figure 12: dynamic run "
                f"{fig['dynamic_run_cycles']} cycles vs static "
                f"{fig['static_run_cycles']} — overhead "
                f"<b>x{fig['overhead_ratio']:.3f}</b>.</p>")
        if self.mismatches:
            parts.append("<p class='bad'>LEDGER MISMATCHES: "
                         + "; ".join(esc(m) for m in self.mismatches)
                         + "</p>")
        # regions
        parts.append("<h2>Regions</h2><table>")
        parts.append("<tr><th class='l'>region</th><th>policy</th>"
                     "<th>peak</th><th>live</th><th>allocs</th>"
                     "<th>flushes</th><th>lifetime</th>"
                     "<th class='l'>watermark</th><th class='l'>fate</th>"
                     "</tr>")
        for life in self._regions_by_peak()[:30]:
            cls = " class='leak'" if life.leak_suspect else ""
            fate = ("LEAK SUSPECT" if life.leak_suspect else
                    "destroyed" if life.destroyed_cycle is not None
                    else "live-at-end")
            parts.append(
                f"<tr{cls}><td class='l'>{esc(life.name)}</td>"
                f"<td>{esc(life.policy)}</td><td>{life.peak_bytes}</td>"
                f"<td>{life.live_bytes}</td><td>{life.allocations}</td>"
                f"<td>{life.flushes}</td><td>{life.lifetime()}</td>"
                f"<td class='l'>{self._sparkline(life)}</td>"
                f"<td class='l'>{fate}</td></tr>")
        parts.append("</table>")
        # portals
        if self.portals:
            parts.append("<h2>Portals</h2><table>")
            parts.append("<tr><th class='l'>portal</th><th>reads</th>"
                         "<th>writes</th><th>threads</th>"
                         "<th class='l'>contended</th></tr>")
            for stat in sorted(self.portals.values(),
                               key=lambda p: -(p.reads + p.writes)):
                mark = ("<span class='bad'>yes</span>" if stat.contended
                        else "<span class='ok'>no</span>")
                parts.append(
                    f"<tr><td class='l'>{esc(stat.subject)}</td>"
                    f"<td>{stat.reads}</td><td>{stat.writes}</td>"
                    f"<td>{len(stat.threads)}</td>"
                    f"<td class='l'>{mark}</td></tr>")
            parts.append("</table>")
        # threads
        if self.threads:
            parts.append("<h2>Threads</h2><table>")
            parts.append("<tr><th class='l'>thread</th>"
                         "<th class='l'>status</th><th>events</th>"
                         "<th>backoff</th><th>gc&nbsp;stall</th></tr>")
            for stat in self.threads.values():
                cls = (" class='bad'" if stat.status == "aborted" else "")
                parts.append(
                    f"<tr><td class='l'>{esc(stat.name)}</td>"
                    f"<td class='l'{cls}>{esc(stat.status)}</td>"
                    f"<td>{stat.events}</td>"
                    f"<td>{stat.backoff_cycles}</td>"
                    f"<td>{stat.gc_stall_cycles}</td></tr>")
            parts.append("</table>")
        # faults
        if self.fault_join is not None:
            parts.append("<h2>Injected faults</h2><table>")
            parts.append("<tr><th class='l'>fault</th><th>cycle</th>"
                         "<th class='l'>outcome</th></tr>")
            for entry in self.fault_join:
                parts.append(
                    f"<tr><td class='l'>{esc(entry['site'])}"
                    f"#{entry['seq']}</td>"
                    f"<td>{entry.get('cycle', '—')}</td>"
                    f"<td class='l'>{esc(entry['outcome'])}</td></tr>")
            parts.append("</table>")
        parts.append("</body></html>")
        return "".join(parts)

    def _sparkline(self, life: RegionLife, width: int = 160,
                   height: int = 28) -> str:
        points = life.sampled_curve(80)
        if len(points) < 2:
            return ""
        x0 = points[0][0]
        x_span = max(1, points[-1][0] - x0)
        y_max = max(1, max(y for _, y in points))
        coords = []
        for cycle, value in points:
            x = (cycle - x0) * (width - 2) / float(x_span) + 1
            y = height - 1 - value * (height - 2) / float(y_max)
            coords.append(f"{x:.1f},{y:.1f}")
        return (f"<svg width='{width}' height='{height}'>"
                f"<polyline fill='none' stroke='#28c' stroke-width='1.2'"
                f" points='{' '.join(coords)}'/></svg>")


def build_report(header: Dict[str, Any],
                 records: Sequence[FlightRecord],
                 schedule: Optional[Sequence[FaultRecord]] = None,
                 compare: Optional[Dict[str, Any]] = None
                 ) -> InspectReport:
    """Assemble the full report.  ``compare`` is the *header* of a
    second dump (the other mode) for the Figure 12 comparison;
    ``schedule`` is a list of runtime ``FaultRecord``s to join."""
    meta = header.get("meta") or {}
    summary = meta.get("summary") or {}
    horizon = int(summary.get("cycles") or 0)
    if not horizon and records:
        horizon = records[-1].cycle
    lives = build_region_lives(records)
    suspects = flag_leak_suspects(lives, horizon)
    report = InspectReport(
        header=header,
        regions=lives,
        suspects=suspects,
        portals=build_portal_stats(records),
        threads=build_thread_stats(records, horizon),
        ledger=build_ledger(header),
        horizon=horizon,
        record_count=len(records),
        mismatches=ledger_mismatches(header),
    )
    if compare is not None:
        report.figure12 = combine_ledgers(report.ledger,
                                          build_ledger(compare))
        report.mismatches.extend(
            f"(compare dump) {p}" for p in ledger_mismatches(compare))
    if schedule is not None:
        report.fault_join = join_faults(records, schedule)
    return report


def report_json(report: InspectReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
