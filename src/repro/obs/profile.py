"""Per-region and per-call-site profiles.

The paper's evaluation question — *where do the cycles go?* — needs
three attributions the flat counters cannot give:

* **categories** — every simulated cycle binned into a named category
  (compute, checks, alloc, region, thread, gc, io).  The interpreter
  tracks the non-compute categories explicitly; ``compute`` is the
  arithmetic/branch/call remainder, so attribution always covers 100%
  of the clock.
* **per-region** — allocation traffic and dynamic-check cycles charged
  against the region the operation targeted, alongside the region's
  live-bytes watermark.
* **per-call-site** — allocation bytes and check cycles attributed to
  the source line that executed them (the AST spans the interpreter
  already threads for diagnostics), i.e. a flat line profiler for the
  simulated program.

The last two are a view of the flight recorder: its exact
``site_totals`` aggregate (:mod:`repro.obs.flightrec`) already sums
every allocation and check by kind, line and region, whether or not
the ring kept the record.  :func:`build_report` folds it into a
``ProfileReport``, the presentation behind ``repro profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

#: the cycle categories, in report order; ``compute`` is the remainder
CATEGORIES = ("compute", "checks", "alloc", "region", "thread", "gc",
              "io")


@dataclass
class RegionProfile:
    name: str
    policy: str
    kind_name: str
    allocations: int
    alloc_bytes: int
    peak_bytes: int
    check_cycles: int


@dataclass
class SiteProfile:
    line: int
    allocations: int
    alloc_bytes: int
    checks: int
    check_cycles: int


@dataclass
class ProfileReport:
    total_cycles: int
    #: category -> cycles; keys are exactly :data:`CATEGORIES`
    categories: Dict[str, int]
    regions: List[RegionProfile]
    sites: List[SiteProfile]
    cycles_by_thread: Dict[str, int] = field(default_factory=dict)

    @property
    def attributed_cycles(self) -> int:
        return sum(self.categories.values())

    @property
    def attributed_fraction(self) -> float:
        if not self.total_cycles:
            return 1.0
        return self.attributed_cycles / self.total_cycles

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total_cycles": self.total_cycles,
            "attributed_fraction": self.attributed_fraction,
            "categories": dict(self.categories),
            "cycles_by_thread": dict(self.cycles_by_thread),
            "regions": [vars(r).copy() for r in self.regions],
            "sites": [vars(s).copy() for s in self.sites],
        }

    def format(self, top: int = 10) -> str:
        lines = [f"total: {self.total_cycles} cycles "
                 f"({self.attributed_fraction:.1%} attributed)", ""]
        lines.append("cycles by category")
        lines.append(f"  {'category':<10} {'cycles':>12} {'share':>7}")
        for cat in CATEGORIES:
            cycles = self.categories.get(cat, 0)
            share = cycles / self.total_cycles if self.total_cycles else 0
            lines.append(f"  {cat:<10} {cycles:>12} {share:>6.1%}")
        if self.cycles_by_thread:
            lines.append("")
            lines.append("cycles by thread")
            for name, cycles in sorted(self.cycles_by_thread.items(),
                                       key=lambda kv: -kv[1]):
                lines.append(f"  {name:<18} {cycles:>12}")
        if self.regions:
            lines.append("")
            lines.append("per-region profile")
            lines.append(f"  {'region':<22} {'policy':>6} {'allocs':>7} "
                         f"{'bytes':>9} {'peak':>7} {'chk cyc':>9}")
            for r in self.regions:
                lines.append(
                    f"  {r.name:<22} {r.policy:>6} {r.allocations:>7} "
                    f"{r.alloc_bytes:>9} {r.peak_bytes:>7} "
                    f"{r.check_cycles:>9}")
        if self.sites:
            lines.append("")
            lines.append(f"hottest call sites (top {top})")
            lines.append(f"  {'line':>5} {'allocs':>7} {'bytes':>9} "
                         f"{'checks':>7} {'chk cyc':>9}")
            for s in self.sites[:top]:
                lines.append(f"  {s.line:>5} {s.allocations:>7} "
                             f"{s.alloc_bytes:>9} {s.checks:>7} "
                             f"{s.check_cycles:>9}")
        return "\n".join(lines)


def build_report(stats, areas=None) -> ProfileReport:
    """Assemble a :class:`ProfileReport` from a finished run.

    ``stats`` is a :class:`repro.rtsj.stats.Stats` (duck-typed — this
    module stays independent of the runtime packages); its ``recorder``
    supplies the per-site and per-region tables (a run without one
    reports none).  ``areas`` is the machine's region list, for
    watermarks and policies.
    """
    explicit = {
        "checks": stats.check_cycles,
        "alloc": stats.alloc_cycles,
        "region": stats.region_cycles,
        "thread": stats.thread_cycles,
        "gc": stats.gc_pause_cycles,
        "io": stats.io_cycles,
    }
    compute = stats.cycles - sum(explicit.values())
    categories = {"compute": max(compute, 0)}
    categories.update(explicit)

    # line -> [allocations, bytes, checks, check cycles]
    by_line: Dict[int, List[int]] = {}
    # region -> [allocations, bytes, check cycles]
    by_region: Dict[str, List[int]] = {}
    recorder = stats.recorder
    totals = recorder.site_totals if recorder is not None else {}
    for (kind, line, region), (count, amount) in totals.items():
        if kind == "alloc":
            col = 0
            per_region = by_region.setdefault(region, [0, 0, 0])
            per_region[0] += count
            per_region[1] += amount
        elif kind == "check-assign":
            col = 2
            by_region.setdefault(region, [0, 0, 0])[2] += amount
        elif kind == "check-read":
            col = 2  # its subject is the reading thread, not a region
        else:
            continue  # elided checks: not part of this report
        site = by_line.setdefault(line, [0, 0, 0, 0])
        site[col] += count
        site[col + 1] += amount

    regions: List[RegionProfile] = []
    for area in (areas or []):
        allocs, nbytes, check_cycles = by_region.get(area.name, (0, 0, 0))
        if not (allocs or check_cycles or area.peak_bytes):
            continue  # never used; keep the report readable
        regions.append(RegionProfile(
            area.name, area.policy, area.kind_name, allocs, nbytes,
            area.peak_bytes, check_cycles))
    regions.sort(key=lambda r: (-r.alloc_bytes, r.name))

    sites = [SiteProfile(line, *cols) for line, cols in by_line.items()]
    sites.sort(key=lambda s: (-(s.alloc_bytes + s.check_cycles), s.line))

    return ProfileReport(stats.cycles, categories, regions, sites,
                         dict(stats.cycles_by_thread))
