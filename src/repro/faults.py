"""The fault-injection and replay core shared by the runtime and the
service.

Two *targets* perturb their failure paths through this module: the
simulated RTSJ runtime (``runtime``: LT budgets, VT chunk pools,
region enters, portal stores, thread spawns, GC pauses) and the
``repro serve`` worker pool (``serve``: worker crashes and stalls,
latency spikes, broken pipes, torn cache shards).  Each target owns
only its consult points, its contract and its identity function; the
machinery every chaos gate rests on lives here, once:

* a :class:`FaultPlan` — seed, default rate, per-site rates, site
  filter, ``max_faults`` cap and the target's magnitudes — validated
  against its target's site list (:data:`TARGETS`);
* a :class:`FaultInjector` consulted at each site (``fire``): it either
  draws from the plan's seeded RNG or re-fires a recorded schedule, and
  records every injected fault as a :class:`FaultRecord`;
* the JSONL schedule format (:func:`save_schedule`/:func:`load_schedule`:
  one header line naming the target, one line per fault);
* :func:`replay_schedule`, which reruns a schedule file through its
  target's runner; :func:`identity_diff`, the one comparison of a
  recorded identity against a replayed one; and :func:`judge_replay`,
  where a replay mismatch turns a report's status to ``violation``.

Determinism contract: ``fire`` keys every decision on the per-site
consult counter, never on wall clock.  A consult always advances its
site's counter — even at rate 0 — and an enabled site makes exactly one
RNG draw per consult, after the rate-0 and ``max_faults`` checks, so
disabling one site never reshuffles the decisions taken at the others
and a replay lines up with its recording consult for consult.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field
from typing import (Any, Dict, IO, Iterable, List, Mapping, NamedTuple,
                    Optional, Tuple)

SCHEDULE_VERSION = 1


class FaultTarget(NamedTuple):
    """What a target perturbs: its sites, in consult order, and its
    magnitudes with their defaults."""

    sites: Tuple[str, ...]
    magnitudes: Mapping[str, Any]


#: every target and its fault sites.  A schedule header without a
#: ``target`` field is a runtime schedule (the format predates the
#: field), so runtime schedules are still written without one.
TARGETS: Dict[str, FaultTarget] = {
    "runtime": FaultTarget(
        sites=(
            "lt_alloc",        # LT allocation denied (budget pressure)
            "vt_chunk",        # VT chunk acquisition denied (pool pressure)
            "region_enter",    # (sub)region enter denied (teardown race)
            "portal_write",    # portal store denied (teardown race)
            "thread_spawn",    # thread spawn denied (thread-table pressure)
            "gc_pause_spike",  # one GC pause multiplied by gc_spike_factor
        ),
        magnitudes={"gc_spike_factor": 8}),
    "serve": FaultTarget(
        sites=(
            "worker_crash",    # SIGKILL the worker before dispatch
            "worker_stall",    # worker sleeps stall_ms, past the watchdog
            "latency_spike",   # worker sleeps spike_ms, within the watchdog
            "pipe_write",      # parent-side pipe send fails
            "cache_corrupt",   # torn on-disk analysis-cache shard
        ),
        magnitudes={"stall_ms": 2000.0, "spike_ms": 50.0}),
}

DEFAULT_TARGET = "runtime"


class ScheduleError(ValueError):
    """A schedule file that cannot be read, parsed or replayed."""


def _target(name: str) -> FaultTarget:
    spec = TARGETS.get(name)
    if spec is None:
        raise ValueError(f"unknown fault target {name!r}; "
                         f"known: {list(TARGETS)}")
    return spec


def _check_rate(name: str, value: Any) -> None:
    try:
        rate = float(value)
    except (TypeError, ValueError):
        rate = float("nan")
    # NaN fails both comparisons, so this also rejects NaN and inf
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"fault {name} {value!r} is not a finite "
                         f"number in [0, 1]")


@dataclass(frozen=True)
class FaultPlan:
    """What to inject: one seed, per-site rates, an optional site
    filter, a cap, and the target's magnitudes.

    ``rate`` is the default probability applied to every enabled site;
    ``rates`` overrides individual sites.  ``sites`` (when given)
    restricts injection to that subset.  ``max_faults`` caps the total
    number of injected faults per run.  ``magnitudes`` overrides the
    target's defaults (see :data:`TARGETS`); after construction it holds
    every magnitude of the target.
    """

    seed: int = 0
    rate: float = 0.0
    rates: Mapping[str, float] = field(default_factory=dict)
    sites: Optional[Tuple[str, ...]] = None
    max_faults: Optional[int] = None
    magnitudes: Mapping[str, Any] = field(default_factory=dict)
    target: str = DEFAULT_TARGET

    def __post_init__(self) -> None:
        spec = _target(self.target)
        unknown = set(self.rates) - set(spec.sites)
        if self.sites is not None:
            unknown |= set(self.sites) - set(spec.sites)
        if unknown:
            raise ValueError(
                f"unknown fault site(s) {sorted(unknown)} for target "
                f"{self.target!r}; known: {list(spec.sites)}")
        _check_rate("rate", self.rate)
        for site, rate in self.rates.items():
            _check_rate(f"rate for {site}", rate)
        if self.max_faults is not None and not (
                isinstance(self.max_faults, int) and self.max_faults >= 0):
            raise ValueError(f"max_faults {self.max_faults!r} is not a "
                             f"non-negative integer")
        extra = set(self.magnitudes) - set(spec.magnitudes)
        if extra:
            raise ValueError(
                f"unknown magnitude(s) {sorted(extra)} for target "
                f"{self.target!r}; known: {list(spec.magnitudes)}")
        object.__setattr__(self, "magnitudes", {
            name: type(default)(self.magnitudes.get(name, default))
            for name, default in spec.magnitudes.items()})

    def rate_for(self, site: str) -> float:
        if self.sites is not None and site not in self.sites:
            return 0.0
        return float(self.rates.get(site, self.rate))

    def to_dict(self) -> Dict[str, Any]:
        """The header's ``plan`` object (the target is a header field,
        the magnitudes sit beside the rates)."""
        return {
            "seed": self.seed,
            "rate": self.rate,
            "rates": dict(self.rates),
            "sites": list(self.sites) if self.sites is not None else None,
            "max_faults": self.max_faults,
            **self.magnitudes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  target: str = DEFAULT_TARGET) -> "FaultPlan":
        sites = data.get("sites")
        return cls(seed=int(data.get("seed", 0)),
                   rate=float(data.get("rate", 0.0)),
                   rates=dict(data.get("rates") or {}),
                   sites=tuple(sites) if sites is not None else None,
                   max_faults=data.get("max_faults"),
                   magnitudes={name: data[name]
                               for name in _target(target).magnitudes
                               if name in data},
                   target=target)


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault: the ``seq``-th consult of ``site`` fired."""

    index: int          # global injection order (0-based)
    site: str
    seq: int            # per-site consult number the fault fired at
    detail: str = ""    # site-specific context (area name, worker, ...)

    def to_dict(self) -> Dict[str, Any]:
        return {"index": self.index, "site": self.site, "seq": self.seq,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRecord":
        return cls(index=int(data["index"]), site=str(data["site"]),
                   seq=int(data["seq"]),
                   detail=str(data.get("detail", "")))


def fault_key(records: Iterable[FaultRecord]) -> List[Tuple[str, int]]:
    """The replay-comparable identity of a schedule: ``(site, seq)`` in
    injection order.  ``detail`` strings are diagnostics, not identity."""
    return [(r.site, r.seq) for r in records]


class FaultInjector:
    """Consulted at every fault site of its plan's target.

    Seeded (``replay is None``): an enabled site fires with its rate,
    one RNG draw per consult.  Replaying: the nth consult of a site
    fires iff the recorded schedule's nth consult of that site fired —
    no randomness, no rates, no cap.  Either way every consult advances
    the site's counter and every injection is recorded.

    Consults take a lock: the service consults one shared injector from
    its dispatcher threads.
    """

    def __init__(self, plan: FaultPlan,
                 replay: Optional[Iterable[FaultRecord]] = None) -> None:
        self.plan = plan
        #: the recorded schedule this injector re-fires (None = seeded)
        self.replay = None if replay is None else tuple(replay)
        self._fire_at = (None if self.replay is None
                         else {(r.site, r.seq) for r in self.replay})
        sites = TARGETS[plan.target].sites
        self._rates = {s: plan.rate_for(s) for s in sites}
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        self.site_counts: Dict[str, int] = dict.fromkeys(sites, 0)
        self.injected: List[FaultRecord] = []
        #: optional runtime Stats hook (set by the Machine): every
        #: injection bumps ``faults_injected`` and writes a
        #: ``fault-injected`` flight record, so the counter always
        #: equals the schedule length regardless of which site fired
        self.stats: Optional[Any] = None

    def fresh(self) -> "FaultInjector":
        """The same plan and schedule with zeroed consult counters."""
        return FaultInjector(self.plan, self.replay)

    def fire(self, site: str, detail: str = "") -> bool:
        """Consult the injector at ``site``; True means inject a fault
        here."""
        with self._lock:
            seq = self.site_counts[site]
            self.site_counts[site] = seq + 1
            if self._fire_at is not None:
                if (site, seq) not in self._fire_at:
                    return False
            else:
                rate = self._rates[site]
                if rate <= 0.0:
                    return False
                cap = self.plan.max_faults
                if cap is not None and len(self.injected) >= cap:
                    return False
                if self._rng.random() >= rate:
                    return False
            self.injected.append(
                FaultRecord(index=len(self.injected), site=site,
                            seq=seq, detail=detail))
            stats = self.stats
            if stats is not None:
                stats.faults_injected += 1
                rec = stats.recorder
                if rec is not None:
                    rec.record("fault-injected", site,
                               cycle=stats.cycles, thread="<fault>",
                               attrs={"site": site, "seq": seq,
                                      "detail": detail})
            return True

    def counts(self) -> Dict[str, int]:
        """Injected faults per site (not consults)."""
        with self._lock:
            out = dict.fromkeys(self.site_counts, 0)
            for record in self.injected:
                out[record.site] += 1
        return out


# ---------------------------------------------------------------------------
# schedule persistence (JSON Lines: one header object, one line per fault)
# ---------------------------------------------------------------------------

def write_schedule(handle: IO[str], plan: FaultPlan,
                   records: Iterable[FaultRecord],
                   meta: Optional[Dict[str, Any]] = None) -> None:
    header: Dict[str, Any] = {"version": SCHEDULE_VERSION,
                              "plan": plan.to_dict()}
    if plan.target != DEFAULT_TARGET:
        header["target"] = plan.target
    if meta:
        header["meta"] = meta
    handle.write(json.dumps(header, sort_keys=True) + "\n")
    for record in records:
        handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


def save_schedule(path: str, plan: FaultPlan,
                  records: Iterable[FaultRecord],
                  meta: Optional[Dict[str, Any]] = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        write_schedule(handle, plan, records, meta)


def load_schedule(path: str, target: Optional[str] = None
                  ) -> Tuple[FaultPlan, List[FaultRecord],
                             Dict[str, Any]]:
    """Read a schedule file back: (plan, records, meta).  The plan
    carries the header's target; ``target`` (when given) is the one the
    caller can use.  Every problem with the file raises
    :class:`ScheduleError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        raise ScheduleError(f"cannot read {path}: {reason}") from err
    if not lines:
        raise ScheduleError(f"empty fault schedule: {path}")
    try:
        header = json.loads(lines[0])
        version = header.get("version")
        if version != SCHEDULE_VERSION:
            raise ScheduleError(
                f"unsupported schedule version {version!r} in {path} "
                f"(expected {SCHEDULE_VERSION})")
        found = str(header.get("target") or DEFAULT_TARGET)
        if target is not None and found != target:
            raise ScheduleError(f"{path} is a {found} schedule, not a "
                                f"{target} one")
        plan = FaultPlan.from_dict(header.get("plan") or {}, found)
        records = [FaultRecord.from_dict(json.loads(line))
                   for line in lines[1:]]
    except ScheduleError:
        raise
    except (ValueError, TypeError, KeyError, AttributeError) as err:
        raise ScheduleError(f"malformed fault schedule {path}: "
                            f"{err}") from err
    strays = {r.site for r in records} - set(TARGETS[found].sites)
    if strays:
        raise ScheduleError(f"{path}: unknown fault site(s) "
                            f"{sorted(strays)} for target {found!r}")
    return plan, records, dict(header.get("meta") or {})


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def identity_diff(recorded: Mapping[str, Any],
                  replayed: Mapping[str, Any]) -> List[str]:
    """One line per key of a recorded identity whose replayed value
    differs; equal-length lists name their first differing item.  Both
    sides go through a JSON round trip first, so an identity read back
    from a schedule compares equal to a live one (tuples become
    lists)."""
    want_all = json.loads(json.dumps(recorded))
    have_all = json.loads(json.dumps(replayed))
    out: List[str] = []
    for key, want in want_all.items():
        have = have_all.get(key)
        if have == want:
            continue
        if (isinstance(want, list) and isinstance(have, list)
                and len(want) == len(have)):
            i = next(i for i, pair in enumerate(zip(want, have))
                     if pair[0] != pair[1])
            key, want, have = f"{key}[{i}]", want[i], have[i]
        out.append(f"{key}: recorded {want!r} != replayed {have!r}")
    return out


def judge_replay(report: Dict[str, Any],
                 recorded: Optional[Mapping[str, Any]],
                 replayed: Mapping[str, Any]) -> None:
    """Fold a replay's verdict into ``report``: ``mismatches`` (the
    identity diff, empty when nothing was recorded), ``replay_ok``, and
    on a mismatch ``status`` becomes ``violation`` and ``ok`` false.
    Replay from a file (either target) and the serve campaign's
    in-process verification both decide this here."""
    mismatches = ([] if recorded is None
                  else identity_diff(recorded, replayed))
    report["mismatches"] = mismatches
    report["replay_ok"] = not mismatches
    if mismatches:
        report["status"] = "violation"
        report["ok"] = False


def replay_schedule(path: str,
                    source: Optional[str] = None) -> Dict[str, Any]:
    """Rerun a schedule file through its target's runner and judge the
    rerun's identity against the recorded one (:func:`judge_replay`).

    ``source`` replaces the program a runtime schedule embeds.  Returns
    the runner's report plus ``target`` and the verdict."""
    plan, records, meta = load_schedule(path)
    if source is not None:
        meta["source"] = source
    if plan.target == "serve":
        from .serve.chaos import rerun
    else:
        from .chaos.driver import rerun
    report = rerun(plan, records, meta)
    report["target"] = plan.target
    judge_replay(report, meta.get("identity"), report["identity"])
    return report
