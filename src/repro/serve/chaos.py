"""Seeded chaos campaigns against a live ``repro serve`` instance.

The runtime chaos plane (:mod:`repro.chaos`) proves the *machine*
degrades honestly under injected faults; this module proves the
*service* does.  A campaign:

1. boots a real :class:`~repro.serve.server.ServeService` (forked
   workers, HTTP sockets, the whole admission path) with a
   :class:`~repro.faults.FaultInjector` for the ``serve`` target wired
   into the pool's dispatch loop;
2. drives it with one sequential
   :class:`~repro.serve.client.ResilientClient` over a deterministic
   program corpus (each request a fresh content address, so every
   request is a cold dispatch that consults the fault sites);
3. checks the **resilience contract**: zero admitted requests lost
   (every request ends in a correct-or-honest answer), byte parity
   with direct CLI execution on every success (a corrupt cache shard
   must *never* leak into a response), every killed worker respawned,
   torn shards quarantined on disk, and the degradation ladder riding
   healthy → brownout → healthy;
4. optionally re-runs the whole campaign re-firing the recorded
   schedule and demands the same *identity* — fault schedule,
   per-request final statuses, and response digests — bit for bit.

This module is the service target of the shared fault core
(:mod:`repro.faults`): it keeps the service's contract, its identity
and its schedule runner (:func:`rerun`); plans, injection, schedule
files and the identity diff are the core's.

Why replay works here at all: the client is strictly sequential, so
jobs reach the pool in request order regardless of how long retries,
backoff, or degradation 503s delay them (a blocked request retries
until admitted — it never reorders past another).  Pool dispatch count
is therefore a pure function of (traffic, fault decisions), and the
injector's per-site consult counters line up exactly between recorded
and replayed runs.  Wall-clock effects (how long a brownout lasted,
how many 503 retries a request burned) are deliberately excluded from
the identity.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from ..faults import (FaultInjector, FaultPlan, FaultRecord, fault_key,
                      judge_replay, save_schedule)
from .client import ClientPolicy, ResilientClient
from .server import ServeConfig, ServeService

__all__ = ["CAMPAIGN_SCHEMA", "DEFAULT_MINIMA", "default_plan",
           "run_campaign", "run_serve_chaos", "rerun",
           "campaign_telemetry"]

CAMPAIGN_SCHEMA = "repro-serve-chaos/1"

#: campaign corpus bases — small fast registry programs (cold cost in
#: the low ms); every request appends a variant comment so each one is
#: a fresh content address and a real pool dispatch
CORPUS_BASES = ("Array", "Tree")

#: every Nth request exercises ``run`` (full machine execution +
#: brownout gating); the rest are ``analyze`` (admitted at any rung
#: below shed, which keeps campaigns fast under heavy degradation)
RUN_EVERY = 4

#: the acceptance floor for a campaign's injected schedule — the gate
#: keeps issuing extra requests (bounded) until these are met
DEFAULT_MINIMA = {"worker_crash": 3, "worker_stall": 1,
                  "cache_corrupt": 1}

#: hard cap on top-up traffic, as a multiple of the requested count
TOPUP_FACTOR = 3


def default_plan(seed: int = 0) -> FaultPlan:
    """Rates tuned so ~32 requests meet :data:`DEFAULT_MINIMA` for
    most seeds without top-up traffic."""
    return FaultPlan(
        seed=seed,
        rates={"worker_crash": 0.14, "worker_stall": 0.05,
               "latency_spike": 0.10, "pipe_write": 0.06,
               "cache_corrupt": 0.08},
        magnitudes={"stall_ms": 4000.0, "spike_ms": 40.0},
        target="serve")


def _campaign_config(workers: int, cache_dir: str) -> ServeConfig:
    return ServeConfig(
        workers=workers, cache_dir=cache_dir,
        # the watchdog must sit far above a legitimate small-program
        # analysis (ms) and far below plan.stall_ms, so only injected
        # stalls trip it even on a noisy CI host
        stall_timeout_s=1.25,
        heal_after_s=0.25,
        default_backend="py")


def _campaign_policy(seed: int) -> ClientPolicy:
    return ClientPolicy(
        # generous retries: a request may ride a crash (500 after the
        # transparent requeue also fails), then a brownout 503, and
        # still has budget to land — "zero lost" is the contract
        max_retries=10,
        backoff_base_s=0.02, backoff_cap_s=0.5,
        jitter_seed=seed)


def _corpus_sources(fast: bool = True) -> Dict[str, str]:
    from ..bench.suite import BENCHMARKS
    return {name: BENCHMARKS[name].source(fast=fast)
            for name in CORPUS_BASES}


def _references(sources: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    """Direct in-process execution: the byte-identity reference a
    served success must match exactly."""
    from ..core.api import analyze
    from ..interp.machine import RunOptions, execute
    out: Dict[str, Dict[str, Any]] = {}
    for name, source in sources.items():
        analyzed = analyze(source)
        assert not analyzed.errors, f"{name} failed analysis"
        result, _machine = execute(analyzed, RunOptions(
            checks_enabled=False, validate=False, instrument=False,
            backend="py"))
        out[name] = {
            "classes": len(analyzed.program.classes),
            "cycles": result.stats.cycles,
            "output_sha256": hashlib.sha256(
                "\n".join(result.output).encode()).hexdigest(),
        }
    return out


def _body_digest(body: Dict[str, Any]) -> str:
    """Canonical digest of a response body with the volatile bits
    (per-worker cache statistics) dropped — the replay identity unit."""
    trimmed = {k: v for k, v in body.items() if k != "cache"}
    return hashlib.sha256(json.dumps(
        trimmed, sort_keys=True,
        separators=(",", ":")).encode()).hexdigest()


def _labeled_value(text: str, name: str,
                   want: Dict[str, str]) -> float:
    """Sum of exposition samples of ``name`` whose labels include
    ``want`` — how the campaign reads rung transitions off /metrics."""
    total = 0.0
    prefix = name + "{"
    for line in text.splitlines():
        if not line.startswith(prefix):
            continue
        label_part = line[len(prefix):line.index("}")]
        pairs = {}
        for item in label_part.split(","):
            key, _, value = item.partition("=")
            pairs[key] = value.strip('"')
        if all(pairs.get(k) == v for k, v in want.items()):
            total += float(line.split()[-1])
    return total


def _count_quarantined(cache_dir: str) -> int:
    count = 0
    for _root, _dirs, files in os.walk(cache_dir):
        count += sum(1 for f in files if ".corrupt-" in f)
    return count


def _minima_met(injector: Any,
                minima: Dict[str, int]) -> bool:
    counts = injector.counts()
    return all(counts.get(site, 0) >= floor
               for site, floor in minima.items())


def run_campaign(plan: Optional[FaultPlan] = None,
                 replay: Optional[List[FaultRecord]] = None,
                 requests: int = 32, workers: int = 2,
                 minima: Optional[Dict[str, int]] = None,
                 fast: bool = True) -> Dict[str, Any]:
    """One full campaign against a freshly booted service, drawing
    faults from ``plan``'s seed or, with ``replay``, re-firing a
    recorded schedule."""
    plan = plan or default_plan()
    minima = DEFAULT_MINIMA if minima is None else minima
    injector = FaultInjector(plan, replay)
    sources = _corpus_sources(fast=fast)
    reference = _references(sources)
    bases = list(CORPUS_BASES)
    started = time.perf_counter()
    results: List[Dict[str, Any]] = []
    parity_failures: List[str] = []
    contract_failures: List[str] = []

    with tempfile.TemporaryDirectory(
            prefix="repro-serve-chaos-") as tmp:
        config = _campaign_config(workers, tmp)
        with ServeService(config,
                          fault_injector=injector
                          ).serve_background() as service:
            client = ResilientClient(service.host, service.port,
                                     _campaign_policy(plan.seed))
            cap = requests * TOPUP_FACTOR + 12
            index = 0
            while (index < requests
                   or (not _minima_met(injector, minima)
                       and index < cap)):
                base = bases[index % len(bases)]
                endpoint = ("run" if index % RUN_EVERY == RUN_EVERY - 1
                            else "analyze")
                program = (sources[base]
                           + f"\n// chaos variant {index}\n")
                outcome = client.post(endpoint, {
                    "program": program, "mode": "static",
                    "backend": "py"})
                record = {
                    "index": index, "base": base,
                    "endpoint": endpoint,
                    "status": outcome.status,
                    "attempts": outcome.attempts,
                    "body_sha256": (_body_digest(outcome.body)
                                    if outcome.ok else None),
                    # the join key into the service's retained traces;
                    # diagnostics only — replay identity stays
                    # fault_key/statuses/digests
                    "trace": outcome.headers.get(
                        "X-Repro-Trace-Id", ""),
                }
                if outcome.ok:
                    body = outcome.body
                    ref = reference[base]
                    if endpoint == "analyze":
                        if (not body.get("well_typed")
                                or body.get("classes")
                                != ref["classes"]):
                            parity_failures.append(
                                f"request {index}: analyze body "
                                f"diverges from CLI analysis")
                    else:
                        for quantity in ("cycles", "output_sha256"):
                            if body.get(quantity) != ref[quantity]:
                                parity_failures.append(
                                    f"request {index}: served "
                                    f"{quantity} {body.get(quantity)}"
                                    f" != CLI {ref[quantity]} "
                                    f"(determinism break)")
                else:
                    contract_failures.append(
                        f"request {index} ({endpoint}) lost: final "
                        f"status {outcome.status} after "
                        f"{outcome.attempts} attempts: "
                        f"{outcome.body.get('error')}")
                results.append(record)
                index += 1

            # -- recovery: the service must climb back to healthy ----
            recovered = False
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                status, raw = client.get("/healthz")
                if status == 200:
                    try:
                        health = json.loads(raw.decode("utf-8"))
                    except ValueError:
                        health = {}
                    if health.get("ready"):
                        recovered = True
                        break
                time.sleep(0.05)
            _status, metrics_raw = client.get("/metrics")
            metrics_text = metrics_raw.decode("utf-8", "replace")
            final_health: Dict[str, Any] = {}
            status, raw = client.get("/healthz")
            if status == 200:
                try:
                    final_health = json.loads(raw.decode("utf-8"))
                except ValueError:
                    pass
            client.close()
            quarantined = _count_quarantined(tmp)
            workers_alive = service.pool.alive_workers()
            restarts = service.pool.restarts

    wall_s = time.perf_counter() - started
    counts = injector.counts()
    down = _labeled_value(metrics_text,
                          "repro_serve_rung_transitions_total",
                          {"src": "healthy", "dst": "brownout"})
    up = _labeled_value(metrics_text,
                        "repro_serve_rung_transitions_total",
                        {"src": "brownout", "dst": "healthy"})

    contract_failures.extend(parity_failures)
    for site, floor in minima.items():
        if counts.get(site, 0) < floor:
            contract_failures.append(
                f"schedule minimum not met: {site} fired "
                f"{counts.get(site, 0)} < {floor} (cap {cap})")
    if workers_alive < workers:
        contract_failures.append(
            f"worker attrition not healed: {workers_alive}/{workers} "
            f"alive at campaign end")
    if counts.get("cache_corrupt", 0) > 0 and quarantined < 1:
        contract_failures.append(
            "cache_corrupt fired but no shard was quarantined")
    if not recovered:
        contract_failures.append(
            "service did not recover to the healthy rung within 15s")
    total_faults = len(injector.injected)
    if total_faults > 0 and (down < 1 or up < 1):
        contract_failures.append(
            f"degradation arc missing from /metrics: "
            f"healthy->brownout={int(down)} "
            f"brownout->healthy={int(up)}")

    identity = {
        "fault_key": fault_key(injector.injected),
        "statuses": [r["status"] for r in results],
        "digests": [r["body_sha256"] for r in results],
    }
    if not contract_failures:
        status_word = "recovered" if total_faults else "clean"
    else:
        status_word = "violation"
    return {
        "schema": CAMPAIGN_SCHEMA,
        "plan": plan.to_dict(),
        "requests": len(results),
        "wall_s": round(wall_s, 3),
        "faults": counts,
        "fault_total": total_faults,
        "records": [r.to_dict() for r in injector.injected],
        "results": results,
        "identity": identity,
        "contract": {
            "lost_requests": sum(1 for r in results
                                 if r["status"] != 200),
            "parity_failures": len(parity_failures),
            "workers_alive": workers_alive,
            "workers": workers,
            "worker_restarts": restarts,
            "quarantined_shards": quarantined,
            "recovered_healthy": recovered,
            "transitions_down": int(down),
            "transitions_up": int(up),
            "final_rung": final_health.get("rung"),
        },
        "failures": contract_failures,
        "status": status_word,
        "ok": not contract_failures,
    }


def run_serve_chaos(seed: int = 0, requests: int = 32,
                    workers: int = 2, verify: bool = True,
                    schedule_path: Optional[str] = None,
                    fast: bool = True) -> Dict[str, Any]:
    """Record a campaign, optionally verify it replays bit-for-bit,
    and optionally persist the schedule."""
    plan = default_plan(seed)
    report = run_campaign(plan, requests=requests, workers=workers,
                          fast=fast)
    records = [FaultRecord.from_dict(r) for r in report["records"]]
    if schedule_path:
        save_schedule(schedule_path, plan, records,
                      meta={"identity": report["identity"],
                            "requests": requests,
                            "workers": workers})
        report["schedule_path"] = schedule_path
    if verify:
        replayed = run_campaign(plan, replay=records, requests=requests,
                                workers=workers, fast=fast)
        judge_replay(report, report["identity"], replayed["identity"])
        report["replay_failures"] = replayed["failures"]
        if not replayed["ok"]:
            report["replay_ok"] = report["ok"] = False
    return report


def rerun(plan: FaultPlan, records: List[FaultRecord],
          meta: Dict[str, Any]) -> Dict[str, Any]:
    """Re-run a serve schedule read back from disk: the service runner
    behind :func:`repro.faults.replay_schedule`."""
    return run_campaign(plan, replay=records,
                        requests=int(meta.get("requests", 32)),
                        workers=int(meta.get("workers", 2)))


def campaign_telemetry(report: Dict[str, Any]) -> Dict[str, Any]:
    """Compact projection for telemetry envelopes."""
    contract = report.get("contract") or {}
    return {
        "schema": CAMPAIGN_SCHEMA,
        "requests": report.get("requests"),
        "fault_total": report.get("fault_total"),
        "faults": report.get("faults"),
        "status": report.get("status"),
        "ok": report.get("ok"),
        "lost_requests": contract.get("lost_requests"),
        "worker_restarts": contract.get("worker_restarts"),
        "replay_ok": report.get("replay_ok"),
    }
