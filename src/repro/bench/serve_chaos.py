"""The serve resilience gate: ``repro bench --suite serve-chaos``.

Runs a full seeded chaos campaign against a live service
(:mod:`repro.serve.chaos`) — worker kills, stalls, pipe failures,
torn cache shards, latency spikes — then re-runs the recorded fault
schedule under replay and demands the same identity bit for bit.  The
payload records what a resilient service must prove:

* **zero lost requests** — every admitted request ended in a
  correct-or-honest answer (the campaign's client retries through
  crashes and brownouts; a final non-200 is a contract violation);
* **byte parity on every success** — a served body that diverges from
  direct CLI execution means a corrupt shard or stale tier leaked;
* **self-healing** — every killed/wedged worker respawned, torn
  shards quarantined on disk, and the degradation ladder rode
  healthy → brownout → healthy (read off ``/metrics``);
* **bit-for-bit replay** — the same plan re-fired at the recorded
  (site, seq) points reproduces the same fault key, statuses, and
  response digests.

``compare()`` against the committed ``BENCH_serve_chaos.json`` pins
the *deterministic* quantities exactly — per-site fault counts and the
schedule size are pure functions of (traffic, seed), so any drift
means the dispatch path changed semantically.  Wall-clock and
transition counts are reported but never judged: both depend on how
long brownouts lasted on this host.
"""

from __future__ import annotations

import platform
from typing import Any, Dict, List, Optional

from .compare import (check_exact, collect, load_payload,
                      save_payload)

__all__ = ["SCHEMA", "measure", "compare", "format_table",
           "check_gate", "load_payload", "save_payload"]

SCHEMA = "repro-bench-serve-chaos/1"

DEFAULT_REQUESTS = 32
DEFAULT_SEED = 3


def measure(requests: int = DEFAULT_REQUESTS, workers: int = 2,
            seed: int = DEFAULT_SEED, fast: bool = True,
            verify: bool = True) -> Dict[str, Any]:
    from ..serve.chaos import run_serve_chaos

    report = run_serve_chaos(seed=seed, requests=requests,
                             workers=workers, verify=verify,
                             fast=fast)
    statuses: Dict[str, int] = {}
    for row in report["results"]:
        key = str(row["status"])
        statuses[key] = statuses.get(key, 0) + 1
    divergences: List[str] = list(report["failures"])
    divergences += [f"replay: {m}"
                    for m in report.get("mismatches") or []]
    divergences += [f"replay-run: {m}"
                    for m in report.get("replay_failures") or []]
    payload: Dict[str, Any] = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "seed": seed,
        "requested": requests,
        "requests": report["requests"],
        "workers": workers,
        "wall_s": report["wall_s"],
        "faults": report["faults"],
        "fault_total": report["fault_total"],
        "statuses": statuses,
        "contract": report["contract"],
        "campaign_status": report["status"],
        "replay_ok": report.get("replay_ok"),
        "divergences": divergences,
    }
    return payload


def check_gate(payload: Dict[str, Any]) -> List[str]:
    """The structural resilience contract, judged from the payload
    alone (defense in depth on top of the recorded divergences)."""
    contract = payload.get("contract") or {}
    failures: List[str] = []
    lost = contract.get("lost_requests")
    if lost:
        failures.append(f"{lost} admitted request(s) lost "
                        f"(non-200 final status)")
    parity = contract.get("parity_failures")
    if parity:
        failures.append(f"{parity} served response(s) diverged from "
                        f"CLI execution (determinism break)")
    if contract.get("workers_alive", 0) < payload.get("workers", 0):
        failures.append("not every killed worker respawned")
    if not contract.get("recovered_healthy"):
        failures.append("service did not return to the healthy rung")
    faults = payload.get("faults") or {}
    if faults.get("cache_corrupt", 0) > 0 \
            and contract.get("quarantined_shards", 0) < 1:
        failures.append("torn shard was not quarantined")
    if payload.get("fault_total", 0) > 0 \
            and (contract.get("transitions_down", 0) < 1
                 or contract.get("transitions_up", 0) < 1):
        failures.append("healthy->brownout->healthy arc missing "
                        "from /metrics")
    if payload.get("replay_ok") is False:
        failures.append("campaign did not replay bit-for-bit")
    return failures


def compare(current: Dict[str, Any], baseline: Dict[str, Any],
            threshold: float = 0.30) -> List[str]:
    """Regression check against the committed payload.  The fault
    schedule is a pure function of (seed, traffic), so per-site counts
    compare exactly; timing and transition counts are host-dependent
    and stay unjudged."""
    del threshold  # no wall-clock judgments in this suite
    failures: List[str] = list(current.get("divergences") or [])
    failures += check_gate(current)
    for name, quantity in (("seed", "campaign seed"),
                           ("requested", "requested traffic"),
                           ("fault_total", "total injected faults")):
        collect(failures, check_exact(
            "campaign", quantity,
            baseline.get(name), current.get(name)))
    base_faults = baseline.get("faults") or {}
    cur_faults = current.get("faults") or {}
    for site in sorted(set(base_faults) | set(cur_faults)):
        collect(failures, check_exact(
            site, "injected fault count",
            base_faults.get(site, 0), cur_faults.get(site, 0)))
    collect(failures, check_exact(
        "campaign", "lost requests",
        (baseline.get("contract") or {}).get("lost_requests"),
        (current.get("contract") or {}).get("lost_requests")))
    return failures


def format_table(payload: Dict[str, Any],
                 baseline: Optional[Dict[str, Any]] = None) -> str:
    del baseline  # judgments live in compare(); the table is absolute
    contract = payload.get("contract") or {}
    faults = payload.get("faults") or {}
    lines = [f"{'fault site':<16} {'injected':>9}"]
    for site in sorted(faults):
        lines.append(f"{site:<16} {faults[site]:>9}")
    lines.append(
        f"campaign   {payload.get('requests', 0)} requests "
        f"({payload.get('fault_total', 0)} faults) in "
        f"{payload.get('wall_s', 0)}s -> "
        f"{payload.get('campaign_status')}")
    lines.append(
        f"contract   lost={contract.get('lost_requests')} "
        f"parity_breaks={contract.get('parity_failures')} "
        f"respawns={contract.get('worker_restarts')} "
        f"quarantined={contract.get('quarantined_shards')}")
    lines.append(
        f"ladder     down={contract.get('transitions_down')} "
        f"up={contract.get('transitions_up')} "
        f"final={contract.get('final_rung')} "
        f"recovered={contract.get('recovered_healthy')}")
    replay = payload.get("replay_ok")
    lines.append(f"replay     "
                 f"{'bit-for-bit' if replay else 'NOT VERIFIED' if replay is None else 'MISMATCH'}")
    for failure in payload.get("divergences") or []:
        lines.append(f"DIVERGENCE {failure}")
    return "\n".join(lines)
