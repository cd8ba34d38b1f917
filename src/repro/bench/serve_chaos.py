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

The payload is ``repro-bench/2`` (:mod:`repro.bench.compare`).  The
*deterministic* quantities are judged exactly against a baseline — the
seed, requested traffic, per-site fault counts and their total are
pure functions of (traffic, seed), so any drift means the dispatch
path changed semantically; lost requests, parity failures and the
replay verdict must keep their recorded values.  The resilience
contract is a set of bounds checked on every run (see
:func:`chaos_payload`).  Wall-clock and transition counts are reported
but never judged against a baseline: both depend on how long
brownouts lasted on this host.
"""

from __future__ import annotations

import platform
from typing import Any, Dict, List

from .compare import cell_rows, make_payload, row, set_bound

__all__ = ["JUDGES", "measure", "chaos_payload"]

DEFAULT_REQUESTS = 32
DEFAULT_SEED = 3

#: how each campaign and contract quantity is judged (per-site fault
#: counts are all exact; see repro.bench.compare)
JUDGES = {"seed": "exact", "requested": "exact", "fault_total": "exact",
          "replay_ok": "exact", "lost_requests": "exact",
          "parity_failures": "exact"}


def measure(requests: int = DEFAULT_REQUESTS, workers: int = 2,
            seed: int = DEFAULT_SEED, fast: bool = True,
            verify: bool = True) -> Dict[str, Any]:
    from ..serve.chaos import run_serve_chaos

    report = run_serve_chaos(seed=seed, requests=requests,
                             workers=workers, verify=verify,
                             fast=fast)
    statuses: Dict[str, int] = {}
    for result in report["results"]:
        code = str(result["status"])
        statuses[code] = statuses.get(code, 0) + 1
    divergences: List[str] = list(report["failures"])
    divergences += [f"replay: {m}"
                    for m in report.get("mismatches") or []]
    divergences += [f"replay-run: {m}"
                    for m in report.get("replay_failures") or []]
    campaign = {"seed": seed, "requested": requests,
                "requests": report["requests"],
                "wall_s": report["wall_s"],
                "fault_total": report["fault_total"],
                "campaign_status": report["status"],
                "replay_ok": report.get("replay_ok")}
    return chaos_payload(
        {"python": platform.python_version(), "workers": workers},
        campaign, report["faults"], report["contract"], statuses,
        divergences)


def chaos_payload(meta: Dict[str, Any], campaign: Dict[str, Any],
                  faults: Dict[str, int], contract: Dict[str, Any],
                  statuses: Dict[str, int],
                  divergences: List[str]) -> Dict[str, Any]:
    """The campaign as rows, with the resilience contract as bounds:
    no lost request, no parity break, every killed worker respawned,
    back on the healthy rung, and — when their condition holds — torn
    shards quarantined, the healthy -> brownout -> healthy arc on
    ``/metrics``, and a bit-for-bit replay."""
    rows = cell_rows("campaign", None, None, campaign, JUDGES)
    rows += [row("faults", None, None, site, count, "exact")
             for site, count in faults.items()]
    rows += cell_rows("contract", None, None, contract, JUDGES)
    rows += cell_rows("statuses", None, None, statuses)
    payload = make_payload("serve-chaos", meta, rows, divergences)

    def bound(program: str, metric: str, **limit: Any) -> None:
        set_bound(payload, program, None, None, metric, **limit)

    bound("contract", "lost_requests", ceiling=0)
    bound("contract", "parity_failures", ceiling=0)
    bound("contract", "workers_alive", floor=meta["workers"])
    bound("contract", "recovered_healthy", floor=True)
    if faults.get("cache_corrupt", 0) > 0:
        bound("contract", "quarantined_shards", floor=1)
    if campaign["fault_total"] > 0:
        bound("contract", "transitions_down", floor=1)
        bound("contract", "transitions_up", floor=1)
    if campaign["replay_ok"] is not None:
        bound("campaign", "replay_ok", floor=True)
    return payload
