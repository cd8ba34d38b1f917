"""The serve load suite: ``repro bench --suite serve``.

Drives a real in-process :class:`~repro.serve.server.ServeService`
(workers forked, HTTP sockets, the whole admission path) with
closed-loop clients over the three traffic shapes the service is built
for, and gates the results:

* **cold** — first sight of each program in the mix: full frontend +
  machine execution through the pool.  Every served result must be
  **byte-identical** (cycles + output sha) to an in-process CLI
  execution of the same program — the determinism contract extends
  across the wire;
* **coalesce** — N concurrent requests for one never-seen program.
  The coalescing layer must collapse them to exactly one analysis
  (asserted from the service's own ``/metrics``);
* **warm** — closed-loop clients (persistent HTTP/1.1 connections,
  ``TCP_NODELAY``) round-robining the now-hot mix for a fixed window.
  The gate demands sustained throughput at or above
  :data:`WARM_MIN_REQ_S` (1000 req/s — the ROADMAP's "thousands of
  req/s on warm cache") with p99 latency bounded by the recorded
  ceiling.

The payload is ``repro-bench/2`` (:mod:`repro.bench.compare`).
Per-program served ``cycles`` and ``output_sha256`` and the coalesce
``analyses`` count are judged exactly against a baseline; warm
``req_s`` carries the floor and ``p99_s`` the recorded ceiling as
bounds, checked on every run and, when comparing, with the baseline's
bounds as well.  Warm throughput is never judged against the
baseline's own req/s: warm traffic is hot-tier lookups, so that number
measures the HTTP edge, not the service's work.  The payload's
``divergences`` (served != CLI, coalescing miscount, request errors)
fail every run.
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from .compare import cell_rows, make_payload, set_bound

__all__ = ["WARM_MIN_REQ_S", "JUDGES", "measure", "serve_payload"]

#: the ROADMAP floor: sustained warm-cache throughput, req/s
WARM_MIN_REQ_S = 1000.0

#: default benchmark mix: small fast registry programs (cold cost in
#: the low ms), diverse enough to keep the hot tier honest
DEFAULT_MIX = ("Array", "Tree", "game", "phone")

#: the coalesce probe program must be *unseen*, so it is derived from a
#: registry program by appending a comment (changes the content
#: address, not the semantics)
COALESCE_BASE = "Water"
COALESCE_CLIENTS = 8

#: how each measured quantity is judged (see repro.bench.compare)
JUDGES = {"cycles": "exact", "output_sha256": "exact",
          "analyses": "exact"}


def _reference_results(sources: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    """CLI-equivalent execution: the byte-identity reference."""
    from ..core.api import analyze
    from ..interp.machine import RunOptions, execute
    out: Dict[str, Dict[str, Any]] = {}
    for name, source in sources.items():
        analyzed = analyze(source)
        assert not analyzed.errors, f"{name} failed analysis"
        result, machine = execute(analyzed, RunOptions(
            checks_enabled=False, validate=False, instrument=False,
            backend="py"))
        out[name] = {
            "cycles": result.stats.cycles,
            "output_sha256": hashlib.sha256(
                "\n".join(result.output).encode()).hexdigest(),
            "backend_used": (machine.program.backend
                             if machine.program is not None
                             else "interp"),
        }
    return out


def _metrics_text(client) -> str:
    return client.get("/metrics")[1].decode("utf-8")


def _metric_value(text: str, name: str) -> float:
    """Sum of all samples of one metric family in exposition text."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            head = line.split(" ")
            if head[0] == name or head[0].startswith(name + "{"):
                total += float(head[-1])
    return total


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1,
              max(0, int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[idx]


def measure(names: Optional[Sequence[str]] = None, fast: bool = True,
            workers: int = 2, clients: int = 4,
            warm_seconds: Optional[float] = None,
            queue_depth: int = 64) -> Dict[str, Any]:
    from ..bench.suite import BENCHMARKS
    from ..serve import (ClientPolicy, ResilientClient, ServeClientError,
                         ServeConfig, ServeService)

    mix = list(names) if names else list(DEFAULT_MIX)
    if warm_seconds is None:
        warm_seconds = 2.0 if fast else 5.0
    sources = {name: BENCHMARKS[name].source(fast=fast)
               for name in mix}
    reference = _reference_results(sources)
    divergences: List[str] = []
    # one attempt per request: the bench measures the service, so a
    # failure must show as a divergence, never be retried away
    policy = ClientPolicy(max_retries=0, trace=False)

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        config = ServeConfig(workers=workers, cache_dir=tmp,
                             queue_depth=queue_depth)
        with ServeService(config).serve_background() as service:
            host, port = service.host, service.port

            # -- phase 1: cold + byte-identity parity ------------------
            programs: Dict[str, Dict[str, Any]] = {}
            client = ResilientClient(host, port, policy)
            for name in mix:
                t0 = time.perf_counter()
                reply = client.post("run", {
                    "program": sources[name], "mode": "static",
                    "backend": "py"})
                cold_s = time.perf_counter() - t0
                status, body = reply.status, reply.body
                ref = reference[name]
                row = {"cold_ms": round(cold_s * 1e3, 3),
                       "cycles": body.get("cycles"),
                       "output_sha256": body.get("output_sha256"),
                       "served_backend": body.get("backend_used")}
                programs[name] = row
                if status != 200:
                    divergences.append(
                        f"{name}: served status {status}: "
                        f"{body.get('error')}")
                    continue
                if not reply.headers.get("X-Repro-Trace-Id"):
                    # the bench runs with tracing on (the gate *is*
                    # the tracing-overhead gate) — a missing trace id
                    # means the plane silently fell off
                    divergences.append(
                        f"{name}: response missing X-Repro-Trace-Id "
                        f"(tracing should be on)")
                for quantity in ("cycles", "output_sha256"):
                    if body.get(quantity) != ref[quantity]:
                        divergences.append(
                            f"{name}: served {quantity} "
                            f"{body.get(quantity)} != CLI "
                            f"{ref[quantity]} (determinism break)")

            # -- phase 2: coalescing -----------------------------------
            probe = (BENCHMARKS[COALESCE_BASE].source(fast=fast)
                     + "\n// serve-bench coalesce probe\n")
            before = _metrics_text(client)
            barrier = threading.Barrier(COALESCE_CLIENTS)
            statuses: List[int] = []
            lock = threading.Lock()

            def fire():
                c = ResilientClient(host, port, policy)
                try:
                    barrier.wait(timeout=10)
                    status = c.post("run", {
                        "program": probe, "mode": "static",
                        "backend": "py"}).status
                    with lock:
                        statuses.append(status)
                finally:
                    c.close()

            threads = [threading.Thread(target=fire)
                       for _ in range(COALESCE_CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            after = _metrics_text(client)
            d_analyses = (_metric_value(after,
                                        "repro_serve_analyses_total")
                          - _metric_value(before,
                                          "repro_serve_analyses_total"))
            d_coalesced = (_metric_value(after,
                                         "repro_serve_coalesced_total")
                           - _metric_value(
                               before, "repro_serve_coalesced_total"))
            coalesce = {"requests": COALESCE_CLIENTS,
                        "ok": sum(1 for s in statuses if s == 200),
                        "analyses": int(d_analyses),
                        "coalesced": int(d_coalesced)}
            if coalesce["ok"] != COALESCE_CLIENTS:
                divergences.append(
                    f"coalesce: {coalesce['ok']}/{COALESCE_CLIENTS} "
                    f"requests succeeded")
            if d_analyses != 1:
                divergences.append(
                    f"coalesce: {int(d_analyses)} analyses for "
                    f"{COALESCE_CLIENTS} identical concurrent requests "
                    f"(want exactly 1)")

            # -- phase 3: warm closed loop -----------------------------
            latencies: List[List[float]] = [[] for _ in range(clients)]
            errors = [0] * clients
            stop_at = time.perf_counter() + warm_seconds

            def closed_loop(idx: int) -> None:
                c = ResilientClient(host, port, policy)
                payloads = [json.dumps({"program": sources[n],
                                        "mode": "static",
                                        "backend": "py"}).encode("utf-8")
                            for n in mix]
                headers = {"Content-Type": "application/json"}
                try:
                    i = idx  # desynchronize the round-robin phase
                    while time.perf_counter() < stop_at:
                        body = payloads[i % len(payloads)]
                        i += 1
                        t0 = time.perf_counter()
                        try:
                            status = c.transport("POST", "/v1/run",
                                                 body, headers)[0]
                        except ServeClientError:
                            status = None
                        latencies[idx].append(
                            time.perf_counter() - t0)
                        if status != 200:
                            errors[idx] += 1
                finally:
                    c.close()

            warm_threads = [threading.Thread(target=closed_loop,
                                             args=(i,))
                            for i in range(clients)]
            t_start = time.perf_counter()
            for t in warm_threads:
                t.start()
            for t in warm_threads:
                t.join(timeout=warm_seconds + 60)
            elapsed = time.perf_counter() - t_start
            flat = sorted(x for per in latencies for x in per)
            total = len(flat)
            warm = {
                "requests": total,
                "errors": sum(errors),
                "duration_s": round(elapsed, 4),
                "req_s": round(total / elapsed, 1) if elapsed else 0.0,
                "p50_s": round(_percentile(flat, 0.50), 6),
                "p95_s": round(_percentile(flat, 0.95), 6),
                "p99_s": round(_percentile(flat, 0.99), 6),
            }
            if warm["errors"]:
                divergences.append(
                    f"warm: {warm['errors']} non-200 responses")

            hits = _metric_value(_metrics_text(client),
                                 "repro_serve_result_cache_hits_total")
            client.close()

    return serve_payload(
        {"python": platform.python_version(), "fast": fast,
         "workers": workers, "clients": clients, "mix": mix},
        programs, coalesce, warm, int(hits),
        # 3x the measured p99, floored at 50 ms, so host jitter does
        # not flap the gate while a real tail regression (an order of
        # magnitude) still fails it
        p99_max_s=round(max(0.05, warm["p99_s"] * 3.0), 4),
        divergences=divergences)


def serve_payload(meta: Dict[str, Any],
                  programs: Dict[str, Dict[str, Any]],
                  coalesce: Dict[str, Any], warm: Dict[str, Any],
                  result_cache_hits: int, p99_max_s: float,
                  divergences: List[str]) -> Dict[str, Any]:
    """The three phases as rows, with the warm floor and the p99
    ceiling as bounds."""
    rows = [r for name, cell in programs.items()
            for r in cell_rows(name, None, None, cell, JUDGES)]
    rows += cell_rows("coalesce", None, None, coalesce, JUDGES)
    rows += cell_rows("warm", None, None, warm)
    rows += cell_rows("service", None, None,
                      {"result_cache_hits": result_cache_hits})
    payload = make_payload("serve", meta, rows, divergences)
    set_bound(payload, "warm", None, None, "req_s",
              floor=WARM_MIN_REQ_S)
    set_bound(payload, "warm", None, None, "p99_s", ceiling=p99_max_s)
    return payload
