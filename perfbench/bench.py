"""One benchmark run: set-up, the timed closed loop, and its metrics.

Order of a run (design rules in ``perfbench/README.md``):

1. ``compileall`` the source tree and one discarded boot, so ``.pyc``
   writes and a cold page cache never land in ``setup_s``;
2. ``SETUPS`` set-ups, each a fresh service (fresh cache and codegen
   directories) taken to its ready line and fed the warm-up list and,
   for ``hot``, the priming list; ``setup_s`` is their median and the
   last one stays up;
3. the timed list, a fixed number of requests, with ``/proc`` CPU
   read before and after and ``VmHWM`` read at the end.

The traced run (``--trace 1``) instead sends the timed list to an
untraced and a traced service in alternating pieces, then replays it
for the per-layer table (:mod:`perfbench.traced`).
"""

from __future__ import annotations

import compileall
import http.client
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .client import LoadResult, encode_post, run_closed_loop
from .service import Service
from .workloads import (CONNECTIONS, Plan, Reference, Request,
                        base_sources, build_plan, check_body, references,
                        timed_count)

#: set-ups per run; ``setup_s`` is their median
SETUPS = 5

#: failures printed in full (the rest are only counted)
SHOW_FAILURES = 20

#: timed requests per p99 block (ten samples lie beyond each p99)
P99_BLOCK = 1000

#: pieces the traced run's timed list is cut into; the first half
#: alternate between the untraced and the traced service, whose
#: throughputs over them give ``trace.overhead_pct``
INTERLEAVE_CHUNKS = 20

E2E_UNITS = {"throughput_rps": "req/s", "latency_p50_ms": "ms",
             "latency_p99_ms": "ms", "cpu_ms_per_req": "ms",
             "peak_rss_mb": "MB", "ok_ratio": "ratio", "setup_s": "s"}


class Checker:
    """Judges replies against the interpreter reference.  The first
    correct body of an unsalted program (``hot``'s priming) is kept, and
    every later reply for it must be byte-identical to that body."""

    def __init__(self, refs: Dict[str, Reference]) -> None:
        self.refs = refs
        self.primed: Dict[str, bytes] = {}

    def check(self, req: Request, status: int, body: bytes
              ) -> Optional[str]:
        if status != 200:
            return f"HTTP {status}: {body[:200]!r}"
        primed = self.primed.get(req.source)
        if primed is not None:
            return None if body == primed else "body differs from primed"
        try:
            decoded = json.loads(body)
        except ValueError:
            return "reply body is not JSON"
        why = check_body(decoded, self.refs[req.program])
        if why is None and not req.salt:
            self.primed[req.source] = body
        return why


def encode_wires(requests: List[Request]) -> List[bytes]:
    by_source: Dict[Tuple[str, str], bytes] = {}
    wires = []
    for req in requests:
        key = (req.endpoint, req.source)
        wire = by_source.get(key)
        if wire is None:
            wire = by_source[key] = encode_post(f"/v1/{req.endpoint}",
                                                req.payload())
        wires.append(wire)
    return wires


def set_up(root: str, workdir: str, plan: Plan, checker: Checker,
           tracing: bool) -> Tuple[Service, float, List[str]]:
    """Boot a fresh service and take it through the warm-up and
    priming lists; returns it with the set-up seconds."""
    service = Service(root, workdir, tracing)

    def check(i: int, status: int, body: bytes) -> Optional[str]:
        return checker.check(plan.setup[i], status, body)

    try:
        load = run_closed_loop(service.host, service.port,
                               encode_wires(plan.setup), check)
    except BaseException:
        service.stop()
        raise
    return (service, service.ready - service.launched + load.wall_s,
            failure_lines(plan.setup, load))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def block_p99(latencies: List[Optional[float]]) -> float:
    """Median over consecutive blocks of ``P99_BLOCK`` timed requests of
    each block's 99th percentile.  Every block has ten samples beyond
    its p99; a run of exactly one block reports its plain p99, and a
    long run is not decided by one burst of host noise."""
    blocks = [[x for x in latencies[i:i + P99_BLOCK] if x is not None]
              for i in range(0, len(latencies) - P99_BLOCK + 1,
                             P99_BLOCK)]
    return statistics.median(percentile(b, 0.99) for b in blocks if b)


def frontend_hits(service: Service) -> float:
    """The frontend hot-tier hit counter, scraped from ``/metrics``."""
    conn = http.client.HTTPConnection(service.host, service.port,
                                      timeout=60)
    try:
        conn.request("GET", "/metrics")
        reply = conn.getresponse()
        text = reply.read().decode("utf-8")
    finally:
        conn.close()
    if reply.status != 200:
        raise RuntimeError(f"/metrics answered {reply.status}")
    for line in text.splitlines():
        if (line.startswith("repro_serve_result_cache_hits_total{")
                and 'tier="frontend"' in line):
            return float(line.split("}", 1)[1].split()[0])
    return 0.0


@dataclass
class Phase:
    """One service's share of a timed phase."""

    load: LoadResult
    edge_cpu_s: float       # frontend-process CPU over the phase
    worker_cpu_s: float     # summed worker CPU over the phase
    rss: Dict[str, float]   # VmHWM at the end of the phase
    hits: float             # frontend hot-tier hits over the phase
    shared_wall_s: float    # wall seconds of the pieces all services got


def timed_phase(services: List[Tuple[Service, Checker]],
                requests: List[Request], connections: int,
                chunks: int = 1, shared: int = 1) -> List[Phase]:
    """Send the timed list in ``chunks`` consecutive pieces.  The first
    ``shared`` pieces go to every service in turn (the order flipping
    from piece to piece), so drift in the host's speed reaches all of
    them alike; the rest go to the first service only."""
    n = len(requests)
    wires = encode_wires(requests)
    loads = [LoadResult(latency_s=[None] * n) for _ in services]
    shared_wall = [0.0] * len(services)
    before = []
    for service, _checker in services:
        hits = frontend_hits(service)
        before.append((hits, service.cpu_seconds()))
    for c in range(chunks):
        lo, hi = n * c // chunks, n * (c + 1) // chunks
        order = list(range(len(services))) if c < shared else [0]
        if c % 2:
            order.reverse()
        for k in order:
            service, checker = services[k]

            def check(i: int, status: int, body: bytes, lo: int = lo,
                      checker: Checker = checker) -> Optional[str]:
                return checker.check(requests[lo + i], status, body)

            part = run_closed_loop(service.host, service.port,
                                   wires[lo:hi], check, connections)
            load = loads[k]
            load.latency_s[lo:hi] = part.latency_s
            load.failures += [(lo + i, why) for i, why in part.failures]
            load.wall_s += part.wall_s
            load.client_cpu_s += part.client_cpu_s
            if c < shared:
                shared_wall[k] += part.wall_s
    phases = []
    for k, (service, _checker) in enumerate(services):
        hits0, cpu0 = before[k]
        cpu1 = service.cpu_seconds()
        phases.append(Phase(
            loads[k], cpu1["frontend"] - cpu0["frontend"],
            cpu1["workers"] - cpu0["workers"], service.peak_rss_mb(),
            frontend_hits(service) - hits0, shared_wall[k]))
    return phases


def failure_lines(requests: List[Request], load: LoadResult
                  ) -> List[str]:
    return [f"FAIL #{i} {requests[i].endpoint} {requests[i].label()}: "
            f"{why}" for i, why in sorted(load.failures)]


def run_workload(root: str, work: str, workload: str, seed: int,
                 seconds: int, trace: bool) -> Dict[str, Any]:
    compileall.compile_dir(os.path.join(root, "src", "repro"), quiet=1)
    sources = base_sources()
    refs = references(sources)
    plan = build_plan(workload, seed, timed_count(workload, seconds),
                      sources)
    conns = CONNECTIONS[workload]
    print(f"perfbench: workload={workload} seed={seed} "
          f"timed={len(plan.timed)} connections={conns} "
          f"warmup={len(plan.warmup)} prime={len(plan.prime)}")
    Service(root, os.path.join(work, "discarded"), False).stop()
    if trace:
        return traced_run(root, work, plan, refs)

    failures: List[str] = []
    setups = []
    for k in range(SETUPS):
        checker = Checker(refs)
        service, setup_s, failed = set_up(
            root, os.path.join(work, f"setup{k}"), plan, checker, False)
        setups.append(setup_s)
        failures += failed
        if k < SETUPS - 1:
            service.stop()
    try:
        phase, = timed_phase([(service, checker)], plan.timed, conns)
    finally:
        service.stop()
    print(f"set-ups (s): {' '.join(f'{s:.3f}' for s in setups)}")
    e2e = end_to_end(plan, phase)
    e2e["setup_s"] = statistics.median(setups)
    failures += failure_lines(plan.timed, phase.load)
    _print_failures(failures)
    for name, value in e2e.items():
        print(f"{workload}/{name} = {value:.6g} {E2E_UNITS[name]}")
    return {"correct": not failures, "attempted": len(plan.timed),
            "failed": len(phase.load.failures),
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]}
                        for k, v in e2e.items()}}


def end_to_end(plan: Plan, phase: Phase) -> Dict[str, float]:
    """The end-to-end metrics of one timed phase (``setup_s`` aside)."""
    load, n = phase.load, len(plan.timed)
    print(f"timed requests: {n}  failed: {len(load.failures)}  "
          f"wall: {load.wall_s:.3f} s")
    print(f"generator CPU per request: "
          f"{load.client_cpu_s * 1e3 / n:.4f} ms")
    return {
        "throughput_rps": n / load.wall_s,
        "latency_p50_ms": percentile(
            [x for x in load.latency_s if x is not None], 0.50) * 1e3,
        "latency_p99_ms": block_p99(load.latency_s) * 1e3,
        "cpu_ms_per_req": (phase.edge_cpu_s + phase.worker_cpu_s)
        * 1e3 / n,
        "peak_rss_mb": phase.rss["frontend"] + phase.rss["workers"],
        "ok_ratio": load.ok / n,
    }


def traced_run(root: str, work: str, plan: Plan,
               refs: Dict[str, Reference]) -> Dict[str, Any]:
    """``--trace 1``: the timed list against an untraced service, its
    first half interleaved with a traced one; then the replay."""
    from .traced import per_layer
    failures: List[str] = []
    pair = []
    try:
        for name, tracing in (("untraced", False), ("traced", True)):
            checker = Checker(refs)
            service, _setup_s, failed = set_up(
                root, os.path.join(work, name), plan, checker, tracing)
            pair.append((service, checker))
            failures += failed
        untraced, traced = timed_phase(pair, plan.timed,
                                       CONNECTIONS[plan.workload],
                                       INTERLEAVE_CHUNKS,
                                       INTERLEAVE_CHUNKS // 2)
    finally:
        for service, _checker in pair:
            service.stop()
    n = len(plan.timed)
    halves = n * (INTERLEAVE_CHUNKS // 2) // INTERLEAVE_CHUNKS
    for name, value in end_to_end(plan, untraced).items():
        print(f"{plan.workload}/{name} = {value:.6g} {E2E_UNITS[name]} "
              f"(untraced)")
    print(f"first {halves} requests: untraced "
          f"{halves / untraced.shared_wall_s:.6g} req/s, traced "
          f"{halves / traced.shared_wall_s:.6g} req/s")
    failures += failure_lines(plan.timed, untraced.load)
    failures += failure_lines(plan.timed, traced.load)
    context = {
        "latency_s": untraced.load.latency_s,
        "edge_cpu_ms": untraced.edge_cpu_s * 1e3 / n,
        "worker_cpu_ms": untraced.worker_cpu_s * 1e3 / n,
        "worker_rss_mb": untraced.rss["workers"],
        "hot_hit_ratio": untraced.hits / n,
        "trace_overhead_pct":
            100.0 * (1.0 - untraced.shared_wall_s / traced.shared_wall_s),
    }
    layers, replay_failures = per_layer(plan, context, root, work)
    failures += replay_failures
    _print_failures(failures)
    return {"correct": not failures, "attempted": 2 * n + halves,
            "failed": (len(untraced.load.failures)
                       + len(traced.load.failures) + len(replay_failures)),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in layers.items()}}


def _print_failures(failures: List[str]) -> None:
    for line in failures[:SHOW_FAILURES]:
        print(line)
    if len(failures) > SHOW_FAILURES:
        print(f"... and {len(failures) - SHOW_FAILURES} more failures")
    sys.stdout.flush()
