"""Seeded request lists for the three workloads, and their oracle.

Inputs are the eight registry programs (``repro.bench.suite.BENCHMARKS``
at ``FAST_PARAMS``).  A *salted* variant renames the program's
last-declared class with a per-request salt: its text, content address,
analysis shard, lowering and generated Python are all new, while its
simulated cycles and output stay those of the base program.  That is
what lets one interpreter reference per base program check every
response of the first-sight workloads.

* ``hot``     — set-up primes the eight base programs on ``/v1/run``;
  the timed list is a seeded sequence over those eight, so the
  frontend's hot tier answers every timed request;
* ``cold``    — every timed request is a fresh salted variant on
  ``/v1/run``, the programs taken in a fixed cycle;
* ``inspect`` — the same on ``/v1/inspect``.

Each workload also has a warm-up list of salted variants, one per base
program, which shares no program with the timed list.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

from repro.bench.suite import BENCHMARKS

WORKLOADS = ("hot", "cold", "inspect")

#: client connections per workload (``hot`` loads the edge from two
#: callers; the first-sight workloads keep one caller, so latency is
#: pure service time and the two workers take alternate requests)
CONNECTIONS = {"hot": 2, "cold": 1, "inspect": 1}

#: timed requests per second of ``--seconds``: a run's work is fixed by
#: its arguments, never by how fast the host happens to be
REQUESTS_PER_SECOND = {"hot": 1500, "cold": 30, "inspect": 30}

#: at least ten samples must lie beyond the reported p99
MIN_TIMED = 1000

_CLASS_DECL = re.compile(r"\bclass\s+([A-Za-z_]\w*)")


class Request(NamedTuple):
    """One request of a list: a base program, maybe salted."""

    program: str     # registry name of the base program
    salt: str        # "" for the unsalted base program
    endpoint: str    # "run" | "inspect"
    source: str

    def payload(self) -> bytes:
        return json.dumps({"program": self.source, "mode": "static",
                           "backend": "py"}).encode("utf-8")

    def label(self) -> str:
        return f"{self.program}" + (f"/salt={self.salt}"
                                    if self.salt else "")


@dataclass
class Plan:
    """Everything a workload sends, in order."""

    workload: str
    seed: int
    warmup: List[Request]
    prime: List[Request]
    timed: List[Request]

    @property
    def setup(self) -> List[Request]:
        return self.warmup + self.prime


def base_sources() -> Dict[str, str]:
    return {name: bench.source(fast=True)
            for name, bench in BENCHMARKS.items()}


def salt_source(source: str, salt: str) -> str:
    """Rename the last-declared class (every whole-word use of it)."""
    name = _CLASS_DECL.findall(source)[-1]
    return re.sub(rf"\b{name}\b", f"{name}_s{salt}", source)


def timed_count(workload: str, seconds: int) -> int:
    return max(MIN_TIMED, REQUESTS_PER_SECOND[workload] * seconds)


def build_plan(workload: str, seed: int, count: int,
               sources: Dict[str, str]) -> Plan:
    """The seeded request lists of one run; the same arguments always
    give the same lists."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"perfbench:{workload}:{seed}")
    names = sorted(sources)
    endpoint = "inspect" if workload == "inspect" else "run"
    used = set()

    def salted(name: str) -> Request:
        while True:
            salt = f"{rng.getrandbits(40):010x}"
            if salt not in used:
                used.add(salt)
                return Request(name, salt, endpoint,
                               salt_source(sources[name], salt))

    warmup = [salted(name) for name in rng.sample(names, len(names))]
    if workload == "hot":
        # the seed draws the order, in blocks of eight that hold each
        # program once, so every seed times the same mix
        prime = [Request(name, "", endpoint, sources[name])
                 for name in names]
        order: List[Request] = []
        while len(order) < count:
            order += rng.sample(prime, len(prime))
        return Plan(workload, seed, warmup, prime, order[:count])
    # first sight: the programs cycle in a fixed order and the seed draws
    # the salts, so every seed allocates alike and meets the same
    # garbage-collection schedule, the tail that latency_p99_ms reads
    timed = [salted(names[i % len(names)]) for i in range(count)]
    return Plan(workload, seed, warmup, [], timed)


class Reference(NamedTuple):
    cycles: int
    output_sha256: str


def references(sources: Dict[str, str]) -> Dict[str, Reference]:
    """Cycles and output digest of every base program, from the
    interpreter backend in this process (independent of the ``py``
    backend the service runs)."""
    from repro.core.api import analyze
    from repro.interp.machine import RunOptions, execute
    refs = {}
    for name, source in sources.items():
        result, _machine = execute(
            analyze(source).require_well_typed(),
            RunOptions(checks_enabled=False, validate=False,
                       instrument=False, backend="interp"))
        refs[name] = Reference(result.stats.cycles,
                               output_digest(result.output))
    return refs


def output_digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_body(body: Dict, ref: Reference) -> Optional[str]:
    """How a decoded ``/v1/run`` or ``/v1/inspect`` body differs from
    the reference, or ``None`` when it matches."""
    if body.get("ok") is not True:
        return f"body not ok: {body.get('error')!r}"
    got = (body.get("cycles"), body.get("output_sha256"))
    if got != (ref.cycles, ref.output_sha256):
        return (f"cycles/output {got[0]}/{str(got[1])[:12]} != "
                f"reference {ref.cycles}/{ref.output_sha256[:12]}")
    return None
