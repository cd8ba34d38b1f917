"""Slice boundaries at small quanta, pinned.

``tests/data/slices_v1.json`` was captured from the interpreter whose
closures yielded every cost to the scheduler, so that the scheduler
charged the clock and ended a slice once its budget ran out.  Each case
runs one program on the interpreter at one scheduler quantum, with the
RTSJ checks on or off and the flight recorder on or off, and pins what a
moved slice boundary would change: the final clock, the output,
``Stats.summary()`` (per-thread cycles, GC runs and the dispatch-latency
quantiles included), each thread's worst dispatch latency, and the
``(kind, cycle, thread, subject)`` stream of the flight records.
Quantum 1 ends a slice at every charge; 2000 is the default.

Regenerate only when the cost model or one of the programs changes on
purpose::

    PYTHONPATH=src python tests/integration/test_slice_boundaries.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.bench.suite import BENCHMARKS
from repro.cli import _read
from repro.core.api import analyze
from repro.interp.machine import RunOptions, execute

ROOT = pathlib.Path(__file__).resolve().parents[2]
FIXTURE_PATH = ROOT / "tests" / "data" / "slices_v1.json"

PROGRAMS = ("http", "Barnes", "Tree", "producer_consumer",
            "realtime_pipeline")
QUANTA = (1, 3, 17, 100, 2000)
#: small enough that the collector runs on the heap-allocating
#: programs, so its trigger points (between slices) are pinned too
GC_TRIGGER_BYTES = 8_000


def _source(name: str) -> str:
    if name in BENCHMARKS:
        return BENCHMARKS[name].source(fast=True)
    return _read(str(ROOT / "examples" / f"{name}.py"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def capture(analyzed, quantum: int, checks: bool,
            record: bool) -> dict:
    result, machine = execute(analyzed, RunOptions(
        checks_enabled=checks, validate=False, quantum=quantum,
        gc_trigger_bytes=GC_TRIGGER_BYTES, record=record))
    out = {
        "cycles": result.stats.cycles,
        "output_sha256": _sha("\n".join(result.output)),
        "summary": result.stats.summary(),
        "max_dispatch_latency": {
            t.name: t.max_dispatch_latency
            for t in machine.scheduler.threads},
    }
    if record:
        stream = [[r.kind, r.cycle, r.thread, r.subject]
                  for r in machine.recorder.records()]
        out["records"] = len(stream)
        out["records_sha256"] = _sha(json.dumps(stream))
    return out


def _key(name: str, quantum: int, checks: bool, record: bool) -> str:
    return (f"{name}/q{quantum}/{'dynamic' if checks else 'static'}"
            f"/{'recorded' if record else 'plain'}")


def compute(name: str) -> dict:
    analyzed = analyze(_source(name))
    assert not analyzed.errors, analyzed.errors
    return {_key(name, q, checks, record):
            capture(analyzed, q, checks, record)
            for q in QUANTA for checks in (True, False)
            for record in (False, True)}


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE_PATH.read_text())["cases"]


def test_fixture_covers_every_case(fixture):
    assert sorted(fixture) == sorted(
        _key(name, q, checks, record) for name in PROGRAMS
        for q in QUANTA for checks in (True, False)
        for record in (False, True))
    # where threads interleave, the slice ends move the clock, so the
    # fixture pins them: quantum 1 and the default disagree
    for name in ("http", "producer_consumer", "realtime_pipeline"):
        assert fixture[f"{name}/q1/static/plain"]["cycles"] \
            != fixture[f"{name}/q2000/static/plain"]["cycles"]


@pytest.mark.parametrize("name", PROGRAMS)
def test_slices_match_fixture(name, fixture):
    for key, got in sorted(compute(name).items()):
        assert got == fixture[key], key


if __name__ == "__main__":
    cases = {}
    for program in PROGRAMS:
        cases.update(compute(program))
    FIXTURE_PATH.write_text(json.dumps(
        {"schema": "slices/1", "cases": cases}, indent=1,
        sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {FIXTURE_PATH}")
