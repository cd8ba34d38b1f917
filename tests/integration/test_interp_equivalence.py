"""Equivalence of the compiled-dispatch interpreter with the seed.

``tests/data/seed_equivalence.json`` pins cycles, output hashes, and
run counters captured from the seed tree-walking interpreter across the
full benchmark registry in both check modes.  The closure-compiled
interpreter must reproduce every value exactly — the paper's numbers
are *simulated* cycles, so any drift in yield sequence, step count, or
GC behavior is a correctness bug, not a performance detail.

Also covers the ``instrument=False`` fast path (null observability
sinks must not change program behavior, and must record nothing) and
the ``repro bench`` interp suite, a view of the bench runner's
interpreter cells built on top of it.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.bench import timing
from repro.bench.compare import (SCHEMA, failures, judge, load_payload,
                                 save_payload)
from repro.bench.suite import BENCHMARKS
from repro.core.api import analyze
from repro.interp.machine import RunOptions, run_source

FIXTURE_PATH = (pathlib.Path(__file__).parent.parent / "data"
                / "seed_equivalence.json")
FIXTURE = json.loads(FIXTURE_PATH.read_text())["fixture"]

MODES = {"dynamic": True, "static": False}


def _capture(result):
    return {
        "cycles": result.stats.cycles,
        "output_sha256": hashlib.sha256(
            "\n".join(result.output).encode()).hexdigest(),
        "output_lines": len(result.output),
        "assignment_checks": result.stats.assignment_checks,
        "read_checks": result.stats.read_checks,
        "allocations": result.stats.allocations,
        "objects_freed": result.stats.objects_freed,
        "steps": result.stats.steps,
    }


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(FIXTURE))
def test_matches_seed_interpreter(name, mode):
    analyzed = analyze(BENCHMARKS[name].source(fast=True))
    assert not analyzed.errors
    result = run_source(analyzed, RunOptions(
        checks_enabled=MODES[mode], validate=False))
    assert _capture(result) == FIXTURE[name][mode]


def test_fixture_covers_whole_registry():
    assert sorted(FIXTURE) == sorted(BENCHMARKS)


# ---------------------------------------------------------------------------
# instrument=False: the null-sink fast path
# ---------------------------------------------------------------------------

def test_uninstrumented_run_is_behavior_identical():
    analyzed = analyze(BENCHMARKS["Tree"].source(fast=True))
    base = run_source(analyzed, RunOptions(validate=False))
    fast = run_source(analyzed, RunOptions(validate=False,
                                           instrument=False))
    assert fast.output == base.output
    assert fast.stats.cycles == base.stats.cycles
    assert fast.stats.steps == base.stats.steps
    assert fast.stats.allocations == base.stats.allocations


def test_uninstrumented_run_records_nothing():
    analyzed = analyze(BENCHMARKS["Tree"].source(fast=True))
    result = run_source(analyzed, RunOptions(validate=False,
                                             instrument=False))
    stats = result.stats
    assert stats.metrics.null
    assert stats.recorder is None
    assert stats.metrics.to_dict() == {}


def test_instrumented_run_still_records_by_default():
    analyzed = analyze(BENCHMARKS["Tree"].source(fast=True))
    result = run_source(analyzed, RunOptions(validate=False))
    assert not result.stats.metrics.null
    assert result.stats.metrics.to_dict()  # finalize published gauges


# ---------------------------------------------------------------------------
# the interp suite: a view of the interpreter cells
# ---------------------------------------------------------------------------

def _values(payload, **where):
    """``{(program, mode, metric): value}`` of the rows matching
    ``where``."""
    return {(r["program"], r["mode"], r["metric"]): r["value"]
            for r in payload["rows"]
            if all(r.get(k) == v for k, v in where.items())}


def _edit(payload, program, mode, metric, change):
    edited = json.loads(json.dumps(payload))
    for r in edited["rows"]:
        if (r["program"], r["mode"], r["metric"]) == (program, mode, metric):
            r["value"] = change(r["value"])
    return edited


def test_measure_benchmark_row_shape():
    row = _values(timing.measure(["Array"], fast=True, repeats=1),
                  program="Array")
    for mode in ("dynamic", "static"):
        assert row[("Array", mode, "wall_s")] > 0
        assert row[("Array", mode, "cycles")] == \
            FIXTURE["Array"][mode]["cycles"]
        assert row[("Array", mode, "output_sha256")] == \
            FIXTURE["Array"][mode]["output_sha256"]
    # dynamic checks cost cycles
    assert row[("Array", None, "cycle_overhead")] > 1.0


def test_measure_payload_and_compare_roundtrip(tmp_path):
    payload = timing.measure(["Array"], fast=True, repeats=1)
    assert payload["schema"] == SCHEMA and payload["suite"] == "interp"
    path = tmp_path / "bench.json"
    save_payload(payload, str(path))
    loaded = load_payload(str(path))
    assert loaded == payload
    assert failures(judge(loaded, payload, threshold=10.0)) == []


def test_compare_flags_cycle_drift_and_wall_regression():
    payload = timing.measure(["Array"], fast=True, repeats=1)
    drifted = _edit(payload, "Array", "static", "cycles", lambda v: v + 1)
    assert any("determinism break" in f
               for f in failures(judge(drifted, payload)))

    slower = payload
    for mode in ("dynamic", "static"):
        slower = _edit(slower, "Array", mode, "wall_s", lambda v: v * 10)
    assert any("wall-clock regression" in f
               for f in failures(judge(slower, payload, threshold=0.30)))

    missing = dict(payload, rows=[])
    assert any("missing from current" in f
               for f in failures(judge(missing, payload)))


def test_committed_bench_payload_is_current():
    """BENCH_interp.json at the repo root must stay in sync with the
    interpreter: same simulated cycles, same output hashes."""
    root = pathlib.Path(__file__).parent.parent.parent
    committed = load_payload(str(root / "BENCH_interp.json"))
    assert committed["suite"] == "interp"
    measured = _values(committed, backend="interp")
    for name in BENCHMARKS:
        for mode in ("dynamic", "static"):
            assert measured[(name, mode, "cycles")] == \
                FIXTURE[name][mode]["cycles"], (name, mode)
            assert measured[(name, mode, "output_sha256")] == \
                FIXTURE[name][mode]["output_sha256"], (name, mode)
    # the embedded seed baseline records the before/after story: the
    # acceptance bar is >= 2x on the micro-benchmarks with static checks
    before = _values(committed["baseline"])
    for name in ("Array", "Tree"):
        after = measured[(name, "static", "wall_s")]
        assert before[(name, "static", "wall_s")] / after >= 2.0, name
