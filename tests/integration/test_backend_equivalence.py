"""The codegen backends against the seed equivalence fixture.

``tests/data/seed_equivalence.json`` pins the observable identity of
the seed interpreter across the benchmark registry.  Every compiled
backend — Python-source fused and faithful, and the C backend where a
toolchain exists — must reproduce those values *exactly*: simulated
cycles, output hash, check counters, allocation/free counts, steps.

Also covers the routing contract (which backend actually executes and
why), the bail-and-fallback re-execution chain, and the
``repro bench --suite codegen`` differential harness plus its
committed ``BENCH_codegen.json`` payload.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil

import pytest

from repro.bench import codegen as bench_codegen
from repro.bench.compare import (SCHEMA, failures, judge, key,
                                 load_payload, save_payload, set_bound)
from repro.bench.suite import BENCHMARKS
from repro.core.api import analyze
from repro.errors import ReproError
from repro.interp.machine import Machine, RunOptions, execute

FIXTURE_PATH = (pathlib.Path(__file__).parent.parent / "data"
                / "seed_equivalence.json")
FIXTURE = json.loads(FIXTURE_PATH.read_text())["fixture"]

MODES = {"dynamic": True, "static": False}


def _c_available() -> bool:
    if not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")):
        return False
    try:
        import cffi  # noqa: F401
    except ImportError:
        return False
    return True


C_AVAILABLE = _c_available()

needs_c = pytest.mark.skipif(not C_AVAILABLE,
                             reason="no C toolchain or cffi")


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


def _run(name, mode, backend):
    analyzed = analyze(BENCHMARKS[name].source(fast=True))
    assert not analyzed.errors
    result, machine = execute(analyzed, RunOptions(
        checks_enabled=MODES[mode], validate=False, instrument=False,
        backend=backend))
    return result, machine


# after the block closes, the interpreter's flat frame leaks the inner
# local `x` over the implicit this-field read in `print(x)` — the one
# reachable shape of ``use-of-leaked-local`` that stays a hazard after
# tainted *redeclarations* were proven exact
LEAKED_USE_SOURCE = """\
class C<Owner o> {
  int x;
  void m() {
    x = 5;
    if (x > 0) { int x = 1; print(x); }
    print(x);
  }
}
{ C<heap> c = new C<heap>; c.m(); }
"""


def _run_source(source, mode, backend):
    analyzed = analyze(source)
    assert not analyzed.errors
    result, machine = execute(analyzed, RunOptions(
        checks_enabled=MODES[mode], validate=False, instrument=False,
        backend=backend))
    return result, machine


@pytest.mark.parametrize("backend", ["py", "py-fused", "py-faithful"])
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(FIXTURE))
def test_py_backends_match_seed(name, mode, backend):
    result, _machine = _run(name, mode, backend)
    assert _capture(result) == FIXTURE[name][mode]


@needs_c
@pytest.mark.parametrize("name", sorted(FIXTURE))
def test_c_backend_matches_seed(name):
    # whatever the ladder routes to (genuine C, py fallback for
    # hazardous programs, interp for http) the observables must match
    result, _machine = _run(name, "static", "c")
    assert _capture(result) == FIXTURE[name]["static"]


# ---------------------------------------------------------------------------
# routing: which backend actually runs, and why
# ---------------------------------------------------------------------------

class TestRouting:
    def test_py_prefers_fused_form(self):
        _result, machine = _run("Array", "static", "py")
        assert machine.program.backend == "py-fused"
        assert machine.codegen_fallback is None

    def test_dynamic_mode_still_fuses(self):
        # the fused form compiles ownership checks in when enabled;
        # only the C backend is checks-erased
        _result, machine = _run("Array", "dynamic", "py")
        assert machine.program.backend == "py-fused"

    def test_hazardous_program_falls_to_faithful(self):
        # a *use* of a leaked local over an implicit this-field: the
        # interpreter's flat frame leaks the if-block's x over the
        # field, which lexical renaming cannot mirror — the surviving
        # core of the use-of-leaked-local hazard after the narrowing
        _result, machine = _run_source(LEAKED_USE_SOURCE, "static", "py")
        assert machine.program.backend == "py-faithful"

    def test_tainted_redeclare_graduates_to_fused(self):
        # redeclaring a name whose block closed is exact under renaming
        # (the flat frame overwrites the slot unconditionally), so
        # Barnes and game fuse now
        for name in ("Barnes", "game"):
            _result, machine = _run(name, "static", "py")
            assert machine.program.backend == "py-fused", name

    def test_unsupported_program_falls_to_interp(self):
        _result, machine = _run("http", "static", "py")
        assert machine.program is None  # interpreter ran
        assert machine.codegen_fallback  # and said why

    @needs_c
    def test_c_backend_compiles_supported_program(self):
        _result, machine = _run("Array", "static", "c")
        assert machine.program.backend == "c"
        assert machine.codegen_fallback is None

    @needs_c
    def test_c_chains_down_on_hazards(self):
        _result, machine = _run_source(LEAKED_USE_SOURCE, "static", "c")
        assert machine.program.backend == "py-faithful"
        assert "c unavailable" in machine.codegen_fallback

    @needs_c
    def test_c_declines_dynamic_checks(self):
        _result, machine = _run("Array", "dynamic", "c")
        assert machine.program.backend == "py-fused"
        assert "checks-erased" in machine.codegen_fallback

    def test_missing_toolchain_is_graceful(self, monkeypatch):
        # a never-seen source so neither the in-process lib cache nor
        # an on-disk artifact can satisfy the request without a cc
        import repro.interp.codegen_c as codegen_c
        monkeypatch.setattr(codegen_c.shutil, "which",
                            lambda *_a, **_k: None)
        analyzed = analyze("(RHandle<r> h) { print(40 + 3); }")
        result, machine = execute(analyzed, RunOptions(
            checks_enabled=False, validate=False, instrument=False,
            backend="c"))
        assert result.output == ["43"]
        assert machine.program.backend == "py-fused"
        assert "no C toolchain" in machine.codegen_fallback

    def test_bail_reexecutes_identically(self):
        # a cycle limit the program overruns: compiled forms bail and
        # execute() walks the fallback chain until the interpreter
        # produces the authoritative error
        analyzed = analyze(BENCHMARKS["Array"].source(fast=True))
        outcomes = []
        for backend in ("interp", "py", "c"):
            try:
                execute(analyzed, RunOptions(
                    checks_enabled=False, validate=False,
                    instrument=False, max_cycles=300, backend=backend))
                outcomes.append(("ok",))
            except ReproError as err:
                outcomes.append((type(err).__name__, str(err)))
        assert outcomes[0][0] != "ok"  # the limit actually fires
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    def test_instrumented_run_declines_fused_and_c(self):
        # obs hooks are compiled out of the fused/C forms, so an
        # instrumented run must land on a form that still records
        analyzed = analyze(BENCHMARKS["Tree"].source(fast=True))
        machine = Machine(analyzed, RunOptions(
            checks_enabled=False, validate=False, backend="c"))
        result = machine.run()
        assert machine.program is None or \
            machine.program.backend == "py-faithful"
        assert not result.stats.metrics.null


# ---------------------------------------------------------------------------
# the differential bench harness and its committed payload
# ---------------------------------------------------------------------------

def _value(payload, *row_key):
    (value,) = [r["value"] for r in payload["rows"] if key(r) == row_key]
    return value


class TestCodegenBench:
    def test_measure_row_equivalence_fields(self):
        divergences = []
        row = bench_codegen.measure_benchmark(
            "Array", ["py"], fast=True, repeats=1,
            divergences=divergences)
        assert divergences == []
        for mode in MODES:
            cell = row[mode]["py"]
            assert cell["equivalent"] is True
            assert cell["cycles"] == FIXTURE["Array"][mode]["cycles"]
            assert cell["output_sha256"] == \
                FIXTURE["Array"][mode]["output_sha256"]
        assert row["static"]["py"]["backend_used"] == "py-fused"

    def test_measure_payload_and_compare_roundtrip(self, tmp_path):
        payload = bench_codegen.measure(["Array"], backends=("py",),
                                        fast=True, repeats=1)
        assert payload["schema"] == SCHEMA
        assert payload["suite"] == "codegen"
        assert payload["divergences"] == []
        assert _value(payload, "aggregate", "static", "py",
                      "speedup_vs_seed") > 0
        path = tmp_path / "bench.json"
        save_payload(payload, str(path))
        loaded = load_payload(str(path))
        assert failures(judge(loaded, payload, threshold=10.0)) == []

    def test_compare_flags_cycle_drift_and_divergence(self):
        payload = bench_codegen.measure(["Array"], backends=("py",),
                                        fast=True, repeats=1)
        drifted = json.loads(json.dumps(payload))
        for r in drifted["rows"]:
            if key(r) == ("Array", "static", "py", "cycles"):
                r["value"] += 1
        assert any("determinism break" in f
                   for f in failures(judge(drifted, payload)))

        poisoned = dict(payload,
                        divergences=["Array/static/py: cycles differ"])
        assert any("cycles differ" in f
                   for f in failures(judge(poisoned, payload)))

    def test_min_speedup_gate(self):
        payload = bench_codegen.measure(["Array"], backends=("py",),
                                        fast=True, repeats=1)

        def gated(backend, floor):
            copy = json.loads(json.dumps(payload))
            set_bound(copy, "aggregate", "static", backend,
                      "speedup_vs_seed", floor=floor)
            return failures(judge(copy))

        assert gated("py", 0.01) == []
        failed = gated("py", 1e9)
        assert failed and "below" in failed[0]
        failed = gated("zz", 1.0)
        assert failed and "no value recorded" in failed[0]

    def test_skipped_c_rows_void_the_aggregate(self, monkeypatch):
        import repro.interp.codegen_c as codegen_c
        monkeypatch.setattr(codegen_c.shutil, "which",
                            lambda *_a, **_k: None)
        monkeypatch.setattr(codegen_c, "_LIBS", {})
        payload = bench_codegen.measure(["game"], backends=("c",),
                                        fast=True, repeats=1)
        # game's C row falls back for hazards (a program property, so
        # it is measured); http-style toolchain skips would void it
        assert payload["divergences"] == []

    def test_committed_payload_is_current(self):
        root = pathlib.Path(__file__).parent.parent.parent
        committed = load_payload(str(root / "BENCH_codegen.json"))
        assert committed["suite"] == "codegen"
        assert committed["divergences"] == []
        # the acceptance bar: >=10x aggregate static speedup vs the
        # committed seed interpreter baseline
        assert _value(committed, "aggregate", "static", "py",
                      "speedup_vs_seed") >= 10.0
        set_bound(committed, "aggregate", "static", "py",
                  "speedup_vs_seed", floor=10.0)
        assert failures(judge(committed)) == []
        # and the simulated cycles it records are the fixture's
        for r in committed["rows"]:
            if r["metric"] == "cycles" and r["program"] in FIXTURE:
                assert r["value"] == \
                    FIXTURE[r["program"]][r["mode"]]["cycles"], key(r)
            if r["metric"] == "equivalent" and r["value"] is False:
                pytest.fail(f"{key(r)} diverged")
