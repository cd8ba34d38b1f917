"""The executable erasure (Section 2.6, made runnable).

``codegen_py``'s fused module is the program with its owner types
erased: owners survive only as the memory areas they denote, and the
checks-off build carries no check code at all.  Run through
``execute(..., backend="py")`` the fused form must reproduce the
interpreter's cycles, output and ``Stats.summary()`` exactly, on every
single-threaded benchmark and in both modes; the checks-on build must
run the RTSJ checks and print the same output.
"""

import re

import pytest

from repro import IllegalAssignmentError, RunOptions, analyze
from repro.bench.suite import BENCHMARKS, IMAGEREC_STAGES
from repro.errors import OutOfRegionMemoryError
from repro.interp.codegen_base import CodegenUnsupported
from repro.interp.codegen_py import erased_source
from repro.interp.machine import execute

SINGLE_THREADED = ["Array", "Tree", "Water", "Barnes", "ImageRec",
                   "game", "phone"]


def _run(analyzed, backend: str, checks: bool):
    return execute(analyzed, RunOptions(
        checks_enabled=checks, validate=False, instrument=False,
        backend=backend))


def _observed(result):
    return result.stats.cycles, result.output, result.stats.summary()


def assert_erasure_matches(source: str) -> None:
    """The fused form runs ``source`` in both modes, exactly as the
    interpreter does."""
    analyzed = analyze(source).require_well_typed()
    for checks in (False, True):
        compiled, machine = _run(analyzed, "py", checks)
        assert machine.program is not None
        assert machine.program.backend == "py-fused", checks
        interpreted, _machine = _run(analyzed, "interp", checks)
        assert _observed(compiled) == _observed(interpreted), checks


def _raised(analyzed, backend: str, checks: bool, error: type) -> str:
    """The message of the ``error`` a run raises, object ids masked
    (they count allocations process-wide)."""
    with pytest.raises(error) as exc:
        _run(analyzed, backend, checks)
    return re.sub(r"#\d+", "#", str(exc.value))


class TestBenchmarkParity:
    @pytest.mark.parametrize("name", SINGLE_THREADED)
    def test_compiled_output_matches_interpreter(self, name):
        assert_erasure_matches(BENCHMARKS[name].source(fast=True))

    @pytest.mark.parametrize("stage", IMAGEREC_STAGES)
    def test_imagerec_stages(self, stage):
        assert_erasure_matches(
            BENCHMARKS["ImageRec"].source(fast=True, stage=stage))

    def test_threaded_benchmark_raises_compile_error(self):
        analyzed = analyze(
            BENCHMARKS["http"].source(fast=True)).require_well_typed()
        with pytest.raises(CodegenUnsupported, match="fork"):
            erased_source(analyzed, checks=False)


class TestErasureIsReal:
    def test_no_owner_tokens_in_emitted_code(self):
        analyzed = analyze(
            BENCHMARKS["Tree"].source(fast=True)).require_well_typed()
        for checks in (False, True):
            text = erased_source(analyzed, checks=checks)
            for token in ("Owner", "outlives", "initialRegion"):
                assert token not in text, (token, checks)

    def test_region_names_survive_only_as_area_labels(self):
        source = ("class Cell<Owner o> { int v; }\n"
                  "(RHandle<r> h) { Cell<r> c = new Cell<r>; print(1); }")
        text = erased_source(analyze(source).require_well_typed(),
                             checks=False)
        # the region is created under its source name, and the owner
        # r survives only as the area it denotes
        assert "RMC('r', 'LocalRegion'" in text
        assert "ObjRef('Cell', (R1,)" in text
        tree = erased_source(analyze(
            BENCHMARKS["Tree"].source(fast=True)).require_well_typed(),
            checks=False)
        assert "ObjRef('TreeNode', (R4,)" in tree


class TestCompiledChecks:
    DANGLING = """
class Cell<Owner o> { int v; Cell<o> next; }
(RHandle<r1> h1) {
    Cell<r1> outer = new Cell<r1>;
    (RHandle<r2> h2) {
        Cell<r2> inner = new Cell<r2>;
        outer.next = inner;
    }
}
"""

    def test_typed_build_has_no_check_calls(self):
        analyzed = analyze(
            BENCHMARKS["Array"].source(fast=True)).require_well_typed()
        assert "CK." not in erased_source(analyzed, checks=False)
        assert "CK.assignment_cost(" in erased_source(analyzed,
                                                      checks=True)

    def test_rtsj_build_catches_the_same_violation(self):
        analyzed = analyze(self.DANGLING)
        assert analyzed.errors  # rejected statically ...
        # ... so no compiled form runs it: the py backend's checks-on
        # run falls to the interpreter, whose dynamic check catches
        # the dangling store
        with pytest.raises(CodegenUnsupported, match="static errors"):
            erased_source(analyzed, checks=True)
        assert _raised(analyzed, "py", True, IllegalAssignmentError) \
            == _raised(analyzed, "interp", True, IllegalAssignmentError)

    def test_rtsj_build_counts_checks_on_clean_programs(self):
        analyzed = analyze(
            BENCHMARKS["Array"].source(fast=True)).require_well_typed()
        typed, typed_machine = _run(analyzed, "py", False)
        rtsj, rtsj_machine = _run(analyzed, "py", True)
        assert typed_machine.program.backend == "py-fused"
        assert rtsj_machine.program.backend == "py-fused"
        assert typed.output == rtsj.output
        assert typed.stats.assignment_checks == 0
        assert rtsj.stats.assignment_checks > 0
        assert rtsj.cycles > typed.cycles


class TestCompiledRegionBehaviour:
    def test_lt_overflow_in_compiled_code(self):
        source = ("class C<Owner o> { int a; int b; int c; int d; }\n"
                  "{ (RHandle<LocalRegion : LT(48) r> h) {"
                  "    C<r> one = new C<r>;"
                  "    C<r> two = new C<r>;"
                  "} }")
        analyzed = analyze(source).require_well_typed()
        # the fused form bails at the overflow; the rerun reports the
        # interpreter's error, message for message
        for checks in (False, True):
            assert _raised(analyzed, "py", checks,
                           OutOfRegionMemoryError) \
                == _raised(analyzed, "interp", checks,
                           OutOfRegionMemoryError)

    def test_subregion_flush_reuse(self):
        source = """
regionKind Buf extends SharedRegion {
    Sub : LT(128) NoRT s;
}
regionKind Sub extends SharedRegion { }
class Cell { int v; }
(RHandle<Buf r> h) {
    int i = 0;
    while (i < 20) {
        (RHandle<Sub r2> h2 = h.s) {
            Cell<r2> c = new Cell<r2>;
            c.v = i;
        }
        i = i + 1;
    }
    print(i);
}
"""
        analyzed = analyze(source).require_well_typed()
        # subregion programs do not compile to Python: the py backend
        # notes why and runs the interpreter
        with pytest.raises(CodegenUnsupported, match="subregion"):
            erased_source(analyzed, checks=False)
        result, machine = _run(analyzed, "py", False)
        assert machine.program is None and machine.codegen_fallback
        assert result.output == ["20"]
        # twenty 24-byte cells through a 128-byte LT area: only possible
        # because the exit path flushes it each iteration
        subs = [a for a in machine.regions.areas if a.kind_name == "Sub"]
        assert len(subs) == 1
        assert subs[0].peak_bytes <= 128
