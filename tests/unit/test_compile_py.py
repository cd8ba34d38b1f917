"""Unit tests for compiling a program to Python: the Section 2.6
erasure ``repro compile`` prints (``codegen_py.erased_source``) and the
compiled module ``--backend py`` runs."""

import pytest

from repro import RunOptions, analyze, run_source
from repro.interp.codegen_base import CodegenUnsupported
from repro.interp.codegen_py import erased_source
from repro.interp.machine import execute


def run_compiled(analyzed):
    """The output of ``analyzed`` on ``--backend py`` and the name of
    the Python form that produced it (a run that fell back to the
    interpreter fails the test)."""
    result, machine = execute(analyzed, RunOptions(backend="py",
                                                   instrument=False))
    assert machine.program is not None, machine.codegen_fallback
    return result.output, machine.program.backend


def compiled_outputs(source: str):
    """The erased module of ``source`` and its output when that module
    runs."""
    analyzed = analyze(source).require_well_typed()
    output, form = run_compiled(analyzed)
    assert form == "py-fused"
    return erased_source(analyzed, checks=False), output


def assert_runtime_parity(source: str):
    """Run ``source`` compiled and interpreted; the outputs must match."""
    analyzed = analyze(source).require_well_typed()
    output, _form = run_compiled(analyzed)
    assert output == run_source(analyzed, RunOptions()).output
    return output


class TestEmission:
    def test_out_of_order_inheritance(self):
        # B extends A but appears first in the source
        source, out = compiled_outputs(
            "class B<Owner o> extends A<o> { int tag() { return 2; } }\n"
            "class A<Owner o> { int tag() { return 1; } }\n"
            "{ A<heap> x = new B<heap>; print(x.tag()); }")
        assert out == ["2"]
        assert "CALLS[('B', 'tag')] = d_B__tag" in source
        assert "CALLS[('A', 'tag')] = d_A__tag" in source

    def test_python_keyword_field_names_mangled(self):
        source, out = compiled_outputs(
            "class C<Owner o> { int pass; int lambda;"
            "  int yield(int def) { return pass + def; } }\n"
            "{ C<heap> c = new C<heap>;"
            "  c.pass = 3; c.lambda = 4;"
            "  int from = c.yield(c.lambda);"
            "  print(from); }")
        assert out == ["7"]
        # fields are string keys; methods, parameters and locals get a
        # prefix, so no source name reaches the module bare
        assert "fields['pass'] = 3" in source
        assert "def f_C__yield(" in source
        assert "u1_def" in source
        assert "u2_from = " in source

    def test_this_owned_allocation_via_area_attribute(self):
        source, out = compiled_outputs(
            "class Inner<Owner o> { int v; }\n"
            "class Outer<Owner o> {"
            "  Inner<this> guts;"
            "  void fill() { guts = new Inner<this>; }"
            "  int probe() { if (guts == null) { return 0; }"
            "                return 1; }"
            "}\n"
            "(RHandle<r> h) {"
            "  Outer<r> o = new Outer<r>;"
            "  o.fill();"
            "  print(o.probe());"
            "}")
        assert out == ["1"]
        # S is the receiver: an object owned by `this` lives in its area
        assert "_alloc(S.area, " in source

    def test_initial_region_allocation_uses_method_entry_area(self):
        source, out = compiled_outputs(
            "class Cell<Owner o> { int v; }\n"
            "class Maker<Owner o> {"
            "  Cell<initialRegion> make() accesses heap, initialRegion {"
            "    (RHandle<scratch> hs) {"
            "      Cell<initialRegion> c = new Cell<initialRegion>;"
            "      return c;"
            "    }"
            "    return null;"
            "  }"
            "}\n"
            "(RHandle<r> h) {"
            "  Maker<r> m = new Maker<r>;"
            "  Cell<r> got = m.make();"
            "  print(got != null);"
            "}")
        assert out == ["true"]
        # the allocation targets R (the method's entry area), not R1
        # (the scratch region created inside)
        assert "R1 = RMC('scratch'" in source
        assert "cy += _alloc(R, " in source

    def test_owner_chain_strategy(self):
        # p is owned by region r whose handle is a parameter; the
        # compiled method finds p's region from the owner it was passed
        source, out = compiled_outputs(
            "class Cell<Owner o> { int v; }\n"
            "class M<Owner o> {"
            "  Cell<p> make<Region r, Owner p>(RHandle<r> h)"
            "      accesses r, p where r owns p {"
            "    return new Cell<p>;"
            "  }"
            "}\n"
            "(RHandle<r1> h1) {"
            "  M<r1> m = new M<r1>;"
            "  Cell<r1> c = m.make<r1, r1>(h1);"
            "  print(c != null);"
            "}")
        assert out == ["true"]
        assert "_roo(OV[1])" in source


class TestRuntimeParityCorners:
    def test_float_formatting_matches(self):
        assert_runtime_parity(
            "{ print(1.0 / 3.0); print(sqrt(2.0)); print(0.1 + 0.2); }")

    def test_division_semantics_match(self):
        assert_runtime_parity(
            "{ print(-9 / 4); print(-9 % 4); print(9 / -4);"
            "  print(ftoi(3.99)); }")

    def test_short_circuit_matches(self):
        source = ("class C<Owner o> {"
                  "  static int calls;"
                  "  boolean bump() accesses immortal {"
                  "    C.calls = C.calls + 1;"
                  "    return true;"
                  "  }"
                  "}\n"
                  "{ C<heap> c = new C<heap>;"
                  "  boolean x = false && c.bump();"
                  "  boolean y = true || c.bump();"
                  "  print(C.calls); }")
        assert assert_runtime_parity(source) == ["0"]

    def test_default_returns_match(self):
        assert_runtime_parity(
            "class C<Owner o> {"
            "  int i() { }"
            "  float f() { }"
            "  boolean b() { }"
            "}\n"
            "{ C<heap> c = new C<heap>;"
            "  print(c.i()); print(c.f()); print(c.b()); }")


class TestErrors:
    def test_fork_not_supported(self):
        source = ("regionKind S extends SharedRegion { }\n"
                  "class W<S r> { void go(RHandle<r> h) accesses r { } }\n"
                  "(RHandle<S r> h) { fork (new W<r>).go(h); }")
        with pytest.raises(CodegenUnsupported, match="fork"):
            erased_source(analyze(source).require_well_typed(),
                          checks=False)

    def test_ill_typed_rejected_by_default(self):
        analyzed = analyze("class C<Owner o> { }\n{ C<zap> c = null; }")
        assert analyzed.errors
        with pytest.raises(CodegenUnsupported, match="static errors"):
            erased_source(analyzed, checks=False)
