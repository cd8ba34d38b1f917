"""Tests for the Section 2.6 translation to RTSJ."""

import sys
from pathlib import Path

import pytest

from repro import AllocStrategy, OwnershipTypeError, analyze, translate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from conftest import TSTACK_SOURCE  # noqa: E402


def strategies(source: str):
    translation = translate(analyze(source).require_well_typed())
    return translation, {(s.class_name, s.owner): s.strategy
                         for s in translation.sites}


class TestAllocationStrategies:
    def test_current_region(self):
        _, by_site = strategies(
            "class Cell<Owner o> { int v; }\n"
            "(RHandle<r> h) { Cell<r> c = new Cell<r>; }")
        assert by_site[("Cell", "r")] is AllocStrategy.CURRENT_REGION

    def test_heap_and_immortal(self):
        # inside a region block, heap/immortal are not the current region
        _, by_site = strategies(
            "class Cell<Owner o> { int v; }\n"
            "(RHandle<r> h) {"
            "  Cell<heap> a = new Cell<heap>;"
            "  Cell<immortal> b = new Cell<immortal>;"
            "}")
        assert by_site[("Cell", "heap")] is AllocStrategy.HEAP
        assert by_site[("Cell", "immortal")] is AllocStrategy.IMMORTAL

    def test_heap_in_main_is_current_region(self):
        # at main top level the current region IS the heap: plain `new`
        _, by_site = strategies(
            "class Cell<Owner o> { int v; }\n"
            "{ Cell<heap> a = new Cell<heap>; }")
        assert by_site[("Cell", "heap")] is AllocStrategy.CURRENT_REGION

    def test_handle_var_for_outer_region(self):
        translation, by_site = strategies(
            "class Cell<Owner o> { int v; }\n"
            "(RHandle<r1> h1) { (RHandle<r2> h2) {"
            "  Cell<r1> c = new Cell<r1>;"
            "} }")
        assert by_site[("Cell", "r1")] is AllocStrategy.HANDLE_VAR
        site = [s for s in translation.sites if s.owner == "r1"][0]
        assert site.handle == "h1"

    def test_via_this_for_this_owned(self):
        _, by_site = strategies(
            "class Inner<Owner o> { int v; }\n"
            "class Outer<Owner o> {"
            "  Inner<this> guts;"
            "  void fill() { guts = new Inner<this>; }"
            "}")
        assert by_site[("Inner", "this")] is AllocStrategy.VIA_THIS

    def test_initial_region(self):
        # at method entry initialRegion IS the current region (plain new);
        # inside a nested region block the saved initial-area handle is
        # used instead
        _, by_site = strategies(
            "class Cell<Owner o> { int v; }\n"
            "class M<Owner o> {"
            "  Cell<initialRegion> make() {"
            "    return new Cell<initialRegion>;"
            "  }"
            "}")
        assert by_site[("Cell", "initialRegion")] \
            is AllocStrategy.CURRENT_REGION
        _, nested = strategies(
            "class Cell<Owner o> { int v; }\n"
            "class M<Owner o> {"
            "  void make() accesses heap, initialRegion {"
            "    (RHandle<r> h) {"
            "      Cell<initialRegion> c = new Cell<initialRegion>;"
            "    }"
            "  }"
            "}")
        assert nested[("Cell", "initialRegion")] \
            is AllocStrategy.INITIAL_REGION

    def test_handle_param_strategy(self):
        translation, by_site = strategies(
            "class Cell<Owner o> { int v; }\n"
            "class M<Owner o> {"
            "  void fill<Region r>(RHandle<r> h) accesses r {"
            "    Cell<r> c = new Cell<r>;"
            "  }"
            "}")
        assert by_site[("Cell", "r")] is AllocStrategy.HANDLE_VAR

    def test_owner_chain_strategy(self):
        # p is owned by region r whose handle is a parameter: the
        # translator must find the handle through [AV TRANS1/2]
        _, by_site = strategies(
            "class Cell<Owner o> { int v; }\n"
            "class M<Owner o> {"
            "  Cell<p> make<Region r, Owner p>(RHandle<r> h)"
            "      accesses r, p where r owns p {"
            "    return new Cell<p>;"
            "  }"
            "}")
        assert by_site[("Cell", "p")] is AllocStrategy.VIA_OWNER_CHAIN

    def test_histogram(self):
        translation, _ = strategies(
            "class Cell<Owner o> { int v; }\n"
            "(RHandle<r> h) {"
            "  Cell<r> a = new Cell<r>;"
            "  Cell<r> b = new Cell<r>;"
            "  Cell<heap> c = new Cell<heap>;"
            "}")
        hist = translation.strategy_histogram()
        assert hist[AllocStrategy.CURRENT_REGION] == 2
        assert hist[AllocStrategy.HEAP] == 1


class TestPseudoJava:
    def test_erases_owner_parameters(self):
        translation, _ = strategies(TSTACK_SOURCE)
        assert "<Owner" not in translation.java
        assert "class TStack" in translation.java

    def test_region_becomes_memory_area(self):
        translation, _ = strategies(
            "class Cell<Owner o> { int v; }\n"
            "(RHandle<r> h) { Cell<r> c = new Cell<r>; }")
        assert "VTMemoryWithSubregions" in translation.java
        assert ".enter(" in translation.java

    def test_lt_region_size_in_constructor(self):
        translation, _ = strategies(
            "regionKind K extends SharedRegion { }\n"
            "(RHandle<K : LT(2048) r> h) { int x = 1; }")
        assert "LTMemoryWithSubregions(2048)" in translation.java

    def test_newinstance_for_cross_region_allocation(self):
        translation, _ = strategies(
            "class Cell<Owner o> { int v; }\n"
            "(RHandle<r1> h1) { (RHandle<r2> h2) {"
            "  Cell<r1> c = new Cell<r1>;"
            "} }")
        assert "h1.newInstance(Cell.class)" in translation.java

    def test_portal_wrapper_classes_emitted(self):
        translation, _ = strategies(
            "regionKind Buf extends SharedRegion {"
            "  Cell<this> slot;"
            "  Sub : LT(64) NoRT s;"
            "}\n"
            "regionKind Sub extends SharedRegion { }\n"
            "class Cell<Owner o> { int v; }\n"
            "(RHandle<Buf r> h) { int x = 1; }")
        assert "class BufPortals" in translation.java       # w2
        assert "class BufSubregions" in translation.java    # w1

    def test_rt_fork_becomes_noheap_realtime_thread(self):
        translation, _ = strategies(
            "regionKind Shared extends SharedRegion { }\n"
            "class W<Shared r> { void go() accesses r { } }\n"
            "(RHandle<Shared : LT(512) r> h) {"
            "  RT fork (new W<r>).go();"
            "}")
        assert "NoHeapRealtimeThread" in translation.java

    def test_handle_becomes_memory_area_type(self):
        translation, _ = strategies(
            "class M<Owner o> {"
            "  void use<Region r>(RHandle<r> h) accesses r { }"
            "}")
        assert "MemoryArea h" in translation.java

    def test_float_becomes_double(self):
        translation, _ = strategies("{ float f = 1.5; }")
        assert "double f" in translation.java


class TestErrors:
    def test_ill_typed_program_rejected(self):
        analyzed = analyze(
            "class Cell<Owner o> { int v; }\n"
            "(RHandle<r1> h1) { (RHandle<r2> h2) {"
            "  Cell<r1> bad = new Cell<r2>;"
            "} }")
        with pytest.raises(OwnershipTypeError):
            translate(analyzed)
