"""Property-based soundness test (Theorems 3 and 4, empirically).

A hypothesis strategy generates random *well-typed-by-construction*
programs: nested regions, objects allocated at arbitrary depths, links
respecting the outlives order.  For each one we assert the full paper
pipeline:

* the typechecker accepts it;
* it runs under full RTSJ dynamic checking without any check firing;
* removing the checks does not change its output (check elimination is
  semantics-preserving);
* validation mode observes no dangling reference.

A second strategy *mutates* a program with one deliberately
lifetime-violating store and asserts the dual: the typechecker rejects
it, and — run anyway — the RTSJ dynamic check catches exactly that store.
"""

from dataclasses import dataclass, field
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (IllegalAssignmentError, RunOptions, analyze,
                   run_source)
from repro.interp.machine import execute

HEADER = """
class Cell<Owner o> { int v; Cell<o> next; }
class Box<Owner a, Owner b> { Cell<b> item; }
"""

#: owner tokens ordered by lifetime: index 0 lives longest
def owner_tokens(depth: int) -> List[str]:
    return ["immortal", "heap"] + [f"r{i}" for i in range(depth)]


def outlives(tokens: List[str], a: str, b: str) -> bool:
    """Does a outlive b in the generated nesting?"""
    ia, ib = tokens.index(a), tokens.index(b)
    if a in ("heap", "immortal"):
        return True
    return ia <= ib


@dataclass
class ProgramSketch:
    depth: int
    ops: List[Tuple] = field(default_factory=list)
    cells: List[Tuple[str, str]] = field(default_factory=list)  # name,owner
    boxes: List[Tuple[str, str, str]] = field(default_factory=list)

    def emit(self, bad_store: bool = False) -> str:
        lines = [HEADER]
        indent = ""
        for i in range(self.depth):
            lines.append(f"{indent}(RHandle<r{i}> h{i}) {{")
            indent += "    "
        body: List[str] = []
        for op in self.ops:
            body.append(self._emit_op(op))
        if bad_store:
            body.append(self._emit_bad_store())
        for line in body:
            lines.append(indent + line)
        for i in reversed(range(self.depth)):
            indent = "    " * i
            lines.append(f"{indent}}}")
        return "\n".join(lines)

    def _emit_op(self, op) -> str:
        kind = op[0]
        if kind == "cell":
            _, name, owner, value = op
            return (f"Cell<{owner}> {name} = new Cell<{owner}>; "
                    f"{name}.v = {value};")
        if kind == "box":
            _, name, a, b = op
            return f"Box<{a}, {b}> {name} = new Box<{a}, {b}>;"
        if kind == "link":
            _, x, y = op
            return f"{x}.next = {y};"
        if kind == "put":
            _, box, cell = op
            return f"{box}.item = {cell};"
        if kind == "print":
            _, cell = op
            return f"print({cell}.v);"
        raise AssertionError(op)

    def _emit_bad_store(self) -> str:
        # a box in the oldest region receives a cell from the youngest:
        # statically ill-typed AND dynamically dangling
        old = "r0"
        young = f"r{self.depth - 1}"
        return (f"Box<{old}, {old}> badBox = new Box<{old}, {old}>; "
                f"Cell<{young}> badCell = new Cell<{young}>; "
                f"badBox.item = badCell;")


@st.composite
def program_sketches(draw) -> ProgramSketch:
    depth = draw(st.integers(min_value=1, max_value=3))
    tokens = owner_tokens(depth)
    sketch = ProgramSketch(depth)
    n_ops = draw(st.integers(min_value=1, max_value=10))
    for index in range(n_ops):
        choice = draw(st.integers(0, 4))
        if choice == 0 or not sketch.cells:
            owner = draw(st.sampled_from(tokens))
            name = f"c{index}"
            value = draw(st.integers(0, 99))
            sketch.ops.append(("cell", name, owner, value))
            sketch.cells.append((name, owner))
        elif choice == 1:
            # box whose item owner outlives the box owner
            a = draw(st.sampled_from(tokens))
            candidates = [t for t in tokens if outlives(tokens, t, a)]
            b = draw(st.sampled_from(candidates))
            name = f"b{index}"
            sketch.ops.append(("box", name, a, b))
            sketch.boxes.append((name, a, b))
        elif choice == 2 and len(sketch.cells) >= 2:
            # link two cells with the same owner
            by_owner = {}
            for name, owner in sketch.cells:
                by_owner.setdefault(owner, []).append(name)
            pools = [names for names in by_owner.values()
                     if len(names) >= 2]
            if pools:
                pool = draw(st.sampled_from(pools))
                x = draw(st.sampled_from(pool))
                y = draw(st.sampled_from(pool))
                sketch.ops.append(("link", x, y))
        elif choice == 3 and sketch.boxes:
            # store a compatible cell into a box
            pairs = [(bname, cname)
                     for bname, _a, b in sketch.boxes
                     for cname, cowner in sketch.cells if cowner == b]
            if pairs:
                box, cell = draw(st.sampled_from(pairs))
                sketch.ops.append(("put", box, cell))
        else:
            cell = draw(st.sampled_from(sketch.cells))[0]
            sketch.ops.append(("print", cell))
    return sketch


class TestWellTypedPrograms:
    @given(program_sketches())
    @settings(max_examples=40, deadline=None)
    def test_generated_programs_are_well_typed(self, sketch):
        analyzed = analyze(sketch.emit())
        assert not analyzed.errors, \
            (sketch.emit(), [str(e) for e in analyzed.errors])

    @given(program_sketches())
    @settings(max_examples=25, deadline=None)
    def test_checks_never_fire_and_elimination_is_sound(self, sketch):
        analyzed = analyze(sketch.emit())
        assert not analyzed.errors
        # dynamic checks on + validated: a failing check would raise
        dyn = run_source(analyzed, RunOptions(checks_enabled=True,
                                              validate=True))
        sta = run_source(analyzed, RunOptions(checks_enabled=False,
                                              validate=True))
        assert dyn.output == sta.output
        assert sta.cycles <= dyn.cycles


class TestMutatedPrograms:
    @given(program_sketches())
    @settings(max_examples=25, deadline=None)
    def test_lifetime_violations_rejected_and_caught(self, sketch):
        from hypothesis import assume
        assume(sketch.depth >= 2)  # the bad store needs two lifetimes
        source = sketch.emit(bad_store=True)
        analyzed = analyze(source)
        # the static system rejects the bad store ...
        assert analyzed.errors, source
        assert "SUBTYPE" in analyzed.error_rules()
        # ... and the RTSJ dynamic checks catch exactly the same store
        # when the program runs unchecked-by-types
        with pytest.raises(IllegalAssignmentError):
            run_source(analyzed, RunOptions(checks_enabled=True),
                       require_well_typed=False)


class TestBackendParity:
    """Differential testing of the erased Python form: for every
    generated well-typed program, ``execute(..., backend="py")`` runs
    the fused form and reproduces the interpreter's cycles, output and
    ``Stats.summary()``."""

    @staticmethod
    def _observe(analyzed, backend, checks, validate=False):
        result, machine = execute(analyzed, RunOptions(
            checks_enabled=checks, validate=validate, instrument=False,
            backend=backend))
        ran = machine.program.backend if machine.program else "interp"
        return ran, (result.stats.cycles, result.output,
                     result.stats.summary())

    @given(program_sketches())
    @settings(max_examples=25, deadline=None)
    def test_compiled_matches_interpreted(self, sketch):
        analyzed = analyze(sketch.emit())
        assert not analyzed.errors
        for checks in (False, True):
            ran, compiled = self._observe(analyzed, "py", checks)
            assert ran == "py-fused"
            _ran, interpreted = self._observe(analyzed, "interp", checks)
            assert compiled == interpreted

    @given(program_sketches())
    @settings(max_examples=15, deadline=None)
    def test_compiled_rtsj_build_never_trips_on_well_typed(self, sketch):
        analyzed = analyze(sketch.emit())
        assert not analyzed.errors
        # a failing check would make the fused form bail to a backend
        # that raises; validation also checks every access is live
        _ran, typed = self._observe(analyzed, "py", False)
        ran, checked = self._observe(analyzed, "py", True, validate=True)
        assert ran == "py-fused"
        assert typed[1] == checked[1]
