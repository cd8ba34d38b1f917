"""Faithful (generator) Python-source backend.

``compile_faithful`` emits one Python *generator* function per method
body that transliterates the interpreter's compiled closures statement
by statement: the same cycle costs in the same order (yielded to the
scheduler, which charges each one as the interpreter charges it in
place, so slices end at the same points), the same
:class:`~repro.interp.interpreter.Frame` objects on ``thread.frames``
(so GC roots are identical at every preemption point), the same
``frame.temps`` pinning discipline, and the same error sites with the
same messages.  Unlike the fused backend it therefore supports
``fork``/``RT fork`` — child threads run compiled method bodies on the
existing coroutine scheduler — and it never needs to bail: any
exception it raises is a *real* simulated failure handled by the
scheduler exactly as an interpreter run would be.

What it wins over the interpreter is the closure-dispatch overhead:
the builder-closure resume chain (one generator frame per nested
expression consumer) collapses into flat statement code inside a
single generator frame per *activation*, with cost constants baked
into the text.  What it deliberately keeps is everything observable:
``frame.vars`` dict lookups (runtime local-vs-field classification),
checked/unchecked field helpers bound on the interpreter, the scoped
region protocol, and the statement preamble (``stats.steps``/
``temps.clear()``).

The machine gate in :func:`~repro.interp.codegen_py.select_program`
applies here too (null observability sinks, no
recorder/faults/sanitizer/degrade), but the lowering *hazards* do not:
they describe what slot renaming cannot mirror, and this backend does
not rename.  The only program gate is the emitter itself — constructs
it does not cover (subregions, declared region kinds, ...) raise
:class:`CodegenUnsupported` during emission and the machine runs the
interpreter instead.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from ..errors import (InterpreterError, MemoryAccessError,
                      RealtimeViolationError)
from ..lang import ast
from ..source import Loc
from ..rtsj.objects import ObjRef, make_array
from ..rtsj.regions import LT, VT
from ..rtsj.threads import SimThread, YIELD
from .codegen_base import (CodegenUnsupported, SourceWriter, bake,
                           cost_key, mangle, memo)
from .interpreter import (Frame, _MISSING, _Return, _java_div, _java_mod,
                          _ref_eq, _restore)
from .lower import THIS, LoweredProgram, MethodUnit, lower
from .values import RegionHandle, format_value, region_of_owner

_ARRAY_CLASSES = ("IntArray", "FloatArray")

#: host objects the generated module closes over; ``LOCS`` is added
#: per emission (error messages embed real source positions)
_BASE_CTX: Dict[str, Any] = {
    "Frame": Frame,
    "Return": _Return,
    "MISSING": _MISSING,
    "ObjRef": ObjRef,
    "RegionHandle": RegionHandle,
    "make_array": make_array,
    "region_of_owner": region_of_owner,
    "format_value": format_value,
    "sqrt": math.sqrt,
    "java_div": _java_div,
    "java_mod": _java_mod,
    "ref_eq": _ref_eq,
    "restore": _restore,
    "InterpreterError": InterpreterError,
    "RealtimeViolationError": RealtimeViolationError,
    "MemoryAccessError": MemoryAccessError,
    "SimThread": SimThread,
    "YIELD": YIELD,
    "LT": LT,
    "VT": VT,
}

#: non-short-circuit binary operators (the interpreter's ``_BIN_OPS``
#: domain) -> emitted combining expression
_BIN_TEXT = {
    "+": "({l} + {r})",
    "-": "({l} - {r})",
    "*": "({l} * {r})",
    "<": "({l} < {r})",
    "<=": "({l} <= {r})",
    ">": "({l} > {r})",
    ">=": "({l} >= {r})",
    "/": "JDIV({l}, {r})",
    "%": "JMOD({l}, {r})",
    "==": "REFEQ({l}, {r})",
    "!=": "(not REFEQ({l}, {r}))",
}


def _fn_name(key: Tuple[str, str]) -> str:
    return f"g_{mangle(key[0])}__{mangle(key[1])}"


def _tuple_text(parts: List[str]) -> str:
    if not parts:
        return "()"
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


class _FaithfulEmitter:
    """Emits the whole program as one module of generator functions."""

    def __init__(self, lowered: LoweredProgram, active: bool,
                 cost: Any) -> None:
        self.low = lowered
        self.active = active          # checks.active: RT guards emitted
        self.c = cost
        self.w = SourceWriter()
        self.locs: List[Loc] = []
        self._loc_ix: Dict[Loc, int] = {}
        self.ntmp = 0

    # -- small helpers ---------------------------------------------------

    def tmp(self) -> str:
        self.ntmp += 1
        return f"_t{self.ntmp}"

    def lc(self, loc: Loc) -> str:
        ix = self._loc_ix.get(loc)
        if ix is None:
            ix = len(self.locs)
            self.locs.append(loc)
            self._loc_ix[loc] = ix
        return f"LC[{ix}]"

    def preamble(self) -> None:
        self.w.emit("ST.steps += 1")
        self.w.emit("F.temps.clear()")

    # -- operands (the interpreter's ``_operand`` inlining) --------------

    def operand_kind(self, e: ast.Expr) -> int:
        t = type(e)
        if t in (ast.IntLit, ast.FloatLit, ast.BoolLit, ast.NullLit):
            return 0
        if t is ast.VarRef:
            return 1
        if t is ast.ThisRef:
            return 2
        return 3

    def emit_operand(self, e: ast.Expr, rn: str) -> str:
        """Evaluate ``e`` exactly as an inlined operand (same yields and
        ``temps`` effects as the interpreter) and return the atom
        holding its value."""
        w = self.w
        t = type(e)
        if t in (ast.IntLit, ast.FloatLit, ast.BoolLit):
            return bake(e.value)
        if t is ast.NullLit:
            return "None"
        if t is ast.VarRef:
            v = self.tmp()
            w.emit(f"{v} = F.vars.get({bake(e.name)}, _MISS)")
            w.emit(f"if {v} is not _MISS:")
            w.indent()
            w.emit(f"yield {self.c.op_local}")
            w.dedent()
            w.emit("else:")
            w.indent()
            w.emit(f"{v} = yield from FR(F.this, {bake(e.name)}, T, "
                   f"{self.lc(e.loc)})")
            w.dedent()
            w.emit(f"if isinstance({v}, ObjRef):")
            w.indent()
            w.emit(f"F.temps.append({v})")
            w.dedent()
            return v
        if t is ast.ThisRef:
            v = self.tmp()
            w.emit(f"{v} = F.this")
            w.emit(f"if {v} is not None:")
            w.indent()
            w.emit(f"F.temps.append({v})")
            w.dedent()
            return v
        return self.emit_expr(e, rn)

    # -- owner names -----------------------------------------------------

    def owner_atom(self, name: str) -> str:
        """The interpreter's ``_owner_resolver``/``owner_value``: no
        yields, an ``InterpreterError`` for unbound names."""
        if name == "this":
            return "F.this"
        if name == "heap":
            return "HEAP"
        if name == "immortal":
            return "IMM"
        if name == "initialRegion":
            return "F.initial_region"
        w = self.w
        v = self.tmp()
        w.emit(f"{v} = F.owners.get({bake(name)}, _MISS)")
        w.emit(f"if {v} is _MISS:")
        w.indent()
        w.emit(f"raise InterpreterError({bake(f'owner {name!r} unbound at runtime')})")
        w.dedent()
        return v

    # -- expressions -----------------------------------------------------

    def emit_expr(self, e: ast.Expr, rn: str) -> str:
        t = type(e)
        if t in (ast.IntLit, ast.FloatLit, ast.BoolLit, ast.NullLit,
                 ast.VarRef, ast.ThisRef):
            return self.emit_operand(e, rn)
        if t is ast.Binary:
            return self.emit_binary(e, rn)
        if t is ast.Unary:
            return self.emit_unary(e, rn)
        if t is ast.FieldRead:
            return self.emit_field_read(e, rn)
        if t is ast.NewExpr:
            return self.emit_new(e, rn)
        if t is ast.Invoke:
            return self.emit_invoke(e, rn, preamble=False)
        if t is ast.BuiltinCall:
            return self.emit_builtin(e, rn, preamble=False)
        raise CodegenUnsupported(f"expression {type(e).__name__}")

    def emit_binary(self, e: ast.Binary, rn: str) -> str:
        w = self.w
        op = e.op
        if op == "&&":
            res = self.tmp()
            left = self.emit_operand(e.left, rn)
            w.emit(f"yield {self.c.op_basic}")
            w.emit(f"if {left}:")
            w.indent()
            right = self.emit_operand(e.right, rn)
            w.emit(f"{res} = bool({right})")
            w.dedent()
            w.emit("else:")
            w.indent()
            w.emit(f"{res} = False")
            w.dedent()
            return res
        if op == "||":
            res = self.tmp()
            left = self.emit_operand(e.left, rn)
            w.emit(f"yield {self.c.op_basic}")
            w.emit(f"if {left}:")
            w.indent()
            w.emit(f"{res} = True")
            w.dedent()
            w.emit("else:")
            w.indent()
            right = self.emit_operand(e.right, rn)
            w.emit(f"{res} = bool({right})")
            w.dedent()
            return res
        combine = _BIN_TEXT.get(op)
        if combine is None:
            raise CodegenUnsupported(f"operator {op!r}")
        left = self.emit_operand(e.left, rn)
        right = self.emit_operand(e.right, rn)
        w.emit(f"yield {self.c.op_basic}")
        res = self.tmp()
        w.emit(f"{res} = {combine.format(l=left, r=right)}")
        return res

    def emit_unary(self, e: ast.Unary, rn: str) -> str:
        w = self.w
        v = self.emit_operand(e.operand, rn)
        w.emit(f"yield {self.c.op_basic}")
        res = self.tmp()
        if e.op == "!":
            w.emit(f"{res} = (not {v})")
        else:
            w.emit(f"{res} = -{v}")
        return res

    def emit_field_read(self, e: ast.FieldRead, rn: str) -> str:
        w = self.w
        fname = bake(e.field_name)
        loc = self.lc(e.loc)
        res = self.tmp()
        target = e.target
        if isinstance(target, ast.VarRef) \
                and target.name in self.low.info.classes:
            # possibly a static read — decided at runtime, exactly as
            # the interpreter does (a local can shadow the class name)
            cls = bake(target.name)
            w.emit(f"if {cls} not in F.vars:")
            w.indent()
            w.emit(f"{res} = yield from SR({cls}, {fname}, T, {loc})")
            w.dedent()
            w.emit("else:")
            w.indent()
            recv = self.tmp()
            w.emit(f"{recv} = F.vars[{cls}]")
            w.emit(f"yield {self.c.op_local}")
            w.emit(f"if isinstance({recv}, ObjRef):")
            w.indent()
            w.emit(f"F.temps.append({recv})")
            w.dedent()
            w.emit(f"if isinstance({recv}, RegionHandle):")
            w.indent()
            w.emit(f"{res} = yield from PR({recv}.area, {fname}, T, "
                   f"{loc})")
            w.dedent()
            w.emit("else:")
            w.indent()
            w.emit(f"{res} = yield from FR({recv}, {fname}, T, {loc})")
            w.dedent()
            w.dedent()
        else:
            recv = self.emit_operand(target, rn)
            w.emit(f"if isinstance({recv}, RegionHandle):")
            w.indent()
            w.emit(f"{res} = yield from PR({recv}.area, {fname}, T, "
                   f"{loc})")
            w.dedent()
            w.emit("else:")
            w.indent()
            w.emit(f"{res} = yield from FR({recv}, {fname}, T, {loc})")
            w.dedent()
        w.emit(f"if isinstance({res}, ObjRef):")
        w.indent()
        w.emit(f"F.temps.append({res})")
        w.dedent()
        return res

    def emit_new(self, e: ast.NewExpr, rn: str) -> str:
        w = self.w
        c = self.c
        owners = [self.owner_atom(o.name) for o in e.owners]
        ov = self.tmp()
        w.emit(f"{ov} = {_tuple_text(owners)}")
        tg = self.tmp()
        w.emit(f"{tg} = region_of({ov}[0])")
        if self.active:
            w.emit("if T.realtime:")
            w.indent()
            w.emit(f"if {tg}.is_heap:")
            w.indent()
            w.emit("raise MemoryAccessError("
                   "'no-heap real-time thread allocated in the heap')")
            w.dedent()
            w.emit(f"if {tg}.policy == VT:")
            w.indent()
            w.emit('raise RealtimeViolationError(f"real-time thread '
                   f"allocated in a VT region '{{{tg}.name}}'\")")
            w.dedent()
            w.dedent()
        obj = self.tmp()
        if e.class_name in _ARRAY_CLASSES:
            if not e.args:
                raise CodegenUnsupported("array new without a length")
            ln = self.emit_operand(e.args[0], rn)
            w.emit(f"if {ln} < 0:")
            w.indent()
            w.emit(f'raise InterpreterError(f"negative array length '
                   f'{{{ln}}}")')
            w.dedent()
            w.emit(f"{obj} = make_array({bake(e.class_name)}, {ov}, "
                   f"{tg}, {ln})")
        else:
            layout = self.low.layouts.get(e.class_name)
            if layout is None:
                raise CodegenUnsupported(
                    f"no layout for class {e.class_name!r}")
            names = _tuple_text([bake(n) for n, _ in layout])
            w.emit(f"{obj} = ObjRef({bake(e.class_name)}, {ov}, "
                   f"{names}, {tg})")
            inits = [(n, init) for n, init in layout if init is not None]
            if inits:
                fl = self.tmp()
                w.emit(f"{fl} = {obj}.fields")
                for n, init in inits:
                    w.emit(f"{fl}[{bake(n)}] = {bake(init)}")
        fresh = self.tmp()
        w.emit(f"{fresh} = {tg}.allocate({obj})")
        sz = self.tmp()
        w.emit(f"{sz} = {obj}.size_bytes")
        cy = self.tmp()
        w.emit(f"{cy} = {c.alloc_base} + {c.alloc_per_byte} * {sz}")
        w.emit(f"if {tg}.policy == VT:")
        w.indent()
        w.emit(f"{cy} += {c.vt_alloc_extra} + {c.vt_chunk_cost} * {fresh}")
        w.dedent()
        w.emit(f"if {tg}.is_heap:")
        w.indent()
        w.emit(f"{cy} += {c.heap_alloc_extra}")
        w.emit(f"if {tg}.bytes_used > ST.peak_heap_bytes:")
        w.indent()
        w.emit(f"ST.peak_heap_bytes = {tg}.bytes_used")
        w.dedent()
        w.dedent()
        w.emit("ST.allocations += 1")
        w.emit(f"ST.bytes_allocated += {sz}")
        w.emit(f"ST.alloc_cycles += {cy}")
        # pin before yielding the allocation cost (GC at the preemption
        # point must see the newborn object) — interpreter order
        w.emit(f"F.temps.append({obj})")
        w.emit(f"yield {cy}")
        return obj

    def emit_invoke(self, e: ast.Invoke, rn: str,
                    preamble: bool) -> str:
        w = self.w
        if preamble:
            self.preamble()
        recv = self.emit_operand(e.target, rn)
        obj = self.tmp()
        what = f"call '{e.method_name}'"
        w.emit(f"{obj} = REQ({recv}, {self.lc(e.loc)}, {bake(what)})")
        owners = [self.owner_atom(o.name) for o in e.owner_args]
        args = [self.emit_operand(a, rn) for a in e.args]
        fact = self._invoke_fact(e)
        res = self.tmp()
        if fact[0] == "native":
            op = fact[1]
            st = self.tmp()
            w.emit(f"{st} = {obj}.fields['__storage__']")
            if op == "get":
                if len(args) < 1:
                    raise CodegenUnsupported("array get arity")
                w.emit(f"yield {self.c.op_field_read}")
                vl = self.tmp()
                w.emit(f"{vl} = {st}.values")
                ix = self.tmp()
                w.emit(f"{ix} = {args[0]}")
                w.emit(f"if 0 <= {ix} < len({vl}):")
                w.indent()
                w.emit(f"{res} = {vl}[{ix}]")
                w.dedent()
                w.emit("else:")
                w.indent()
                w.emit(f'raise InterpreterError(f"array index {{{ix}}} '
                       f'out of bounds (length {{len({vl})}})")')
                w.dedent()
            elif op == "set":
                if len(args) < 2:
                    raise CodegenUnsupported("array set arity")
                w.emit(f"yield {self.c.op_field_write}")
                ix = self.tmp()
                w.emit(f"{ix} = {args[0]}")
                vl = self.tmp()
                w.emit(f"{vl} = {st}.values")
                w.emit(f"if not 0 <= {ix} < len({vl}):")
                w.indent()
                w.emit(f'raise InterpreterError(f"array index {{{ix}}} '
                       f'out of bounds (length {{len({vl})}})")')
                w.dedent()
                w.emit(f"{vl}[{ix}] = {args[1]}")
                w.emit(f"{res} = None")
            elif op == "length":
                w.emit(f"yield {self.c.op_basic}")
                w.emit(f"{res} = len({st}.values)")
            else:
                raise CodegenUnsupported(f"native {op!r}")
        else:
            w.emit(f"yield {self.c.op_invoke}")
            ovt = _tuple_text(owners)
            argt = _tuple_text(args)
            fn = self.tmp()
            meth = bake(e.method_name)
            w.emit(f"{fn} = CALLS.get(({obj}.class_name, {meth}))")
            w.emit(f"if {fn} is None:")
            w.indent()
            w.emit(f"{res} = yield from CM({obj}, {meth}, {ovt}, "
                   f"{argt}, {rn}, T)")
            w.dedent()
            w.emit("else:")
            w.indent()
            w.emit(f"{res} = yield from {fn}({obj}, {ovt}, {argt}, "
                   f"{rn}, T)")
            w.dedent()
        w.emit(f"if isinstance({res}, ObjRef):")
        w.indent()
        w.emit(f"F.temps.append({res})")
        w.dedent()
        return res

    def _invoke_fact(self, e: ast.Invoke) -> Tuple[Any, ...]:
        for unit in self.low.units.values():
            fact = unit.facts.invokes.get(id(e))
            if fact is not None:
                return fact
        raise CodegenUnsupported("invoke without lowering facts")

    def emit_builtin(self, e: ast.BuiltinCall, rn: str,
                     preamble: bool) -> str:
        w = self.w
        c = self.c
        name = e.name
        if preamble:
            self.preamble()
        specialized = name in ("print", "io", "sqrt", "itof", "ftoi",
                               "check") and len(e.args) == 1
        res = self.tmp()
        if specialized:
            v = self.emit_operand(e.args[0], rn)
            if name == "print":
                w.emit(f"yield {c.op_builtin}")
                w.emit(f"OUT.append(format_value({v}))")
                w.emit(f"{res} = None")
            elif name == "io":
                cyv = self.tmp()
                w.emit(f"{cyv} = {c.op_builtin} + max(int({v}), 0)")
                w.emit(f"ST.io_cycles += {cyv}")
                w.emit(f"yield {cyv}")
                w.emit(f"{res} = int({v})")
            elif name == "sqrt":
                w.emit(f"yield {c.op_builtin}")
                w.emit(f"if {v} < 0:")
                w.indent()
                w.emit(f'raise InterpreterError(f"sqrt of negative '
                       f'{{{v}}}")')
                w.dedent()
                w.emit(f"{res} = _sqrt({v})")
            elif name == "itof":
                w.emit(f"yield {c.op_basic}")
                w.emit(f"{res} = float({v})")
            elif name == "ftoi":
                w.emit(f"yield {c.op_basic}")
                w.emit(f"{res} = int({v})")
            else:  # check
                w.emit(f"yield {c.op_basic}")
                w.emit(f"if not {v}:")
                w.indent()
                msg = f"program assertion failed at {e.span}"
                w.emit(f"raise InterpreterError({bake(msg)})")
                w.dedent()
                w.emit(f"{res} = None")
            return res
        if name == "yieldnow" and not e.args:
            w.emit(f"ST.thread_cycles += {c.thread_yield}")
            w.emit(f"yield {c.thread_yield}")
            w.emit("yield YIELD")
            w.emit(f"{res} = None")
            return res
        # generic fallback, transliterating the interpreter's: evaluate
        # every argument in order, then apply by name
        atoms = [self.emit_expr(a, rn) for a in e.args]
        ar = self.tmp()
        w.emit(f"{ar} = [{', '.join(atoms)}]")
        if name == "print":
            w.emit(f"yield {c.op_builtin}")
            w.emit(f"OUT.append(format_value({ar}[0]))")
            w.emit(f"{res} = None")
        elif name == "io":
            cyv = self.tmp()
            w.emit(f"{cyv} = {c.op_builtin} + max(int({ar}[0]), 0)")
            w.emit(f"ST.io_cycles += {cyv}")
            w.emit(f"yield {cyv}")
            w.emit(f"{res} = int({ar}[0])")
        elif name == "yieldnow":
            w.emit(f"ST.thread_cycles += {c.thread_yield}")
            w.emit(f"yield {c.thread_yield}")
            w.emit("yield YIELD")
            w.emit(f"{res} = None")
        elif name == "sqrt":
            w.emit(f"yield {c.op_builtin}")
            w.emit(f"if {ar}[0] < 0:")
            w.indent()
            w.emit(f'raise InterpreterError(f"sqrt of negative '
                   f'{{{ar}[0]}}")')
            w.dedent()
            w.emit(f"{res} = _sqrt({ar}[0])")
        elif name == "itof":
            w.emit(f"yield {c.op_basic}")
            w.emit(f"{res} = float({ar}[0])")
        elif name == "ftoi":
            w.emit(f"yield {c.op_basic}")
            w.emit(f"{res} = int({ar}[0])")
        elif name == "check":
            w.emit(f"yield {c.op_basic}")
            w.emit(f"if not {ar}[0]:")
            w.indent()
            msg = f"program assertion failed at {e.span}"
            w.emit(f"raise InterpreterError({bake(msg)})")
            w.dedent()
            w.emit(f"{res} = None")
        else:
            w.emit(f"raise InterpreterError({bake(f'unknown builtin {name!r}')})")
            w.emit(f"{res} = None")
        return res

    # -- statements ------------------------------------------------------

    def emit_block(self, block: ast.Block, rn: str) -> None:
        if not block.stmts:
            self.w.emit("pass")
            return
        for s in block.stmts:
            self.stmt(s, rn)

    def stmt(self, s: ast.Stmt, rn: str) -> None:
        w = self.w
        c = self.c
        t = type(s)
        if t is ast.LocalDecl:
            self.preamble()
            if s.init is None:
                w.emit(f"yield {c.op_local}")
                w.emit(f"F.vars[{bake(s.name)}] = None")
            else:
                v = self.emit_operand(s.init, rn)
                w.emit(f"yield {c.op_local}")
                w.emit(f"F.vars[{bake(s.name)}] = {v}")
            return
        if t is ast.AssignLocal:
            self.preamble()
            v = self.emit_operand(s.value, rn)
            w.emit(f"if {bake(s.name)} in F.vars:")
            w.indent()
            w.emit(f"yield {c.op_local}")
            w.emit(f"F.vars[{bake(s.name)}] = {v}")
            w.dedent()
            w.emit("else:")
            w.indent()
            w.emit(f"yield from FW(F.this, {bake(s.name)}, {v}, T, "
                   f"{self.lc(s.loc)})")
            w.dedent()
            return
        if t is ast.AssignField:
            self.emit_assign_field(s, rn)
            return
        if t is ast.ExprStmt:
            e = s.expr
            if type(e) is ast.Invoke:
                self.emit_invoke(e, rn, preamble=True)
            elif type(e) is ast.BuiltinCall:
                self.emit_builtin(e, rn, preamble=True)
            else:
                self.preamble()
                self.emit_expr(e, rn)
            return
        if t is ast.If:
            self.emit_if(s, rn)
            return
        if t is ast.While:
            self.emit_while(s, rn)
            return
        if t is ast.Return:
            self.preamble()
            v = self.emit_operand(s.value, rn) \
                if s.value is not None else "None"
            w.emit(f"yield {c.op_return}")
            w.emit(f"raise _Return({v})")
            return
        if t is ast.Block:
            self.preamble()
            for inner in s.stmts:
                self.stmt(inner, rn)
            return
        if t is ast.RegionStmt:
            self.emit_region(s, rn)
            return
        if t is ast.Fork:
            self.emit_fork(s, rn)
            return
        raise CodegenUnsupported(f"statement {type(s).__name__}")

    def emit_assign_field(self, s: ast.AssignField, rn: str) -> None:
        w = self.w
        fname = bake(s.field_name)
        loc = self.lc(s.loc)
        self.preamble()
        v = self.emit_operand(s.value, rn)
        target = s.target
        if isinstance(target, ast.VarRef) \
                and target.name in self.low.info.classes:
            cls = bake(target.name)
            w.emit(f"if {cls} not in F.vars:")
            w.indent()
            w.emit(f"yield from SW({cls}, {fname}, {v}, T, {loc})")
            w.dedent()
            w.emit("else:")
            w.indent()
            recv = self.tmp()
            w.emit(f"{recv} = F.vars[{cls}]")
            w.emit(f"yield {self.c.op_local}")
            w.emit(f"if isinstance({recv}, ObjRef):")
            w.indent()
            w.emit(f"F.temps.append({recv})")
            w.dedent()
            w.emit(f"if isinstance({recv}, RegionHandle):")
            w.indent()
            w.emit(f"yield from PW({recv}.area, {fname}, {v}, T, {loc})")
            w.dedent()
            w.emit("else:")
            w.indent()
            w.emit(f"yield from FW({recv}, {fname}, {v}, T, {loc})")
            w.dedent()
            w.dedent()
            return
        recv = self.emit_operand(target, rn)
        w.emit(f"if isinstance({recv}, RegionHandle):")
        w.indent()
        w.emit(f"yield from PW({recv}.area, {fname}, {v}, T, {loc})")
        w.dedent()
        w.emit("else:")
        w.indent()
        w.emit(f"yield from FW({recv}, {fname}, {v}, T, {loc})")
        w.dedent()

    def _flat_cond(self, cond: ast.Expr) -> Optional[ast.Binary]:
        if type(cond) is not ast.Binary or cond.op not in _BIN_TEXT:
            return None
        if self.operand_kind(cond.left) == 3 \
                or self.operand_kind(cond.right) == 3:
            return None
        return cond

    def emit_if(self, s: ast.If, rn: str) -> None:
        w = self.w
        self.preamble()
        cv = self._emit_cond(s.cond, rn)
        w.emit(f"if {cv}:")
        w.indent()
        self.emit_block(s.then_body, rn)
        w.dedent()
        if s.else_body is not None:
            w.emit("else:")
            w.indent()
            self.emit_block(s.else_body, rn)
            w.dedent()

    def emit_while(self, s: ast.While, rn: str) -> None:
        w = self.w
        self.preamble()
        w.emit("while True:")
        w.indent()
        cv = self._emit_cond(s.cond, rn)
        w.emit(f"if not {cv}:")
        w.indent()
        w.emit("break")
        w.dedent()
        self.emit_block(s.body, rn)
        w.dedent()

    def _emit_cond(self, cond: ast.Expr, rn: str) -> str:
        """Condition value with the interpreter's exact charging: a flat
        binary fuses (operands + op_basic + op_branch), anything else
        evaluates as a full expression then charges op_branch."""
        w = self.w
        flat = self._flat_cond(cond)
        if flat is not None:
            left = self.emit_operand(flat.left, rn)
            right = self.emit_operand(flat.right, rn)
            w.emit(f"yield {self.c.op_basic}")
            cv = self.tmp()
            w.emit(f"{cv} = {_BIN_TEXT[flat.op].format(l=left, r=right)}")
        else:
            cv = self.emit_expr(cond, rn)
        w.emit(f"yield {self.c.op_branch}")
        return cv

    def emit_region(self, s: ast.RegionStmt, rn: str) -> None:
        w = self.w
        c = self.c
        kind_name = s.kind.name if s.kind is not None else "LocalRegion"
        if kind_name in self.low.info.region_kinds \
                or kind_name == "SharedRegion":
            raise CodegenUnsupported("shared region")
        policy = "LT" if (s.policy is not None
                          and s.policy.kind == "LT") else "VT"
        budget = s.policy.size if s.policy is not None else 0
        self.preamble()
        if self.active:
            w.emit("if T.realtime:")
            w.indent()
            msg = ("real-time thread attempted to create a region "
                   f"'{s.region_name}'")
            w.emit(f"raise RealtimeViolationError({bake(msg)})")
            w.dedent()
        anc = self.tmp()
        w.emit(f"{anc} = set({rn}.ancestor_ids)")
        w.emit(f"{anc}.add({rn}.area_id)")
        w.emit("for _sh in T.shared_stack:")
        w.indent()
        w.emit(f"{anc} |= _sh.ancestor_ids")
        w.emit(f"{anc}.add(_sh.area_id)")
        w.dedent()
        area = self.tmp()
        cy = self.tmp()
        w.emit(f"{area}, {cy} = CREATE({bake(s.region_name)}, "
               f"{bake(kind_name)}, {policy}, {budget}, {anc}, None, "
               "False, T)")
        w.emit(f"ST.region_cycles += {cy}")
        w.emit(f"yield {cy}")
        sv_o = self.tmp()
        sv_v = self.tmp()
        w.emit(f"{sv_o} = F.owners.get({bake(s.region_name)})")
        w.emit(f"{sv_v} = F.vars.get({bake(s.handle_name)})")
        w.emit(f"F.owners[{bake(s.region_name)}] = {area}")
        w.emit(f"F.vars[{bake(s.handle_name)}] = RegionHandle({area})")
        w.emit("try:")
        w.indent()
        self.emit_block(s.body, area)
        w.dedent()
        w.emit("finally:")
        w.indent()
        # charged directly: yielding inside a finally would break
        # generator close semantics (interpreter does the same)
        w.emit(f"CD(T, {c.region_exit})")
        w.emit(f"ST.region_cycles += {c.region_exit}")
        w.emit(f"ST.objects_freed += {area}.destroy(T.name)")
        w.emit(f"RESTORE(F.owners, {bake(s.region_name)}, {sv_o})")
        w.emit(f"RESTORE(F.vars, {bake(s.handle_name)}, {sv_v})")
        w.dedent()

    def emit_fork(self, s: ast.Fork, rn: str) -> None:
        w = self.w
        c = self.c
        call = s.call
        self.preamble()
        recv = self.emit_expr(call.target, rn)
        obj = self.tmp()
        w.emit(f"{obj} = REQ({recv}, {self.lc(s.loc)}, 'fork')")
        owners = [self.owner_atom(o.name) for o in call.owner_args]
        ar = self.tmp()
        w.emit(f"{ar} = []")
        for a in call.args:
            v = self.emit_expr(a, rn)
            w.emit(f"{ar}.append({v})")
        if s.realtime and self.active:
            w.emit(f"for _rv in [{obj}] + {ar}:")
            w.indent()
            w.emit("if isinstance(_rv, ObjRef) and _rv.area.is_heap:")
            w.indent()
            w.emit('raise MemoryAccessError(f"RT fork passed a heap '
                   'reference {_rv!r} to a no-heap real-time thread")')
            w.dedent()
            w.dedent()
        w.emit(f"yield {c.thread_spawn}")
        w.emit(f"ST.thread_cycles += {c.thread_spawn}")
        nm = self.tmp()
        prefix = "rt-thread-" if s.realtime else "thread-"
        w.emit(f"{nm} = {bake(prefix)} + str(len(SCHED.threads))")
        ch = self.tmp()
        w.emit(f"{ch} = SimThread(name={nm}, coroutine=iter(()), "
               f"realtime={bake(bool(s.realtime))})")
        w.emit(f"{ch}.coroutine = _tco({ch}, {obj}, "
               f"{bake(call.method_name)}, {_tuple_text(owners)}, "
               f"tuple({ar}), {rn})")
        # the child inherits the parent's shared regions (Section 2.2)
        w.emit("for _sh in T.shared_stack:")
        w.indent()
        w.emit("_sh.thread_count += 1")
        w.emit(f"{ch}.shared_stack.append(_sh)")
        w.dedent()
        w.emit(f"SCHED.spawn({ch})")

    # -- units and module ------------------------------------------------

    def emit_unit(self, unit: MethodUnit) -> None:
        w = self.w
        if unit.is_main:
            w.emit("def _main(T):")
            w.indent()
            w.emit("if False:")
            w.indent()
            w.emit("yield")
            w.dedent()
            w.emit("F = Frame(None, {}, HEAP)")
            w.emit("T.frames.append(F)")
            w.emit("try:")
            w.indent()
            self.emit_block(unit.body, "HEAP")
            w.dedent()
            w.emit("except _Return:")
            w.indent()
            w.emit("pass")
            w.dedent()
            w.emit("finally:")
            w.indent()
            w.emit("T.frames.pop()")
            w.dedent()
            w.dedent()
            w.emit("")
            return
        w.emit(f"def {_fn_name(unit.key)}(S, CO, OV, A, R, T):")
        w.indent()
        w.emit("if False:")
        w.indent()
        w.emit("yield")
        w.dedent()
        formals = ", ".join(
            f"{bake(name)}: CO[{i}]"
            for i, name in enumerate(unit.class_formals))
        w.emit(f"F = Frame(S, {{{formals}}}, R)")
        if unit.owner_formals:
            w.emit("if OV:")
            w.indent()
            of = _tuple_text([bake(n) for n in unit.owner_formals])
            w.emit(f"F.owners.update(zip({of}, OV))")
            w.dedent()
        if unit.param_names:
            w.emit("if A:")
            w.indent()
            pn = _tuple_text([bake(n) for n in unit.param_names])
            w.emit(f"F.vars.update(zip({pn}, A))")
            w.dedent()
        w.emit("T.frames.append(F)")
        w.emit("try:")
        w.indent()
        self.emit_block(unit.body, "R")
        w.dedent()
        w.emit("except _Return as _rv:")
        w.indent()
        w.emit("return _rv.value")
        w.dedent()
        w.emit("finally:")
        w.indent()
        w.emit("T.frames.pop()")
        w.dedent()
        w.emit(f"return {bake(unit.default)}")
        w.dedent()
        w.emit("")

    def emit_dispatch(self) -> None:
        """The interpreter's call-entry cache, precomputed: CALLS maps a
        runtime ``(class_name, method)`` to a wrapper that rebuilds the
        defining class's owner tuple and calls its compiled body."""
        w = self.w
        w.emit("CALLS = {}")
        n = 0
        for key in sorted(self.low.call_table):
            entry = self.low.call_table[key]
            if entry.native is not None:
                continue
            impl_key = (entry.impl_class, key[1])
            if impl_key not in self.low.units:
                continue
            n += 1
            dname = f"_d{n}"
            w.emit(f"def {dname}(o, ov, a, r, t):")
            w.indent()
            if entry.selectors is None:
                sel = "o.owners"
            else:
                parts = []
                for s in entry.selectors:
                    if s is THIS:
                        parts.append("o")
                    elif isinstance(s, int):
                        parts.append(f"o.owners[{s}]")
                    elif s == "heap":
                        parts.append("HEAP")
                    elif s == "immortal":
                        parts.append("IMM")
                    else:
                        raise CodegenUnsupported(f"selector {s!r}")
                sel = _tuple_text(parts)
            w.emit(f"return {_fn_name(impl_key)}(o, {sel}, ov, a, r, t)")
            w.dedent()
            w.emit(f"CALLS[({bake(key[0])}, {bake(key[1])})] = {dname}")
        w.emit("")

    def emit_module(self) -> str:
        w = self.w
        w.emit("# generated by repro.interp.codegen_py_faithful")
        w.emit("def make(ctx):")
        w.indent()
        for alias, key in (
                ("Frame", "Frame"), ("_Return", "Return"),
                ("_MISS", "MISSING"), ("ObjRef", "ObjRef"),
                ("RegionHandle", "RegionHandle"),
                ("make_array", "make_array"),
                ("region_of", "region_of_owner"),
                ("format_value", "format_value"), ("_sqrt", "sqrt"),
                ("JDIV", "java_div"), ("JMOD", "java_mod"),
                ("REFEQ", "ref_eq"), ("RESTORE", "restore"),
                ("InterpreterError", "InterpreterError"),
                ("RealtimeViolationError", "RealtimeViolationError"),
                ("MemoryAccessError", "MemoryAccessError"),
                ("SimThread", "SimThread"), ("YIELD", "YIELD"),
                ("LT", "LT"), ("VT", "VT"), ("LC", "LOCS")):
            w.emit(f"{alias} = ctx[{bake(key)}]")
        w.emit("def bind(M):")
        w.indent()
        w.emit("I = M.interpreter")
        w.emit("ST = M.stats")
        w.emit("OUT = M.output")
        w.emit("HEAP = M.regions.heap")
        w.emit("IMM = M.regions.immortal")
        w.emit("SCHED = M.scheduler")
        w.emit("FR = I._field_read")
        w.emit("FW = I._field_write")
        w.emit("PR = I._portal_read")
        w.emit("PW = I._portal_write")
        w.emit("SR = I._static_read")
        w.emit("SW = I._static_write")
        w.emit("REQ = I._require_object")
        w.emit("CREATE = I._create_area")
        w.emit("CM = I.call_method")
        w.emit("TCO = I.thread_coroutine")
        w.emit("CD = M.charge_direct")
        w.emit("")
        units = sorted(self.low.units.values(),
                       key=lambda u: (u.is_main, u.key))
        for unit in units:
            self.emit_unit(unit)
        self.emit_dispatch()
        w.emit("def _tco(child, obj, meth, ov, args, region):")
        w.indent()
        w.emit("fn = CALLS.get((obj.class_name, meth))")
        w.emit("if fn is None:")
        w.indent()
        w.emit("return TCO(child, obj, meth, ov, args, region)")
        w.dedent()
        w.emit("return fn(obj, ov, args, region, child)")
        w.dedent()
        w.emit("return _main")
        w.dedent()
        w.emit("return bind")
        w.dedent()
        return w.source()


def _faithful_bind(analyzed: Any, lowered: LoweredProgram, active: bool,
                   cost: Any) -> Any:
    def build() -> Any:
        emitter = _FaithfulEmitter(lowered, active, cost)
        src = emitter.emit_module()
        ns: Dict[str, Any] = {}
        exec(compile(src, "<repro-faithful>", "exec"), ns)
        ctx = dict(_BASE_CTX)
        ctx["LOCS"] = tuple(emitter.locs)
        return ns.pop("make")(ctx)  # acyclic: see codegen_py._fused_bind
    return memo(analyzed, ("py-faithful", bool(active), cost_key(cost)),
                build)


def compile_faithful(machine: Any) -> Any:
    """Compile ``machine``'s program for faithful generator execution,
    or raise :class:`CodegenUnsupported` with the reason.  Callers go
    through :func:`~repro.interp.codegen_py.select_program`, which has
    already applied the machine gate."""
    from .codegen_py import PyProgram
    analyzed = machine.analyzed
    # no hazard pre-filter: lowering hazards describe what the *fused*
    # slot-renaming backend cannot mirror; the faithful emitter keeps
    # the interpreter's runtime name/owner semantics, so its only gate
    # is the emitter itself (CodegenUnsupported during emission)
    lowered = lower(analyzed)
    bind = _faithful_bind(analyzed, lowered, machine.checks.active,
                          machine.cost_model)
    return PyProgram("py-faithful", "interp", bind(machine))
