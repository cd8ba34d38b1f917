"""Straight-line (fused) Python-source backend.

``compile_fused`` turns a lowered, hazard-free program into one flat
Python function per method body.  Simulated cycles become *integer
arithmetic on a local* (``cy``) instead of a stream of generator
yields; the whole run commits through a single mega-yield, so the
scheduler round-robin, the generator resume chain, and the per-yield
bookkeeping all disappear from the hot path.  Dynamic checks are
*erased at emit time*: when ``checks_enabled`` is off and the value's
static type is primitive, no check code is generated at all.

Exactness contract
------------------

The fused program must be **observably byte-identical** to the
interpreter — cycles, output, and every ``Stats.summary()`` counter —
or it must not run at all.  The second half of that sentence is the
load-bearing one: fused code *bails* (raises :class:`_Bail`, or any
host exception — both are caught by the coroutine wrapper) whenever it
meets a condition whose exact interpreter behaviour it cannot
reproduce straight-line:

* a simulated failure (null deref, bounds, LT overflow, division by
  zero, a failed ``check``, an illegal assignment) — the interpreter
  reports these with mid-run timing the fused form does not track;
* the run crossing ``max_cycles`` (checked conservatively at loop
  heads and exactly after the run: the scheduler only raises
  ``DeadlockError`` when a *round starts* beyond the limit, so a
  program that finishes within its final slice is a success even past
  the limit — ``ST.cycles + CY[0] > MAXC`` reproduces that exactly);
* the heap crossing the GC trigger (``bytes_used`` is monotone without
  a collection, so a final reading below the trigger proves the
  interpreter never ran a mid-program GC).

On bail the orchestrator (``machine.execute``) discards the machine
and reruns on a fresh one with the *faithful* generator backend, which
reproduces the interpreter charge for charge, with the same preemption
points.  Bailing is therefore always safe — a spurious bail costs wall
clock, never correctness.

Eligibility is decided once per machine, before anything is lowered,
by the machine gate in :func:`select_program` — a well-typed program
with a main block, null instrumentation sinks, no recorder, faults,
sanitizer, or degrade mode, and no user ``regionKind`` shadowing the
built-in kinds — and then per form: the fused form also needs no
hazards from lowering.  ``repro bench`` (``instrument=False``)
qualifies; a default ``repro run`` (instrumented) runs the
interpreter.

Known host-level divergence (documented in docs/PERFORMANCE.md): deep
simulated recursion consumes one host frame per call in every backend,
but the exact depth at which the host raises ``RecursionError``
differs between the interpreter's generator chain and compiled code.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from ..core.types import BOOLEAN, FLOAT, INT
from ..lang import ast
from ..rtsj.objects import ObjRef, make_array
from ..rtsj.regions import LT, VT
from ..rtsj.stats import CostModel
from .codegen_base import (CodegenUnsupported, SourceWriter, bake,
                           cost_key, mangle, memo)
from .lower import THIS, LoweredProgram, MethodUnit, lower
from .values import RegionHandle, format_value


class _Bail(Exception):
    """Fused execution met a condition it cannot reproduce exactly."""


_PRIMS = (INT, FLOAT, BOOLEAN)

_MAIN_KEY = ("", "<main>")

#: host objects the generated module closes over (never re-created, so
#: ``isinstance`` in generated code agrees with the rest of the system)
_CTX: Dict[str, Any] = {
    "Bail": _Bail,
    "ObjRef": ObjRef,
    "make_array": make_array,
    "format_value": format_value,
    "RegionHandle": RegionHandle,
    "sqrt": math.sqrt,
    "LT": LT,
    "VT": VT,
}


class PyProgram:
    """A compiled program bound to one :class:`~repro.interp.machine.
    Machine`: ``main_coroutine`` is a drop-in replacement for the
    interpreter's."""

    __slots__ = ("backend", "fallback_backend", "_factory")

    def __init__(self, backend: str, fallback_backend: str,
                 factory: Any) -> None:
        self.backend = backend
        #: backend ``machine.execute`` reruns with when this one bails
        self.fallback_backend = fallback_backend
        self._factory = factory

    def main_coroutine(self, thread: Any) -> Any:
        return self._factory(thread)


class _Fn:
    """Mutable emit state for one function body."""

    __slots__ = ("unit", "facts", "pend_cy", "pend_sp", "ntmp",
                 "regions", "cur_region")

    def __init__(self, unit: MethodUnit) -> None:
        self.unit = unit
        self.facts = unit.facts
        self.pend_cy = 0          # compile-time-constant cycles not yet emitted
        self.pend_sp = 0          # statement steps not yet emitted
        self.ntmp = 0
        self.regions: List[str] = []   # open region area vars, outer first
        self.cur_region = "HEAP" if unit.is_main else "R"

    def tmp(self) -> str:
        self.ntmp += 1
        return f"_t{self.ntmp}"


def _fn_name(key: Tuple[str, str]) -> str:
    return f"f_{mangle(key[0])}__{mangle(key[1])}"


class _FusedEmitter:
    """Emits the whole program as one Python module (see module
    docstring for the charging discipline)."""

    def __init__(self, lowered: LoweredProgram, checks_enabled: bool,
                 validate: bool, cost: Any) -> None:
        self.low = lowered
        self.enabled = checks_enabled
        self.validate = validate
        self.c = cost
        self.w = SourceWriter()

    # -- plumbing --------------------------------------------------------

    def flush(self, fn: _Fn) -> None:
        if fn.pend_cy:
            self.w.emit(f"cy += {fn.pend_cy}")
            fn.pend_cy = 0
        if fn.pend_sp:
            self.w.emit(f"sp += {fn.pend_sp}")
            fn.pend_sp = 0

    def _maybe_ref(self, t: Optional[Any]) -> bool:
        """Could a value of static type ``t`` be an ObjRef at runtime?
        ``None`` (unknown / null literal) must answer yes."""
        return not (t == INT or t == FLOAT or t == BOOLEAN)

    def _type(self, expr: ast.Expr, fn: _Fn) -> Optional[Any]:
        return fn.facts.types.get(id(expr))

    # -- owner descriptors ----------------------------------------------

    def owner_atom(self, fn: _Fn, desc: Tuple[Any, ...]) -> str:
        """The owner *value* the interpreter's resolver would produce."""
        kind = desc[0]
        if kind == "this":
            return "S"
        if kind == "heap":
            return "HEAP"
        if kind == "immortal":
            return "IMM"
        if kind == "initial":
            return "HEAP" if fn.unit.is_main else "R"
        if kind == "cformal":
            return f"CO[{desc[1]}]"
        if kind == "mformal":
            try:
                idx = fn.unit.owner_formals.index(desc[1])
            except ValueError:
                raise CodegenUnsupported(f"unknown owner formal {desc[1]!r}")
            return f"OV[{idx}]"
        if kind == "region":
            return desc[1]
        raise CodegenUnsupported(f"owner descriptor {desc!r}")

    def target_atom(self, fn: _Fn, desc: Tuple[Any, ...]) -> str:
        """``region_of_owner(first owner)`` — the allocation target."""
        kind = desc[0]
        if kind == "this":
            return "S.area"
        if kind in ("heap", "immortal", "initial", "region"):
            return self.owner_atom(fn, desc)
        if kind in ("cformal", "mformal"):
            return f"_roo({self.owner_atom(fn, desc)})"
        raise CodegenUnsupported(f"owner descriptor {desc!r}")

    def _owner_tuple(self, exprs: List[str]) -> str:
        if not exprs:
            return "()"
        return "(" + ", ".join(exprs) + ",)"

    # -- field access ----------------------------------------------------

    def field_get(self, fn: _Fn, recv: str, fname: str) -> str:
        # checked and unchecked reads both charge c_field_read; the
        # no-heap read check returns 0 for non-realtime threads (fused
        # runs are single-threaded main), so it is elided entirely
        fn.pend_cy += self.c.op_field_read
        t = fn.tmp()
        self.w.emit(f"{t} = _rq({recv}).fields[{fname!r}]")
        return t

    def field_put(self, fn: _Fn, recv: str, fname: str, value: str,
                  vtype: Optional[Any], line: int) -> None:
        w = self.w
        o = fn.tmp()
        w.emit(f"{o} = _rq({recv})")
        fn.pend_cy += self.c.op_field_write
        if self._maybe_ref(vtype):
            # mirror of the interpreter's `isinstance(value, ObjRef)`
            # guard; for statically-primitive values the guard is False
            # at runtime always, so it is erased at emit time
            if self.enabled:
                w.emit(f"if isinstance({value}, ObjRef):")
                w.indent()
                w.emit(f"cy += CK.assignment_cost({o}.area, {value}, "
                       f"{line}, 'main')")
                w.dedent()
            elif self.validate:
                w.emit(f"if isinstance({value}, ObjRef):")
                w.indent()
                # returns 0 in validate-only mode; raises on violation
                w.emit(f"CK.assignment_cost({o}.area, {value}, "
                       f"{line}, 'main')")
                w.dedent()
        w.emit(f"{o}.fields[{fname!r}] = {value}")

    # -- expressions -----------------------------------------------------

    def eval(self, fn: _Fn, e: ast.Expr) -> str:
        c = self.c
        w = self.w
        if isinstance(e, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
            return bake(e.value)
        if isinstance(e, ast.NullLit):
            return "None"
        if isinstance(e, ast.ThisRef):
            return "None" if fn.unit.is_main else "S"
        if isinstance(e, ast.VarRef):
            fact = fn.facts.vars.get(id(e))
            if fact is None:
                raise CodegenUnsupported("missing var fact")
            if fact[0] == "local":
                fn.pend_cy += c.op_local
                return fact[1]
            return self.field_get(fn, "S", e.name)
        if isinstance(e, ast.FieldRead):
            if fn.facts.targets.get(id(e)) != "object":
                raise CodegenUnsupported("non-object field read")
            recv = self.eval(fn, e.target)
            return self.field_get(fn, recv, e.field_name)
        if isinstance(e, ast.NewExpr):
            return self.emit_new(fn, e)
        if isinstance(e, ast.Invoke):
            return self.emit_invoke(fn, e)
        if isinstance(e, ast.Binary):
            return self.emit_binary(fn, e)
        if isinstance(e, ast.Unary):
            if e.op not in ("!", "-"):
                raise CodegenUnsupported(f"unary {e.op!r}")
            v = self.eval(fn, e.operand)
            fn.pend_cy += c.op_basic
            t = fn.tmp()
            if e.op == "!":
                w.emit(f"{t} = not ({v})")
            else:
                w.emit(f"{t} = -({v})")
            return t
        if isinstance(e, ast.BuiltinCall):
            return self.emit_builtin(fn, e)
        raise CodegenUnsupported(f"expression {type(e).__name__}")

    def emit_binary(self, fn: _Fn, e: ast.Binary) -> str:
        c = self.c
        w = self.w
        op = e.op
        if op in ("&&", "||"):
            a = self.eval(fn, e.left)
            fn.pend_cy += c.op_basic
            t = fn.tmp()
            self.flush(fn)
            w.emit(f"if {a}:" if op == "&&" else f"if not {a}:")
            w.indent()
            b = self.eval(fn, e.right)
            w.emit(f"{t} = bool({b})")
            self.flush(fn)
            w.dedent()
            w.emit("else:")
            w.indent()
            w.emit(f"{t} = False" if op == "&&" else f"{t} = True")
            w.dedent()
            return t
        a = self.eval(fn, e.left)
        b = self.eval(fn, e.right)
        fn.pend_cy += c.op_basic
        t = fn.tmp()
        if op in ("+", "-", "*", "<", "<=", ">", ">="):
            w.emit(f"{t} = {a} {op} {b}")
        elif op == "/":
            w.emit(f"{t} = _dv({a}, {b})")
        elif op == "%":
            w.emit(f"{t} = _md({a}, {b})")
        elif op in ("==", "!="):
            lt = self._type(e.left, fn)
            rt = self._type(e.right, fn)
            if lt in _PRIMS and rt in _PRIMS:
                w.emit(f"{t} = {a} {op} {b}")
            elif op == "==":
                w.emit(f"{t} = _eq({a}, {b})")
            else:
                w.emit(f"{t} = not _eq({a}, {b})")
        else:
            raise CodegenUnsupported(f"operator {op!r}")
        return t

    def emit_new(self, fn: _Fn, e: ast.NewExpr) -> str:
        c = self.c
        w = self.w
        if not e.owners:
            raise CodegenUnsupported("new with no owners")
        descs = [fn.facts.owners.get(id(o)) for o in e.owners]
        if any(d is None for d in descs):
            raise CodegenUnsupported("missing owner fact")
        owners = self._owner_tuple(
            [self.owner_atom(fn, d) for d in descs])
        tgt_expr = self.target_atom(fn, descs[0])
        if "(" in tgt_expr:      # impure-looking: pin it once
            tv = fn.tmp()
            w.emit(f"{tv} = {tgt_expr}")
            tgt = tv
        else:
            tgt = tgt_expr
        t = fn.tmp()
        if e.class_name in ("IntArray", "FloatArray"):
            if len(e.args) != 1:
                raise CodegenUnsupported("array new arity")
            ln = self.eval(fn, e.args[0])
            w.emit(f"if {ln} < 0:")
            w.indent()
            w.emit("raise _Bail()")
            w.dedent()
            w.emit(f"{t} = make_array({e.class_name!r}, {owners}, "
                   f"{tgt}, {ln})")
        else:
            if e.args:
                raise CodegenUnsupported("constructor arguments")
            layout = self.low.layouts.get(e.class_name)
            if layout is None:
                raise CodegenUnsupported(
                    f"no layout for {e.class_name!r}")
            names = tuple(n for n, _init in layout)
            w.emit(f"{t} = ObjRef({e.class_name!r}, {owners}, "
                   f"{names!r}, {tgt})")
            for name, init in layout:
                if init is not None:
                    w.emit(f"{t}.fields[{name!r}] = {bake(init)}")
        w.emit(f"cy += _alloc({tgt}, {t})")
        return t

    def emit_invoke(self, fn: _Fn, e: ast.Invoke) -> str:
        c = self.c
        w = self.w
        disp = fn.facts.invokes.get(id(e))
        if disp is None:
            raise CodegenUnsupported("missing invoke fact")
        recv = self.eval(fn, e.target)
        r = fn.tmp()
        w.emit(f"{r} = _rq({recv})")
        args = [self.eval(fn, a) for a in e.args]
        if disp[0] == "native":
            op = disp[1]
            if op == "get":
                if len(args) < 1:
                    raise CodegenUnsupported("array get arity")
                fn.pend_cy += c.op_field_read
                t = fn.tmp()
                w.emit(f"{t} = _ag({r}, {args[0]})")
                return t
            if op == "set":
                if len(args) < 2:
                    raise CodegenUnsupported("array set arity")
                fn.pend_cy += c.op_field_write
                w.emit(f"_as({r}, {args[0]}, {args[1]})")
                return "None"
            if op == "length":
                fn.pend_cy += c.op_basic
                t = fn.tmp()
                w.emit(f"{t} = _al({r})")
                return t
            raise CodegenUnsupported(f"native {op!r}")
        _tag, static_cls, mono = disp
        entry = self.low.call_table.get((static_cls, e.method_name))
        if entry is None or entry.native is not None:
            raise CodegenUnsupported("unresolvable call")
        if len(e.owner_args) != len(entry.owner_formals):
            raise CodegenUnsupported("owner-arg arity")
        if len(args) != len(entry.param_names):
            raise CodegenUnsupported("call arity")
        ovs = []
        for o in e.owner_args:
            desc = fn.facts.owners.get(id(o))
            if desc is None:
                raise CodegenUnsupported("missing owner fact")
            ovs.append(self.owner_atom(fn, desc))
        ov = self._owner_tuple(ovs)
        fn.pend_cy += c.op_invoke
        t = fn.tmp()
        if mono:
            if (entry.impl_class, e.method_name) not in self.low.units:
                raise CodegenUnsupported("no body for call target")
            co = self._selector_tuple(entry.selectors, r)
            arglist = "".join(", " + a for a in args)
            w.emit(f"{t} = {_fn_name((entry.impl_class, e.method_name))}"
                   f"({r}, {co}, {ov}, {fn.cur_region}, T{arglist})")
        else:
            packed = self._owner_tuple(args)
            w.emit(f"{t} = CALLS[({r}.class_name, {e.method_name!r})]"
                   f"({r}, {ov}, {fn.cur_region}, T, {packed})")
        return t

    def _selector_tuple(self, selectors: Optional[Tuple[Any, ...]],
                        recv: str) -> str:
        """Rebuild the defining class's owner tuple from the receiver
        (the interpreter's call-entry selectors, applied at emit)."""
        if selectors is None:
            return f"{recv}.owners"
        parts = []
        for sel in selectors:
            if sel is THIS:
                parts.append(recv)
            elif isinstance(sel, int):
                parts.append(f"{recv}.owners[{sel}]")
            elif sel == "heap":
                parts.append("HEAP")
            elif sel == "immortal":
                parts.append("IMM")
            else:
                raise CodegenUnsupported(f"selector {sel!r}")
        return self._owner_tuple(parts)

    def emit_builtin(self, fn: _Fn, e: ast.BuiltinCall) -> str:
        c = self.c
        w = self.w
        name = e.name
        if name == "yieldnow":
            if e.args:
                raise CodegenUnsupported("yieldnow arity")
            # single-threaded and uninstrumented: the scheduler slice
            # boundary is unobservable, only the charge matters
            ty = c.thread_yield
            w.emit(f"ST.thread_cycles += {ty}")
            fn.pend_cy += ty
            return "None"
        if name not in ("print", "io", "sqrt", "itof", "ftoi", "check") \
                or len(e.args) != 1:
            raise CodegenUnsupported(f"builtin {name!r}")
        v = self.eval(fn, e.args[0])
        if name == "print":
            fn.pend_cy += c.op_builtin
            w.emit(f"OUT.append(FV({v}))")
            return "None"
        if name == "io":
            ti = fn.tmp()
            tc = fn.tmp()
            w.emit(f"{ti} = int({v})")
            w.emit(f"{tc} = {c.op_builtin} + ({ti} if {ti} > 0 else 0)")
            w.emit(f"ST.io_cycles += {tc}")
            w.emit(f"cy += {tc}")
            return ti
        if name == "sqrt":
            fn.pend_cy += c.op_builtin
            w.emit(f"if {v} < 0:")
            w.indent()
            w.emit("raise _Bail()")
            w.dedent()
            t = fn.tmp()
            w.emit(f"{t} = _sqrt({v})")
            return t
        if name == "itof":
            fn.pend_cy += c.op_basic
            t = fn.tmp()
            w.emit(f"{t} = float({v})")
            return t
        if name == "ftoi":
            fn.pend_cy += c.op_basic
            t = fn.tmp()
            w.emit(f"{t} = int({v})")
            return t
        # check
        fn.pend_cy += c.op_basic
        w.emit(f"if not {v}:")
        w.indent()
        w.emit("raise _Bail()")
        w.dedent()
        return "None"

    # -- statements ------------------------------------------------------

    def stmt(self, fn: _Fn, s: ast.Stmt) -> None:
        c = self.c
        w = self.w
        fn.pend_sp += 1
        if isinstance(s, ast.Block):
            for inner in s.stmts:
                self.stmt(fn, inner)
            return
        if isinstance(s, ast.LocalDecl):
            fact = fn.facts.vars.get(id(s))
            if fact is None or fact[0] != "local":
                raise CodegenUnsupported("missing local fact")
            slot = fact[1]
            if s.init is None:
                fn.pend_cy += c.op_local
                w.emit(f"{slot} = None")
            else:
                v = self.eval(fn, s.init)
                fn.pend_cy += c.op_local
                w.emit(f"{slot} = {v}")
            return
        if isinstance(s, ast.AssignLocal):
            fact = fn.facts.vars.get(id(s))
            if fact is None:
                raise CodegenUnsupported("missing assign fact")
            v = self.eval(fn, s.value)
            if fact[0] == "local":
                fn.pend_cy += c.op_local
                w.emit(f"{fact[1]} = {v}")
            else:
                self.field_put(fn, "S", s.name, v,
                               self._type(s.value, fn),
                               s.loc[0])
            return
        if isinstance(s, ast.AssignField):
            if fn.facts.targets.get(id(s)) != "object":
                raise CodegenUnsupported("non-object field write")
            # interpreter order: value first, then target
            v = self.eval(fn, s.value)
            recv = self.eval(fn, s.target)
            self.field_put(fn, recv, s.field_name, v,
                           self._type(s.value, fn), s.loc[0])
            return
        if isinstance(s, ast.ExprStmt):
            self.eval(fn, s.expr)
            return
        if isinstance(s, ast.If):
            t = self.eval(fn, s.cond)
            fn.pend_cy += c.op_branch
            self.flush(fn)
            w.emit(f"if {t}:")
            w.indent()
            if s.then_body.stmts:
                for inner in s.then_body.stmts:
                    self.stmt(fn, inner)
                self.flush(fn)
            else:
                w.emit("pass")
            w.dedent()
            if s.else_body is not None:
                w.emit("else:")
                w.indent()
                if s.else_body.stmts:
                    for inner in s.else_body.stmts:
                        self.stmt(fn, inner)
                    self.flush(fn)
                else:
                    w.emit("pass")
                w.dedent()
            return
        if isinstance(s, ast.While):
            self.flush(fn)
            w.emit("while True:")
            w.indent()
            # liveness guard: an infinite simulated loop must still
            # terminate the fused run near the interpreter's deadlock
            # horizon (exactness is decided by the end-of-run check)
            w.emit("if ST.cycles + cy + CY[0] > MAXC:")
            w.indent()
            w.emit("raise _Bail()")
            w.dedent()
            t = self.eval(fn, s.cond)
            fn.pend_cy += c.op_branch
            self.flush(fn)
            w.emit(f"if not {t}:")
            w.indent()
            w.emit("break")
            w.dedent()
            for inner in s.body.stmts:
                self.stmt(fn, inner)
            self.flush(fn)
            w.dedent()
            return
        if isinstance(s, ast.Return):
            v = "None" if s.value is None else self.eval(fn, s.value)
            fn.pend_cy += c.op_return
            self.flush(fn)
            for rslot in reversed(fn.regions):
                self.region_epilogue(fn, rslot)
            w.emit("CY[0] += cy; CY[1] += sp")
            if fn.unit.is_main:
                w.emit("return")
            else:
                w.emit(f"return {v}")
            return
        if isinstance(s, ast.RegionStmt):
            self.emit_region(fn, s)
            return
        raise CodegenUnsupported(f"statement {type(s).__name__}")

    def emit_region(self, fn: _Fn, s: ast.RegionStmt) -> None:
        c = self.c
        w = self.w
        if s.kind is not None:
            raise CodegenUnsupported("region kind")
        pair = fn.facts.regions.get(id(s))
        if pair is None:
            raise CodegenUnsupported("missing region fact")
        rslot, hslot = pair
        is_lt = s.policy is not None and s.policy.kind == "LT"
        budget = s.policy.size if s.policy is not None else 0
        pol = "LT" if is_lt else "VT"
        create_cy = c.region_create + \
            (c.lt_prealloc_per_byte * budget if is_lt else 0)
        anc = fn.tmp()
        cur = fn.cur_region
        w.emit(f"{anc} = set({cur}.ancestor_ids)")
        w.emit(f"{anc}.add({cur}.area_id)")
        w.emit(f"{rslot} = RMC({s.region_name!r}, 'LocalRegion', {pol}, "
               f"{budget}, {anc})")
        w.emit("ST.regions_created += 1")
        w.emit(f"{rslot}.portals = {{}}")
        w.emit(f"{rslot}.subregions = {{}}")
        w.emit(f"{rslot}.subregion_meta = {{}}")
        fn.pend_cy += create_cy
        w.emit(f"ST.region_cycles += {create_cy}")
        w.emit(f"{hslot} = RegionHandle({rslot})")
        fn.regions.append(rslot)
        fn.cur_region = rslot
        for inner in s.body.stmts:
            self.stmt(fn, inner)
        fn.regions.pop()
        fn.cur_region = cur
        self.region_epilogue(fn, rslot)

    def region_epilogue(self, fn: _Fn, rslot: str) -> None:
        rex = self.c.region_exit
        self.w.emit(f"CD(T, {rex})")
        self.w.emit(f"ST.region_cycles += {rex}")
        self.w.emit(f"ST.objects_freed += {rslot}.destroy('main')")

    # -- functions -------------------------------------------------------

    def emit_unit(self, unit: MethodUnit) -> None:
        w = self.w
        fn = _Fn(unit)
        if unit.is_main:
            w.emit("def _main(T):")
        else:
            params = "".join(", " + p for p in unit.facts.param_slots)
            w.emit(f"def {_fn_name(unit.key)}(S, CO, OV, R, T{params}):")
        w.indent()
        w.emit("cy = 0; sp = 0")
        for s in unit.body.stmts:
            self.stmt(fn, s)
        self.flush(fn)
        w.emit("CY[0] += cy; CY[1] += sp")
        if not unit.is_main:
            w.emit(f"return {bake(unit.default)}")
        w.dedent()

    def emit_dispatch(self) -> None:
        """CALLS: runtime dispatch table for polymorphic receivers."""
        w = self.w
        w.emit("CALLS = {}")
        for key in sorted(self.low.call_table):
            entry = self.low.call_table[key]
            if entry.native is not None:
                continue
            if (entry.impl_class, key[1]) not in self.low.units:
                continue
            co = self._selector_tuple(entry.selectors, "_r")
            unpack = "".join(f", _a[{i}]"
                             for i in range(len(entry.param_names)))
            name = f"d_{mangle(key[0])}__{mangle(key[1])}"
            w.emit(f"def {name}(_r, OV, R, T, _a):")
            w.indent()
            w.emit(f"return {_fn_name((entry.impl_class, key[1]))}"
                   f"(_r, {co}, OV, R, T{unpack})")
            w.dedent()
            w.emit(f"CALLS[({key[0]!r}, {key[1]!r})] = {name}")

    def emit_module(self) -> str:
        c = self.c
        w = self.w
        w.emit("def make(ctx):")
        w.indent()
        w.emit("_Bail = ctx['Bail']; ObjRef = ctx['ObjRef']")
        w.emit("make_array = ctx['make_array']; FV = ctx['format_value']")
        w.emit("RegionHandle = ctx['RegionHandle']; _sqrt = ctx['sqrt']")
        w.emit("LT = ctx['LT']; VT = ctx['VT']")
        w.emit("def bind(M):")
        w.indent()
        w.emit("ST = M.stats; HEAP = M.regions.heap")
        w.emit("IMM = M.regions.immortal; RMC = M.regions.create")
        w.emit("CK = M.checks; OUT = M.output; CD = M.charge_direct")
        w.emit("MAXC = M.scheduler.max_cycles; GCT = M.gc.trigger_bytes")
        w.emit("CY = [0, 0]")
        # null / liveness requirement on every object access
        w.emit("def _rq(v):")
        w.indent()
        if self.validate:
            w.emit("if v is None or not v.alive:")
        else:
            w.emit("if v is None:")
        w.indent()
        w.emit("raise _Bail()")
        w.dedent()
        w.emit("return v")
        w.dedent()
        w.emit("def _roo(v):")
        w.indent()
        w.emit("return v.area if isinstance(v, ObjRef) else v")
        w.dedent()
        # allocation: charge formula + counters, mirroring _build_new
        w.emit("def _alloc(tgt, obj):")
        w.indent()
        w.emit("fresh = tgt.allocate(obj)")
        w.emit(f"n = {c.alloc_base} + {c.alloc_per_byte} * obj.size_bytes")
        w.emit("if tgt.policy == VT:")
        w.indent()
        w.emit(f"n += {c.vt_alloc_extra} + {c.vt_chunk_cost} * fresh")
        w.dedent()
        w.emit("if tgt.is_heap:")
        w.indent()
        w.emit(f"n += {c.heap_alloc_extra}")
        w.emit("if tgt.bytes_used > ST.peak_heap_bytes:")
        w.indent()
        w.emit("ST.peak_heap_bytes = tgt.bytes_used")
        w.dedent()
        w.dedent()
        w.emit("ST.allocations += 1")
        w.emit("ST.bytes_allocated += obj.size_bytes")
        w.emit("ST.alloc_cycles += n")
        w.emit("return n")
        w.dedent()
        # array natives (bounds failures bail: the interpreter reports
        # them as simulated MemoryAccessError with mid-run timing)
        w.emit("def _ag(o, i):")
        w.indent()
        w.emit("vs = o.fields['__storage__'].values")
        w.emit("if 0 <= i < len(vs):")
        w.indent()
        w.emit("return vs[i]")
        w.dedent()
        w.emit("raise _Bail()")
        w.dedent()
        w.emit("def _as(o, i, v):")
        w.indent()
        w.emit("vs = o.fields['__storage__'].values")
        w.emit("if 0 <= i < len(vs):")
        w.indent()
        w.emit("vs[i] = v")
        w.emit("return None")
        w.dedent()
        w.emit("raise _Bail()")
        w.dedent()
        w.emit("def _al(o):")
        w.indent()
        w.emit("return len(o.fields['__storage__'].values)")
        w.dedent()
        # Java arithmetic (zero divisors bail — simulated failures)
        w.emit("def _dv(a, b):")
        w.indent()
        w.emit("if isinstance(a, float) or isinstance(b, float):")
        w.indent()
        w.emit("if b == 0:")
        w.indent()
        w.emit("raise _Bail()")
        w.dedent()
        w.emit("return a / b")
        w.dedent()
        w.emit("if b == 0:")
        w.indent()
        w.emit("raise _Bail()")
        w.dedent()
        w.emit("q = abs(a) // abs(b)")
        w.emit("return q if (a >= 0) == (b >= 0) else -q")
        w.dedent()
        w.emit("def _md(a, b):")
        w.indent()
        w.emit("if b == 0:")
        w.indent()
        w.emit("raise _Bail()")
        w.dedent()
        w.emit("return a - _dv(a, b) * b")
        w.dedent()
        w.emit("def _eq(a, b):")
        w.indent()
        w.emit("if isinstance(a, ObjRef) or isinstance(b, ObjRef):")
        w.indent()
        w.emit("return a is b")
        w.dedent()
        w.emit("return a == b")
        w.dedent()
        for key in sorted(self.low.units):
            if key == _MAIN_KEY:
                continue
            self.emit_unit(self.low.units[key])
        self.emit_dispatch()
        self.emit_unit(self.low.units[_MAIN_KEY])
        # the coroutine wrapper: one mega-yield, or a flagged bail
        w.emit("def main_co(T):")
        w.indent()
        w.emit("ok = True")
        w.emit("try:")
        w.indent()
        w.emit("_main(T)")
        w.dedent()
        w.emit("except Exception:")
        w.indent()
        w.emit("ok = False")
        w.dedent()
        w.emit("if not ok or ST.cycles + CY[0] > MAXC "
               "or HEAP.bytes_used >= GCT:")
        w.indent()
        w.emit("M.program_bailed = True")
        w.emit("yield 0")
        w.emit("return")
        w.dedent()
        w.emit("ST.steps += CY[1]")
        w.emit("yield CY[0]")
        w.dedent()
        w.emit("return main_co")
        w.dedent()
        w.emit("return bind")
        w.dedent()
        return w.source()


# ---------------------------------------------------------------------------
# compile + bind
# ---------------------------------------------------------------------------

def fused_source(lowered: LoweredProgram, checks_enabled: bool,
                 validate: bool, cost: Any) -> str:
    """The generated module text (exposed for tests and debugging)."""
    return _FusedEmitter(lowered, checks_enabled, validate,
                         cost).emit_module()


def _fused_bind(analyzed: Any, lowered: LoweredProgram,
                checks_enabled: bool, validate: bool, cost: Any) -> Any:
    def build() -> Any:
        src = fused_source(lowered, checks_enabled, validate, cost)
        ns: Dict[str, Any] = {}
        exec(compile(src, "<repro-fused>", "exec"), ns)
        # popped: ``make`` in the namespace that is its own globals
        # would be a reference cycle, and the form must stay acyclic
        # (see ``memo``)
        return ns.pop("make")(_CTX)
    key = ("py-fused", bool(checks_enabled), bool(validate),
           cost_key(cost))
    return memo(analyzed, key, build)


def _fusable(analyzed: Any) -> LoweredProgram:
    """``analyzed`` lowered, or :class:`CodegenUnsupported` when
    lowering found hazards the straight-line forms (fused Python, C)
    cannot mirror."""
    lowered = lower(analyzed)
    if not lowered.fused_ok:
        raise CodegenUnsupported(
            "hazards: " + ", ".join(sorted(lowered.hazards)))
    return lowered


def compile_fused(machine: Any) -> PyProgram:
    """Compile ``machine``'s program for fused execution, or raise
    :class:`CodegenUnsupported` with the reason.  Callers go through
    :func:`select_program`, which has already applied the machine
    gate."""
    opts = machine.options
    bind = _fused_bind(machine.analyzed, _fusable(machine.analyzed),
                       opts.checks_enabled, opts.validate,
                       machine.cost_model)
    return PyProgram("py-fused", "py-faithful", bind(machine))


def erased_source(analyzed: Any, checks: bool) -> str:
    """The Section 2.6 erasure of ``analyzed`` as ``repro compile``
    prints it: the fused module of the checks-on build (the RTSJ
    dynamic checks) or of the checks-off build (no check code at all),
    without validation and under the default cost model.  Raises
    :class:`CodegenUnsupported` with the reason when the fused form
    refuses the program."""
    _program_gate(analyzed)
    return fused_source(_fusable(analyzed), checks, False, CostModel())


def _program_gate(analyzed: Any) -> None:
    """Raise :class:`CodegenUnsupported` for a program no compiled form
    models: one with static errors, without a main block, or whose
    ``regionKind`` shadows a built-in kind."""
    if analyzed.errors:
        raise CodegenUnsupported("program has static errors")
    if analyzed.program.main is None:
        raise CodegenUnsupported("no main block")
    kinds = analyzed.info.region_kinds
    if "LocalRegion" in kinds or "SharedRegion" in kinds:
        raise CodegenUnsupported("regionKind shadows a built-in kind")


def _machine_gate(machine: Any) -> None:
    """Raise :class:`CodegenUnsupported` when no compiled backend can
    run this machine's program and configuration: the program gate's
    refusals, plus any run that needs observability, a flight recorder,
    fault injection, the sanitizer or degrade mode, which every
    compiled form compiles out."""
    _program_gate(machine.analyzed)
    stats = machine.stats
    if not stats.metrics.null:
        raise CodegenUnsupported("instrumented run")
    if stats.recorder is not None:
        raise CodegenUnsupported("flight recorder attached")
    if machine.fault_injector is not None:
        raise CodegenUnsupported("fault injection active")
    if machine.options.sanitize:
        raise CodegenUnsupported("sanitizer active")
    if machine.options.degrade:
        raise CodegenUnsupported("degrade mode")


def select_program(machine: Any, backend: str) -> PyProgram:
    """Resolve ``--backend`` to a compiled program for this machine.

    ``py`` prefers the fused form and falls back to the faithful
    generator backend; the explicit ``py-fused`` / ``py-faithful``
    names force one form (tests use them).  Raises
    :class:`CodegenUnsupported` when nothing can compile the program —
    the machine then runs the interpreter.  The machine gate runs once,
    before anything is lowered.
    """
    from .machine import BACKENDS
    if backend == "interp" or backend not in BACKENDS:
        raise CodegenUnsupported(f"unknown backend {backend!r}")
    _machine_gate(machine)
    if backend == "c":
        from .codegen_c import compile_c
        try:
            return compile_c(machine)
        except CodegenUnsupported as exc:
            # chain down the capability ladder; keep the C reason
            # visible (``repro run -v`` surfaces it)
            machine.codegen_fallback = f"c unavailable ({exc})"
            backend = "py"
    if backend == "py-fused":
        return compile_fused(machine)
    if backend == "py":
        try:
            return compile_fused(machine)
        except CodegenUnsupported:
            pass
    from .codegen_py_faithful import compile_faithful
    return compile_faithful(machine)
