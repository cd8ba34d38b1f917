"""C backend: the erased-checks subset, compiled through ``cc``/cffi.

This backend is the paper's Section 2.6 made literal: ownership *types*
are erased, and because the accepted configuration never consults an
owner as anything but an allocation region, owner *values* erase to
bare region pointers — the generated C carries no check machinery and
no owner tuples beyond those pointers.  It compiles only the
configuration where that erasure is total:

* static-checks mode (``checks_enabled=False``, ``validate=False``) —
  with checks on, check *cycles* are observable and the C code would
  have to re-grow the ancestry machinery it just erased;
* hazard-free programs (the fused subset: no forks, subregions,
  portals, statics, or shadowing the slot renaming cannot mirror),
  with plain ``LT``/``VT`` regions, heap and immortal areas;
* monomorphic dispatch (receiver static class not extended) — calls
  become direct C calls, and receiver owner-slot offsets are
  compile-time constants.

Anything else raises :class:`CodegenUnsupported`; ``machine.execute``
falls back to the ``py`` backend with identical observable behaviour.
The same applies when ``cffi`` or a C compiler is missing — the
backend auto-skips, it never fails a run.

Exactness follows the fused Python backend's contract (cycles, output
and every ``Stats.summary()`` counter byte-identical, or bail): the C
code computes cycles/steps/counters in int64 globals and a tagged
output stream; the host coroutine wrapper commits them through the
same single mega-yield protocol as the fused backend (plus one
``charge_direct`` call for region-exit charges), or flags
``program_bailed``.  Conditions C cannot reproduce exactly bail via
``longjmp``: simulated failures (null deref, bounds, LT overflow,
division by zero, a failed ``check``), int64 overflow (host ints are
unbounded), int/float comparisons beyond 2**53 (the host compares
exactly, C would round), ``max_cycles``/GC-trigger crossings,
recursion past the C guard depth, and output-buffer overflow.

Objects are arena-allocated ``{area, len, slots[]}`` records; a class
instance's slot array is its fields (inherited first, the layout the
lowering computed) followed by its class-formal owner areas, which
mono dispatch reads back at compile-time-constant offsets.  Regions
are arena-allocated ``{policy, bytes_used, chunks, budget, live,
nobj}`` records; ``destroy`` at block exit reproduces the
interpreter's flush accounting (object count out, bytes/chunks to
zero, dead thereafter — a later allocation into a captured dead
region bails exactly where the interpreter errors).

Artifacts (``<sha>.c`` / ``<sha>.so``) live under
``$REPRO_CODEGEN_DIR`` (default: a per-user directory in the system
temp dir) and are reused across processes.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
from typing import Any, Dict, List, Tuple

from ..core.program import convert_type
from ..core.types import BOOLEAN, ClassType, FLOAT, INT
from ..lang import ast
from ..rtsj.regions import MemoryArea
from .codegen_base import CodegenUnsupported, SourceWriter, cost_key, memo
from .lower import THIS, LoweredProgram, MethodUnit

_MAIN_KEY = ("", "<main>")

#: value kinds: int64, double, bool-as-int64, object pointer
_I, _D, _B, _P = "i", "d", "b", "p"

_CTYPE = {_I: "int64_t", _D: "double", _B: "int64_t", _P: "Obj *"}
_MEMBER = {_I: "i", _B: "i", _D: "d", _P: "o"}

#: tagged output stream records (decoded by the host wrapper)
_TAG_INT, _TAG_FLOAT, _TAG_BOOL = 0, 1, 2

#: result vector layout (see ``repro_run`` in the entry block)
_RES_FIELDS = 14
(_R_CY, _R_SP, _R_ALLOCS, _R_BYTES, _R_ALLOC_CY, _R_HEAP, _R_PEAK,
 _R_IO, _R_THREAD, _R_OUT, _R_DIRECT, _R_REGION_CY, _R_REGIONS,
 _R_FREED) = range(_RES_FIELDS)

#: output stream capacity, in (tag, payload) records; overflow bails
_OUT_RECORDS = 1 << 16

#: C call-depth guard: programs recursing past the interpreter's host
#: recursion limit error out there anyway, so bailing well above it is
#: always exact — and it keeps the C stack bounded
_DEPTH_MAX = 2000


def _kind_of(t: Any) -> str:
    if t == INT:
        return _I
    if t == FLOAT:
        return _D
    if t == BOOLEAN:
        return _B
    if isinstance(t, ClassType):
        return _P
    raise CodegenUnsupported(f"untypeable value ({t!r})")


def _bake_c(value: Any) -> str:
    """C literal text for a source literal."""
    if value is None:
        return "NULL"
    if value is True:
        return "1"
    if value is False:
        return "0"
    if isinstance(value, int):
        if value == -(2 ** 63):
            return "INT64_MIN"
        if not (-(2 ** 63) < value < 2 ** 63):
            raise CodegenUnsupported("int literal beyond int64")
        return f"{value}LL"
    if isinstance(value, float):
        return value.hex()        # C99 hex float: exact round trip
    raise CodegenUnsupported(f"cannot bake {value!r}")


def _fn_name(key: Tuple[str, str]) -> str:
    from .codegen_base import mangle
    return f"c_{mangle(key[0])}__{mangle(key[1])}"


def _decl(kind: str, name: str, init: str) -> str:
    pad = "" if kind == _P else " "
    return f"{_CTYPE[kind]}{pad}{name} = {init};"


class _CFn:
    """Emit state for one C function (mirrors ``codegen_py._Fn``)."""

    __slots__ = ("unit", "facts", "pend_cy", "pend_sp", "ntmp",
                 "decls", "slot_kinds", "body", "regions", "cur_region")

    def __init__(self, unit: MethodUnit) -> None:
        self.unit = unit
        self.facts = unit.facts
        self.pend_cy = 0
        self.pend_sp = 0
        self.ntmp = 0
        #: declaration lines for the function prologue
        self.decls: List[str] = []
        #: slot name -> value kind
        self.slot_kinds: Dict[str, str] = {}
        self.body = SourceWriter()
        #: open region slot names, outer first
        self.regions: List[str] = []
        self.cur_region = "(&g_heap)" if unit.is_main else "R"

    def tmp(self, kind: str) -> str:
        self.ntmp += 1
        name = f"_t{self.ntmp}"
        self.decls.append(
            _decl(kind, name, "NULL" if kind == _P else "0"))
        return name

    def rtmp(self) -> str:
        """A Region* temporary."""
        self.ntmp += 1
        name = f"_t{self.ntmp}"
        self.decls.append(f"Region *{name} = NULL;")
        return name

    def declare_slot(self, slot: str, kind: str) -> None:
        if slot not in self.slot_kinds:
            self.slot_kinds[slot] = kind
            self.decls.append(
                _decl(kind, slot, "NULL" if kind == _P else "0"))
        elif self.slot_kinds[slot] != kind:
            raise CodegenUnsupported("slot kind conflict")

    def declare_region(self, rslot: str) -> None:
        self.decls.append(f"Region *{rslot} = NULL;")


class _CEmitter:
    """Emits the whole program as one C translation unit.

    The charging discipline is the fused backend's: compile-time
    constant cycles/steps accumulate in ``pend_cy``/``pend_sp`` and
    flush into the per-function ``cy``/``sp`` locals before any
    branch; every return commits ``g_cy += cy; g_sp += sp``.
    """

    def __init__(self, lowered: LoweredProgram, cost: Any) -> None:
        self.low = lowered
        self.c = cost
        #: class -> field name -> (slot index, kind)
        self.field_maps: Dict[str, Dict[str, Tuple[int, str]]] = {}
        #: class -> number of field slots (owner areas live after them)
        self.nfields: Dict[str, int] = {}
        for cls, layout in lowered.layouts.items():
            fmap: Dict[str, Tuple[int, str]] = {}
            for i, (fname, _init) in enumerate(layout):
                fi = lowered.info.lookup_field(cls, fname)
                if fi is None:
                    raise CodegenUnsupported("layout field without info")
                fmap[fname] = (i, _kind_of(fi.type))
            self.field_maps[cls] = fmap
            self.nfields[cls] = len(layout)

    # -- plumbing --------------------------------------------------------

    def flush(self, fn: _CFn) -> None:
        if fn.pend_cy:
            fn.body.emit(f"cy += {fn.pend_cy};")
            fn.pend_cy = 0
        if fn.pend_sp:
            fn.body.emit(f"sp += {fn.pend_sp};")
            fn.pend_sp = 0

    def _type(self, expr: ast.Expr, fn: _CFn) -> Any:
        return fn.facts.types.get(id(expr))

    def _truth(self, atom: str, kind: str) -> str:
        if kind == _P:
            return f"({atom} != NULL)"
        if kind == _D:
            return f"({atom} != 0.0)"
        return f"({atom} != 0)"

    def _as_double(self, atom: str, kind: str, compare: bool) -> str:
        """int operand of a mixed int/double operation.  Arithmetic
        converts with round-to-nearest on both hosts; *comparisons*
        are exact on the Python side, so they go through the guarded
        ``i2d`` (bails beyond 2**53)."""
        if kind == _D:
            return atom
        return f"i2d({atom})" if compare else f"(double)({atom})"

    def _field(self, cls: str, fname: str) -> Tuple[int, str]:
        fmap = self.field_maps.get(cls)
        if fmap is None or fname not in fmap:
            raise CodegenUnsupported(f"unknown field {cls}.{fname}")
        return fmap[fname]

    def _recv_class(self, target: ast.Expr, fn: _CFn) -> str:
        t = self._type(target, fn)
        if isinstance(t, ClassType) and t.name in self.field_maps:
            return t.name
        raise CodegenUnsupported("untyped field receiver")

    # -- owner areas -----------------------------------------------------

    def area_atom(self, fn: _CFn, desc: Tuple[Any, ...]) -> str:
        """The *region* an owner descriptor denotes.  Owner values are
        pre-resolved to areas: the accepted subset only ever consults
        an owner through ``region_of_owner``, so ``this``-like object
        owners collapse to their areas with no observable loss."""
        kind = desc[0]
        if kind == "this":
            return "S->area"
        if kind == "heap":
            return "(&g_heap)"
        if kind == "immortal":
            return "(&g_imm)"
        if kind == "initial":
            return "(&g_heap)" if fn.unit.is_main else "R"
        if kind == "cformal":
            return f"CO{desc[1]}"
        if kind == "mformal":
            try:
                idx = fn.unit.owner_formals.index(desc[1])
            except ValueError:
                raise CodegenUnsupported(f"unknown owner formal {desc[1]!r}")
            return f"OV{idx}"
        if kind == "region":
            return desc[1]
        raise CodegenUnsupported(f"owner descriptor {desc!r}")

    def _owner_areas(self, fn: _CFn, owner_nodes) -> List[str]:
        atoms = []
        for o in owner_nodes:
            desc = fn.facts.owners.get(id(o))
            if desc is None:
                raise CodegenUnsupported("missing owner fact")
            atoms.append(self.area_atom(fn, desc))
        return atoms

    def _selector_areas(self, entry, recv: str, static_cls: str) -> List[str]:
        """Rebuild the defining class's owner areas from the receiver.
        Mono dispatch pins the runtime class to ``static_cls``, so the
        owner-slot offset is a compile-time constant."""
        nf = self.nfields.get(static_cls)
        if nf is None:
            raise CodegenUnsupported(f"no layout for {static_cls!r}")
        info = self.low.info.classes.get(static_cls)
        if info is None:
            raise CodegenUnsupported(f"no info for {static_cls!r}")
        nformals = len(info.formal_names)
        if entry.selectors is None:
            # identity: receiver owners pass through to the defining
            # class's formals in order
            sels: Tuple[Any, ...] = tuple(range(len(entry.class_formals)))
        else:
            sels = entry.selectors
        if len(sels) != len(entry.class_formals):
            raise CodegenUnsupported("selector arity")
        atoms = []
        for sel in sels:
            if sel is THIS:
                atoms.append(f"{recv}->area")
            elif isinstance(sel, int):
                if not 0 <= sel < nformals:
                    raise CodegenUnsupported("selector out of range")
                atoms.append(f"{recv}->slots[{nf + sel}].r")
            elif sel == "heap":
                atoms.append("(&g_heap)")
            elif sel == "immortal":
                atoms.append("(&g_imm)")
            else:
                raise CodegenUnsupported(f"selector {sel!r}")
        return atoms

    # -- expressions -----------------------------------------------------

    def eval(self, fn: _CFn, e: ast.Expr) -> Tuple[str, str]:
        """Returns ``(atom, kind)``."""
        c = self.c
        w = fn.body
        if isinstance(e, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
            kind = _I if isinstance(e, ast.IntLit) else (
                _D if isinstance(e, ast.FloatLit) else _B)
            return _bake_c(e.value), kind
        if isinstance(e, ast.NullLit):
            return "NULL", _P
        if isinstance(e, ast.ThisRef):
            return ("NULL", _P) if fn.unit.is_main else ("S", _P)
        if isinstance(e, ast.VarRef):
            fact = fn.facts.vars.get(id(e))
            if fact is None:
                raise CodegenUnsupported("missing var fact")
            if fact[0] == "local":
                slot = fact[1]
                if slot not in fn.slot_kinds:
                    raise CodegenUnsupported("read of undeclared slot")
                fn.pend_cy += c.op_local
                return slot, fn.slot_kinds[slot]
            if fn.unit.class_decl is None:
                raise CodegenUnsupported("field fallback in main")
            return self.field_get(fn, ("S", _P),
                                  fn.unit.class_decl.name, e.name)
        if isinstance(e, ast.FieldRead):
            if fn.facts.targets.get(id(e)) != "object":
                raise CodegenUnsupported("non-object field read")
            cls = self._recv_class(e.target, fn)
            recv = self.eval(fn, e.target)
            return self.field_get(fn, recv, cls, e.field_name)
        if isinstance(e, ast.NewExpr):
            return self.emit_new(fn, e)
        if isinstance(e, ast.Invoke):
            return self.emit_invoke(fn, e)
        if isinstance(e, ast.Binary):
            return self.emit_binary(fn, e)
        if isinstance(e, ast.Unary):
            v, k = self.eval(fn, e.operand)
            fn.pend_cy += c.op_basic
            if e.op == "!":
                t = fn.tmp(_B)
                w.emit(f"{t} = !{self._truth(v, k)};")
                return t, _B
            if e.op == "-":
                if k == _D:
                    t = fn.tmp(_D)
                    w.emit(f"{t} = -({v});")
                    return t, _D
                if k in (_I, _B):
                    t = fn.tmp(_I)
                    w.emit(f"{t} = subi(0, {v});")
                    return t, _I
            raise CodegenUnsupported(f"unary {e.op!r}")
        if isinstance(e, ast.BuiltinCall):
            return self.emit_builtin(fn, e)
        raise CodegenUnsupported(f"expression {type(e).__name__}")

    def field_get(self, fn: _CFn, recv: Tuple[str, str], cls: str,
                  fname: str) -> Tuple[str, str]:
        atom, k = recv
        if k != _P:
            raise CodegenUnsupported("field read on non-pointer")
        idx, kind = self._field(cls, fname)
        fn.pend_cy += self.c.op_field_read
        t = fn.tmp(kind)
        fn.body.emit(f"{t} = rq({atom})->slots[{idx}].{_MEMBER[kind]};")
        return t, kind

    def field_put(self, fn: _CFn, recv: Tuple[str, str], cls: str,
                  fname: str, value: Tuple[str, str]) -> None:
        atom, k = recv
        if k != _P:
            raise CodegenUnsupported("field write on non-pointer")
        idx, kind = self._field(cls, fname)
        v, vk = value
        if not self._assignable(kind, vk):
            raise CodegenUnsupported("field write kind mismatch")
        o = fn.tmp(_P)
        fn.body.emit(f"{o} = rq({atom});")
        fn.pend_cy += self.c.op_field_write
        fn.body.emit(f"{o}->slots[{idx}].{_MEMBER[kind]} = {v};")

    def _assignable(self, dst: str, src: str) -> bool:
        # exact kind match.  The int/bool distinction is kept strict so
        # ``print`` formatting (true/false vs digits) can never observe
        # a mismatch; null literals are plain _P values already.
        return dst == src

    def emit_binary(self, fn: _CFn, e: ast.Binary) -> Tuple[str, str]:
        c = self.c
        w = fn.body
        op = e.op
        if op in ("&&", "||"):
            a, ak = self.eval(fn, e.left)
            fn.pend_cy += c.op_basic
            t = fn.tmp(_B)
            self.flush(fn)
            cond = self._truth(a, ak)
            w.emit(f"if ({cond}) {{" if op == "&&"
                   else f"if (!{cond}) {{")
            w.indent()
            b, bk = self.eval(fn, e.right)
            w.emit(f"{t} = {self._truth(b, bk)};")
            self.flush(fn)
            w.dedent()
            w.emit("} else {")
            w.indent()
            w.emit(f"{t} = 0;" if op == "&&" else f"{t} = 1;")
            w.dedent()
            w.emit("}")
            return t, _B
        a, ak = self.eval(fn, e.left)
        b, bk = self.eval(fn, e.right)
        fn.pend_cy += c.op_basic
        nums = (_I, _B, _D)
        if op in ("+", "-", "*"):
            if ak not in nums or bk not in nums:
                raise CodegenUnsupported("arithmetic on non-numbers")
            if ak == _D or bk == _D:
                t = fn.tmp(_D)
                la = self._as_double(a, ak, compare=False)
                lb = self._as_double(b, bk, compare=False)
                w.emit(f"{t} = {la} {op} {lb};")
                return t, _D
            t = fn.tmp(_I)
            helper = {"+": "addi", "-": "subi", "*": "muli"}[op]
            w.emit(f"{t} = {helper}({a}, {b});")
            return t, _I
        if op in ("/", "%"):
            if ak not in nums or bk not in nums:
                raise CodegenUnsupported("arithmetic on non-numbers")
            if ak == _D or bk == _D:
                t = fn.tmp(_D)
                la = self._as_double(a, ak, compare=False)
                lb = self._as_double(b, bk, compare=False)
                w.emit(f"{t} = {'dvd' if op == '/' else 'mdd'}"
                       f"({la}, {lb});")
                return t, _D
            t = fn.tmp(_I)
            w.emit(f"{t} = {'dvi' if op == '/' else 'mdi'}({a}, {b});")
            return t, _I
        if op in ("<", "<=", ">", ">="):
            if ak not in nums or bk not in nums:
                raise CodegenUnsupported("comparison on non-numbers")
            t = fn.tmp(_B)
            if ak == _D or bk == _D:
                la = self._as_double(a, ak, compare=True)
                lb = self._as_double(b, bk, compare=True)
                w.emit(f"{t} = ({la} {op} {lb});")
            else:
                w.emit(f"{t} = ({a} {op} {b});")
            return t, _B
        if op in ("==", "!="):
            t = fn.tmp(_B)
            if ak in nums and bk in nums:
                if ak == _D or bk == _D:
                    la = self._as_double(a, ak, compare=True)
                    lb = self._as_double(b, bk, compare=True)
                    w.emit(f"{t} = ({la} {op} {lb});")
                else:
                    w.emit(f"{t} = ({a} {op} {b});")
            elif ak == _P and bk == _P:
                w.emit(f"{t} = ({a} {op} {b});")
            else:
                raise CodegenUnsupported("mixed-kind equality")
            return t, _B
        raise CodegenUnsupported(f"operator {op!r}")

    def emit_new(self, fn: _CFn, e: ast.NewExpr) -> Tuple[str, str]:
        w = fn.body
        if not e.owners:
            raise CodegenUnsupported("new with no owners")
        areas = self._owner_areas(fn, e.owners)
        tgt = fn.rtmp()
        w.emit(f"{tgt} = {areas[0]};")
        t = fn.tmp(_P)
        if e.class_name in ("IntArray", "FloatArray"):
            if len(e.args) != 1:
                raise CodegenUnsupported("array new arity")
            ln, lk = self.eval(fn, e.args[0])
            if lk not in (_I, _B):
                raise CodegenUnsupported("array length kind")
            w.emit(f"if ({ln} < 0) g_bail();")
            w.emit(f"{t} = alloc_obj({tgt}, {ln}, {ln});")
            w.emit(f"cy += alloc_in({tgt}, 16 + 8 * {ln});")
            return t, _P
        if e.args:
            raise CodegenUnsupported("constructor arguments")
        layout = self.low.layouts.get(e.class_name)
        if layout is None:
            raise CodegenUnsupported(f"no layout for {e.class_name!r}")
        nf = len(layout)
        w.emit(f"{t} = alloc_obj({tgt}, {nf}, {nf + len(areas)});")
        fmap = self.field_maps[e.class_name]
        for fname, init in layout:
            if init is not None:
                idx, kind = fmap[fname]
                if not self._assignable(kind, _kind_of_literal(init)):
                    raise CodegenUnsupported("field init kind mismatch")
                w.emit(f"{t}->slots[{idx}].{_MEMBER[kind]} = "
                       f"{_bake_c(init)};")
        for j, area in enumerate(areas):
            w.emit(f"{t}->slots[{nf + j}].r = {area};")
        w.emit(f"cy += alloc_in({tgt}, {16 + 8 * nf});")
        return t, _P

    def emit_invoke(self, fn: _CFn, e: ast.Invoke) -> Tuple[str, str]:
        c = self.c
        w = fn.body
        disp = fn.facts.invokes.get(id(e))
        if disp is None:
            raise CodegenUnsupported("missing invoke fact")
        recv, rk = self.eval(fn, e.target)
        if rk != _P:
            raise CodegenUnsupported("invoke on non-pointer")
        r = fn.tmp(_P)
        w.emit(f"{r} = rq({recv});")
        args = [self.eval(fn, a) for a in e.args]
        if disp[0] == "native":
            ttype = self._type(e.target, fn)
            if not isinstance(ttype, ClassType):
                raise CodegenUnsupported("untyped array receiver")
            ek = _I if ttype.name == "IntArray" else _D
            member = _MEMBER[ek]
            op = disp[1]
            if op == "get":
                if len(args) < 1 or args[0][1] not in (_I, _B):
                    raise CodegenUnsupported("array get arity")
                fn.pend_cy += c.op_field_read
                t = fn.tmp(ek)
                w.emit(f"{t} = {r}->slots[idx_ck({r}, "
                       f"{args[0][0]})].{member};")
                return t, ek
            if op == "set":
                if len(args) < 2 or args[0][1] not in (_I, _B):
                    raise CodegenUnsupported("array set arity")
                if args[1][1] != ek:
                    raise CodegenUnsupported("array element kind")
                fn.pend_cy += c.op_field_write
                w.emit(f"{r}->slots[idx_ck({r}, "
                       f"{args[0][0]})].{member} = {args[1][0]};")
                return "NULL", _P
            if op == "length":
                fn.pend_cy += c.op_basic
                t = fn.tmp(_I)
                w.emit(f"{t} = {r}->len;")
                return t, _I
            raise CodegenUnsupported(f"native {op!r}")
        _tag, static_cls, mono = disp
        if not mono:
            raise CodegenUnsupported("polymorphic dispatch")
        entry = self.low.call_table.get((static_cls, e.method_name))
        if entry is None or entry.native is not None:
            raise CodegenUnsupported("unresolvable call")
        target_key = (entry.impl_class, e.method_name)
        if target_key not in self.low.units:
            raise CodegenUnsupported("no body for call target")
        if len(e.owner_args) != len(entry.owner_formals):
            raise CodegenUnsupported("owner-arg arity")
        co = self._selector_areas(entry, r, static_cls)
        ov = self._owner_areas(fn, e.owner_args)
        callee = self.low.units[target_key]
        pkinds = _param_kinds(callee)
        if len(args) != len(pkinds):
            raise CodegenUnsupported("call arity")
        for (_a, akind), pk in zip(args, pkinds):
            if not self._assignable(pk, akind):
                raise CodegenUnsupported("argument kind mismatch")
        fn.pend_cy += c.op_invoke
        rkind = _return_kind(self.low, target_key)
        t = fn.tmp(rkind)
        parts = [r] + co + ov + [fn.cur_region] + [a for a, _k in args]
        w.emit(f"{t} = {_fn_name(target_key)}({', '.join(parts)});")
        return t, rkind

    def emit_builtin(self, fn: _CFn, e: ast.BuiltinCall) -> Tuple[str, str]:
        c = self.c
        w = fn.body
        name = e.name
        if name == "yieldnow":
            if e.args:
                raise CodegenUnsupported("yieldnow arity")
            w.emit(f"g_thread_cy += {c.thread_yield};")
            fn.pend_cy += c.thread_yield
            return "NULL", _P
        if name not in ("print", "io", "sqrt", "itof", "ftoi", "check") \
                or len(e.args) != 1:
            raise CodegenUnsupported(f"builtin {name!r}")
        v, k = self.eval(fn, e.args[0])
        if name == "print":
            fn.pend_cy += c.op_builtin
            if k == _I:
                w.emit(f"rec_out({_TAG_INT}, {v});")
            elif k == _B:
                w.emit(f"rec_out({_TAG_BOOL}, {self._truth(v, _B)});")
            elif k == _D:
                w.emit(f"rec_out_d({_TAG_FLOAT}, {v});")
            else:
                raise CodegenUnsupported("print of a reference")
            return "NULL", _P
        if name == "io":
            if k not in (_I, _B):
                raise CodegenUnsupported("io arg kind")
            ti = fn.tmp(_I)
            tc = fn.tmp(_I)
            w.emit(f"{ti} = {v};")
            w.emit(f"{tc} = {c.op_builtin} + ({ti} > 0 ? {ti} : 0);")
            w.emit(f"g_io_cy += {tc};")
            w.emit(f"cy += {tc};")
            return ti, _I
        if name == "sqrt":
            if k not in (_I, _B, _D):
                raise CodegenUnsupported("sqrt arg kind")
            fn.pend_cy += c.op_builtin
            t = fn.tmp(_D)
            w.emit(f"if ({v} < 0) g_bail();")
            arg = self._as_double(v, k, compare=False)
            w.emit(f"{t} = sqrt({arg});")
            return t, _D
        if name == "itof":
            if k not in (_I, _B):
                raise CodegenUnsupported("itof arg kind")
            fn.pend_cy += c.op_basic
            t = fn.tmp(_D)
            w.emit(f"{t} = (double)({v});")
            return t, _D
        if name == "ftoi":
            fn.pend_cy += c.op_basic
            t = fn.tmp(_I)
            if k == _D:
                w.emit(f"{t} = f2i({v});")
            elif k in (_I, _B):
                w.emit(f"{t} = {v};")
            else:
                raise CodegenUnsupported("ftoi arg kind")
            return t, _I
        # check
        fn.pend_cy += c.op_basic
        w.emit(f"if (!{self._truth(v, k)}) g_bail();")
        return "NULL", _P

    # -- statements ------------------------------------------------------

    def stmt(self, fn: _CFn, s: ast.Stmt) -> None:
        c = self.c
        w = fn.body
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
                # the interpreter binds ``null``; only a reference slot
                # can hold that exactly (an uninitialized prim slot
                # would read 0 where the interpreter errors)
                kind = _declared_kind(s.declared_type)
                if kind != _P:
                    raise CodegenUnsupported("uninitialized prim local")
                fn.declare_slot(slot, _P)
                fn.pend_cy += c.op_local
                w.emit(f"{slot} = NULL;")
                return
            v, vk = self.eval(fn, s.init)
            fn.declare_slot(slot, vk)
            if not self._assignable(fn.slot_kinds[slot], vk):
                raise CodegenUnsupported("local init kind mismatch")
            fn.pend_cy += c.op_local
            w.emit(f"{slot} = {v};")
            return
        if isinstance(s, ast.AssignLocal):
            fact = fn.facts.vars.get(id(s))
            if fact is None:
                raise CodegenUnsupported("missing assign fact")
            v, vk = self.eval(fn, s.value)
            if fact[0] == "local":
                slot = fact[1]
                if slot not in fn.slot_kinds:
                    raise CodegenUnsupported("assign to undeclared slot")
                if not self._assignable(fn.slot_kinds[slot], vk):
                    raise CodegenUnsupported("assign kind mismatch")
                fn.pend_cy += c.op_local
                w.emit(f"{slot} = {v};")
            else:
                if fn.unit.class_decl is None:
                    raise CodegenUnsupported("field fallback in main")
                self.field_put(fn, ("S", _P), fn.unit.class_decl.name,
                               s.name, (v, vk))
            return
        if isinstance(s, ast.AssignField):
            if fn.facts.targets.get(id(s)) != "object":
                raise CodegenUnsupported("non-object field write")
            # interpreter order: value first, then target
            v = self.eval(fn, s.value)
            cls = self._recv_class(s.target, fn)
            recv = self.eval(fn, s.target)
            self.field_put(fn, recv, cls, s.field_name, v)
            return
        if isinstance(s, ast.ExprStmt):
            self.eval(fn, s.expr)
            return
        if isinstance(s, ast.If):
            t, tk = self.eval(fn, s.cond)
            fn.pend_cy += c.op_branch
            self.flush(fn)
            w.emit(f"if ({self._truth(t, tk)}) {{")
            w.indent()
            for inner in s.then_body.stmts:
                self.stmt(fn, inner)
            self.flush(fn)
            w.dedent()
            if s.else_body is not None:
                w.emit("} else {")
                w.indent()
                for inner in s.else_body.stmts:
                    self.stmt(fn, inner)
                self.flush(fn)
                w.dedent()
            w.emit("}")
            return
        if isinstance(s, ast.While):
            self.flush(fn)
            w.emit("for (;;) {")
            w.indent()
            # liveness guard, as in the fused backend: exactness is
            # decided by the end-of-run check
            w.emit("if (g_st_cycles + g_direct_cy + cy + g_cy > g_maxc)"
                   " g_bail();")
            t, tk = self.eval(fn, s.cond)
            fn.pend_cy += c.op_branch
            self.flush(fn)
            w.emit(f"if (!{self._truth(t, tk)}) break;")
            for inner in s.body.stmts:
                self.stmt(fn, inner)
            self.flush(fn)
            w.dedent()
            w.emit("}")
            return
        if isinstance(s, ast.Return):
            if s.value is None:
                v, vk = ("NULL", _P)
            else:
                v, vk = self.eval(fn, s.value)
            fn.pend_cy += c.op_return
            self.flush(fn)
            for rslot in reversed(fn.regions):
                self.region_epilogue(fn, rslot)
            w.emit("g_cy += cy; g_sp += sp;")
            if fn.unit.is_main:
                w.emit("return;")
            else:
                if not self._assignable(
                        _return_kind(self.low, fn.unit.key), vk):
                    raise CodegenUnsupported("return kind mismatch")
                w.emit("g_depth--;")
                w.emit(f"return {v};")
            return
        if isinstance(s, ast.RegionStmt):
            self.emit_region(fn, s)
            return
        raise CodegenUnsupported(f"statement {type(s).__name__}")

    def emit_region(self, fn: _CFn, s: ast.RegionStmt) -> None:
        c = self.c
        w = fn.body
        if s.kind is not None:
            raise CodegenUnsupported("region kind")
        pair = fn.facts.regions.get(id(s))
        if pair is None:
            raise CodegenUnsupported("missing region fact")
        rslot, _hslot = pair
        is_lt = s.policy is not None and s.policy.kind == "LT"
        budget = s.policy.size if s.policy is not None else 0
        create_cy = c.region_create + \
            (c.lt_prealloc_per_byte * budget if is_lt else 0)
        fn.declare_region(rslot)
        w.emit(f"{rslot} = mk_region({2 if is_lt else 3}, {budget});")
        w.emit("g_regions_created += 1;")
        fn.pend_cy += create_cy
        w.emit(f"g_region_cy += {create_cy};")
        # the handle binding is free in the interpreter; the handle
        # value itself is unrepresentable here, so any *use* of it
        # (portals are hazards already) fails compilation instead
        saved = fn.cur_region
        fn.regions.append(rslot)
        fn.cur_region = rslot
        for inner in s.body.stmts:
            self.stmt(fn, inner)
        fn.regions.pop()
        fn.cur_region = saved
        self.region_epilogue(fn, rslot)

    def region_epilogue(self, fn: _CFn, rslot: str) -> None:
        rex = self.c.region_exit
        fn.body.emit(f"g_direct_cy += {rex};")
        fn.body.emit(f"g_region_cy += {rex};")
        fn.body.emit(f"g_freed += region_destroy({rslot});")

    # -- functions -------------------------------------------------------

    def _signature(self, unit: MethodUnit, with_names: bool) -> str:
        parts = ["Obj *S" if with_names else "Obj *"]
        for i in range(len(unit.class_formals)):
            parts.append(f"Region *CO{i}" if with_names else "Region *")
        for i in range(len(unit.owner_formals)):
            parts.append(f"Region *OV{i}" if with_names else "Region *")
        parts.append("Region *R" if with_names else "Region *")
        for slot, k in zip(unit.facts.param_slots, _param_kinds(unit)):
            pad = "" if k == _P else " "
            parts.append(f"{_CTYPE[k]}{pad}{slot}" if with_names
                         else _CTYPE[k])
        rkind = _return_kind(self.low, unit.key)
        pad = "" if rkind == _P else " "
        return (f"static {_CTYPE[rkind]}{pad}{_fn_name(unit.key)}"
                f"({', '.join(parts)})")

    def emit_unit(self, w: SourceWriter, unit: MethodUnit) -> None:
        fn = _CFn(unit)
        if not unit.is_main:
            for slot, kind in zip(unit.facts.param_slots,
                                  _param_kinds(unit)):
                fn.slot_kinds[slot] = kind
            fn.body.emit(f"if (++g_depth > {_DEPTH_MAX}) g_bail();")
        for s in unit.body.stmts:
            self.stmt(fn, s)
        self.flush(fn)
        fn.body.emit("g_cy += cy; g_sp += sp;")
        if unit.is_main:
            w.emit("static void c_main(void) {")
        else:
            fn.body.emit("g_depth--;")
            fn.body.emit(f"return {_bake_c(unit.default)};")
            w.emit(self._signature(unit, with_names=True) + " {")
        w.indent()
        w.emit("int64_t cy = 0, sp = 0;")
        for line in fn.decls:
            w.emit(line)
        for line in fn.body.lines:
            w.emit(line)
        w.dedent()
        w.emit("}")
        w.emit("")

    def emit_module(self) -> str:
        c = self.c
        w = SourceWriter()
        prelude = _PRELUDE.format(
            alloc_base=c.alloc_base, alloc_per_byte=c.alloc_per_byte,
            heap_extra=c.heap_alloc_extra, vt_extra=c.vt_alloc_extra,
            vt_chunk=c.vt_chunk_cost,
            chunk_bytes=MemoryArea.VT_CHUNK_BYTES)
        for line in prelude.splitlines():
            w.emit(line)
        w.emit("")
        # prototypes (units may be mutually recursive)
        for key in sorted(self.low.units):
            if key == _MAIN_KEY:
                continue
            w.emit(self._signature(self.low.units[key],
                                   with_names=False) + ";")
        w.emit("")
        for key in sorted(self.low.units):
            if key == _MAIN_KEY:
                continue
            self.emit_unit(w, self.low.units[key])
        self.emit_unit(w, self.low.units[_MAIN_KEY])
        for line in _ENTRY.splitlines():
            w.emit(line)
        return w.source()


def _kind_of_literal(value: Any) -> str:
    if value is None:
        return _P
    if value is True or value is False:
        return _B
    if isinstance(value, int):
        return _I
    if isinstance(value, float):
        return _D
    raise CodegenUnsupported(f"literal {value!r}")


def _declared_kind(declared_type: Any) -> str:
    if declared_type is None:
        return _P
    try:
        return _kind_of(convert_type(declared_type))
    except CodegenUnsupported:
        raise
    except Exception:
        raise CodegenUnsupported("untypeable local declaration")


def _param_kinds(unit: MethodUnit) -> Tuple[str, ...]:
    if unit.method is None:
        return ()
    kinds = []
    for ptype, _pname in unit.method.params:
        try:
            kinds.append(_kind_of(convert_type(ptype)))
        except CodegenUnsupported:
            raise
        except Exception:
            raise CodegenUnsupported("untypeable parameter")
    return tuple(kinds)


def _return_kind(lowered: LoweredProgram, key: Tuple[str, str]) -> str:
    entry = lowered.call_table.get(key)
    if entry is None:
        raise CodegenUnsupported("method without call entry")
    t = entry.return_type
    if t == INT:
        return _I
    if t == FLOAT:
        return _D
    if t == BOOLEAN:
        return _B
    return _P


_PRELUDE = """\
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <setjmp.h>
#include <math.h>

typedef struct Region Region;
typedef union Slot {{ int64_t i; double d; struct Obj *o; Region *r; }} Slot;
typedef struct Obj {{ Region *area; int64_t len; Slot slots[]; }} Obj;
/* policy: 0 heap, 1 immortal, 2 LT, 3 VT */
struct Region {{
    int64_t policy, bytes_used, chunks, lt_budget, live, nobj;
}};

static jmp_buf g_env;
static Region g_heap, g_imm;
static int64_t g_cy, g_sp, g_allocs, g_bytes_alloc, g_alloc_cy;
static int64_t g_peak, g_io_cy, g_thread_cy, g_direct_cy;
static int64_t g_region_cy, g_regions_created, g_freed;
static int64_t g_st_cycles, g_maxc, g_depth;
static int64_t *g_out; static int64_t g_out_cap, g_out_n;
static void **g_ptrs; static int64_t g_nptrs, g_ptr_cap;

static void g_bail(void) {{ longjmp(g_env, 1); }}

static void *arena(size_t bytes) {{
    void *p = calloc(1, bytes);
    if (!p) g_bail();
    if (g_nptrs == g_ptr_cap) {{
        int64_t cap = g_ptr_cap ? g_ptr_cap * 2 : 1024;
        void **np = (void **)realloc(g_ptrs,
                                     (size_t)cap * sizeof(void *));
        if (!np) {{ free(p); g_bail(); }}
        g_ptrs = np; g_ptr_cap = cap;
    }}
    g_ptrs[g_nptrs++] = p;
    return p;
}}

static Obj *alloc_obj(Region *area, int64_t len, int64_t nslots) {{
    Obj *o = (Obj *)arena(sizeof(Obj) + (size_t)nslots * sizeof(Slot));
    o->area = area;
    o->len = len;
    return o;
}}

static Region *mk_region(int64_t policy, int64_t budget) {{
    Region *r = (Region *)arena(sizeof(Region));
    r->policy = policy; r->lt_budget = budget; r->live = 1;
    return r;
}}

/* allocation charge, mirroring MemoryArea.allocate + the
 * interpreter's _build_new cycle formula */
static int64_t alloc_in(Region *reg, int64_t size) {{
    if (!reg->live) g_bail();
    int64_t n = {alloc_base} + {alloc_per_byte} * size;
    if (reg->policy == 2) {{
        if (reg->bytes_used + size > reg->lt_budget) g_bail();
    }} else if (reg->policy == 3) {{
        int64_t before = (reg->bytes_used + {chunk_bytes} - 1)
            / {chunk_bytes};
        int64_t after = (reg->bytes_used + size + {chunk_bytes} - 1)
            / {chunk_bytes};
        int64_t fresh = after - before;
        int64_t floor = (reg->chunks == 0) ? 1 : 0;
        if (fresh < floor) fresh = floor;
        if (after > reg->chunks) reg->chunks = after;
        n += {vt_extra} + {vt_chunk} * fresh;
    }} else if (reg->policy == 0) {{
        n += {heap_extra};
    }}
    reg->bytes_used += size;
    if (reg->policy == 0 && reg->bytes_used > g_peak)
        g_peak = reg->bytes_used;
    reg->nobj += 1;
    g_allocs += 1;
    g_bytes_alloc += size;
    g_alloc_cy += n;
    return n;
}}

/* MemoryArea.destroy: flush (count out, ledger to zero), then dead */
static int64_t region_destroy(Region *r) {{
    int64_t freed = r->nobj;
    r->nobj = 0; r->bytes_used = 0; r->chunks = 0; r->live = 0;
    return freed;
}}

static Obj *rq(Obj *o) {{ if (!o) g_bail(); return o; }}

static int64_t idx_ck(Obj *o, int64_t i) {{
    if (i < 0 || i >= o->len) g_bail();
    return i;
}}

/* overflow-checked int64 ops: host ints are unbounded, so any
 * overflow is an exactness loss -> bail */
static int64_t addi(int64_t a, int64_t b) {{
    int64_t r; if (__builtin_add_overflow(a, b, &r)) g_bail(); return r;
}}
static int64_t subi(int64_t a, int64_t b) {{
    int64_t r; if (__builtin_sub_overflow(a, b, &r)) g_bail(); return r;
}}
static int64_t muli(int64_t a, int64_t b) {{
    int64_t r; if (__builtin_mul_overflow(a, b, &r)) g_bail(); return r;
}}
/* Java division truncates toward zero == C */
static int64_t dvi(int64_t a, int64_t b) {{
    if (b == 0) g_bail();
    if (a == INT64_MIN && b == -1) g_bail();
    return a / b;
}}
static int64_t mdi(int64_t a, int64_t b) {{
    if (b == 0) g_bail();
    if (a == INT64_MIN && b == -1) g_bail();
    return a % b;
}}
static double dvd(double a, double b) {{
    if (b == 0) g_bail();
    return a / b;
}}
static double mdd(double a, double b) {{
    if (b == 0) g_bail();
    return a - (a / b) * b;
}}
/* comparisons against doubles: the host compares int/float exactly,
 * C would round the int — exact only within 2**53 */
static double i2d(int64_t v) {{
    if (v > 9007199254740992LL || v < -9007199254740992LL) g_bail();
    return (double)v;
}}
/* host int(float) truncates toward zero and never overflows */
static int64_t f2i(double v) {{
    if (!(v >= -9223372036854775808.0 && v < 9223372036854775808.0))
        g_bail();
    return (int64_t)v;
}}

static void rec_out(int64_t tag, int64_t bits) {{
    if (g_out_n + 2 > g_out_cap) g_bail();
    g_out[g_out_n++] = tag;
    g_out[g_out_n++] = bits;
}}
static void rec_out_d(int64_t tag, double v) {{
    int64_t bits; memcpy(&bits, &v, 8); rec_out(tag, bits);
}}
"""

_ENTRY = """\
static void g_cleanup(void) {
    for (int64_t i = 0; i < g_nptrs; i++) free(g_ptrs[i]);
    g_nptrs = 0;
}

int64_t repro_run(int64_t st_cycles, int64_t maxc, int64_t heap_bytes,
                  int64_t peak_bytes, int64_t *out, int64_t out_cap,
                  int64_t *res) {
    g_cy = g_sp = g_allocs = g_bytes_alloc = g_alloc_cy = 0;
    g_io_cy = g_thread_cy = g_direct_cy = 0;
    g_region_cy = g_regions_created = g_freed = 0;
    g_out_n = g_depth = 0;
    g_st_cycles = st_cycles; g_maxc = maxc;
    g_out = out; g_out_cap = out_cap;
    memset(&g_heap, 0, sizeof g_heap);
    memset(&g_imm, 0, sizeof g_imm);
    g_heap.policy = 0; g_heap.bytes_used = heap_bytes; g_heap.live = 1;
    g_imm.policy = 1; g_imm.live = 1;
    g_peak = peak_bytes;
    if (setjmp(g_env)) { g_cleanup(); return 1; }
    c_main();
    g_cleanup();
    res[0] = g_cy; res[1] = g_sp; res[2] = g_allocs;
    res[3] = g_bytes_alloc; res[4] = g_alloc_cy;
    res[5] = g_heap.bytes_used; res[6] = g_peak;
    res[7] = g_io_cy; res[8] = g_thread_cy; res[9] = g_out_n;
    res[10] = g_direct_cy; res[11] = g_region_cy;
    res[12] = g_regions_created; res[13] = g_freed;
    return 0;
}
"""


# ---------------------------------------------------------------------------
# toolchain: cc + cffi, with on-disk artifact reuse
# ---------------------------------------------------------------------------

_ffi = None
_LIBS: Dict[str, Any] = {}


def _artifact_dir() -> str:
    path = os.environ.get("REPRO_CODEGEN_DIR")
    if not path:
        uid = os.getuid() if hasattr(os, "getuid") else 0
        path = os.path.join(tempfile.gettempdir(), f"repro-cgen-{uid}")
    os.makedirs(path, exist_ok=True)
    return path


def _find_cc() -> str:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for cand in ("cc", "gcc", "clang"):
        found = shutil.which(cand)
        if found:
            return found
    raise CodegenUnsupported("no C toolchain on PATH")


def _get_ffi() -> Any:
    global _ffi
    if _ffi is None:
        try:
            import cffi
        except ImportError:
            raise CodegenUnsupported("cffi unavailable")
        ffi = cffi.FFI()
        ffi.cdef("int64_t repro_run(int64_t, int64_t, int64_t, int64_t,"
                 " int64_t *, int64_t, int64_t *);")
        _ffi = ffi
    return _ffi


def _get_lib(src: str) -> Any:
    """dlopen'd library for ``src`` (compiled once per source hash)."""
    sha = hashlib.sha256(src.encode("utf-8")).hexdigest()[:24]
    lib = _LIBS.get(sha)
    if lib is not None:
        return lib
    ffi = _get_ffi()
    adir = _artifact_dir()
    so_path = os.path.join(adir, f"{sha}.so")
    if not os.path.exists(so_path):
        cc = _find_cc()
        c_path = os.path.join(adir, f"{sha}.c")
        with open(c_path, "w", encoding="utf-8") as fh:
            fh.write(src)
        tmp_so = so_path + f".tmp{os.getpid()}"
        proc = subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-o", tmp_so, c_path, "-lm"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace")[-500:]
            raise CodegenUnsupported(f"cc failed: {tail}")
        os.replace(tmp_so, so_path)
    try:
        lib = ffi.dlopen(so_path)
    except OSError as exc:
        raise CodegenUnsupported(f"dlopen failed: {exc}")
    _LIBS[sha] = lib
    return lib


# ---------------------------------------------------------------------------
# compile + bind
# ---------------------------------------------------------------------------

def c_source(lowered: LoweredProgram, cost: Any) -> str:
    """The generated C text (exposed for tests and debugging)."""
    return _CEmitter(lowered, cost).emit_module()


def _make_bind(lib: Any) -> Any:
    ffi = _get_ffi()

    def bind(machine: Any) -> Any:
        def main_co(thread: Any) -> Any:
            st = machine.stats
            heap = machine.regions.heap
            maxc = machine.scheduler.max_cycles
            gct = machine.gc.trigger_bytes
            out = ffi.new("int64_t[]", 2 * _OUT_RECORDS)
            res = ffi.new("int64_t[]", _RES_FIELDS)
            status = lib.repro_run(
                st.cycles, maxc, heap.bytes_used, st.peak_heap_bytes,
                out, 2 * _OUT_RECORDS, res)
            if status != 0:
                machine.program_bailed = True
                yield 0
                return
            # region-exit charges commit outside the quantum, exactly
            # as the interpreter's finally blocks do
            machine.charge_direct(thread, res[_R_DIRECT])
            cy = res[_R_CY]
            if st.cycles + cy > maxc or res[_R_HEAP] >= gct:
                machine.program_bailed = True
                yield 0
                return
            st.steps += res[_R_SP]
            st.allocations += res[_R_ALLOCS]
            st.bytes_allocated += res[_R_BYTES]
            st.alloc_cycles += res[_R_ALLOC_CY]
            st.peak_heap_bytes = res[_R_PEAK]
            st.io_cycles += res[_R_IO]
            st.thread_cycles += res[_R_THREAD]
            st.region_cycles += res[_R_REGION_CY]
            st.regions_created += res[_R_REGIONS]
            st.objects_freed += res[_R_FREED]
            # the heap's byte ledger stays faithful (the host-side
            # object list is not materialized: no GC ran — else bail)
            heap.bytes_used = res[_R_HEAP]
            heap.peak_bytes = max(heap.peak_bytes, res[_R_PEAK])
            output = machine.output
            n = res[_R_OUT]
            i = 0
            while i < n:
                tag, bits = out[i], out[i + 1]
                if tag == _TAG_INT:
                    output.append(str(bits))
                elif tag == _TAG_FLOAT:
                    val = struct.unpack(
                        "<d", struct.pack("<q", bits))[0]
                    output.append(f"{val:.6g}")
                else:
                    output.append("true" if bits else "false")
                i += 2
            yield cy
        return main_co
    return bind


def compile_c(machine: Any) -> Any:
    """Compile ``machine``'s program for the C backend, or raise
    :class:`CodegenUnsupported` with the reason.  Callers go through
    :func:`~repro.interp.codegen_py.select_program`, which has already
    applied the machine gate."""
    from .codegen_py import PyProgram, _fusable
    opts = machine.options
    if opts.checks_enabled:
        raise CodegenUnsupported(
            "C backend is checks-erased (static mode only)")
    if opts.validate:
        raise CodegenUnsupported(
            "C backend erases check validation (use --no-validate)")
    lowered = _fusable(machine.analyzed)
    cost = machine.cost_model
    bind = memo(machine.analyzed, ("c", cost_key(cost)),
                lambda: _make_bind(_get_lib(c_source(lowered, cost))))
    return PyProgram("c", "py", bind(machine))
