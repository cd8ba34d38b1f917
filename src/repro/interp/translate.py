"""Section 2.6 — translation to Real-Time Java.

The paper's system compiles by *type erasure*: owner parameters disappear
and only region handles survive.  The translation has to reconstruct, for
every ``new cn<o1..n>`` site, *how to obtain the handle* of the region the
object goes to.  The typechecker already proved one exists
(``E ⊢ av RH(o1)``); the translator replays that derivation and picks the
cheapest RTSJ mechanism:

=====================  ====================================================
strategy               emitted RTSJ code
=====================  ====================================================
``CURRENT_REGION``     plain ``new`` (we are executing inside that region)
``HEAP``               ``HeapMemory.instance().newInstance(C.class)``
``IMMORTAL``           ``ImmortalMemory.instance().newInstance(C.class)``
``HANDLE_VAR``         ``h.newInstance(C.class)`` for an in-scope handle
``INITIAL_REGION``     the handle the runtime passed for initialRegion
``VIA_THIS``           ``MemoryArea.getMemoryArea(this).newInstance(...)``
``VIA_OWNER_CHAIN``    like VIA_THIS but starting from another owner whose
                       handle is transitively available ([AV TRANS1/2])
=====================  ====================================================

Regions themselves are lowered per Figure 10: a region ``r`` becomes an
RTSJ memory area ``m`` plus wrapper objects ``w1`` (subregion table,
allocated next to ``m``) and ``w2`` (typed portal fields, allocated
*inside* ``m`` and reachable through ``m.getPortal()``).

``translate(analyzed)`` returns a :class:`Translation` with the strategy
table and a pseudo-Java rendering of the erased program for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Dict, List, Optional, Tuple

from ..core.api import AnalyzedProgram
from ..core.checker import Checker
from ..core.env import Env
from ..core.owners import HEAP, IMMORTAL, INITIAL_REGION, Owner, THIS
from ..lang import ast


class AllocStrategy(Enum):
    CURRENT_REGION = auto()
    HEAP = auto()
    IMMORTAL = auto()
    HANDLE_VAR = auto()
    INITIAL_REGION = auto()
    VIA_THIS = auto()
    VIA_OWNER_CHAIN = auto()


@dataclass
class AllocSite:
    class_name: str
    owner: str
    strategy: AllocStrategy
    #: handle variable name for HANDLE_VAR (None otherwise)
    handle: Optional[str]
    line: int


@dataclass
class Translation:
    sites: List[AllocSite]
    java: str

    def strategy_histogram(self) -> Dict[AllocStrategy, int]:
        out: Dict[AllocStrategy, int] = {}
        for site in self.sites:
            out[site.strategy] = out.get(site.strategy, 0) + 1
        return out


class _CollectingChecker(Checker):
    """Re-runs the typechecker with handle-variable tracking so each
    allocation site can name the concrete handle to use."""

    def __init__(self, program_info):
        super().__init__(program_info)
        self.sites: List[AllocSite] = []
        #: region owner name -> innermost handle variable name
        self.handle_vars: Dict[str, str] = {}
        self._rcr_stack: List[Owner] = []
        self.new_site_hook = self._record

    # track handle variable names alongside the env's handle set
    def _check_region_stmt(self, env, stmt, permitted, rcr):
        saved = self.handle_vars.get(stmt.region_name)
        self.handle_vars[stmt.region_name] = stmt.handle_name
        try:
            super()._check_region_stmt(env, stmt, permitted, rcr)
        finally:
            if saved is None:
                self.handle_vars.pop(stmt.region_name, None)
            else:
                self.handle_vars[stmt.region_name] = saved

    def _check_subregion_stmt(self, env, stmt, permitted, rcr):
        saved = self.handle_vars.get(stmt.region_name)
        self.handle_vars[stmt.region_name] = stmt.handle_name
        try:
            super()._check_subregion_stmt(env, stmt, permitted, rcr)
        finally:
            if saved is None:
                self.handle_vars.pop(stmt.region_name, None)
            else:
                self.handle_vars[stmt.region_name] = saved

    def _check_method(self, class_env, info, mi):
        from ..core.types import HandleType
        added = []
        for ptype, pname in mi.params:
            if isinstance(ptype, HandleType) \
                    and ptype.region.name not in self.handle_vars:
                self.handle_vars[ptype.region.name] = pname
                added.append(ptype.region.name)
        try:
            super()._check_method(class_env, info, mi)
        finally:
            for name in added:
                self.handle_vars.pop(name, None)

    def _record(self, env: Env, expr: ast.NewExpr, rcr: Owner) -> None:
        owner = Owner(expr.owners[0].name)
        strategy, handle = self._strategy_for(env, owner, rcr)
        self.sites.append(AllocSite(expr.class_name, owner.name, strategy,
                                    handle, expr.loc[0]))

    def _strategy_for(self, env: Env, owner: Owner,
                      rcr: Owner) -> Tuple[AllocStrategy, Optional[str]]:
        if owner == rcr:
            return AllocStrategy.CURRENT_REGION, None
        if owner == HEAP:
            return AllocStrategy.HEAP, None
        if owner == IMMORTAL:
            return AllocStrategy.IMMORTAL, None
        if owner == INITIAL_REGION:
            return AllocStrategy.INITIAL_REGION, None
        if owner.name in self.handle_vars:
            return AllocStrategy.HANDLE_VAR, self.handle_vars[owner.name]
        if owner == THIS:
            return AllocStrategy.VIA_THIS, None
        # replay [AV TRANS1/2]: walk the ownership component looking for
        # an owner whose handle is directly available
        seen = {owner}
        frontier = [owner]
        while frontier:
            current = frontier.pop()
            for a, b in env.owns_edges:
                for nxt in ((b,) if a == current
                            else (a,) if b == current else ()):
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    if nxt == THIS:
                        return AllocStrategy.VIA_THIS, None
                    if nxt == HEAP:
                        return AllocStrategy.HEAP, None
                    if nxt == IMMORTAL:
                        return AllocStrategy.IMMORTAL, None
                    if nxt == INITIAL_REGION:
                        return AllocStrategy.INITIAL_REGION, None
                    if nxt.name in self.handle_vars:
                        return (AllocStrategy.VIA_OWNER_CHAIN,
                                self.handle_vars[nxt.name])
                    frontier.append(nxt)
        # the typechecker proved availability, so the only remaining path
        # is through `this`'s region
        return AllocStrategy.VIA_THIS, None


# ---------------------------------------------------------------------------
# pseudo-Java emission
# ---------------------------------------------------------------------------

_PRIM_MAP = {"int": "int", "float": "double", "boolean": "boolean",
             "void": "void"}


class _JavaEmitter:
    def __init__(self, sites: Dict[int, AllocSite]) -> None:
        self.lines: List[str] = []
        self.depth = 0
        self.sites = sites

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def erase_type(self, t: ast.TypeAst) -> str:
        if isinstance(t, ast.PrimTypeAst):
            return _PRIM_MAP[t.name]
        if isinstance(t, ast.HandleTypeAst):
            return "MemoryArea"
        assert isinstance(t, ast.ClassTypeAst)
        return t.name

    def expr(self, e: ast.Expr) -> str:
        if isinstance(e, ast.IntLit):
            return str(e.value)
        if isinstance(e, ast.FloatLit):
            return repr(e.value)
        if isinstance(e, ast.BoolLit):
            return "true" if e.value else "false"
        if isinstance(e, ast.NullLit):
            return "null"
        if isinstance(e, ast.ThisRef):
            return "this"
        if isinstance(e, ast.VarRef):
            return e.name
        if isinstance(e, ast.NewExpr):
            return self._new_expr(e)
        if isinstance(e, ast.FieldRead):
            return f"{self.expr(e.target)}.{e.field_name}"
        if isinstance(e, ast.Invoke):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{self.expr(e.target)}.{e.method_name}({args})"
        if isinstance(e, ast.Binary):
            return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"
        if isinstance(e, ast.Unary):
            return f"({e.op}{self.expr(e.operand)})"
        if isinstance(e, ast.BuiltinCall):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"Runtime.{e.name}({args})"
        return "/* ? */"

    def _new_expr(self, e: ast.NewExpr) -> str:
        site = self.sites.get(id(e))
        ctor_args = ", ".join(self.expr(a) for a in e.args)
        plain = f"new {e.class_name}({ctor_args})"
        if site is None or site.strategy is AllocStrategy.CURRENT_REGION:
            return plain
        target = {
            AllocStrategy.HEAP: "HeapMemory.instance()",
            AllocStrategy.IMMORTAL: "ImmortalMemory.instance()",
            AllocStrategy.INITIAL_REGION: "initialArea",
            AllocStrategy.VIA_THIS: "MemoryArea.getMemoryArea(this)",
        }.get(site.strategy, site.handle or "area")
        return (f"({e.class_name}) {target}.newInstance"
                f"({e.class_name}.class) /* {ctor_args} */"
                if not ctor_args else
                f"({e.class_name}) {target}.newArray"
                f"({e.class_name}.class, {ctor_args})")

    # -- statements -----------------------------------------------------

    def stmt(self, s: ast.Stmt) -> None:
        if isinstance(s, ast.Block):
            self.emit("{")
            self.depth += 1
            for inner in s.stmts:
                self.stmt(inner)
            self.depth -= 1
            self.emit("}")
        elif isinstance(s, ast.LocalDecl):
            init = f" = {self.expr(s.init)}" if s.init is not None else ""
            self.emit(f"{self.erase_type(s.declared_type)} "
                      f"{s.name}{init};")
        elif isinstance(s, ast.AssignLocal):
            self.emit(f"{s.name} = {self.expr(s.value)};")
        elif isinstance(s, ast.AssignField):
            self.emit(f"{self.expr(s.target)}.{s.field_name} = "
                      f"{self.expr(s.value)};")
        elif isinstance(s, ast.ExprStmt):
            self.emit(f"{self.expr(s.expr)};")
        elif isinstance(s, ast.If):
            self.emit(f"if ({self.expr(s.cond)})")
            self.stmt(s.then_body)
            if s.else_body is not None:
                self.emit("else")
                self.stmt(s.else_body)
        elif isinstance(s, ast.While):
            self.emit(f"while ({self.expr(s.cond)})")
            self.stmt(s.body)
        elif isinstance(s, ast.Return):
            self.emit("return;" if s.value is None
                      else f"return {self.expr(s.value)};")
        elif isinstance(s, ast.Fork):
            thread_cls = ("NoHeapRealtimeThread" if s.realtime
                          else "RealtimeThread")
            self.emit(f"new {thread_cls}(() -> "
                      f"{self.expr(s.call)}).start();")
        elif isinstance(s, ast.RegionStmt):
            if s.policy is not None and s.policy.kind == "LT":
                ctor = f"new LTMemoryWithSubregions({s.policy.size})"
            else:
                ctor = "new VTMemoryWithSubregions()"
            self.emit(f"// region {s.region_name} "
                      f"(w1 = subregion table, w2 = portal wrapper)")
            self.emit(f"final MemoryArea {s.handle_name} = {ctor};")
            self.emit(f"{s.handle_name}.enter(() ->")
            self.stmt(s.body)
            self.emit(");")
        elif isinstance(s, ast.SubregionStmt):
            parent = self.expr(s.parent_handle)
            self.emit(f"final MemoryArea {s.handle_name} = "
                      f"{parent}.getSubregionTable()"
                      f".{s.subregion_name}"
                      f"{'.renew()' if s.fresh else ''};")
            self.emit(f"{s.handle_name}.enter(() ->")
            self.stmt(s.body)
            self.emit(");")

    # -- declarations -----------------------------------------------------

    def field(self, f: ast.FieldDecl) -> None:
        static = "static " if f.static else ""
        init = f" = {self.expr(f.init)}" if f.init is not None else ""
        self.emit(f"{static}{self.erase_type(f.declared_type)} "
                  f"{f.name}{init};")

    def method(self, m: ast.MethodDecl) -> None:
        params = ", ".join(f"{self.erase_type(t)} {name}"
                           for t, name in m.params)
        self.emit(f"{self.erase_type(m.return_type)} {m.name}({params})")
        self.stmt(m.body)

    def clazz(self, c: ast.ClassDecl) -> None:
        ext = f" extends {c.superclass.name}" if c.superclass else ""
        self.emit(f"class {c.name}{ext} {{")
        self.depth += 1
        for f in c.fields:
            self.field(f)
        for m in c.methods:
            self.method(m)
        self.depth -= 1
        self.emit("}")

    def region_kind(self, rk: ast.RegionKindDecl) -> None:
        self.emit(f"// regionKind {rk.name}: portal wrapper w2 "
                  "(allocated inside the region, typed portal fields)")
        self.emit(f"class {rk.name}Portals {{")
        self.depth += 1
        for portal in rk.portals:
            self.field(portal)
        self.depth -= 1
        self.emit("}")
        self.emit(f"// regionKind {rk.name}: subregion table w1 "
                  "(allocated next to the memory area)")
        self.emit(f"class {rk.name}Subregions {{")
        self.depth += 1
        for sub in rk.subregions:
            self.emit(f"MemoryArea {sub.name}; "
                      f"// {sub.kind.name}, "
                      f"{'LT(%d)' % sub.policy.size if sub.policy.kind == 'LT' else 'VT'}, "
                      f"{'RT' if sub.realtime else 'NoRT'}")
        self.depth -= 1
        self.emit("}")


def allocation_strategies(
        analyzed: AnalyzedProgram
) -> Tuple[Dict[int, AllocSite], List[AllocSite]]:
    """Returns (``id(NewExpr)`` → allocation site, all sites in check
    order) for a well-typed program — shared by the pseudo-Java emitter
    and the executable Python backend."""
    analyzed.require_well_typed()
    checker = _CollectingChecker(analyzed.info)
    errors = checker.check()
    if errors:
        raise errors[0]
    site_by_line: Dict[int, AllocSite] = {}
    for site in checker.sites:
        site_by_line.setdefault(site.line, site)

    sites_by_id: Dict[int, AllocSite] = {}

    def index_expr(e: ast.Expr) -> None:
        if isinstance(e, ast.NewExpr):
            site = site_by_line.get(e.loc[0])
            if site is not None:
                sites_by_id[id(e)] = site
        for child in _expr_children(e):
            index_expr(child)

    def index_stmt(s: ast.Stmt) -> None:
        for child in _stmt_children(s):
            if isinstance(child, ast.Stmt):
                index_stmt(child)
            else:
                index_expr(child)

    program = analyzed.program
    for cls in program.classes:
        for m in cls.methods:
            index_stmt(m.body)
    if program.main is not None:
        index_stmt(program.main)
    return sites_by_id, checker.sites


def translate(analyzed: AnalyzedProgram) -> Translation:
    """Compute allocation strategies and the pseudo-Java erasure of a
    well-typed program."""
    sites_by_id, all_sites = allocation_strategies(analyzed)
    program = analyzed.program

    emitter = _JavaEmitter(sites_by_id)
    emitter.emit("// Pseudo-RTSJ translation (Section 2.6); owner")
    emitter.emit("// parameters erased, region handles made explicit.")
    for rk in program.region_kinds:
        emitter.region_kind(rk)
    for cls in program.classes:
        emitter.clazz(cls)
    if program.main is not None:
        emitter.emit("static void main() {")
        emitter.depth += 1
        for s in program.main.stmts:
            emitter.stmt(s)
        emitter.depth -= 1
        emitter.emit("}")
    return Translation(all_sites, "\n".join(emitter.lines) + "\n")


def _expr_children(e: ast.Expr):
    if isinstance(e, ast.NewExpr):
        return list(e.args)
    if isinstance(e, ast.FieldRead):
        return [e.target]
    if isinstance(e, ast.Invoke):
        return [e.target, *e.args]
    if isinstance(e, ast.Binary):
        return [e.left, e.right]
    if isinstance(e, ast.Unary):
        return [e.operand]
    if isinstance(e, ast.BuiltinCall):
        return list(e.args)
    return []


def _stmt_children(s: ast.Stmt):
    if isinstance(s, ast.Block):
        return list(s.stmts)
    if isinstance(s, ast.LocalDecl):
        return [s.init] if s.init is not None else []
    if isinstance(s, ast.AssignLocal):
        return [s.value]
    if isinstance(s, ast.AssignField):
        return [s.target, s.value]
    if isinstance(s, ast.ExprStmt):
        return [s.expr]
    if isinstance(s, ast.If):
        out = [s.cond, s.then_body]
        if s.else_body is not None:
            out.append(s.else_body)
        return out
    if isinstance(s, ast.While):
        return [s.cond, s.body]
    if isinstance(s, ast.Return):
        return [s.value] if s.value is not None else []
    if isinstance(s, ast.Fork):
        return [s.call]
    if isinstance(s, ast.RegionStmt):
        return [s.body]
    if isinstance(s, ast.SubregionStmt):
        return [s.parent_handle, s.body]
    return []
