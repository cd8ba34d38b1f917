"""Figure 11 — programming overhead: lines of code vs lines changed.

The paper counts "the number of lines of code that needed type
annotations", observing "In most cases, we only had to change code where
regions were created."  We reproduce the measurement directly on the AST
*before* defaults and inference run: a line is *annotated* iff the
programmer wrote any construct plain Java would not contain —

* a ``regionKind`` declaration (every line of it),
* a region creation / subregion entry statement (``(RHandle<...>)``),
* explicit owner formals on a class or method,
* explicit owner arguments on a type, ``new``, or call,
* an ``accesses`` effects clause or a ``where`` constraint clause,
* an ``RT fork`` (a plain ``fork`` maps to ``new Thread``, so it does not
  count).

Everything the Section 2.5 defaults/inference can supply is, by
construction, *not* written in our benchmark sources — the same experience
the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from ..lang import ast, parse_program
from ..source import Loc


@dataclass
class AnnotationReport:
    name: str
    total_lines: int
    annotated_lines: int
    lines: Set[int]

    @property
    def fraction(self) -> float:
        return (self.annotated_lines / self.total_lines
                if self.total_lines else 0.0)


def _code_lines(source: str) -> int:
    count = 0
    in_block_comment = False
    for line in source.splitlines():
        stripped = line.strip()
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
            continue
        if not stripped or stripped.startswith("//"):
            continue
        if stripped.startswith("/*"):
            if "*/" not in stripped:
                in_block_comment = True
            continue
        count += 1
    return count


class _AnnotationScanner:
    def __init__(self) -> None:
        self.lines: Set[int] = set()

    def mark(self, loc: Loc) -> None:
        if loc[0] > 0:
            self.lines.add(loc[0])

    def mark_range(self, loc: Loc) -> None:
        if loc[0] > 0:
            self.lines.update(range(loc[0], loc[2] + 1))

    # ------------------------------------------------------------------

    def scan_program(self, program: ast.Program) -> None:
        for rk in program.region_kinds:
            self.mark_range(rk.loc)
        for cls in program.classes:
            self.scan_class(cls)
        if program.main is not None:
            self.scan_block(program.main)

    def scan_class(self, cls: ast.ClassDecl) -> None:
        if cls.formals:
            self.mark(cls.loc)
        for c in cls.constraints:
            self.mark(c.loc)
        if cls.superclass is not None and cls.superclass.owners:
            self.mark(cls.superclass.loc)
        for fld in cls.fields:
            self.scan_type(fld.declared_type)
        for meth in cls.methods:
            self.scan_method(meth)

    def scan_method(self, meth: ast.MethodDecl) -> None:
        if meth.formals:
            self.mark(meth.loc)
        if meth.effects is not None:
            self.mark(meth.loc)
        for c in meth.constraints:
            self.mark(c.loc)
        self.scan_type(meth.return_type)
        for ptype, _name in meth.params:
            self.scan_type(ptype)
        self.scan_block(meth.body)

    def scan_type(self, t: ast.TypeAst) -> None:
        if isinstance(t, ast.ClassTypeAst) and t.owners:
            self.mark(t.loc)
        elif isinstance(t, ast.HandleTypeAst):
            self.mark(t.loc)

    # -- statements -----------------------------------------------------

    def scan_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            self.scan_stmt(stmt)

    def scan_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.scan_block(stmt)
        elif isinstance(stmt, ast.LocalDecl):
            self.scan_type(stmt.declared_type)
            if stmt.init is not None:
                self.scan_expr(stmt.init)
        elif isinstance(stmt, ast.AssignLocal):
            self.scan_expr(stmt.value)
        elif isinstance(stmt, ast.AssignField):
            self.scan_expr(stmt.target)
            self.scan_expr(stmt.value)
        elif isinstance(stmt, ast.ExprStmt):
            self.scan_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self.scan_expr(stmt.cond)
            self.scan_block(stmt.then_body)
            if stmt.else_body is not None:
                self.scan_block(stmt.else_body)
        elif isinstance(stmt, ast.While):
            self.scan_expr(stmt.cond)
            self.scan_block(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.scan_expr(stmt.value)
        elif isinstance(stmt, ast.Fork):
            if stmt.realtime:
                self.mark(stmt.loc)
            self.scan_expr(stmt.call)
        elif isinstance(stmt, ast.RegionStmt):
            self.mark(stmt.loc)
            self.scan_block(stmt.body)
        elif isinstance(stmt, ast.SubregionStmt):
            self.mark(stmt.loc)
            self.scan_block(stmt.body)

    # -- expressions --------------------------------------------------------

    def scan_expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.NewExpr):
            if expr.owners:
                self.mark(expr.loc)
            for arg in expr.args:
                self.scan_expr(arg)
        elif isinstance(expr, ast.FieldRead):
            self.scan_expr(expr.target)
        elif isinstance(expr, ast.Invoke):
            if expr.owner_args:
                self.mark(expr.loc)
            self.scan_expr(expr.target)
            for arg in expr.args:
                self.scan_expr(arg)
        elif isinstance(expr, ast.Binary):
            self.scan_expr(expr.left)
            self.scan_expr(expr.right)
        elif isinstance(expr, ast.Unary):
            self.scan_expr(expr.operand)
        elif isinstance(expr, ast.BuiltinCall):
            for arg in expr.args:
                self.scan_expr(arg)


def _count_owner_atoms(program: ast.Program) -> int:
    """Number of owner atoms written in the AST (formals' kind arguments,
    type owners, new/call owner arguments, effects, constraints...)."""
    count = 0

    def count_kind(kind: ast.KindAst) -> None:
        nonlocal count
        count += len(kind.args)

    def count_type(t: ast.TypeAst) -> None:
        nonlocal count
        if isinstance(t, ast.ClassTypeAst):
            count += len(t.owners)
        elif isinstance(t, ast.HandleTypeAst):
            count += 1

    def walk_expr(e: ast.Expr) -> None:
        nonlocal count
        if isinstance(e, ast.NewExpr):
            count += len(e.owners)
            for arg in e.args:
                walk_expr(arg)
        elif isinstance(e, ast.FieldRead):
            walk_expr(e.target)
        elif isinstance(e, ast.Invoke):
            count += len(e.owner_args)
            walk_expr(e.target)
            for arg in e.args:
                walk_expr(arg)
        elif isinstance(e, ast.Binary):
            walk_expr(e.left)
            walk_expr(e.right)
        elif isinstance(e, ast.Unary):
            walk_expr(e.operand)
        elif isinstance(e, ast.BuiltinCall):
            for arg in e.args:
                walk_expr(arg)

    def walk_stmt(s: ast.Stmt) -> None:
        if isinstance(s, ast.Block):
            for inner in s.stmts:
                walk_stmt(inner)
        elif isinstance(s, ast.LocalDecl):
            count_type(s.declared_type)
            if s.init is not None:
                walk_expr(s.init)
        elif isinstance(s, ast.AssignLocal):
            walk_expr(s.value)
        elif isinstance(s, ast.AssignField):
            walk_expr(s.target)
            walk_expr(s.value)
        elif isinstance(s, ast.ExprStmt):
            walk_expr(s.expr)
        elif isinstance(s, ast.If):
            walk_expr(s.cond)
            walk_stmt(s.then_body)
            if s.else_body is not None:
                walk_stmt(s.else_body)
        elif isinstance(s, ast.While):
            walk_expr(s.cond)
            walk_stmt(s.body)
        elif isinstance(s, ast.Return):
            if s.value is not None:
                walk_expr(s.value)
        elif isinstance(s, ast.Fork):
            walk_expr(s.call)
        elif isinstance(s, (ast.RegionStmt, ast.SubregionStmt)):
            walk_stmt(s.body)

    for cls in program.classes:
        count += len(cls.formals)
        for f in cls.formals:
            count_kind(f.kind)
        if cls.superclass is not None:
            count_type(cls.superclass)
        count += 2 * len(cls.constraints)
        for fld in cls.fields:
            count_type(fld.declared_type)
        for meth in cls.methods:
            count += len(meth.formals)
            for f in meth.formals:
                count_kind(f.kind)
            count_type(meth.return_type)
            for ptype, _n in meth.params:
                count_type(ptype)
            if meth.effects is not None:
                count += len(meth.effects)
            count += 2 * len(meth.constraints)
            walk_stmt(meth.body)
    for rk in program.region_kinds:
        count += len(rk.formals)
        for portal in rk.portals:
            count_type(portal.declared_type)
        for sub in rk.subregions:
            count_kind(sub.kind)
    if program.main is not None:
        walk_stmt(program.main)
    return count


def inference_stats(source: str, name: str = "?") -> dict:
    """How much of the ownership structure was *supplied* by the
    Section 2.5 defaults and inference rather than written by the
    programmer: owner atoms before vs after the completion pass."""
    from .. import analyze
    raw = _count_owner_atoms(parse_program(source))
    analyzed = analyze(source)
    completed = _count_owner_atoms(analyzed.program)
    supplied = completed - raw
    return {
        "program": name,
        "written_owner_atoms": raw,
        "total_owner_atoms": completed,
        "supplied_by_inference": supplied,
        "supplied_fraction": (supplied / completed if completed else 0.0),
    }


def count_annotations(source: str, name: str = "?") -> AnnotationReport:
    """Parse ``source`` (without running defaults/inference) and count the
    lines carrying explicit ownership/region annotations."""
    program = parse_program(source)
    scanner = _AnnotationScanner()
    scanner.scan_program(program)
    return AnnotationReport(name, _code_lines(source),
                            len(scanner.lines), scanner.lines)


def figure11(fast: bool = True) -> List[dict]:
    """Regenerate Figure 11: per benchmark, our LoC / annotated lines next
    to the paper's numbers."""
    from .suite import BENCHMARKS
    rows = []
    for bench in BENCHMARKS.values():
        report = count_annotations(bench.source(fast=fast), bench.name)
        rows.append({
            "program": bench.name,
            "loc": report.total_lines,
            "lines_changed": report.annotated_lines,
            "fraction": round(report.fraction, 3),
            "paper_loc": bench.paper_loc,
            "paper_lines_changed": bench.paper_lines_changed,
            "paper_fraction": (
                round(bench.paper_lines_changed / bench.paper_loc, 3)
                if bench.paper_loc else None),
        })
    return rows


def format_figure11(rows: List[dict]) -> str:
    header = (f"{'Program':<10} {'LoC':>6} {'Changed':>8} {'Frac':>6}   "
              f"{'Paper LoC':>9} {'Paper chg':>9} {'Frac':>6}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['program']:<10} {row['loc']:>6} "
            f"{row['lines_changed']:>8} {row['fraction']:>6.3f}   "
            f"{row['paper_loc']:>9} {row['paper_lines_changed']:>9} "
            f"{row['paper_fraction']:>6.3f}")
    return "\n".join(lines)
