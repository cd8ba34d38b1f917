"""Abstract syntax for the core language (Figures 3, 7, 9 and 13).

The AST keeps owners and kinds as *syntactic* names; the semantic layer in
:mod:`repro.core` interprets them against a typing environment.  Every node
stores its source location as ``loc``, an exact tuple the collector untracks
(:data:`~repro.source.Loc`); ``node.span`` is the :class:`~repro.source.Span`
view of it, built on read for diagnostics.  Synthesized nodes default to the
shared :data:`~repro.source.UNKNOWN_LOC`.

Beyond the paper's expression core we include the statement sugar (blocks,
``if``/``while``, local declarations, returns, arithmetic) needed to write
the evaluation benchmarks; all of it desugars conceptually to the paper's
``let``/sequencing core and the typing rules lift pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..source import UNKNOWN_LOC, Loc, Span, loc_span


class Node:
    """Base of every located node: ``loc`` is stored, ``span`` is a
    view."""

    __slots__ = ()
    loc: Loc

    @property
    def span(self) -> Span:
        return loc_span(self.loc)


# ---------------------------------------------------------------------------
# Owners and kinds (syntactic)
# ---------------------------------------------------------------------------

#: Names of owners with fixed meaning (grammar: ``owner ::= fn | r | this |
#: initialRegion | heap | immortal | RT``).
SPECIAL_OWNERS = ("this", "heap", "immortal", "initialRegion", "RT")


@dataclass(frozen=True)
class OwnerAst(Node):
    """A syntactic owner: a formal, region name, or special owner."""

    name: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class KindAst(Node):
    """A syntactic owner kind: built-in kind name or user region kind
    ``srkn<owners>``, optionally refined with ``:LT`` (Figure 9)."""

    name: str
    args: Tuple[OwnerAst, ...] = ()
    lt: bool = False
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)

    def __str__(self) -> str:
        base = self.name
        if self.args:
            base += "<" + ", ".join(map(str, self.args)) + ">"
        return base + (":LT" if self.lt else "")


# ---------------------------------------------------------------------------
# Types (syntactic)
# ---------------------------------------------------------------------------

class TypeAst(Node):
    """Base class of syntactic types."""

    __slots__ = ()


@dataclass(frozen=True)
class PrimTypeAst(TypeAst):
    """``int``, ``float``, ``boolean`` or ``void``."""

    name: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ClassTypeAst(TypeAst):
    """``cn<o1, ..., on>``.  An empty owner tuple on a class that declares
    formals means "infer the owners" (Section 2.5)."""

    name: str
    owners: Tuple[OwnerAst, ...]
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)

    def __str__(self) -> str:
        if not self.owners:
            return self.name
        return self.name + "<" + ", ".join(map(str, self.owners)) + ">"


@dataclass(frozen=True)
class HandleTypeAst(TypeAst):
    """``RHandle<r>`` — the runtime handle of region ``r``."""

    region: OwnerAst
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)

    def __str__(self) -> str:
        return f"RHandle<{self.region}>"


# ---------------------------------------------------------------------------
# Constraints / policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintAst(Node):
    """A ``where`` constraint: ``left owns right`` or ``left outlives
    right`` [24]."""

    relation: str  # 'owns' | 'outlives'
    left: OwnerAst
    right: OwnerAst
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)

    def __str__(self) -> str:
        return f"{self.left} {self.relation} {self.right}"


@dataclass(frozen=True)
class PolicyAst(Node):
    """Region allocation policy: ``LT(size)`` or ``VT`` (Section 2.3)."""

    kind: str  # 'LT' | 'VT'
    size: int = 0
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)

    def __str__(self) -> str:
        return f"LT({self.size})" if self.kind == "LT" else "VT"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr(Node):
    __slots__ = ()


@dataclass
class IntLit(Expr):
    value: int
    loc: Loc = UNKNOWN_LOC


@dataclass
class FloatLit(Expr):
    value: float
    loc: Loc = UNKNOWN_LOC


@dataclass
class BoolLit(Expr):
    value: bool
    loc: Loc = UNKNOWN_LOC


@dataclass
class NullLit(Expr):
    loc: Loc = UNKNOWN_LOC


@dataclass
class VarRef(Expr):
    """A variable, parameter, region handle, or (after resolution) a class
    name used for static access."""

    name: str
    loc: Loc = UNKNOWN_LOC


@dataclass
class ThisRef(Expr):
    loc: Loc = UNKNOWN_LOC


@dataclass
class NewExpr(Expr):
    """``new cn<o1..n>`` — allocation; the first owner decides the region
    (Section 2.1).  ``args`` are passed to an ``init``-style constructor
    method for the built-in array classes only."""

    class_name: str
    owners: Tuple[OwnerAst, ...]
    args: Tuple[Expr, ...] = ()
    loc: Loc = UNKNOWN_LOC


@dataclass
class FieldRead(Expr):
    """``e.fd`` — also covers portal-field reads ``h.fd`` (the checker
    dispatches on the type of ``target``) and static reads ``Cn.fd``."""

    target: Expr
    field_name: str
    loc: Loc = UNKNOWN_LOC


@dataclass
class Invoke(Expr):
    """``e.mn<o..>(args)``."""

    target: Expr
    method_name: str
    owner_args: Tuple[OwnerAst, ...]
    args: Tuple[Expr, ...]
    loc: Loc = UNKNOWN_LOC


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr
    loc: Loc = UNKNOWN_LOC


@dataclass
class Unary(Expr):
    op: str
    operand: Expr
    loc: Loc = UNKNOWN_LOC


@dataclass
class BuiltinCall(Expr):
    """Call to one of the interpreter intrinsics (``print``, ``io``,
    ``yieldnow``, ``sqrt``, ``itof``, ``ftoi``, ``check``)."""

    name: str
    args: Tuple[Expr, ...]
    loc: Loc = UNKNOWN_LOC


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt(Node):
    __slots__ = ()


@dataclass
class Block(Stmt):
    stmts: List[Stmt]
    loc: Loc = UNKNOWN_LOC


@dataclass
class LocalDecl(Stmt):
    """``t v = e;`` — ``let v = e in ...`` of the paper.  Declared type may
    omit owners (empty tuple), to be filled by inference."""

    declared_type: TypeAst
    name: str
    init: Optional[Expr]
    loc: Loc = UNKNOWN_LOC


@dataclass
class AssignLocal(Stmt):
    name: str
    value: Expr
    loc: Loc = UNKNOWN_LOC


@dataclass
class AssignField(Stmt):
    """``e.fd = e';`` — also portal-field and static-field writes."""

    target: Expr
    field_name: str
    value: Expr
    loc: Loc = UNKNOWN_LOC


@dataclass
class ExprStmt(Stmt):
    expr: Expr
    loc: Loc = UNKNOWN_LOC


@dataclass
class If(Stmt):
    cond: Expr
    then_body: Block
    else_body: Optional[Block]
    loc: Loc = UNKNOWN_LOC


@dataclass
class While(Stmt):
    cond: Expr
    body: Block
    loc: Loc = UNKNOWN_LOC


@dataclass
class Return(Stmt):
    value: Optional[Expr]
    loc: Loc = UNKNOWN_LOC


@dataclass
class Fork(Stmt):
    """``fork e.mn<o..>(args);`` or ``RT fork ...`` (Figures 7 and 9)."""

    call: Invoke
    realtime: bool
    loc: Loc = UNKNOWN_LOC


@dataclass
class RegionStmt(Stmt):
    """``(RHandle<[kind[:policy]] r> h) { body }`` — region creation
    ([EXPR REGION] / [EXPR LOCALREGION]).  ``kind`` is ``None`` for a plain
    local region; ``policy`` defaults to VT."""

    kind: Optional[KindAst]
    policy: Optional[PolicyAst]
    region_name: str
    handle_name: str
    body: Block
    loc: Loc = UNKNOWN_LOC


@dataclass
class SubregionStmt(Stmt):
    """``(RHandle<[kind] r2> h2 = [new] h.rsub) { body }`` — subregion entry
    ([EXPR SUBREGION]).  ``declared_kind`` is an optional, checked
    annotation; the true kind comes from the region-kind declaration."""

    declared_kind: Optional[KindAst]
    region_name: str
    handle_name: str
    parent_handle: Expr
    subregion_name: str
    fresh: bool
    body: Block
    loc: Loc = UNKNOWN_LOC


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass
class FormalAst(Node):
    """An owner formal ``k fn`` of a class, method, or region kind."""

    kind: KindAst
    name: str
    loc: Loc = UNKNOWN_LOC

    def __str__(self) -> str:
        return f"{self.kind} {self.name}"


@dataclass
class FieldDecl(Node):
    """An instance or static field; in a ``regionKind`` body, a portal
    field."""

    declared_type: TypeAst
    name: str
    static: bool = False
    init: Optional[Expr] = None
    loc: Loc = UNKNOWN_LOC


@dataclass
class MethodDecl(Node):
    return_type: TypeAst
    name: str
    formals: List[FormalAst]
    params: List[Tuple[TypeAst, str]]
    #: ``None`` means no ``accesses`` clause was written: the Section 2.5
    #: default (all owner parameters + initialRegion) applies.
    effects: Optional[List[OwnerAst]]
    constraints: List[ConstraintAst]
    body: Block
    loc: Loc = UNKNOWN_LOC


@dataclass
class SubregionDecl(Node):
    """A subregion member of a region kind: ``srkind : rpol tt rsub``."""

    kind: KindAst
    policy: PolicyAst
    realtime: bool  # True = RT subregion, False = NoRT (Section 2.3)
    name: str
    loc: Loc = UNKNOWN_LOC


@dataclass
class ClassDecl(Node):
    name: str
    formals: List[FormalAst]
    superclass: Optional[ClassTypeAst]
    constraints: List[ConstraintAst]
    fields: List[FieldDecl]
    methods: List[MethodDecl]
    loc: Loc = UNKNOWN_LOC


@dataclass
class RegionKindDecl(Node):
    """``regionKind srkn<formals> extends srkind where ... { portals
    subregions }`` (Figure 7)."""

    name: str
    formals: List[FormalAst]
    superkind: KindAst
    constraints: List[ConstraintAst]
    portals: List[FieldDecl]
    subregions: List[SubregionDecl]
    loc: Loc = UNKNOWN_LOC


@dataclass
class Program:
    classes: List[ClassDecl]
    region_kinds: List[RegionKindDecl]
    main: Optional[Block]
    filename: str = "<input>"
    source_text: str = ""

    def class_named(self, name: str) -> Optional[ClassDecl]:
        for cls in self.classes:
            if cls.name == name:
                return cls
        return None
