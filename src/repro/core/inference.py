"""Section 2.5 — intra-procedural type inference and defaults.

The paper's approach, reproduced here:

* **Defaults** (no inter-procedural analysis, preserving separate
  compilation):

  - unspecified owners in *method signatures* default to
    ``initialRegion``;
  - unspecified owners in *instance variables* default to the owner of
    ``this`` (the first class formal);
  - unspecified owners in *static fields* default to ``immortal``;
  - portal fields of a region kind default to ``this`` (the region);
  - a missing ``accesses`` clause defaults to all class and method owner
    parameters plus ``initialRegion``.

* **Unification** for method-local variables: every omitted owner of a
  local declaration, ``new`` expression, or owner-instantiated call
  becomes a fresh variable; walking the body generates equalities
  (ownership types are invariant, so plain unification is sound);
  variables unconstrained after unification default to
  ``initialRegion``.

The pass rewrites the AST in place and returns it; the checker then sees a
fully annotated program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..errors import InferenceError
from ..lang import ast
from .owners import Owner, make_subst
from .program import (ProgramInfo, build_program_info, convert_type)
from .types import ClassType, HandleType, Type

# ---------------------------------------------------------------------------
# owner tokens and union-find
# ---------------------------------------------------------------------------

#: An owner token is a concrete owner name or a fresh variable ``$k``.
Token = str


def _is_var(token: Token) -> bool:
    return token.startswith("$")


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[Token, Token] = {}

    def find(self, token: Token) -> Token:
        root = token
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(token, token) != token:
            self.parent[token], token = root, self.parent[token]
        return root

    def union(self, a: Token, b: Token) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if not _is_var(ra) and not _is_var(rb):
            # two distinct concrete owners: the program is ill-typed, but
            # the typechecker produces the precise judgment-tagged error,
            # so inference just leaves the constraint unsolved
            return
        # concrete names win so resolution is deterministic
        if _is_var(ra):
            self.parent[ra] = rb
        else:
            self.parent[rb] = ra

    def resolve(self, token: Token,
                fallback: str = "initialRegion") -> str:
        root = self.find(token)
        return fallback if _is_var(root) else root


# ---------------------------------------------------------------------------
# patterns: lightweight shadow types carrying owner tokens
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefaultPolicy:
    """Section 2.5: "Our system also supports user-defined defaults to
    cover specific patterns that might occur in user code."

    Each field names the owner used when the programmer wrote nothing:

    * ``signature_owner``   — method parameter/return types
      (paper default: ``initialRegion``);
    * ``unconstrained_local`` — locals left unconstrained after
      unification (paper default: ``initialRegion``);
    * ``instance_field_owner`` — ``None`` means "the owner of this"
      (the first class formal), any other value is used literally;
    * ``static_field_owner``  — paper default: ``immortal``;
    * ``portal_owner``        — portal fields of region kinds
      (default: ``this``, the region);
    * ``effects_include_initial_region`` — whether default ``accesses``
      clauses contain ``initialRegion`` in addition to the owner
      parameters.
    """

    signature_owner: str = "initialRegion"
    unconstrained_local: str = "initialRegion"
    instance_field_owner: Optional[str] = None
    static_field_owner: str = "immortal"
    portal_owner: str = "this"
    effects_include_initial_region: bool = True


PAPER_DEFAULTS = DefaultPolicy()


@dataclass
class RefPattern:
    class_name: str
    owners: List[Token]


@dataclass
class HandlePattern:
    region: Token


#: ``None`` = scalar / unknown (no owner constraints); "null" literal gets
#: its own marker so it unifies with anything.
Pattern = Union[RefPattern, HandlePattern, None]

_NULL = RefPattern("<null>", [])


# ---------------------------------------------------------------------------
# defaults
# ---------------------------------------------------------------------------

def _fill(type_ast: ast.TypeAst, program: ast.Program,
          default: str) -> ast.TypeAst:
    """Return ``type_ast`` with omitted owners replaced by ``default``."""
    if not isinstance(type_ast, ast.ClassTypeAst) or type_ast.owners:
        return type_ast
    decl = program.class_named(type_ast.name)
    arity = len(decl.formals) if decl is not None else 1
    owners = tuple(ast.OwnerAst(default, type_ast.loc)
                   for _ in range(arity))
    return ast.ClassTypeAst(type_ast.name, owners, type_ast.loc)


def apply_signature_defaults(
        program: ast.Program,
        policy: DefaultPolicy = PAPER_DEFAULTS) -> None:
    """Fill owner defaults for fields, method signatures, portal fields,
    and missing ``accesses`` clauses."""
    for cls in program.classes:
        if not cls.formals:
            # default class parameterization: one plain Owner formal
            cls.formals.append(ast.FormalAst(
                ast.KindAst("Owner", (), False, cls.loc), "__owner",
                cls.loc))
        this_owner = policy.instance_field_owner or cls.formals[0].name
        if cls.superclass is not None and not cls.superclass.owners:
            sup = program.class_named(cls.superclass.name)
            arity = len(sup.formals) if sup is not None and sup.formals \
                else 1
            cls.superclass = ast.ClassTypeAst(
                cls.superclass.name,
                tuple(ast.OwnerAst(this_owner, cls.loc)
                      for _ in range(arity)),
                cls.superclass.loc)
        for fld in cls.fields:
            default = (policy.static_field_owner if fld.static
                       else this_owner)
            fld.declared_type = _fill(fld.declared_type, program, default)
        for meth in cls.methods:
            meth.return_type = _fill(meth.return_type, program,
                                     policy.signature_owner)
            meth.params = [(_fill(t, program, policy.signature_owner),
                            name)
                           for t, name in meth.params]
            if meth.effects is None:
                names = ([f.name for f in cls.formals]
                         + [f.name for f in meth.formals])
                if policy.effects_include_initial_region:
                    names.append("initialRegion")
                meth.effects = [ast.OwnerAst(n, meth.loc) for n in names]
    for rk in program.region_kinds:
        for portal in rk.portals:
            portal.declared_type = _fill(portal.declared_type, program,
                                         policy.portal_owner)


# ---------------------------------------------------------------------------
# per-method unification
# ---------------------------------------------------------------------------

class _MethodInference:
    """Unification-based owner inference over one method body (or the
    program's main block)."""

    def __init__(self, info: ProgramInfo, cls: Optional[ast.ClassDecl],
                 method: Optional[ast.MethodDecl],
                 policy: "DefaultPolicy" = None):
        self.info = info
        self.cls = cls
        self.method = method
        self.policy = policy or PAPER_DEFAULTS
        self.uf = _UnionFind()
        self.counter = 0
        #: nodes whose empty owner tuples must be rewritten after solving,
        #: together with the fresh tokens standing in for their owners
        self.pending: List[Tuple[object, List[Token]]] = []

    # -- plumbing ---------------------------------------------------------

    def fresh(self) -> Token:
        self.counter += 1
        return f"${self.counter}"

    def _fresh_owners(self, node, count: int) -> List[Token]:
        tokens = [self.fresh() for _ in range(count)]
        self.pending.append((node, tokens))
        return tokens

    def unify(self, a: Pattern, b: Pattern) -> None:
        if not isinstance(a, RefPattern) or not isinstance(b, RefPattern):
            if isinstance(a, HandlePattern) and isinstance(b,
                                                           HandlePattern):
                self.uf.union(a.region, b.region)
            return
        if a.class_name == "<null>" or b.class_name == "<null>":
            return
        a2, b2 = a, b
        if a.class_name != b.class_name:
            a2 = self._upcast(a, b.class_name)
            if a2 is None:
                b2 = self._upcast(b, a.class_name)
                if b2 is None:
                    return  # unrelated classes; the checker will complain
                a2 = a
            else:
                b2 = b
        for oa, ob in zip(a2.owners, b2.owners):
            self.uf.union(oa, ob)

    def _upcast(self, pattern: RefPattern,
                target: str) -> Optional[RefPattern]:
        """Rewrite ``pattern`` as its superclass ``target`` (owner tokens
        flow through the extends instantiation)."""
        current = pattern
        while current.class_name != target:
            cinfo = self.info.classes.get(current.class_name)
            if cinfo is None or cinfo.superclass is None:
                return None
            subst = {fn: tok for fn, tok in zip(cinfo.formal_names,
                                                current.owners)}
            owners = [subst.get(o.name, o.name)
                      for o in cinfo.superclass.owners]
            current = RefPattern(cinfo.superclass.name, owners)
        return current

    # -- patterns from declared types --------------------------------------

    def _pattern_of_type_ast(self, t: ast.TypeAst,
                             node=None) -> Pattern:
        if isinstance(t, ast.ClassTypeAst):
            cinfo = self.info.classes.get(t.name)
            if cinfo is None:
                return None
            if not t.owners and cinfo.formals:
                assert node is not None
                owners = self._fresh_owners(node, len(cinfo.formals))
            else:
                owners = [o.name for o in t.owners]
            return RefPattern(t.name, owners)
        if isinstance(t, ast.HandleTypeAst):
            return HandlePattern(t.region.name)
        return None

    def _pattern_of_semantic(self, t: Type,
                             subst: Dict[str, Token]) -> Pattern:
        if isinstance(t, ClassType):
            return RefPattern(t.name, [subst.get(o.name, o.name)
                                       for o in t.owners])
        if isinstance(t, HandleType):
            return HandlePattern(subst.get(t.region.name, t.region.name))
        return None

    # -- traversal ----------------------------------------------------------

    def run(self, body: ast.Block) -> None:
        self._body = body
        scope: Dict[str, Pattern] = {}
        if self.method is not None:
            for ptype, pname in self.method.params:
                scope[pname] = self._pattern_of_type_ast(ptype)
        self.visit_block(body, scope)
        self._rewrite()

    def visit_block(self, block: ast.Block,
                    scope: Dict[str, Pattern]) -> None:
        inner = dict(scope)
        for stmt in block.stmts:
            self.visit_stmt(stmt, inner)

    def visit_stmt(self, stmt: ast.Stmt,
                   scope: Dict[str, Pattern]) -> None:
        if isinstance(stmt, ast.Block):
            self.visit_block(stmt, scope)
        elif isinstance(stmt, ast.LocalDecl):
            pattern = self._pattern_of_type_ast(stmt.declared_type, stmt)
            if stmt.init is not None:
                init = self.visit_expr(stmt.init, scope)
                self.unify(pattern, init)
            scope[stmt.name] = pattern
        elif isinstance(stmt, ast.AssignLocal):
            value = self.visit_expr(stmt.value, scope)
            target = scope.get(stmt.name)
            if target is None:
                target = self._this_field_pattern(stmt.name)
            self.unify(target, value)
        elif isinstance(stmt, ast.AssignField):
            value = self.visit_expr(stmt.value, scope)
            target = self._field_pattern(stmt.target, stmt.field_name,
                                         scope)
            self.unify(target, value)
        elif isinstance(stmt, ast.ExprStmt):
            self.visit_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.If):
            self.visit_expr(stmt.cond, scope)
            self.visit_block(stmt.then_body, scope)
            if stmt.else_body is not None:
                self.visit_block(stmt.else_body, scope)
        elif isinstance(stmt, ast.While):
            self.visit_expr(stmt.cond, scope)
            self.visit_block(stmt.body, scope)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None and self.method is not None:
                value = self.visit_expr(stmt.value, scope)
                declared = self._pattern_of_type_ast(
                    self.method.return_type)
                self.unify(declared, value)
        elif isinstance(stmt, ast.Fork):
            self.visit_expr(stmt.call, scope)
        elif isinstance(stmt, ast.RegionStmt):
            inner = dict(scope)
            inner[stmt.handle_name] = HandlePattern(stmt.region_name)
            self.visit_block(stmt.body, inner)
        elif isinstance(stmt, ast.SubregionStmt):
            self.visit_expr(stmt.parent_handle, scope)
            inner = dict(scope)
            inner[stmt.handle_name] = HandlePattern(stmt.region_name)
            self.visit_block(stmt.body, inner)

    # -- expressions --------------------------------------------------------

    def visit_expr(self, expr: ast.Expr,
                   scope: Dict[str, Pattern]) -> Pattern:
        if isinstance(expr, ast.NullLit):
            return _NULL
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
            return None
        if isinstance(expr, ast.ThisRef):
            return self._this_pattern()
        if isinstance(expr, ast.VarRef):
            if expr.name in scope:
                return scope[expr.name]
            return self._this_field_pattern(expr.name)
        if isinstance(expr, ast.NewExpr):
            for arg in expr.args:
                self.visit_expr(arg, scope)
            cinfo = self.info.classes.get(expr.class_name)
            if cinfo is None:
                return None
            if not expr.owners and cinfo.formals:
                owners = self._fresh_owners(expr, len(cinfo.formals))
            else:
                owners = [o.name for o in expr.owners]
            return RefPattern(expr.class_name, owners)
        if isinstance(expr, ast.FieldRead):
            return self._field_pattern(expr.target, expr.field_name, scope)
        if isinstance(expr, ast.Invoke):
            return self._invoke_pattern(expr, scope)
        if isinstance(expr, ast.Binary):
            self.visit_expr(expr.left, scope)
            self.visit_expr(expr.right, scope)
            return None
        if isinstance(expr, ast.Unary):
            return self.visit_expr(expr.operand, scope)
        if isinstance(expr, ast.BuiltinCall):
            for arg in expr.args:
                self.visit_expr(arg, scope)
            return None
        return None

    def _this_pattern(self) -> Pattern:
        if self.cls is None:
            return None
        return RefPattern(self.cls.name,
                          [f.name for f in self.cls.formals])

    def _this_field_pattern(self, name: str) -> Pattern:
        if self.cls is None:
            return None
        fi = self.info.lookup_field(self.cls.name, name)
        if fi is None:
            return None
        subst = {fn: fn for fn in
                 self.info.classes[self.cls.name].formal_names}
        subst["this"] = "this"
        return self._pattern_of_semantic(fi.type, subst)

    def _field_pattern(self, target: ast.Expr, field_name: str,
                       scope: Dict[str, Pattern]) -> Pattern:
        # static field Cn.f
        if (isinstance(target, ast.VarRef) and target.name not in scope
                and target.name in self.info.classes):
            fi = self.info.lookup_field(target.name, field_name)
            if fi is not None:
                return self._pattern_of_semantic(fi.type, {})
        tpat = self.visit_expr(target, scope)
        if isinstance(tpat, HandlePattern):
            kind = self._region_kind_of(tpat.region)
            if kind is None:
                return None
            portal = self.info.lookup_portal(kind, field_name)
            if portal is None:
                return None
            return self._pattern_of_semantic(portal.type,
                                             {"this": tpat.region})
        if not isinstance(tpat, RefPattern) or tpat.class_name == "<null>":
            return None
        fi = self.info.lookup_field(tpat.class_name, field_name)
        if fi is None:
            return None
        subst = {fn: tok for fn, tok in zip(
            self.info.classes[tpat.class_name].formal_names, tpat.owners)}
        subst["this"] = ("this" if isinstance(target, ast.ThisRef)
                         else self.fresh())
        return self._pattern_of_semantic(fi.type, subst)

    def _region_kind_of(self, region_token: Token):
        """Best-effort region kind of a region name: scan the enclosing
        declarations for a matching formal; region-statement regions are
        handled by the scope's HandlePattern carrying the name declared by
        the surrounding statement — we find its kind from the formals of
        the method/class, if any."""
        from .kinds import Kind
        candidates: List[ast.FormalAst] = []
        if self.cls is not None:
            candidates.extend(self.cls.formals)
        if self.method is not None:
            candidates.extend(self.method.formals)
        for f in candidates:
            if f.name == region_token:
                return Kind(f.kind.name,
                            tuple(Owner(a.name) for a in f.kind.args),
                            f.kind.lt)
        return self._region_stmt_kinds.get(region_token)

    #: region-statement kinds discovered during traversal
    @property
    def _region_stmt_kinds(self):
        if not hasattr(self, "_rs_kinds"):
            self._rs_kinds = {}
            self._collect_region_kinds()
        return self._rs_kinds

    def _collect_region_kinds(self) -> None:
        from .kinds import Kind

        def walk(stmt):
            if isinstance(stmt, ast.Block):
                for s in stmt.stmts:
                    walk(s)
            elif isinstance(stmt, ast.RegionStmt):
                if stmt.kind is not None:
                    self._rs_kinds[stmt.region_name] = Kind(
                        stmt.kind.name,
                        tuple(Owner(a.name) for a in stmt.kind.args),
                        stmt.kind.lt)
                walk(stmt.body)
            elif isinstance(stmt, ast.SubregionStmt):
                if stmt.declared_kind is not None:
                    self._rs_kinds[stmt.region_name] = Kind(
                        stmt.declared_kind.name,
                        tuple(Owner(a.name)
                              for a in stmt.declared_kind.args),
                        stmt.declared_kind.lt)
                walk(stmt.body)
            elif isinstance(stmt, (ast.If,)):
                walk(stmt.then_body)
                if stmt.else_body is not None:
                    walk(stmt.else_body)
            elif isinstance(stmt, ast.While):
                walk(stmt.body)

        body = getattr(self, "_body", None)
        if body is not None:
            walk(body)

    def _invoke_pattern(self, expr: ast.Invoke,
                        scope: Dict[str, Pattern]) -> Pattern:
        tpat = self.visit_expr(expr.target, scope)
        arg_patterns = [self.visit_expr(a, scope) for a in expr.args]
        if not isinstance(tpat, RefPattern) or tpat.class_name == "<null>":
            return None
        mi = self.info.lookup_method(tpat.class_name, expr.method_name)
        if mi is None:
            return None
        subst = {fn: tok for fn, tok in zip(
            self.info.classes[tpat.class_name].formal_names, tpat.owners)}
        subst["this"] = ("this" if isinstance(expr.target, ast.ThisRef)
                         else self.fresh())
        subst["initialRegion"] = "initialRegion"
        if mi.formals:
            if expr.owner_args:
                actuals = [o.name for o in expr.owner_args]
            else:
                actuals = self._fresh_owners(expr, len(mi.formals))
            for (fn, _), actual in zip(mi.formals, actuals):
                subst[fn] = actual
        for (ptype, _), apat in zip(mi.params, arg_patterns):
            self.unify(self._pattern_of_semantic(ptype, subst), apat)
        return self._pattern_of_semantic(mi.return_type, subst)

    # -- rewriting ----------------------------------------------------------

    def _rewrite(self) -> None:
        """Write resolved owners back into the AST nodes that had fresh
        variables."""
        for node, tokens in self.pending:
            owners = tuple(
                ast.OwnerAst(
                    self.uf.resolve(t, self.policy.unconstrained_local),
                    node.loc)
                for t in tokens)
            if isinstance(node, ast.LocalDecl):
                old = node.declared_type
                assert isinstance(old, ast.ClassTypeAst)
                node.declared_type = ast.ClassTypeAst(old.name, owners,
                                                      old.loc)
            elif isinstance(node, ast.NewExpr):
                node.owners = owners
            elif isinstance(node, ast.Invoke):
                node.owner_args = owners


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def apply_defaults_and_infer(
        program: ast.Program,
        policy: DefaultPolicy = PAPER_DEFAULTS) -> ast.Program:
    """Apply Section 2.5 defaults and inference; rewrites and returns
    ``program``.  ``policy`` customizes the defaults (the paper's
    "user-defined defaults")."""
    apply_signature_defaults(program, policy)
    info = build_program_info(program)
    for cls in program.classes:
        for meth in cls.methods:
            _MethodInference(info, cls, meth, policy).run(meth.body)
    if program.main is not None:
        _MethodInference(info, None, None, policy).run(program.main)
    return program
