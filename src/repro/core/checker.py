"""The typing judgments of Appendix B.

``Checker`` validates a whole program: well-formedness predicates, one
[CLASS DEF]/[REGION KIND DEF] pass per declaration, one [METHOD] pass per
method, and the expression/statement rules.  Each ``OwnershipTypeError``
carries the name of the violated judgment so failures can be audited
against the paper.

Two deliberate, documented strengthenings over the (OCR-damaged) appendix:

* ``heap`` as an *effect* is covered only by ``heap`` itself, never via
  ``immortal ≽ heap`` — otherwise an ``accesses immortal`` clause would
  let a real-time thread reach the garbage-collected heap.  (The outlives
  relation used for memory safety still has both specials outliving
  everything, exactly as in Figure 2 R1.)
* [EXPR RTFORK] checks the spawned method's renamed effects *directly*:
  every effect must be ``RT`` or an owner whose ``RKind`` is
  ``≤ SharedRegion:LT`` — the paper's statement "the effects clause of the
  method evaluated in the new thread does not contain the heap region or
  any object allocated in the heap region", extended to VT regions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import OwnershipTypeError
from ..lang import ast
from ..lang.parser import BUILTIN_CLASSES
from ..source import loc_span
from .env import Effects, Env
from .kinds import (K_GC_REGION, K_LOCAL_REGION, K_REGION,
                    K_SHARED_REGION, Kind, LOCAL_REGION, OBJ_OWNER, OWNER,
                    SHARED_REGION)
from .owners import (HEAP, IMMORTAL, INITIAL_REGION, Owner, RT_EFFECT,
                     THIS, make_subst)
from .program import (ClassInfo, Constraint, MethodInfo, Policy,
                      ProgramInfo, SubregionInfo, convert_constraint,
                      convert_kind, convert_owner, convert_type)
from .types import (BOOLEAN, FLOAT, INT, NULL, VOID, ClassType, HandleType,
                    NullType, PrimType, Type)

_K_SHARED_LT = Kind(SHARED_REGION, lt=True)

#: Built-in function signatures: name -> (param types, return type).
BUILTIN_SIGNATURES: Dict[str, Tuple[Tuple[Type, ...], Type]] = {
    "print": ((), VOID),          # polymorphic over scalars; special-cased
    "io": ((INT,), INT),
    "yieldnow": ((), VOID),
    "sqrt": ((FLOAT,), FLOAT),
    "itof": ((INT,), FLOAT),
    "ftoi": ((FLOAT,), INT),
    "check": ((BOOLEAN,), VOID),
}


class Checker:
    """Typechecks one program against the rules of Appendix B."""

    def __init__(self, program: ProgramInfo):
        self.program = program
        self.errors: List[OwnershipTypeError] = []
        self._current_return: Type = VOID
        #: optional observer called as (env, new_expr, rcr) after each
        #: successful [EXPR NEW]; the Section 2.6 translator uses it to
        #: derive allocation strategies from the av-RH derivation
        self.new_site_hook = None
        #: wall-clock seconds per checking phase, filled by check()
        self.phase_seconds: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # entry point — [PROG]
    # ------------------------------------------------------------------

    def check(self, clock=None, replay_errors=None,
              per_class_errors=None) -> List[OwnershipTypeError]:
        """Check the whole program; returns the collected errors (empty
        means well-typed).  Each phase's wall time lands in
        ``phase_seconds``.

        ``clock`` is an optional shared :class:`~repro.core.phases.
        PhaseClock` (``analyze`` passes its own so frontend and checker
        phases land in one dict); without one a private clock is built.
        ``replay_errors`` maps class names to recorded diagnostics from
        a prior run: those classes are not re-checked, their errors are
        spliced in at the position live checking would have produced
        them.  ``per_class_errors`` (an out-dict) receives each class's
        error slice, which the analysis cache records.  The wellformed,
        region-kind, and main-block phases always run live — they are
        whole-program judgments."""
        from .phases import PhaseClock
        from .wellformed import check_wellformed
        if clock is None:
            clock = PhaseClock()
        self.phase_seconds = clock.seconds
        try:
            check_wellformed(self.program)
        except OwnershipTypeError as err:
            self.errors.append(err)
            clock.lap("wellformed")
            return self.errors
        clock.lap("wellformed")

        for info in self.program.region_kinds.values():
            try:
                self._check_region_kind(info)
            except OwnershipTypeError as err:
                self.errors.append(err)
        clock.lap("region-kinds")
        for info in self.program.classes.values():
            if info.builtin:
                continue
            if replay_errors is not None and info.name in replay_errors:
                errs = replay_errors[info.name]
                self.errors.extend(errs)
                if per_class_errors is not None:
                    per_class_errors[info.name] = list(errs)
                continue
            before = len(self.errors)
            self._check_class(info)
            if per_class_errors is not None:
                per_class_errors[info.name] = self.errors[before:]
        clock.lap("classes")
        main = self.program.ast_program.main
        if main is not None:
            env = Env.initial(self.program)
            # the runtime provides the initial thread's region handle
            # (= heap) just as it provides hfresh inside methods
            env = env.with_handle(INITIAL_REGION)
            self._current_return = VOID
            try:
                # [PROG]: P; E; world; heap ⊢ e : t
                self.check_block(env, main, None, HEAP)
            except OwnershipTypeError as err:
                self.errors.append(err)
            clock.lap("main-block")
        return self.errors

    # ------------------------------------------------------------------
    # declarations — [CLASS DEF], [REGION KIND DEF], [METHOD]
    # ------------------------------------------------------------------

    def _declare_formals(self, env: Env,
                         formals: List[Tuple[str, Kind]],
                         loc) -> Env:
        for fn, kind in formals:
            self.check_kind_wf(env, kind, loc)
            env = env.with_owner(fn, kind)
        return env

    def _class_env(self, info: ClassInfo) -> Env:
        """The environment of [CLASS DEF]: formals, constraints, ``this``
        bound at type ``cn<fn1..n>``, and ``fni ≽ fn1`` for i ≥ 2."""
        loc = info.decl.loc if info.decl else None
        env = Env.initial(self.program)
        env = self._declare_formals(env, info.formals, loc)
        env = env.with_constraints(info.constraints)
        this_type = ClassType(info.name,
                              tuple(Owner(fn) for fn, _ in info.formals))
        env = env.with_this(this_type)
        first = info.first_formal
        for fn, _ in info.formals[1:]:
            env = env.with_outlives(Owner(fn), first)
        return env

    def _check_class(self, info: ClassInfo) -> None:
        loc = info.decl.loc if info.decl else None
        try:
            env = self._class_env(info)
            if info.superclass is not None:
                self.check_type_wf(env, info.superclass, loc)
            for fi in info.fields.values():
                floc = fi.decl.loc if fi.decl else loc
                if fi.static:
                    self._check_static_field(env, fi, floc)
                else:
                    self.check_type_wf(env, fi.type, floc)
                if fi.decl is not None and fi.decl.init is not None:
                    if not isinstance(fi.decl.init,
                                      (ast.NullLit, ast.IntLit,
                                       ast.FloatLit, ast.BoolLit)):
                        raise OwnershipTypeError(
                            "field initializers must be literals "
                            "(use an init method)", loc_span(floc))
        except OwnershipTypeError as err:
            self.errors.append(err)
            return
        for mi in info.methods.values():
            try:
                self._check_method(env, info, mi)
            except OwnershipTypeError as err:
                self.errors.append(err)

    def _check_static_field(self, env: Env, fi, loc) -> None:
        """Static fields live outside any instance; their owners must be
        the always-available ``heap``/``immortal`` regions (Section 2.5
        defaults static owners to ``immortal``)."""
        if isinstance(fi.type, ClassType):
            for o in fi.type.owners:
                if o not in (HEAP, IMMORTAL):
                    raise OwnershipTypeError(
                        f"static field '{fi.name}' may only use owners "
                        f"heap/immortal, found '{o}'", loc_span(loc),
                        rule="STATIC FIELD")
        elif isinstance(fi.type, HandleType):
            raise OwnershipTypeError(
                f"static field '{fi.name}' cannot store a region handle",
                loc_span(loc), rule="STATIC FIELD")

    def _check_region_kind(self, info) -> None:
        """[REGION KIND DEF]: formals, constraints, ``this`` bound as the
        region itself; portal types and subregion kinds well-formed."""
        loc = info.decl.loc if info.decl else None
        env = Env.initial(self.program)
        env = self._declare_formals(env, info.formals, loc)
        env = env.with_constraints(info.constraints)
        # inside a region kind, `this` denotes the region; model it as an
        # owner of the kind being declared so portal types like
        # ``Frame<this> f`` check.  We cannot use with_this (that is for
        # objects), so register a synthetic region owner under the name
        # 'this' is substituted for at use sites; for wf purposes portal
        # types are checked with `this` of this kind.
        self_kind = Kind(info.name,
                         tuple(Owner(fn) for fn in info.formal_names))
        env_this = env.with_owner("__rk_this__", self_kind)
        rename = {THIS: Owner("__rk_this__")}
        for portal in info.portals.values():
            ptype = portal.type.substitute(rename)
            self.check_type_wf(env_this, ptype,
                               portal.decl.loc if portal.decl else loc)
        for sub in info.subregions.values():
            sub_kind = sub.kind.substitute(rename)
            self.check_kind_wf(env_this, sub_kind,
                               sub.decl.loc if sub.decl else loc)
            if not self.program.kind_table.is_shared_kind(sub_kind):
                raise OwnershipTypeError(
                    f"subregion '{sub.name}' must have a shared region "
                    f"kind, found '{sub.kind}'", loc_span(loc),
                    rule="REGION KIND DEF")

    def _check_method(self, class_env: Env, info: ClassInfo,
                      mi: MethodInfo) -> None:
        """[METHOD]."""
        loc = mi.decl.loc if mi.decl else None
        env = self._declare_formals(class_env, mi.formals, loc)
        env = env.with_constraints(mi.constraints)
        env = env.with_handle(INITIAL_REGION)  # RHandle(initialRegion) hfresh
        self.check_type_wf(env, mi.return_type, loc)
        for ptype, pname in mi.params:
            self.check_type_wf(env, ptype, loc)
            env = env.with_var(pname, ptype)
        if mi.effects is None:
            raise OwnershipTypeError(
                f"method '{info.name}.{mi.name}' has no effects clause; "
                "run inference/defaults first", loc_span(loc),
                rule="METHOD")
        for eff in mi.effects:
            if eff == RT_EFFECT:
                continue
            env.kind_of(eff)  # raises if the owner is unknown
        permitted: Effects = frozenset(mi.effects)
        self._current_return = mi.return_type
        self.check_block(env, mi.decl.body, permitted, INITIAL_REGION)

    # ------------------------------------------------------------------
    # types and kinds — [TYPE ...], [USER DECLARED SHARED REGION]
    # ------------------------------------------------------------------


    def _owner_kind(self, env: Env, owner: Owner, loc) -> Kind:
        """``E ⊢k o : k`` with the use-site location attached to
        failures."""
        try:
            return env.kind_of(owner)
        except OwnershipTypeError as err:
            raise OwnershipTypeError(err.message, loc_span(loc),
                                     rule="OWNER") from None

    def check_kind_wf(self, env: Env, kind: Kind, loc) -> None:
        """``P; E ⊢okind k``."""
        if kind.is_builtin:
            if kind.args:
                raise OwnershipTypeError(
                    f"built-in kind '{kind.name}' takes no owner "
                    "arguments", loc_span(loc), rule="OKIND")
            return
        info = self.program.region_kinds.get(kind.name)
        if info is None:
            raise OwnershipTypeError(
                f"unknown owner kind '{kind.name}'", loc_span(loc),
                rule="OKIND")
        if len(kind.args) != len(info.formals):
            raise OwnershipTypeError(
                f"region kind '{kind.name}' expects "
                f"{len(info.formals)} owner arguments, got "
                f"{len(kind.args)}", loc_span(loc), rule="OKIND")
        subst = make_subst(info.formal_names, kind.args)
        for actual, (fn, declared) in zip(kind.args, info.formals):
            actual_kind = self._owner_kind(env, actual, loc)
            wanted = declared.substitute(subst)
            if not self.program.kind_table.is_subkind(actual_kind, wanted):
                raise OwnershipTypeError(
                    f"owner '{actual}' has kind '{actual_kind}', not a "
                    f"subkind of '{wanted}' required by '{kind.name}'",
                    loc_span(loc), rule="USER DECLARED SHARED REGION")
        for c in info.constraints:
            inst = c.substitute(subst)
            if not env.entails(inst):
                raise OwnershipTypeError(
                    f"constraint '{inst}' of region kind '{kind.name}' "
                    "is not satisfied", loc_span(loc),
                    rule="USER DECLARED SHARED REGION")

    def check_type_wf(self, env: Env, t: Type, loc) -> None:
        """``P; E ⊢type t`` — [TYPE INT], [TYPE REGION HANDLE], [TYPE C]."""
        if isinstance(t, (PrimType, NullType)):
            return
        if isinstance(t, HandleType):
            kind = self._owner_kind(env, t.region, loc)
            if not self.program.kind_table.is_region_kind(kind):
                raise OwnershipTypeError(
                    f"RHandle requires a region, but '{t.region}' has "
                    f"kind '{kind}'", loc_span(loc),
                    rule="TYPE REGION HANDLE")
            return
        assert isinstance(t, ClassType)
        info = self.program.classes.get(t.name)
        if info is None:
            raise OwnershipTypeError(f"unknown class '{t.name}'",
                                     loc_span(loc), rule="TYPE C")
        if len(t.owners) != len(info.formals):
            raise OwnershipTypeError(
                f"class '{t.name}' expects {len(info.formals)} owners, "
                f"got {len(t.owners)}", loc_span(loc), rule="TYPE C")
        subst = make_subst(info.formal_names, t.owners)
        first = t.owners[0]
        for i, (actual, (fn, declared)) in enumerate(
                zip(t.owners, info.formals)):
            actual_kind = self._owner_kind(env, actual, loc)
            wanted = declared.substitute(subst)
            if not self.program.kind_table.is_subkind(actual_kind, wanted):
                raise OwnershipTypeError(
                    f"owner '{actual}' has kind '{actual_kind}', not a "
                    f"subkind of '{wanted}' required by '{t.name}'",
                    loc_span(loc), rule="TYPE C")
            if i > 0 and not env.outlives(actual, first):
                raise OwnershipTypeError(
                    f"illegal type '{t}': owner '{actual}' does not "
                    f"outlive the first owner '{first}'", loc_span(loc),
                    rule="TYPE C")
        for c in info.constraints:
            inst = c.substitute(subst)
            if not env.entails(inst):
                raise OwnershipTypeError(
                    f"constraint '{inst}' of class '{t.name}' is not "
                    f"satisfied by type '{t}'", loc_span(loc), rule="TYPE C")

    # ------------------------------------------------------------------
    # subtyping — [SUBTYPE ...]
    # ------------------------------------------------------------------

    def is_subtype(self, sub: Type, sup: Type) -> bool:
        if sub == sup:
            return True
        if isinstance(sub, NullType):
            return isinstance(sup, (ClassType, HandleType, NullType))
        if isinstance(sub, ClassType) and isinstance(sup, ClassType):
            current: Optional[ClassType] = sub
            while current is not None:
                if current == sup:
                    return True
                current = self.program.superclass_of(current)
        return False

    def _require_subtype(self, sub: Type, sup: Type, loc,
                         what: str) -> None:
        if not self.is_subtype(sub, sup):
            raise OwnershipTypeError(
                f"{what}: '{sub}' is not a subtype of '{sup}'", loc_span(loc),
                rule="SUBTYPE")

    # ------------------------------------------------------------------
    # effects
    # ------------------------------------------------------------------

    def _covers(self, env: Env, permitted: Effects, owner: Owner) -> bool:
        """``E ⊢ X ≽ {owner}`` with the heap-only-by-heap strengthening."""
        if owner == HEAP:
            if permitted is None:
                return True
            return HEAP in permitted
        return env.effect_covers(permitted, owner)

    def _require_effect(self, env: Env, permitted: Effects, owner: Owner,
                        loc, what: str, rule: str) -> None:
        if not self._covers(env, permitted, owner):
            shown = ("world" if permitted is None
                     else "{" + ", ".join(sorted(str(o) for o in permitted))
                     + "}")
            raise OwnershipTypeError(
                f"{what} accesses '{owner}', which the effects {shown} "
                "do not cover", loc_span(loc), rule=rule)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def check_block(self, env: Env, block: ast.Block, permitted: Effects,
                    rcr: Owner) -> None:
        inner = env
        for stmt in block.stmts:
            inner = self.check_stmt(inner, stmt, permitted, rcr)

    def check_stmt(self, env: Env, stmt: ast.Stmt, permitted: Effects,
                   rcr: Owner) -> Env:
        """Check one statement; returns the (possibly extended)
        environment for subsequent statements."""
        if isinstance(stmt, ast.Block):
            self.check_block(env, stmt, permitted, rcr)
            return env
        if isinstance(stmt, ast.LocalDecl):
            return self._check_local_decl(env, stmt, permitted, rcr)
        if isinstance(stmt, ast.AssignLocal):
            self._check_assign_local(env, stmt, permitted, rcr)
            return env
        if isinstance(stmt, ast.AssignField):
            self._check_assign_field(env, stmt, permitted, rcr)
            return env
        if isinstance(stmt, ast.ExprStmt):
            self.check_expr(env, stmt.expr, permitted, rcr)
            return env
        if isinstance(stmt, ast.If):
            cond = self.check_expr(env, stmt.cond, permitted, rcr)
            self._require_subtype(cond, BOOLEAN, stmt.loc, "if condition")
            self.check_block(env, stmt.then_body, permitted, rcr)
            if stmt.else_body is not None:
                self.check_block(env, stmt.else_body, permitted, rcr)
            return env
        if isinstance(stmt, ast.While):
            cond = self.check_expr(env, stmt.cond, permitted, rcr)
            self._require_subtype(cond, BOOLEAN, stmt.loc,
                                  "while condition")
            self.check_block(env, stmt.body, permitted, rcr)
            return env
        if isinstance(stmt, ast.Return):
            self._check_return(env, stmt, permitted, rcr)
            return env
        if isinstance(stmt, ast.Fork):
            self._check_fork(env, stmt, permitted, rcr)
            return env
        if isinstance(stmt, ast.RegionStmt):
            self._check_region_stmt(env, stmt, permitted, rcr)
            return env
        if isinstance(stmt, ast.SubregionStmt):
            self._check_subregion_stmt(env, stmt, permitted, rcr)
            return env
        raise OwnershipTypeError(f"unknown statement {stmt!r}", stmt.span)

    def _check_local_decl(self, env: Env, stmt: ast.LocalDecl,
                          permitted: Effects, rcr: Owner) -> Env:
        """[EXPR LET]."""
        if stmt.name in env.vars:
            raise OwnershipTypeError(
                f"variable '{stmt.name}' is already defined", stmt.span)
        declared = convert_type(stmt.declared_type)
        if isinstance(declared, ClassType) and not declared.owners:
            raise OwnershipTypeError(
                f"local '{stmt.name}' has no owner annotations; run "
                "inference first", stmt.span, rule="EXPR LET")
        if declared == VOID:
            raise OwnershipTypeError("variables cannot have type void",
                                     stmt.span)
        self.check_type_wf(env, declared, stmt.loc)
        if stmt.init is not None:
            actual = self.check_expr(env, stmt.init, permitted, rcr)
            self._require_subtype(actual, declared, stmt.loc,
                                  f"initializer of '{stmt.name}'")
        return env.with_var(stmt.name, declared)

    def _check_assign_local(self, env: Env, stmt: ast.AssignLocal,
                            permitted: Effects, rcr: Owner) -> None:
        value = self.check_expr(env, stmt.value, permitted, rcr)
        if stmt.name in env.vars:
            self._require_subtype(value, env.vars[stmt.name], stmt.loc,
                                  f"assignment to '{stmt.name}'")
            return
        # Unqualified field write: `head = newNode;` means
        # `this.head = newNode;`.
        if env.this_type is not None:
            fi = self.program.lookup_field(env.this_type.name, stmt.name)
            if fi is not None:
                self._check_field_write_on(env, ast.ThisRef(stmt.loc),
                                           stmt.name, value, stmt.loc,
                                           permitted, rcr)
                return
        raise OwnershipTypeError(f"unknown variable '{stmt.name}'",
                                 stmt.span)

    def _check_assign_field(self, env: Env, stmt: ast.AssignField,
                            permitted: Effects, rcr: Owner) -> None:
        value = self.check_expr(env, stmt.value, permitted, rcr)
        self._check_field_write_on(env, stmt.target, stmt.field_name,
                                   value, stmt.loc, permitted, rcr)

    def _check_field_write_on(self, env: Env, target: ast.Expr,
                              field_name: str, value_type: Type, loc,
                              permitted: Effects, rcr: Owner) -> None:
        """[EXPR REF WRITE] / [EXPR SET REGION FIELD] / static write."""
        static = self._try_static_field(env, target, field_name)
        if static is not None:
            self._require_subtype(value_type, static.type, loc,
                                  f"static field '{field_name}'")
            if isinstance(static.type, ClassType):
                self._require_effect(env, permitted, static.type.owner,
                                     loc, f"writing '{field_name}'",
                                     "EXPR REF WRITE")
            return
        ttype = self.check_expr(env, target, permitted, rcr)
        if isinstance(ttype, HandleType):
            declared = self._portal_field_type(env, ttype, field_name, loc)
            self._require_subtype(value_type, declared, loc,
                                  f"portal field '{field_name}'")
            if isinstance(declared, ClassType):
                self._require_effect(env, permitted, declared.owner, loc,
                                     f"writing portal '{field_name}'",
                                     "EXPR SET REGION FIELD")
            return
        if not isinstance(ttype, ClassType):
            raise OwnershipTypeError(
                f"cannot assign field of non-object type '{ttype}'",
                loc_span(loc), rule="EXPR REF WRITE")
        declared = self._instance_field_type(env, ttype, target,
                                             field_name, loc)
        self._require_subtype(value_type, declared, loc,
                              f"field '{field_name}'")
        if isinstance(declared, ClassType):
            self._require_effect(env, permitted, declared.owner, loc,
                                 f"writing field '{field_name}'",
                                 "EXPR REF WRITE")

    def _check_return(self, env: Env, stmt: ast.Return,
                      permitted: Effects, rcr: Owner) -> None:
        expected = self._current_return
        if stmt.value is None:
            if expected != VOID:
                raise OwnershipTypeError(
                    f"missing return value (expected '{expected}')",
                    stmt.span)
            return
        if expected == VOID:
            raise OwnershipTypeError("void method returns a value",
                                     stmt.span)
        actual = self.check_expr(env, stmt.value, permitted, rcr)
        self._require_subtype(actual, expected, stmt.loc, "return value")

    # ------------------------------------------------------------------
    # regions — [EXPR REGION], [EXPR LOCALREGION], [EXPR SUBREGION]
    # ------------------------------------------------------------------

    def _check_region_stmt(self, env: Env, stmt: ast.RegionStmt,
                           permitted: Effects, rcr: Owner) -> None:
        if stmt.kind is None:
            kind = K_LOCAL_REGION  # [EXPR LOCALREGION]
        else:
            kind = convert_kind(stmt.kind)
            self.check_kind_wf(env, kind, stmt.loc)
            table = self.program.kind_table
            if not (table.is_subkind(kind, K_LOCAL_REGION)
                    or table.is_shared_kind(kind)):
                raise OwnershipTypeError(
                    f"cannot create a region of kind '{kind}'", stmt.span,
                    rule="EXPR REGION")
        policy = (Policy(stmt.policy.kind, stmt.policy.size)
                  if stmt.policy is not None else Policy("VT"))
        kr = kind.with_lt() if policy.kind == "LT" else kind
        # Creating a region allocates memory: X ≽ heap.
        self._require_effect(env, permitted, HEAP, stmt.loc,
                             "creating a region", "EXPR REGION")
        region = Owner(stmt.region_name)
        env2 = env.with_owner(stmt.region_name, kr)
        env2 = env2.with_handle(region)
        env2 = env2.with_var(stmt.handle_name, HandleType(region))
        for existing in env.regions_in_scope():
            env2 = env2.with_outlives(existing, region)
        inner = None if permitted is None else permitted | {region}
        self.check_block(env2, stmt.body, inner, region)

    def _check_subregion_stmt(self, env: Env, stmt: ast.SubregionStmt,
                              permitted: Effects, rcr: Owner) -> None:
        parent_type = self.check_expr(env, stmt.parent_handle, permitted,
                                      rcr)
        if not isinstance(parent_type, HandleType):
            raise OwnershipTypeError(
                "subregion entry requires a region handle, found "
                f"'{parent_type}'", stmt.span, rule="EXPR SUBREGION")
        parent_region = parent_type.region
        parent_kind = env.kind_of(parent_region)
        sub = self.program.lookup_subregion(parent_kind,
                                            stmt.subregion_name)
        if sub is None:
            raise OwnershipTypeError(
                f"region kind '{parent_kind}' has no subregion "
                f"'{stmt.subregion_name}'", stmt.span,
                rule="EXPR SUBREGION")
        # rkind = rkind3[o/fn][r2/this]
        rkind = sub.kind.substitute({THIS: parent_region})
        if stmt.declared_kind is not None:
            annotated = convert_kind(stmt.declared_kind)
            if annotated.name != rkind.name:
                raise OwnershipTypeError(
                    f"subregion '{stmt.subregion_name}' has kind "
                    f"'{rkind}', not '{annotated}'", stmt.span,
                    rule="EXPR SUBREGION")
        kr = rkind.with_lt() if sub.policy.kind == "LT" else rkind
        if stmt.fresh or sub.policy.kind == "VT" or not sub.realtime:
            self._require_effect(
                env, permitted, HEAP, stmt.loc,
                "entering a NoRT/VT/fresh subregion", "EXPR SUBREGION")
        if sub.realtime:
            # literal membership, not coverage: only methods that declare
            # the RT marker (and hence can only run on real-time threads)
            # may enter an RT subregion — the program's initial expression
            # runs on a regular thread and is excluded even though its
            # effects are `world`
            self._covers(env, permitted, RT_EFFECT)  # demand observation
            if permitted is None or RT_EFFECT not in permitted:
                raise OwnershipTypeError(
                    "entering an RT subregion requires the RT effect in "
                    "the enclosing method's accesses clause", stmt.span,
                    rule="EXPR SUBREGION")
        region = Owner(stmt.region_name)
        env2 = env.with_owner(stmt.region_name, kr)
        env2 = env2.with_handle(region)
        env2 = env2.with_var(stmt.handle_name, HandleType(region))
        env2 = env2.with_outlives(parent_region, region)
        inner = None if permitted is None else permitted | {region}
        self.check_block(env2, stmt.body, inner, region)

    # ------------------------------------------------------------------
    # fork — [EXPR FORK], [EXPR RTFORK]
    # ------------------------------------------------------------------

    def _fork_site_owners(self, env: Env, call: ast.Invoke,
                          rcr: Owner) -> List[Owner]:
        """The owners whose region kinds [EXPR FORK] inspects: the
        receiver type's owners, the explicitly supplied method owner
        arguments, and every owner appearing in the (renamed) parameter
        types — "references to heap objects are not passed as arguments
        to the new thread"."""
        receiver_type = self.check_expr(env, call.target, None, HEAP)
        owners: List[Owner] = []
        if isinstance(receiver_type, ClassType):
            owners.extend(receiver_type.owners)
        owners.extend(convert_owner(o) for o in call.owner_args)
        if isinstance(receiver_type, ClassType):
            mi = self.program.lookup_method(receiver_type.name,
                                            call.method_name)
            if mi is not None and len(call.owner_args) == len(mi.formals):
                _, sig, _ = self._invoke_parts(env, call, None, rcr)
                for renamed in sig.param_types:
                    if isinstance(renamed, ClassType):
                        owners.extend(renamed.owners)
                    elif isinstance(renamed, HandleType):
                        owners.append(renamed.region)
        return owners

    def _check_fork(self, env: Env, stmt: ast.Fork, permitted: Effects,
                    rcr: Owner) -> None:
        table = self.program.kind_table

        def non_local(kind: Optional[Kind]) -> bool:
            return kind is not None and (
                table.is_shared_kind(kind)
                or table.is_subkind(kind, K_GC_REGION))

        if not stmt.realtime:
            # [EXPR FORK]
            inner = (None if permitted is None
                     else permitted - {RT_EFFECT})
            self.check_expr(env, stmt.call, inner, rcr)
            # mn cannot have the RT effect: the spawned thread is regular
            # (explicit check so `world` effects cannot smuggle it in)
            if RT_EFFECT in self._renamed_invoke_effects(env, stmt.call,
                                                         rcr):
                raise OwnershipTypeError(
                    "fork target has the RT effect; a regular thread "
                    "cannot enter RT subregions", stmt.span,
                    rule="EXPR FORK")
            kcr = env.rkind_of(rcr)
            if not non_local(kcr):
                raise OwnershipTypeError(
                    "fork requires the current region to be shared or "
                    f"garbage-collected, found '{kcr}'", stmt.span,
                    rule="EXPR FORK")
            for owner in self._fork_site_owners(env, stmt.call, rcr):
                k = env.rkind_of(owner)
                if not non_local(k):
                    raise OwnershipTypeError(
                        f"fork passes owner '{owner}' whose region kind "
                        f"'{k}' is local (objects in local regions cannot "
                        "escape to another thread)", stmt.span,
                        rule="EXPR FORK")
            return

        # [EXPR RTFORK].  In the paper's A-normal core the fork's
        # receiver/arguments are variables; in our generalized syntax they
        # are expressions evaluated by the *parent* thread, so the call is
        # checked against the parent's full effects.  The real-time
        # restriction is the direct kind check on the spawned method's
        # renamed effects below.
        self.check_expr(env, stmt.call, permitted, rcr)
        kcr = env.rkind_of(rcr)
        if kcr is None or not table.is_shared_kind(kcr):
            raise OwnershipTypeError(
                "RT fork requires the current region to be shared, found "
                f"'{kcr}'", stmt.span, rule="EXPR RTFORK")
        for owner in self._fork_site_owners(env, stmt.call, rcr):
            k = env.rkind_of(owner)
            if k is None or not table.is_shared_kind(k):
                raise OwnershipTypeError(
                    f"RT fork passes owner '{owner}' whose region kind "
                    f"'{k}' is not shared (heap references cannot reach a "
                    "real-time thread)", stmt.span, rule="EXPR RTFORK")
        # Direct check on the spawned method's effects: nothing the
        # real-time thread touches may be heap- or VT-allocated.
        effects = self._renamed_invoke_effects(env, stmt.call, rcr)
        for eff in effects:
            if eff == RT_EFFECT:
                continue
            k = env.rkind_of(eff)
            if k is None or not table.is_subkind(k, _K_SHARED_LT):
                raise OwnershipTypeError(
                    f"RT fork target accesses '{eff}' whose region kind "
                    f"'{k}' is not an LT shared region", stmt.span,
                    rule="EXPR RTFORK")

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def check_expr(self, env: Env, expr: ast.Expr, permitted: Effects,
                   rcr: Owner) -> Type:
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.FloatLit):
            return FLOAT
        if isinstance(expr, ast.BoolLit):
            return BOOLEAN
        if isinstance(expr, ast.NullLit):
            return NULL
        if isinstance(expr, ast.ThisRef):
            if env.this_type is None:
                raise OwnershipTypeError("'this' used outside a class",
                                         expr.span)
            return env.this_type
        if isinstance(expr, ast.VarRef):
            return self._check_var(env, expr, permitted, rcr)
        if isinstance(expr, ast.NewExpr):
            return self._check_new(env, expr, permitted, rcr)
        if isinstance(expr, ast.FieldRead):
            return self._check_field_read(env, expr, permitted, rcr)
        if isinstance(expr, ast.Invoke):
            return self._check_invoke(env, expr, permitted, rcr)
        if isinstance(expr, ast.Binary):
            return self._check_binary(env, expr, permitted, rcr)
        if isinstance(expr, ast.Unary):
            return self._check_unary(env, expr, permitted, rcr)
        if isinstance(expr, ast.BuiltinCall):
            return self._check_builtin(env, expr, permitted, rcr)
        raise OwnershipTypeError(f"unknown expression {expr!r}", expr.span)

    def _check_var(self, env: Env, expr: ast.VarRef, permitted: Effects,
                   rcr: Owner) -> Type:
        if expr.name in env.vars:
            return env.vars[expr.name]
        # Unqualified instance field read.
        if env.this_type is not None:
            fi = self.program.lookup_field(env.this_type.name, expr.name)
            if fi is not None and not fi.static:
                read = ast.FieldRead(ast.ThisRef(expr.loc), expr.name,
                                     expr.loc)
                return self._check_field_read(env, read, permitted, rcr)
        if expr.name in self.program.classes:
            raise OwnershipTypeError(
                f"class name '{expr.name}' used as a value (only "
                "'ClassName.staticField' is allowed)", expr.span)
        raise OwnershipTypeError(f"unknown variable '{expr.name}'",
                                 expr.span)

    def _check_new(self, env: Env, expr: ast.NewExpr, permitted: Effects,
                   rcr: Owner) -> Type:
        """[EXPR NEW]."""
        info = self.program.classes.get(expr.class_name)
        if info is None:
            raise OwnershipTypeError(
                f"unknown class '{expr.class_name}'", expr.span,
                rule="EXPR NEW")
        ctype = ClassType(expr.class_name,
                          tuple(convert_owner(o) for o in expr.owners))
        self.check_type_wf(env, ctype, expr.loc)
        owner = ctype.owner
        self._require_effect(env, permitted, owner, expr.loc,
                             f"allocating '{ctype}'", "EXPR NEW")
        if not env.av_rh(owner):
            raise OwnershipTypeError(
                f"no region handle is available for owner '{owner}' "
                f"(cannot allocate '{ctype}')", expr.span, rule="AV RH")
        if info.ctor_params:
            if len(expr.args) != len(info.ctor_params):
                raise OwnershipTypeError(
                    f"'{expr.class_name}' takes "
                    f"{len(info.ctor_params)} constructor arguments",
                    expr.span, rule="EXPR NEW")
            for arg, want in zip(expr.args, info.ctor_params):
                got = self.check_expr(env, arg, permitted, rcr)
                self._require_subtype(got, want, expr.loc,
                                      "constructor argument")
        elif expr.args:
            raise OwnershipTypeError(
                "user classes take no constructor arguments (call an "
                "init method)", expr.span, rule="EXPR NEW")
        if self.new_site_hook is not None:
            self.new_site_hook(env, expr, rcr)
        return ctype

    # -- field reads -----------------------------------------------------

    def _try_static_field(self, env: Env, target: ast.Expr,
                          field_name: str):
        """If ``target`` is a class name (not a variable), resolve the
        static field; returns the FieldInfo or None."""
        if not isinstance(target, ast.VarRef):
            return None
        if target.name in env.vars:
            return None
        info = self.program.classes.get(target.name)
        if info is None:
            return None
        fi = self.program.lookup_field(target.name, field_name)
        if fi is None or not fi.static:
            raise OwnershipTypeError(
                f"class '{target.name}' has no static field "
                f"'{field_name}'", target.span)
        return fi

    def _instance_field_type(self, env: Env, ttype: ClassType,
                             target: ast.Expr, field_name: str,
                             loc) -> Type:
        fi = self.program.lookup_field(ttype.name, field_name)
        if fi is None or fi.static:
            raise OwnershipTypeError(
                f"class '{ttype.name}' has no field '{field_name}'",
                loc_span(loc), rule="EXPR REF READ")
        if fi.type.mentions(THIS) and not isinstance(target, ast.ThisRef):
            raise OwnershipTypeError(
                f"field '{field_name}' has a type owned by its object "
                "and is encapsulated (property O3); it is only "
                "accessible through 'this'", loc_span(loc),
                rule="EXPR REF READ")
        subst = make_subst(
            self.program.class_info(ttype.name).formal_names,
            ttype.owners)
        return fi.type.substitute(subst)

    def _portal_field_type(self, env: Env, htype: HandleType,
                           field_name: str, loc) -> Type:
        region = htype.region
        kind = env.kind_of(region)
        if kind.name not in self.program.region_kinds:
            raise OwnershipTypeError(
                f"region '{region}' of kind '{kind}' has no portal "
                "fields", loc_span(loc), rule="EXPR GET REGION FIELD")
        portal = self.program.lookup_portal(kind.strip_lt(), field_name)
        if portal is None:
            raise OwnershipTypeError(
                f"region kind '{kind}' has no portal field "
                f"'{field_name}'", loc_span(loc), rule="EXPR GET REGION FIELD")
        return portal.type.substitute({THIS: region})

    def _check_field_read(self, env: Env, expr: ast.FieldRead,
                          permitted: Effects, rcr: Owner) -> Type:
        """[EXPR REF READ] / [EXPR GET REGION FIELD] / static read."""
        static = self._try_static_field(env, expr.target, expr.field_name)
        if static is not None:
            if isinstance(static.type, ClassType):
                self._require_effect(env, permitted, static.type.owner,
                                     expr.loc,
                                     f"reading '{expr.field_name}'",
                                     "EXPR REF READ")
            return static.type
        ttype = self.check_expr(env, expr.target, permitted, rcr)
        if isinstance(ttype, HandleType):
            declared = self._portal_field_type(env, ttype,
                                               expr.field_name, expr.loc)
            if isinstance(declared, ClassType):
                self._require_effect(env, permitted, declared.owner,
                                     expr.loc,
                                     f"reading portal '{expr.field_name}'",
                                     "EXPR GET REGION FIELD")
            return declared
        if not isinstance(ttype, ClassType):
            raise OwnershipTypeError(
                f"cannot read field of non-object type '{ttype}'",
                expr.span, rule="EXPR REF READ")
        declared = self._instance_field_type(env, ttype, expr.target,
                                             expr.field_name, expr.loc)
        if isinstance(declared, ClassType):
            self._require_effect(env, permitted, declared.owner, expr.loc,
                                 f"reading field '{expr.field_name}'",
                                 "EXPR REF READ")
        return declared

    # -- invocation --------------------------------------------------------

    def _invoke_parts(self, env: Env, expr: ast.Invoke, permitted: Effects,
                      rcr: Owner):
        """Shared receiver/method resolution and renaming for
        [EXPR INVOKE]; returns (receiver type, renamed signature,
        actuals).  The renaming itself is memoized per call shape in
        :meth:`ProgramInfo.invoke_signature`."""
        ttype = self.check_expr(env, expr.target, permitted, rcr)
        if not isinstance(ttype, ClassType):
            raise OwnershipTypeError(
                f"cannot invoke method on non-object type '{ttype}'",
                expr.span, rule="EXPR INVOKE")
        actuals = tuple(convert_owner(o) for o in expr.owner_args)
        sig = self.program.invoke_signature(ttype, expr.method_name,
                                            actuals, rcr)
        if sig is None:
            mi = self.program.lookup_method(ttype.name, expr.method_name)
            if mi is None:
                raise OwnershipTypeError(
                    f"class '{ttype.name}' has no method "
                    f"'{expr.method_name}'", expr.span,
                    rule="EXPR INVOKE")
            raise OwnershipTypeError(
                f"method '{ttype.name}.{expr.method_name}' expects "
                f"{len(mi.formals)} owner arguments, got "
                f"{len(expr.owner_args)}", expr.span, rule="EXPR INVOKE")
        return ttype, sig, actuals

    def _renamed_invoke_effects(self, env: Env, expr: ast.Invoke,
                                rcr: Owner) -> Tuple[Owner, ...]:
        ttype, sig, _ = self._invoke_parts(env, expr, None, rcr)
        this_owner = ttype.owner
        out = []
        for renamed in sig.effects:
            if renamed == THIS and not isinstance(expr.target,
                                                  ast.ThisRef):
                renamed = this_owner  # covering the owner covers the object
            out.append(renamed)
        return tuple(out)

    def _check_invoke(self, env: Env, expr: ast.Invoke,
                      permitted: Effects, rcr: Owner) -> Type:
        """[EXPR INVOKE]."""
        ttype, sig, actuals = self._invoke_parts(
            env, expr, permitted, rcr)
        mi, rename = sig.method, sig.rename
        loc = expr.loc
        receiver_is_this = isinstance(expr.target, ast.ThisRef)
        first_owner = ttype.owner

        # owner-argument kinds: ki' ≤ Rename(ki)
        for wanted, actual in zip(sig.formal_kinds, actuals):
            actual_kind = self._owner_kind(env, actual, loc)
            if not self.program.kind_table.is_subkind(actual_kind, wanted):
                raise OwnershipTypeError(
                    f"owner argument '{actual}' has kind "
                    f"'{actual_kind}', not a subkind of '{wanted}'",
                    loc_span(loc), rule="EXPR INVOKE")
            # Section 2.1 / Theorem 4: a method owner argument that is an
            # *object* must (transitively) own the receiver object.  For
            # a `this` receiver that is the object itself; for any other
            # receiver we only have its owner, so we require owning that
            # (which implies owning the object, since the first owner
            # owns it).
            if env.is_object_owner(actual):
                target = THIS if receiver_is_this else first_owner
                if not env.owns(actual, target):
                    raise OwnershipTypeError(
                        f"object owner argument '{actual}' must "
                        f"(transitively) own the receiver", loc_span(loc),
                        rule="EXPR INVOKE")

        def reject_this_mention(what: str) -> None:
            raise OwnershipTypeError(
                f"{what} of '{ttype.name}.{mi.name}' mentions 'this' "
                "and is only usable through 'this' (property O3)",
                loc_span(loc), rule="EXPR INVOKE")

        if len(expr.args) != len(mi.params):
            raise OwnershipTypeError(
                f"method '{ttype.name}.{mi.name}' expects "
                f"{len(mi.params)} arguments, got {len(expr.args)}",
                loc_span(loc), rule="EXPR INVOKE")
        for i, (arg, (_, pname)) in enumerate(zip(expr.args, mi.params)):
            if sig.param_mentions_this[i] and not receiver_is_this:
                reject_this_mention(f"parameter '{pname}'")
            want = sig.param_types[i]
            got = self.check_expr(env, arg, permitted, rcr)
            self._require_subtype(got, want, loc,
                                  f"argument for '{pname}'")

        for c in mi.constraints:
            if c.left == THIS and not receiver_is_this:
                raise OwnershipTypeError(
                    f"constraint '{c}' of '{ttype.name}.{mi.name}' "
                    "mentions 'this' on the left and cannot be checked "
                    "for a non-this receiver", loc_span(loc),
                    rule="EXPR INVOKE")
            inst = Constraint(
                c.relation,
                rename.get(c.left, c.left),
                first_owner if (c.right == THIS and not receiver_is_this)
                else rename.get(c.right, c.right))
            if not env.entails(inst):
                raise OwnershipTypeError(
                    f"constraint '{inst}' of method "
                    f"'{ttype.name}.{mi.name}' is not satisfied",
                    loc_span(loc), rule="EXPR INVOKE")

        for renamed in sig.effects:
            if renamed == THIS and not receiver_is_this:
                renamed = first_owner
            self._require_effect(env, permitted, renamed, loc,
                                 f"calling '{ttype.name}.{mi.name}'",
                                 "EXPR INVOKE")
        if sig.return_mentions_this and not receiver_is_this:
            reject_this_mention("return type")
        return sig.return_type

    # -- operators and builtins ------------------------------------------

    def _check_binary(self, env: Env, expr: ast.Binary,
                      permitted: Effects, rcr: Owner) -> Type:
        left = self.check_expr(env, expr.left, permitted, rcr)
        right = self.check_expr(env, expr.right, permitted, rcr)
        op = expr.op
        if op in ("&&", "||"):
            if left == BOOLEAN and right == BOOLEAN:
                return BOOLEAN
        elif op in ("==", "!="):
            if left == right and left in (INT, FLOAT, BOOLEAN):
                return BOOLEAN
            if left.is_reference and right.is_reference:
                return BOOLEAN
        elif op in ("<", "<=", ">", ">="):
            if left == right and left in (INT, FLOAT):
                return BOOLEAN
        elif op == "%":
            if left == INT and right == INT:
                return INT
        elif op in ("+", "-", "*", "/"):
            if left == right and left in (INT, FLOAT):
                return left
        raise OwnershipTypeError(
            f"operator '{op}' cannot be applied to '{left}' and "
            f"'{right}'", expr.span)

    def _check_unary(self, env: Env, expr: ast.Unary, permitted: Effects,
                     rcr: Owner) -> Type:
        operand = self.check_expr(env, expr.operand, permitted, rcr)
        if expr.op == "!" and operand == BOOLEAN:
            return BOOLEAN
        if expr.op == "-" and operand in (INT, FLOAT):
            return operand
        raise OwnershipTypeError(
            f"operator '{expr.op}' cannot be applied to '{operand}'",
            expr.span)

    def _check_builtin(self, env: Env, expr: ast.BuiltinCall,
                       permitted: Effects, rcr: Owner) -> Type:
        sig = BUILTIN_SIGNATURES.get(expr.name)
        if sig is None:
            raise OwnershipTypeError(f"unknown builtin '{expr.name}'",
                                     expr.span)
        if expr.name == "print":
            if len(expr.args) != 1:
                raise OwnershipTypeError("print takes one argument",
                                         expr.span)
            got = self.check_expr(env, expr.args[0], permitted, rcr)
            if got not in (INT, FLOAT, BOOLEAN):
                raise OwnershipTypeError(
                    f"print takes a scalar, found '{got}'", expr.span)
            return VOID
        params, ret = sig
        if len(expr.args) != len(params):
            raise OwnershipTypeError(
                f"builtin '{expr.name}' takes {len(params)} arguments",
                expr.span)
        for arg, want in zip(expr.args, params):
            got = self.check_expr(env, arg, permitted, rcr)
            self._require_subtype(got, want, expr.loc,
                                  f"argument of '{expr.name}'")
        return ret
