"""Structural well-formedness predicates of Figure 15.

* ``WFClasses(P)``      — no duplicate classes, acyclic class hierarchy.
* ``WFRegionKinds(P)``  — no duplicate region kinds, acyclic kind
  hierarchy, and a *finite* number of transitive subregions (the paper:
  "Our system checks that a region has a finite number of transitive
  subregions", needed so LT preallocation terminates).
* ``MembersOnce(P)``    — no duplicate fields (declared or inherited), no
  duplicate method declarations within a class.
* ``InheritanceOK(P)``  — subclass/subkind constraints include the
  (substituted) superclass/superkind constraints; method overrides are
  compatible ([OVERRIDESOK METHOD]).
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..errors import OwnershipTypeError
from ..source import loc_span
from .kinds import BUILTIN_KINDS, K_SHARED_REGION, Kind
from .owners import INITIAL_REGION, Owner, make_subst
from .program import (ClassInfo, Constraint, MethodInfo, ProgramInfo,
                      RegionKindInfo)
from .types import ClassType


def check_wellformed(program: ProgramInfo) -> None:
    """Run every predicate; raises :class:`OwnershipTypeError` on the
    first violation."""
    _wf_classes(program)
    _wf_region_kinds(program)
    _members_once(program)
    _inheritance_ok(program)


# ---------------------------------------------------------------------------
# WFClasses
# ---------------------------------------------------------------------------

def _wf_classes(program: ProgramInfo) -> None:
    declared: Set[str] = set()
    for cls in program.ast_program.classes:
        if cls.name in declared:
            raise OwnershipTypeError(
                f"class '{cls.name}' is defined twice", cls.span)
        declared.add(cls.name)

    for name, info in program.classes.items():
        if not info.formals:
            raise OwnershipTypeError(
                f"class '{name}' must declare at least one owner formal "
                "(the first formal owns the object)",
                info.decl.span if info.decl else None)
        formal_names = [fn for fn, _ in info.formals]
        if len(set(formal_names)) != len(formal_names):
            raise OwnershipTypeError(
                f"class '{name}' has duplicate owner formals",
                info.decl.span if info.decl else None)
        # hierarchy must be acyclic and rooted in Object
        seen = {name}
        current = info
        while current.superclass is not None:
            sup_name = current.superclass.name
            if sup_name in seen:
                raise OwnershipTypeError(
                    f"cycle in the class hierarchy involving '{sup_name}'",
                    info.decl.span if info.decl else None)
            seen.add(sup_name)
            nxt = program.classes.get(sup_name)
            if nxt is None:
                raise OwnershipTypeError(
                    f"class '{current.name}' extends unknown class "
                    f"'{sup_name}'",
                    current.decl.span if current.decl else None)
            if len(current.superclass.owners) != len(nxt.formals):
                raise OwnershipTypeError(
                    f"class '{current.name}' instantiates '{sup_name}' "
                    f"with {len(current.superclass.owners)} owners, "
                    f"expected {len(nxt.formals)}",
                    current.decl.span if current.decl else None)
            current = nxt


# ---------------------------------------------------------------------------
# WFRegionKinds
# ---------------------------------------------------------------------------

def _wf_region_kinds(program: ProgramInfo) -> None:
    declared: Set[str] = set()
    for rk in program.ast_program.region_kinds:
        if rk.name in declared:
            raise OwnershipTypeError(
                f"region kind '{rk.name}' is defined twice", rk.span)
        if rk.name in BUILTIN_KINDS:
            raise OwnershipTypeError(
                f"region kind '{rk.name}' redefines a built-in kind",
                rk.span)
        declared.add(rk.name)

    for name, info in program.region_kinds.items():
        loc = info.decl.loc if info.decl else None
        # superkind chain must reach SharedRegion without cycles
        seen = {name}
        current: Kind = info.superkind
        while True:
            if current.name == "SharedRegion":
                break
            if current.name in BUILTIN_KINDS:
                raise OwnershipTypeError(
                    f"region kind '{name}' must (transitively) extend "
                    f"SharedRegion, found '{current.name}'", loc_span(loc))
            if current.name in seen:
                raise OwnershipTypeError(
                    "cycle in the region kind hierarchy involving "
                    f"'{current.name}'", loc_span(loc))
            seen.add(current.name)
            parent = program.region_kinds.get(current.name)
            if parent is None:
                raise OwnershipTypeError(
                    f"region kind '{name}' extends unknown kind "
                    f"'{current.name}'", loc_span(loc))
            if len(current.args) != len(parent.formals):
                raise OwnershipTypeError(
                    f"region kind '{name}' instantiates "
                    f"'{current.name}' with {len(current.args)} owners, "
                    f"expected {len(parent.formals)}", loc_span(loc))
            current = parent.superkind

    _finite_subregions(program)


def _finite_subregions(program: ProgramInfo) -> None:
    """Reject region kinds whose transitive subregions are infinite, i.e.
    a cycle in the graph "kind → kinds of its (inherited) subregions"."""
    graph: Dict[str, Set[str]] = {}
    for name, info in program.region_kinds.items():
        kind = Kind(name, tuple(Owner(fn) for fn in info.formal_names))
        targets = set()
        for sub in program.all_subregions(kind).values():
            if sub.kind.name in program.region_kinds:
                targets.add(sub.kind.name)
        graph[name] = targets

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in graph}

    def visit(node: str) -> None:
        color[node] = GRAY
        for nxt in graph.get(node, ()):
            if color.get(nxt) == GRAY:
                raise OwnershipTypeError(
                    f"region kind '{node}' has an infinite number of "
                    f"transitive subregions (cycle through '{nxt}')")
            if color.get(nxt) == WHITE:
                visit(nxt)
        color[node] = BLACK

    for name in graph:
        if color[name] == WHITE:
            visit(name)


# ---------------------------------------------------------------------------
# MembersOnce
# ---------------------------------------------------------------------------

def _members_once(program: ProgramInfo) -> None:
    for cls in program.ast_program.classes:
        field_names = [f.name for f in cls.fields]
        if len(set(field_names)) != len(field_names):
            raise OwnershipTypeError(
                f"class '{cls.name}' declares a field twice", cls.span)
        method_names = [m.name for m in cls.methods]
        if len(set(method_names)) != len(method_names):
            raise OwnershipTypeError(
                f"class '{cls.name}' declares a method twice "
                "(no overloading)", cls.span)
        # fields must not shadow inherited fields
        info = program.classes[cls.name]
        if info.superclass is not None:
            for fname in field_names:
                if program.lookup_field(info.superclass.name,
                                        fname) is not None:
                    raise OwnershipTypeError(
                        f"field '{cls.name}.{fname}' shadows an inherited "
                        "field", cls.span)
    for rk in program.ast_program.region_kinds:
        # count on the declaration lists — the semantic dicts dedupe
        names = ([p.name for p in rk.portals]
                 + [s.name for s in rk.subregions])
        if len(set(names)) != len(names):
            raise OwnershipTypeError(
                f"region kind '{rk.name}' declares a member twice",
                rk.span)


# ---------------------------------------------------------------------------
# InheritanceOK
# ---------------------------------------------------------------------------

def _constraint_set(constraints: List[Constraint]) -> Set[Constraint]:
    return set(constraints)


def _inheritance_ok(program: ProgramInfo) -> None:
    for name, info in program.classes.items():
        if info.builtin or info.superclass is None:
            continue
        sup = program.classes.get(info.superclass.name)
        if sup is None or sup.builtin:
            continue
        loc = info.decl.loc if info.decl else None
        subst = make_subst(sup.formal_names, info.superclass.owners)
        have = _constraint_set(info.constraints)
        for c in sup.constraints:
            needed = c.substitute(subst)
            if needed not in have:
                raise OwnershipTypeError(
                    f"class '{name}' must repeat the inherited constraint "
                    f"'{needed}' of '{sup.name}'", loc_span(loc))
        for mname, meth in info.methods.items():
            overridden = program.lookup_method(info.superclass.name, mname)
            if overridden is not None:
                # expressed over sup's formals; rewrite to info's view
                overridden = overridden.substitute(subst)
                _overrides_ok(program, name, meth, overridden, loc)

    for name, info in program.region_kinds.items():
        if info.superkind.name not in program.region_kinds:
            continue
        sup = program.region_kinds[info.superkind.name]
        loc = info.decl.loc if info.decl else None
        subst = make_subst(sup.formal_names, info.superkind.args)
        have = _constraint_set(info.constraints)
        for c in sup.constraints:
            needed = c.substitute(subst)
            if needed not in have:
                raise OwnershipTypeError(
                    f"region kind '{name}' must repeat the inherited "
                    f"constraint '{needed}' of '{sup.name}'", loc_span(loc))


def _overrides_ok(program: ProgramInfo, class_name: str, meth: MethodInfo,
                  overridden: MethodInfo, loc) -> None:
    """[OVERRIDESOK METHOD] — positional renaming of method formals, then:
    identical parameter types, covariant return, effects a subset of the
    overridden effects, constraints a subset of the overridden
    constraints."""
    where = f"method '{class_name}.{meth.name}'"
    if len(meth.formals) != len(overridden.formals):
        raise OwnershipTypeError(
            f"{where} overrides a method with a different number of "
            "owner formals", loc_span(loc))
    if len(meth.params) != len(overridden.params):
        raise OwnershipTypeError(
            f"{where} overrides a method with a different number of "
            "parameters", loc_span(loc))
    rename = make_subst((fn for fn, _ in overridden.formals),
                        tuple(Owner(fn) for fn, _ in meth.formals))
    over_params = [t.substitute(rename) for t, _ in overridden.params]
    for (t, _pname), t_over in zip(meth.params, over_params):
        if t != t_over:
            raise OwnershipTypeError(
                f"{where} changes the type of a parameter "
                f"({t} vs {t_over})", loc_span(loc))
    over_ret = overridden.return_type.substitute(rename)
    if meth.return_type != over_ret and not _is_subclass_of(
            program, meth.return_type, over_ret):
        raise OwnershipTypeError(
            f"{where} changes the return type ({meth.return_type} vs "
            f"{over_ret})", loc_span(loc))
    if meth.effects is not None and overridden.effects is not None:
        over_effects = {rename.get(o, o) for o in overridden.effects}
        for eff in meth.effects:
            if eff not in over_effects:
                raise OwnershipTypeError(
                    f"{where} declares effect '{eff}' not present in the "
                    "overridden method", loc_span(loc))
    over_constraints = {c.substitute(rename)
                        for c in overridden.constraints}
    for c in meth.constraints:
        if c not in over_constraints:
            raise OwnershipTypeError(
                f"{where} adds constraint '{c}' not present in the "
                "overridden method", loc_span(loc))


def _is_subclass_of(program: ProgramInfo, sub, sup) -> bool:
    if not isinstance(sub, ClassType) or not isinstance(sup, ClassType):
        return False
    current = sub
    while current is not None:
        if current == sup:
            return True
        current = program.superclass_of(current)
    return False
