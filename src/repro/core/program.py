"""Semantic program tables: classes, region kinds, members, inheritance.

Implements the member-lookup judgments of Appendix B:

* ``P ⊢ mbr ∈ c``        — [DECLARED CLASS MEMBER] / [INHERITED CLASS MEMBER]
* ``P ⊢ rmbr ∈ rkind``   — [DECLARED REGION MEMBER] / [INHERITED REGION MEMBER]

plus the built-in classes (``Object`` and the simulated primitive arrays)
and the syntactic→semantic conversion of owners, kinds, and types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import OwnershipTypeError
from ..lang import ast
from .kinds import (BUILTIN_KINDS, K_OWNER, Kind, KindTable)
from .owners import Owner, Subst, make_subst
from .types import (BOOLEAN, FLOAT, INT, VOID, ClassType, HandleType,
                    PrimType, Type)

# ---------------------------------------------------------------------------
# syntactic → semantic conversion
# ---------------------------------------------------------------------------

_PRIMS: Dict[str, PrimType] = {
    "int": INT, "float": FLOAT, "boolean": BOOLEAN, "void": VOID,
}


def convert_owner(o: ast.OwnerAst) -> Owner:
    return Owner(o.name)


def convert_kind(k: ast.KindAst) -> Kind:
    return Kind(k.name, tuple(convert_owner(a) for a in k.args), k.lt)


def convert_type(t: ast.TypeAst) -> Type:
    if isinstance(t, ast.PrimTypeAst):
        return _PRIMS[t.name]
    if isinstance(t, ast.HandleTypeAst):
        return HandleType(convert_owner(t.region))
    if isinstance(t, ast.ClassTypeAst):
        return ClassType(t.name, tuple(convert_owner(o) for o in t.owners))
    raise TypeError(f"unknown type AST {t!r}")


@dataclass(frozen=True)
class Constraint:
    """Semantic ``where`` constraint."""

    relation: str  # 'owns' | 'outlives'
    left: Owner
    right: Owner

    def substitute(self, subst: Subst) -> "Constraint":
        return Constraint(self.relation,
                          subst.get(self.left, self.left),
                          subst.get(self.right, self.right))

    def __str__(self) -> str:
        return f"{self.left} {self.relation} {self.right}"


def convert_constraint(c: ast.ConstraintAst) -> Constraint:
    return Constraint(c.relation, convert_owner(c.left),
                      convert_owner(c.right))


@dataclass(frozen=True)
class Policy:
    """Region allocation policy (Section 2.3)."""

    kind: str  # 'LT' | 'VT'
    size: int = 0

    def __str__(self) -> str:
        return f"LT({self.size})" if self.kind == "LT" else "VT"


# ---------------------------------------------------------------------------
# members
# ---------------------------------------------------------------------------

@dataclass
class FieldInfo:
    name: str
    type: Type                 # expressed over the declaring class's formals
    static: bool
    declaring_class: str
    decl: Optional[ast.FieldDecl] = None

    def substitute(self, subst: Subst) -> "FieldInfo":
        return FieldInfo(self.name, self.type.substitute(subst),
                         self.static, self.declaring_class, self.decl)


@dataclass
class MethodInfo:
    name: str
    formals: List[Tuple[str, Kind]]        # additional method owner formals
    params: List[Tuple[Type, str]]
    return_type: Type
    #: ``None`` = no ``accesses`` clause (defaults apply before checking).
    effects: Optional[Tuple[Owner, ...]]
    constraints: List[Constraint]
    declaring_class: str
    decl: Optional[ast.MethodDecl] = None
    native: Optional[str] = None           # built-in implementation tag

    def substitute(self, subst: Subst) -> "MethodInfo":
        # Method formals shadow anything of the same name; a well-formed
        # program has no such shadowing (checked by wellformed).
        out = MethodInfo(
            self.name,
            [(fn, k.substitute(subst)) for fn, k in self.formals],
            [(t.substitute(subst), p) for t, p in self.params],
            self.return_type.substitute(subst),
            (tuple(subst.get(o, o) for o in self.effects)
             if self.effects is not None else None),
            [c.substitute(subst) for c in self.constraints],
            self.declaring_class, self.decl, self.native)
        return out


@dataclass
class SubregionInfo:
    """A subregion member of a region kind (``srkind : rpol tt rsub``)."""

    name: str
    kind: Kind          # over the declaring region kind's formals + 'this'
    policy: Policy
    realtime: bool      # RT subregion (real-time threads only)?
    declaring_kind: str
    decl: Optional[ast.SubregionDecl] = None

    def substitute(self, subst: Subst) -> "SubregionInfo":
        return SubregionInfo(self.name, self.kind.substitute(subst),
                             self.policy, self.realtime,
                             self.declaring_kind, self.decl)


# ---------------------------------------------------------------------------
# classes and region kinds
# ---------------------------------------------------------------------------

@dataclass
class ClassInfo:
    name: str
    formals: List[Tuple[str, Kind]]
    superclass: Optional[ClassType]        # over this class's formals
    constraints: List[Constraint]
    fields: Dict[str, FieldInfo] = field(default_factory=dict)
    methods: Dict[str, MethodInfo] = field(default_factory=dict)
    decl: Optional[ast.ClassDecl] = None
    builtin: bool = False
    #: constructor parameter types for built-in classes (``new C<o>(n)``)
    ctor_params: Tuple[Type, ...] = ()

    @property
    def formal_names(self) -> Tuple[str, ...]:
        cached = self.__dict__.get("_formal_names")
        if cached is None:
            cached = tuple(fn for fn, _ in self.formals)
            self.__dict__["_formal_names"] = cached
        return cached

    @property
    def first_formal(self) -> Owner:
        return Owner(self.formals[0][0])


@dataclass
class RegionKindInfo:
    name: str
    formals: List[Tuple[str, Kind]]
    superkind: Kind                        # over this kind's formals
    constraints: List[Constraint]
    portals: Dict[str, FieldInfo] = field(default_factory=dict)
    subregions: Dict[str, SubregionInfo] = field(default_factory=dict)
    decl: Optional[ast.RegionKindDecl] = None

    @property
    def formal_names(self) -> Tuple[str, ...]:
        cached = self.__dict__.get("_formal_names")
        if cached is None:
            cached = tuple(fn for fn, _ in self.formals)
            self.__dict__["_formal_names"] = cached
        return cached


BUILTIN_CLASS_NAMES = ("Object", "IntArray", "FloatArray")

#: sentinel distinguishing "memoized None" from "not yet computed"
_MISSING = object()


def _builtin_classes() -> Dict[str, ClassInfo]:
    """``Object<o>`` plus the simulated primitive arrays.

    Array element reads/writes move scalars, not references, so — like
    Java primitive arrays under the RTSJ — they incur no assignment
    checks; only the allocation itself is region-relevant.
    """
    classes: Dict[str, ClassInfo] = {}
    obj = ClassInfo("Object", [("o", K_OWNER)], None, [], builtin=True)
    classes["Object"] = obj
    for name, elem in (("IntArray", INT), ("FloatArray", FLOAT)):
        cls = ClassInfo(name, [("o", K_OWNER)],
                        ClassType("Object", (Owner("o"),)), [],
                        builtin=True, ctor_params=(INT,))
        cls.methods = {
            "get": MethodInfo("get", [], [(INT, "index")], elem, (),
                              [], name, native=f"{name}.get"),
            "set": MethodInfo("set", [], [(INT, "index"), (elem, "value")],
                              VOID, (), [], name, native=f"{name}.set"),
            "length": MethodInfo("length", [], [], INT, (), [], name,
                                 native=f"{name}.length"),
        }
        classes[name] = cls
    return classes


@dataclass
class InvokeSignature:
    """A method signature renamed for one call shape: receiver type +
    owner actuals + current region ``rcr``.

    Precomputed once per ``(class type, method, actuals, rcr)`` key and
    shared across every call site with that shape, so ``[EXPR INVOKE]``
    stops rebuilding substitutions per call.  ``rename`` is the complete
    substitution (class formals, method formals, and ``initialRegion``)
    and is shared — treat it as read-only.  Renamed components leave
    ``this`` intact; the checker translates ``this`` per receiver.
    The ``*_mentions_this`` flags record whether the *declared* (pre-
    rename) component mentions ``this`` — the property O3 restriction.
    """

    method: MethodInfo
    rename: Subst
    formal_kinds: Tuple[Kind, ...]
    param_types: Tuple[Type, ...]
    param_mentions_this: Tuple[bool, ...]
    return_type: Type
    return_mentions_this: bool
    effects: Tuple[Owner, ...]


@dataclass
class ProgramInfo:
    """Semantic view of a whole program ``P``.

    The tables are immutable once built (``build_program_info`` populates
    everything before returning), so member lookups and call-shape
    renamings are memoized per instance.
    """

    classes: Dict[str, ClassInfo]
    region_kinds: Dict[str, RegionKindInfo]
    ast_program: ast.Program
    kind_table: KindTable
    _member_cache: dict = field(default_factory=dict, repr=False,
                                compare=False)
    _invoke_cache: dict = field(default_factory=dict, repr=False,
                                compare=False)

    # -- class member lookup (with inheritance) -------------------------

    def class_info(self, name: str) -> ClassInfo:
        info = self.classes.get(name)
        if info is None:
            raise OwnershipTypeError(f"unknown class '{name}'")
        return info

    def superclass_of(self, ctype: ClassType) -> Optional[ClassType]:
        """[SUBTYPE CLASS]: the direct superclass with owners
        substituted."""
        key = ("super", ctype)
        hit = self._member_cache.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        info = self.class_info(ctype.name)
        if info.superclass is None:
            result = None
        else:
            subst = make_subst(info.formal_names, ctype.owners)
            result = info.superclass.substitute(subst)
        self._member_cache[key] = result
        return result

    def lookup_field(self, class_name: str,
                     field_name: str) -> Optional[FieldInfo]:
        """``P ⊢ (t fd) ∈ cn<fn1..n>`` over *class_name*'s own formals."""
        key = ("field", class_name, field_name)
        hit = self._member_cache.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        result = self._lookup_member(class_name, field_name,
                                     lambda info: info.fields)
        self._member_cache[key] = result
        return result

    def lookup_method(self, class_name: str,
                      method_name: str) -> Optional[MethodInfo]:
        key = ("method", class_name, method_name)
        hit = self._member_cache.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        result = self._lookup_member(class_name, method_name,
                                     lambda info: info.methods)
        self._member_cache[key] = result
        return result

    def _lookup_member(self, class_name: str, member_name: str, table):
        info = self.classes.get(class_name)
        subst: Subst = {}
        while info is not None:
            members = table(info)
            if member_name in members:
                found = members[member_name]
                return found.substitute(subst) if subst else found
            if info.superclass is None:
                return None
            # Compose: superclass owners are over info's formals; rewrite
            # them through the substitution accumulated so far.
            sup = info.superclass.substitute(subst)
            sup_info = self.classes.get(sup.name)
            if sup_info is None:
                return None
            subst = make_subst(sup_info.formal_names, sup.owners)
            info = sup_info
        return None

    def invoke_signature(self, ctype: ClassType, method_name: str,
                         actuals: Tuple[Owner, ...],
                         rcr: Owner) -> Optional[InvokeSignature]:
        """The renamed signature of ``ctype.method_name<actuals>`` checked
        under current region ``rcr``; ``None`` if the method does not
        exist or the owner-argument count is wrong."""
        key = (ctype, method_name, actuals, rcr)
        hit = self._invoke_cache.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        result = self._build_invoke_signature(ctype, method_name,
                                              actuals, rcr)
        self._invoke_cache[key] = result
        return result

    def _build_invoke_signature(self, ctype, method_name, actuals, rcr):
        from .owners import INITIAL_REGION, THIS
        mi = self.lookup_method(ctype.name, method_name)
        if mi is None or len(actuals) != len(mi.formals):
            return None
        rename = dict(make_subst(
            self.class_info(ctype.name).formal_names, ctype.owners))
        for (fn, _), actual in zip(mi.formals, actuals):
            rename[Owner(fn)] = actual
        rename[INITIAL_REGION] = rcr
        return InvokeSignature(
            method=mi,
            rename=rename,
            formal_kinds=tuple(k.substitute(rename)
                               for _, k in mi.formals),
            param_types=tuple(t.substitute(rename)
                              for t, _ in mi.params),
            param_mentions_this=tuple(t.mentions(THIS)
                                      for t, _ in mi.params),
            return_type=mi.return_type.substitute(rename),
            return_mentions_this=mi.return_type.mentions(THIS),
            effects=(tuple(rename.get(o, o) for o in mi.effects)
                     if mi.effects is not None else ()))

    # -- region-kind member lookup ---------------------------------------

    def lookup_portal(self, kind: Kind,
                      field_name: str) -> Optional[FieldInfo]:
        """Portal field lookup through the region-kind hierarchy; the
        result is expressed over *kind*'s owner arguments and ``this``."""
        current: Optional[Kind] = kind
        while current is not None and current.name in self.region_kinds:
            info = self.region_kinds[current.name]
            subst = make_subst(info.formal_names, current.args)
            if field_name in info.portals:
                return info.portals[field_name].substitute(subst)
            current = info.superkind.substitute(subst)
        return None

    def lookup_subregion(self, kind: Kind,
                         sub_name: str) -> Optional[SubregionInfo]:
        current: Optional[Kind] = kind
        while current is not None and current.name in self.region_kinds:
            info = self.region_kinds[current.name]
            subst = make_subst(info.formal_names, current.args)
            if sub_name in info.subregions:
                return info.subregions[sub_name].substitute(subst)
            current = info.superkind.substitute(subst)
        return None

    def all_subregions(self, kind: Kind) -> Dict[str, SubregionInfo]:
        """All (inherited) subregion members of ``kind``."""
        out: Dict[str, SubregionInfo] = {}
        current: Optional[Kind] = kind
        while current is not None and current.name in self.region_kinds:
            info = self.region_kinds[current.name]
            subst = make_subst(info.formal_names, current.args)
            for name, sub in info.subregions.items():
                out.setdefault(name, sub.substitute(subst))
            current = info.superkind.substitute(subst)
        return out

    def all_portals(self, kind: Kind) -> Dict[str, FieldInfo]:
        out: Dict[str, FieldInfo] = {}
        current: Optional[Kind] = kind
        while current is not None and current.name in self.region_kinds:
            info = self.region_kinds[current.name]
            subst = make_subst(info.formal_names, current.args)
            for name, portal in info.portals.items():
                out.setdefault(name, portal.substitute(subst))
            current = info.superkind.substitute(subst)
        return out


# ---------------------------------------------------------------------------
# construction from the AST
# ---------------------------------------------------------------------------

def _convert_field(decl: ast.FieldDecl, declaring: str) -> FieldInfo:
    return FieldInfo(decl.name, convert_type(decl.declared_type),
                     decl.static, declaring, decl)


def _convert_method(decl: ast.MethodDecl, declaring: str) -> MethodInfo:
    return MethodInfo(
        decl.name,
        [(f.name, convert_kind(f.kind)) for f in decl.formals],
        [(convert_type(t), p) for t, p in decl.params],
        convert_type(decl.return_type),
        (tuple(convert_owner(o) for o in decl.effects)
         if decl.effects is not None else None),
        [convert_constraint(c) for c in decl.constraints],
        declaring, decl)


def _convert_policy(p: ast.PolicyAst) -> Policy:
    return Policy(p.kind, p.size)


def build_program_info(program: ast.Program) -> ProgramInfo:
    """Build the semantic tables.  Purely structural — well-formedness is
    checked separately by :mod:`repro.core.wellformed`."""
    classes = _builtin_classes()
    region_kinds: Dict[str, RegionKindInfo] = {}

    region_kind_names = {rk.name for rk in program.region_kinds}

    for rk in program.region_kinds:
        info = RegionKindInfo(
            rk.name,
            [(f.name, convert_kind(f.kind)) for f in rk.formals],
            convert_kind(rk.superkind),
            [convert_constraint(c) for c in rk.constraints],
            decl=rk)
        for portal in rk.portals:
            # The parser cannot distinguish `SubKind b;` (a subregion with
            # default VT/NoRT) from a portal field whose type names a
            # class; reclassify here now that kind names are known.
            ptype = portal.declared_type
            if (isinstance(ptype, ast.ClassTypeAst)
                    and ptype.name in region_kind_names):
                kind = Kind(ptype.name,
                            tuple(convert_owner(o) for o in ptype.owners))
                info.subregions[portal.name] = SubregionInfo(
                    portal.name, kind, Policy("VT"), False, rk.name,
                    None)
            else:
                info.portals[portal.name] = _convert_field(portal, rk.name)
        for sub in rk.subregions:
            info.subregions[sub.name] = SubregionInfo(
                sub.name, convert_kind(sub.kind),
                _convert_policy(sub.policy), sub.realtime, rk.name, sub)
        region_kinds[rk.name] = info

    for cls in program.classes:
        if cls.name in classes:
            what = ("a built-in class"
                    if cls.name in BUILTIN_CLASS_NAMES
                    else "an existing class — defined twice")
            raise OwnershipTypeError(
                f"class '{cls.name}' redefines {what}", cls.span)
        superclass = None
        if cls.superclass is not None:
            converted = convert_type(cls.superclass)
            assert isinstance(converted, ClassType)
            superclass = converted
        info = ClassInfo(
            cls.name,
            [(f.name, convert_kind(f.kind)) for f in cls.formals],
            superclass,
            [convert_constraint(c) for c in cls.constraints],
            decl=cls)
        for fld in cls.fields:
            info.fields[fld.name] = _convert_field(fld, cls.name)
        for meth in cls.methods:
            info.methods[meth.name] = _convert_method(meth, cls.name)
        classes[cls.name] = info

    kind_table = KindTable()
    for name, info in region_kinds.items():
        kind_table.supers[name] = (info.formal_names, info.superkind)

    return ProgramInfo(classes, region_kinds, program, kind_table)
