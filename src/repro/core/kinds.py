"""The owner-kind hierarchy of Figure 4 and the subkinding judgment
``P ⊢ k1 ≤k k2`` of Appendix B.

Built-in kinds::

                      Owner
                    /       \\
              ObjOwner      Region
                           /      \\
                    GCRegion      NoGCRegion
                                 /         \\
                         LocalRegion     SharedRegion
                                          /   ...   \\
                                     user-defined region kinds

User-defined shared region kinds (``regionKind srkn<formals> extends ...``)
hang below ``SharedRegion``.  Any kind may additionally carry the ``:LT``
refinement (Figure 9, ``k ::= ... | rkind : LT``), with:

* [DELETE LT]  ``rkind:LT ≤ rkind``
* [ADD LT]     ``rkind1 ≤ rkind2  ⇒  rkind1:LT ≤ rkind2:LT``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .owners import Owner, Subst, substitute_all

OWNER = "Owner"
OBJ_OWNER = "ObjOwner"
REGION = "Region"
GC_REGION = "GCRegion"
NO_GC_REGION = "NoGCRegion"
LOCAL_REGION = "LocalRegion"
SHARED_REGION = "SharedRegion"

BUILTIN_KINDS = (OWNER, OBJ_OWNER, REGION, GC_REGION, NO_GC_REGION,
                 LOCAL_REGION, SHARED_REGION)

#: Direct super-kind of each built-in kind (Figure 4).
_BUILTIN_SUPER: Dict[str, Optional[str]] = {
    OWNER: None,
    OBJ_OWNER: OWNER,
    REGION: OWNER,
    GC_REGION: REGION,
    NO_GC_REGION: REGION,
    LOCAL_REGION: NO_GC_REGION,
    SHARED_REGION: NO_GC_REGION,
}


@dataclass(frozen=True)
class Kind:
    """A (possibly refined, possibly user-defined) owner kind."""

    name: str
    args: Tuple[Owner, ...] = ()
    lt: bool = False

    def __str__(self) -> str:
        base = self.name
        if self.args:
            base += "<" + ", ".join(map(str, self.args)) + ">"
        return base + (":LT" if self.lt else "")

    def with_lt(self, lt: bool = True) -> "Kind":
        return Kind(self.name, self.args, lt)

    def strip_lt(self) -> "Kind":
        return Kind(self.name, self.args, False)

    def substitute(self, subst: Subst) -> "Kind":
        if not self.args:
            return self
        return Kind(self.name, substitute_all(self.args, subst), self.lt)

    @property
    def is_builtin(self) -> bool:
        return self.name in _BUILTIN_SUPER


K_OWNER = Kind(OWNER)
K_OBJ_OWNER = Kind(OBJ_OWNER)
K_REGION = Kind(REGION)
K_GC_REGION = Kind(GC_REGION)
K_NO_GC_REGION = Kind(NO_GC_REGION)
K_LOCAL_REGION = Kind(LOCAL_REGION)
K_SHARED_REGION = Kind(SHARED_REGION)
#: Kind of ``immortal`` ([PROG]: ``SharedRegion:LT immortal``) — immortal
#: memory behaves like a preallocated LT shared region.
K_IMMORTAL = Kind(SHARED_REGION, lt=True)


@dataclass
class KindTable:
    """Resolves user region kinds to their parents for subkinding.

    ``supers`` maps a user kind name to ``(formal_names, super_kind)``
    where ``super_kind`` is expressed over the formals.
    """

    supers: Dict[str, Tuple[Tuple[str, ...], Kind]] = field(
        default_factory=dict)

    def direct_super(self, kind: Kind) -> Optional[Kind]:
        """The direct super-kind with owner arguments substituted
        ([SUBKIND SHARED REGION KIND]); preserves the ``:LT`` refinement
        via [ADD LT]."""
        if kind.name in _BUILTIN_SUPER:
            sup = _BUILTIN_SUPER[kind.name]
            if sup is None:
                return None
            return Kind(sup, lt=kind.lt)
        if kind.name not in self.supers:
            return None
        formals, super_kind = self.supers[kind.name]
        subst = {Owner(fn): actual
                 for fn, actual in zip(formals, kind.args)}
        return super_kind.substitute(subst).with_lt(kind.lt)

    def is_subkind(self, k1: Kind, k2: Kind) -> bool:
        """``P ⊢ k1 ≤k k2`` — reflexivity, transitivity up the hierarchy,
        [DELETE LT], [ADD LT]."""
        # [DELETE LT]: k:LT ≤ k, so an un-refined goal accepts refined
        # subjects; a refined goal requires a refined subject ([ADD LT]).
        if k2.lt and not k1.lt:
            return False
        current: Optional[Kind] = k1.with_lt(k2.lt)
        goal = k2
        while current is not None:
            if current.name == goal.name and current.args == goal.args:
                return True
            current = self.direct_super(current)
        return False

    def is_region_kind(self, kind: Kind) -> bool:
        return self.is_subkind(kind, K_REGION)

    def is_shared_kind(self, kind: Kind) -> bool:
        return self.is_subkind(kind, K_SHARED_REGION)

    def lineage(self, kind: Kind) -> Tuple[Kind, ...]:
        """The chain ``kind, super(kind), ...`` up to ``Owner``."""
        chain = []
        current: Optional[Kind] = kind
        while current is not None:
            chain.append(current)
            current = self.direct_super(current)
        return tuple(chain)
