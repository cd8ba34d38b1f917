"""The typing environment ``E`` and its derived judgments.

``E ::= ∅ | E, t v | E, k o | E, o2 ≻o o1 | E, o2 ≽ o1`` — variables with
types, owners with kinds, ownership edges, and outlives edges.  On top of
the stored facts the environment implements the paper's derived judgments:

* ``E ⊢ o1 ≽ o2``      — outlives: reflexivity, transitivity, ≻o ⇒ ≽,
  heap/immortal outlive everything ([≽heap/immortal]), and the fact that
  the first owner from the type of ``this`` owns ``this``.
* ``E ⊢ o1 ≽o o2``     — ownership (reflexive-transitive).
* ``E ⊢ av RH(o)``     — region-handle availability ([AV HANDLE],
  [AV THIS], [AV TRANS1], [AV TRANS2]): handles propagate along ownership
  chains in both directions because an object lives in its owner's region.
* ``E ⊢ RKind(o) = k`` — the kind of the region ``o`` denotes or is
  allocated in ([RKIND THIS], [RKIND FN1], [RKIND FN2]).
* ``E ⊢ X ≽ X'``       — effects subsumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import OwnershipTypeError
from .kinds import (K_GC_REGION, K_IMMORTAL, K_OBJ_OWNER, K_REGION, Kind,
                    OBJ_OWNER, OWNER)
from .owners import (HEAP, IMMORTAL, INITIAL_REGION, Owner, RT_EFFECT, THIS)
from .program import Constraint, ProgramInfo
from .types import ClassType, Type

#: Permitted effects: a set of owners, or ``None`` for the unrestricted
#: ``world`` effect used when checking the program's initial expression
#: ([PROG]: ``P; E; world; heap ⊢ e : t``).
Effects = Optional[FrozenSet[Owner]]


@dataclass(frozen=True)
class Env:
    """Immutable typing environment; extension returns a new Env.

    Because the environment is persistent (every ``with_*`` returns a new
    instance and no stored fact ever changes), the derived judgments below
    are pure functions of the instance — so each Env carries a private
    memo table (adjacency indexes over the edge sets plus per-query
    results).  ``_derive`` (and ``dataclasses.replace``, which it
    replaces on the hot path) resets that table, so derived environments
    always start with an empty cache and can never see stale answers.
    """

    program: ProgramInfo
    vars: Dict[str, Type] = field(default_factory=dict)
    owner_kinds: Dict[str, Kind] = field(default_factory=dict)
    this_type: Optional[ClassType] = None
    handles: FrozenSet[str] = frozenset()
    owns_edges: FrozenSet[Tuple[Owner, Owner]] = frozenset()
    outlives_edges: FrozenSet[Tuple[Owner, Owner]] = frozenset()
    _memo: Dict[str, dict] = field(init=False, default_factory=dict,
                                   repr=False, compare=False)

    def _derive(self, **changes) -> "Env":
        """Fast ``dataclasses.replace``: copy the instance dict, apply
        ``changes``, reset the memo.  Equivalent because every field of
        this frozen dataclass lives in ``__dict__`` and ``__init__`` has
        no logic beyond field assignment."""
        new = object.__new__(Env)
        d = dict(self.__dict__)
        d.update(changes)
        d["_memo"] = {}
        new.__dict__.update(d)
        return new

    def _caches(self) -> Dict[str, dict]:
        """Adjacency indexes + memo tables, built on first use."""
        c = self._memo
        if not c:
            owns_fwd: Dict[Owner, List[Owner]] = {}
            owns_rev: Dict[Owner, List[Owner]] = {}
            reach_fwd: Dict[Owner, List[Owner]] = {}
            for a, b in self.owns_edges:
                owns_fwd.setdefault(a, []).append(b)
                owns_rev.setdefault(b, []).append(a)
                reach_fwd.setdefault(a, []).append(b)
            for a, b in self.outlives_edges:
                reach_fwd.setdefault(a, []).append(b)
            c["owns_fwd"] = owns_fwd
            c["owns_rev"] = owns_rev
            c["reach_fwd"] = reach_fwd
            c["owns"] = {}
            c["outlives"] = {}
            c["av"] = {}
            c["rkind"] = {}
            c["effect"] = {}
        return c

    # ------------------------------------------------------------------
    # construction / extension
    # ------------------------------------------------------------------

    @staticmethod
    def initial(program: ProgramInfo) -> "Env":
        """The root environment of [PROG]: ``GCRegion heap,
        SharedRegion:LT immortal`` with both handles available."""
        return Env(program, handles=frozenset({"heap", "immortal"}))

    def with_var(self, name: str, vtype: Type) -> "Env":
        new_vars = dict(self.vars)
        new_vars[name] = vtype
        return self._derive(vars=new_vars)

    def with_owner(self, name: str, kind: Kind) -> "Env":
        """[ENV OWNER]; rejects shadowing so owner atoms stay unambiguous."""
        if name in self.owner_kinds or name in ("heap", "immortal",
                                                "initialRegion", "this",
                                                "RT"):
            raise OwnershipTypeError(
                f"owner '{name}' shadows an owner already in scope")
        new_kinds = dict(self.owner_kinds)
        new_kinds[name] = kind
        return self._derive(owner_kinds=new_kinds)

    def with_handle(self, owner: Owner) -> "Env":
        return self._derive(handles=self.handles | {owner.name})

    def with_this(self, this_type: ClassType) -> "Env":
        """Bind ``this``; records that the first owner owns ``this`` and
        that every owner of the type outlives the first ([TYPE C]
        invariant)."""
        env = self._derive(this_type=this_type)
        env = env.with_owns(this_type.owner, THIS)
        for extra in this_type.owners[1:]:
            env = env.with_outlives(extra, this_type.owner)
        return env

    def with_owns(self, owner: Owner, owned: Owner) -> "Env":
        return self._derive(owns_edges=self.owns_edges | {(owner, owned)})

    def with_outlives(self, longer: Owner, shorter: Owner) -> "Env":
        return self._derive(outlives_edges=self.outlives_edges
                            | {(longer, shorter)})

    def with_constraint(self, constraint: Constraint) -> "Env":
        if constraint.relation == "owns":
            return self.with_owns(constraint.left, constraint.right)
        return self.with_outlives(constraint.left, constraint.right)

    def with_constraints(self, constraints: Iterable[Constraint]) -> "Env":
        env = self
        for c in constraints:
            env = env.with_constraint(c)
        return env

    # ------------------------------------------------------------------
    # owner kinds
    # ------------------------------------------------------------------

    def kind_of(self, owner: Owner) -> Kind:
        """``E ⊢k o : k`` ([OWNER THIS], [OWNER FORMAL], specials)."""
        if owner == HEAP:
            return K_GC_REGION
        if owner == IMMORTAL:
            return K_IMMORTAL
        if owner == INITIAL_REGION:
            return K_REGION
        if owner == THIS:
            if self.this_type is None:
                raise OwnershipTypeError("'this' used outside a class")
            return K_OBJ_OWNER
        if owner == RT_EFFECT:
            raise OwnershipTypeError(
                "'RT' is an effect marker, not an owner")
        kind = self.owner_kinds.get(owner.name)
        if kind is None:
            raise OwnershipTypeError(f"owner '{owner}' is not in scope")
        return kind

    def is_object_owner(self, owner: Owner) -> bool:
        """Does ``owner`` certainly denote an object?  ``this`` does;
        formals of kind ObjOwner do.  A formal of kind plain ``Owner``
        *may* denote either, so this returns False for it."""
        if owner == THIS:
            return True
        try:
            kind = self.kind_of(owner)
        except OwnershipTypeError:
            return False
        return kind.name == OBJ_OWNER

    def regions_in_scope(self) -> List[Owner]:
        """``Regions(E)`` — every owner in scope whose kind is a region
        kind, plus the special regions."""
        out = [HEAP, IMMORTAL, INITIAL_REGION]
        for name, kind in self.owner_kinds.items():
            if self.program.kind_table.is_subkind(kind, K_REGION):
                out.append(Owner(name))
        return out

    # ------------------------------------------------------------------
    # the outlives and ownership relations
    # ------------------------------------------------------------------

    @staticmethod
    def _reaches(adjacency: Dict[Owner, List[Owner]],
                 start: Owner, goal: Owner) -> bool:
        seen: Set[Owner] = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for nxt in adjacency.get(current, ()):
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def owns(self, owner: Owner, owned: Owner) -> bool:
        """``E ⊢ owner ≽o owned`` — reflexive transitive closure of the
        ownership edges."""
        if owner == owned:
            return True
        caches = self._caches()
        key = (owner, owned)
        memo = caches["owns"]
        hit = memo.get(key)
        if hit is None:
            hit = self._reaches(caches["owns_fwd"], owner, owned)
            memo[key] = hit
        return hit

    def outlives(self, longer: Owner, shorter: Owner) -> bool:
        """``E ⊢ longer ≽ shorter``."""
        if longer == shorter:
            return True
        if longer in (HEAP, IMMORTAL):
            return True
        caches = self._caches()
        key = (longer, shorter)
        memo = caches["outlives"]
        hit = memo.get(key)
        if hit is None:
            hit = self._reaches(caches["reach_fwd"], longer, shorter)
            memo[key] = hit
        return hit

    def entails(self, constraint: Constraint) -> bool:
        if constraint.relation == "owns":
            return self.owns(constraint.left, constraint.right)
        return self.outlives(constraint.left, constraint.right)

    # ------------------------------------------------------------------
    # handle availability:  E ⊢ av RH(o)
    # ------------------------------------------------------------------

    def av_rh(self, owner: Owner) -> bool:
        """Is the handle of the region ``owner`` stands for (or is
        allocated in) available?  Availability propagates in *both*
        directions along ownership edges ([AV TRANS1], [AV TRANS2])
        because an object is allocated in the same region as its owner.
        """
        caches = self._caches()
        memo = caches["av"]
        hit = memo.get(owner)
        if hit is not None:
            return hit
        base = caches.get("av_base")
        if base is None:
            base = {HEAP, IMMORTAL}
            base.update(Owner(h) for h in self.handles)
            # [AV HANDLE]: any in-scope variable of type RHandle(r) makes
            # r's handle available (region-statement handles and method
            # handle parameters alike)
            from .types import HandleType
            for vtype in self.vars.values():
                if isinstance(vtype, HandleType):
                    base.add(vtype.region)
            if self.this_type is not None:
                base.add(THIS)  # [AV THIS] — the runtime can always find
                #                 the region of the current receiver
            caches["av_base"] = base
        result = owner in base
        if not result:
            owns_fwd, owns_rev = caches["owns_fwd"], caches["owns_rev"]
            seen: Set[Owner] = {owner}
            frontier = [owner]
            while frontier and not result:
                current = frontier.pop()
                for adj in (owns_fwd, owns_rev):
                    for nxt in adj.get(current, ()):
                        if nxt in base:
                            result = True
                            break
                        if nxt not in seen:
                            seen.add(nxt)
                            frontier.append(nxt)
                    if result:
                        break
        memo[owner] = result
        return result

    # ------------------------------------------------------------------
    # region-kind inference:  E ⊢ RKind(o) = k
    # ------------------------------------------------------------------

    def rkind_of(self, owner: Owner) -> Optional[Kind]:
        """The kind of the region ``owner`` denotes (if a region) or is
        allocated in (if an object); ``None`` if the environment cannot
        determine it.  Exploits the invariant that a subobject is
        allocated in the same region as its owner."""
        caches = self._caches()
        memo = caches["rkind"]
        if owner in memo:
            return memo[owner]
        owns_rev = caches["owns_rev"]
        result: Optional[Kind] = None
        seen: Set[Owner] = set()
        frontier = [owner]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            if current == THIS:
                # [RKIND THIS]: the region of this = region of its owner.
                if self.this_type is not None:
                    frontier.append(self.this_type.owner)
                continue
            try:
                kind = self.kind_of(current)
            except OwnershipTypeError:
                continue
            if self.program.kind_table.is_subkind(kind, K_REGION):
                result = kind  # [RKIND FN1]
                break
            if kind.name in (OWNER, OBJ_OWNER):
                # [RKIND FN2]: follow ownership upward.
                frontier.extend(owns_rev.get(current, ()))
        memo[owner] = result
        return result

    # ------------------------------------------------------------------
    # effects:  E ⊢ X ≽ X'
    # ------------------------------------------------------------------

    def effect_covers(self, permitted: Effects, accessed: Owner) -> bool:
        """``E ⊢ X ≽ {o}`` — some permitted owner outlives ``o``.  The RT
        marker is only covered by RT itself."""
        if permitted is None:
            return True
        if accessed == RT_EFFECT:
            return RT_EFFECT in permitted
        memo = self._caches()["effect"]
        key = (permitted, accessed)
        hit = memo.get(key)
        if hit is None:
            hit = any(g != RT_EFFECT and self.outlives(g, accessed)
                      for g in permitted)
            memo[key] = hit
        return hit

    def effects_subsume(self, permitted: Effects,
                        accessed: Iterable[Owner]) -> bool:
        return all(self.effect_covers(permitted, o) for o in accessed)
