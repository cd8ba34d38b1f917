"""Semantic owner terms.

Grammar (Figure 13): ``owner ::= fn | r | this | initialRegion | heap |
immortal | RT``.  Owners are atoms; within one typing scope every owner has
a unique name, so a thin wrapper around the name suffices.  ``RT`` is not a
real owner — it is the marker effect of Section 2.3 and only ever appears
inside ``accesses`` clauses.

Owners are *interned* (hash-consed): ``Owner(n) is Owner(n)`` for equal
names.  Equality and hashing stay structural, so an owner that escapes the
intern table (e.g. through pickling) still compares correctly; interning
only makes construction and dict lookups cheap on the checker's hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Iterable, Optional, Tuple


@dataclass(frozen=True, order=True)
class Owner:
    """An owner atom: a formal, a region name, or one of the specials."""

    name: str

    _interned: ClassVar[Dict[str, "Owner"]] = {}

    def __new__(cls, name: Optional[str] = None) -> "Owner":
        # ``name is None`` only happens on the pickle/copy reconstruction
        # path, which must not touch (or pollute) the intern table.
        if name is None:
            return super().__new__(cls)
        cached = cls._interned.get(name)
        if cached is None:
            cached = super().__new__(cls)
            cls._interned[name] = cached
        return cached

    def __hash__(self) -> int:
        # str objects cache their own hash, so this stays cheap; defining
        # it here (rather than letting dataclass generate a tuple hash)
        # skips a tuple allocation per lookup.
        return hash(self.name)

    def __str__(self) -> str:
        return self.name


THIS = Owner("this")
HEAP = Owner("heap")
IMMORTAL = Owner("immortal")
INITIAL_REGION = Owner("initialRegion")
RT_EFFECT = Owner("RT")

#: A substitution maps owner atoms (typically formals) to owner atoms.
Subst = Dict[Owner, Owner]


def substitute(owner: Owner, subst: Subst) -> Owner:
    return subst.get(owner, owner)


def substitute_all(owners: Iterable[Owner],
                   subst: Subst) -> Tuple[Owner, ...]:
    owners = owners if isinstance(owners, tuple) else tuple(owners)
    if not subst:
        return owners
    result = tuple(subst.get(o, o) for o in owners)
    # Preserve the original tuple object when nothing changed, so callers
    # (and the type interner) can reuse it by identity.
    return owners if result == owners else result


_subst_cache: Dict[Tuple[Tuple[str, ...], Tuple[Owner, ...]], Subst] = {}


def make_subst(formals: Iterable[str],
               actuals: Iterable[Owner]) -> Subst:
    """Build the substitution ``[o1/fn1]..[on/fnn]`` used throughout
    Appendix B.

    Results are memoized and shared: treat the returned dict as
    read-only (copy before mutating, as ``Checker._invoke_parts`` does).
    """
    key = (tuple(formals), tuple(actuals))
    cached = _subst_cache.get(key)
    if cached is None:
        cached = {Owner(fn): actual
                  for fn, actual in zip(key[0], key[1])}
        _subst_cache[key] = cached
    return cached
