"""Semantic types (grammar: ``t ::= c | int | RHandle(r)``) plus the
``float``/``boolean``/``void`` scalars and the null bottom type used by the
statement sugar.

Class and handle types are *interned* (hash-consed) like
:class:`repro.core.owners.Owner`: constructing ``ClassType(n, os)`` twice
yields the same object, which makes the checker's substitution-heavy hot
path allocate nothing for repeated types and turns deep equality into a
pointer check in the common case.  Equality/hashing remain structural.
Class types are interned *weakly*: a type lives only as long as
something else holds it, so the types of a class no later program
declares (a serve worker's first-sight traffic) die with its program.
Handle and primitive types, like owners, are named by formals, regions
and scalars, which such traffic does not rename, so those interners
stay strong.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import ClassVar, Dict, MutableMapping, Optional, Tuple

from .owners import Owner, Subst, substitute, substitute_all


class Type:
    """Base class of semantic types."""

    def substitute(self, subst: Subst) -> "Type":
        return self

    def mentions(self, owner: Owner) -> bool:
        return False

    @property
    def is_reference(self) -> bool:
        """True for types whose values are object references (class types
        and null); scalar and handle values need no RTSJ assignment
        checks."""
        return False


@dataclass(frozen=True)
class PrimType(Type):
    name: str  # 'int' | 'float' | 'boolean' | 'void'

    _interned: ClassVar[Dict[str, "PrimType"]] = {}

    def __new__(cls, name: Optional[str] = None) -> "PrimType":
        if name is None:
            return super().__new__(cls)
        cached = cls._interned.get(name)
        if cached is None:
            cached = super().__new__(cls)
            cls._interned[name] = cached
        return cached

    def __hash__(self) -> int:
        return hash(self.name)

    def __str__(self) -> str:
        return self.name


INT = PrimType("int")
FLOAT = PrimType("float")
BOOLEAN = PrimType("boolean")
VOID = PrimType("void")


@dataclass(frozen=True)
class NullType(Type):
    """Type of the ``null`` literal; subtype of every class/handle type."""

    def __str__(self) -> str:
        return "null"

    @property
    def is_reference(self) -> bool:
        return True


NULL = NullType()


@dataclass(frozen=True)
class ClassType(Type):
    """``cn<o1..n>``; ``owners[0]`` owns (and thus places) the object."""

    name: str
    owners: Tuple[Owner, ...]

    _interned: ClassVar[MutableMapping[Tuple[str, Tuple[Owner, ...]],
                                       "ClassType"]] = \
        weakref.WeakValueDictionary()

    def __new__(cls, name: Optional[str] = None,
                owners: Tuple[Owner, ...] = ()) -> "ClassType":
        if name is None:
            return super().__new__(cls)
        owners = owners if isinstance(owners, tuple) else tuple(owners)
        key = (name, owners)
        cached = cls._interned.get(key)
        if cached is None:
            cached = super().__new__(cls)
            object.__setattr__(cached, "_hash", hash(key))
            cls._interned[key] = cached
        return cached

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.name, self.owners))
            object.__setattr__(self, "_hash", h)
            return h

    def __str__(self) -> str:
        return self.name + "<" + ", ".join(map(str, self.owners)) + ">"

    @property
    def owner(self) -> Owner:
        return self.owners[0]

    def substitute(self, subst: Subst) -> "ClassType":
        renamed = substitute_all(self.owners, subst)
        # substitute_all preserves identity when nothing changes, and the
        # interner returns ``self`` for an identical key.
        return self if renamed is self.owners \
            else ClassType(self.name, renamed)

    def mentions(self, owner: Owner) -> bool:
        return owner in self.owners

    @property
    def is_reference(self) -> bool:
        return True


@dataclass(frozen=True)
class HandleType(Type):
    """``RHandle(r)`` — the runtime handle of region ``r``."""

    region: Owner

    _interned: ClassVar[Dict[Owner, "HandleType"]] = {}

    def __new__(cls, region: Optional[Owner] = None) -> "HandleType":
        if region is None:
            return super().__new__(cls)
        cached = cls._interned.get(region)
        if cached is None:
            cached = super().__new__(cls)
            cls._interned[region] = cached
        return cached

    def __hash__(self) -> int:
        return hash(self.region)

    def __str__(self) -> str:
        return f"RHandle<{self.region}>"

    def substitute(self, subst: Subst) -> "HandleType":
        renamed = substitute(self.region, subst)
        return self if renamed is self.region else HandleType(renamed)

    def mentions(self, owner: Owner) -> bool:
        return self.region == owner
