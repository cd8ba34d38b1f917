"""Token definitions for the core language."""

from __future__ import annotations

from enum import Enum, auto, unique
from typing import NamedTuple

from ..source import Loc, Span, loc_span


@unique
class TokenKind(Enum):
    # literals / identifiers
    IDENT = auto()
    INT_LIT = auto()
    FLOAT_LIT = auto()

    # keywords
    CLASS = auto()
    EXTENDS = auto()
    WHERE = auto()
    OWNS = auto()
    OUTLIVES = auto()
    REGION_KIND = auto()      # 'regionKind'
    ACCESSES = auto()
    NEW = auto()
    NULL = auto()
    TRUE = auto()
    FALSE = auto()
    THIS = auto()
    IF = auto()
    ELSE = auto()
    WHILE = auto()
    RETURN = auto()
    FORK = auto()
    RT = auto()
    STATIC = auto()
    INT = auto()
    FLOAT = auto()
    BOOLEAN = auto()
    VOID = auto()
    RHANDLE = auto()          # 'RHandle'
    HEAP = auto()
    IMMORTAL = auto()
    INITIAL_REGION = auto()   # 'initialRegion'
    LT = auto()
    VT = auto()
    NORT = auto()             # 'NoRT'

    # punctuation
    LPAREN = auto()
    RPAREN = auto()
    LBRACE = auto()
    RBRACE = auto()
    LANGLE = auto()
    RANGLE = auto()
    COMMA = auto()
    SEMI = auto()
    DOT = auto()
    COLON = auto()
    ASSIGN = auto()

    # operators
    EQ = auto()
    NE = auto()
    LE = auto()
    GE = auto()
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    PERCENT = auto()
    AND_AND = auto()
    OR_OR = auto()
    BANG = auto()

    EOF = auto()


KEYWORDS = {
    "class": TokenKind.CLASS,
    "extends": TokenKind.EXTENDS,
    "where": TokenKind.WHERE,
    "owns": TokenKind.OWNS,
    "outlives": TokenKind.OUTLIVES,
    "regionKind": TokenKind.REGION_KIND,
    "accesses": TokenKind.ACCESSES,
    "new": TokenKind.NEW,
    "null": TokenKind.NULL,
    "true": TokenKind.TRUE,
    "false": TokenKind.FALSE,
    "this": TokenKind.THIS,
    "if": TokenKind.IF,
    "else": TokenKind.ELSE,
    "while": TokenKind.WHILE,
    "return": TokenKind.RETURN,
    "fork": TokenKind.FORK,
    "RT": TokenKind.RT,
    "static": TokenKind.STATIC,
    "int": TokenKind.INT,
    "float": TokenKind.FLOAT,
    "boolean": TokenKind.BOOLEAN,
    "void": TokenKind.VOID,
    "RHandle": TokenKind.RHANDLE,
    "heap": TokenKind.HEAP,
    "immortal": TokenKind.IMMORTAL,
    "initialRegion": TokenKind.INITIAL_REGION,
    "LT": TokenKind.LT,
    "VT": TokenKind.VT,
    "NoRT": TokenKind.NORT,
}

# Names of the built-in owner kinds (Figure 4).  They are lexed as plain
# identifiers and resolved by the parser/kind layer so user code may still
# use them as (discouraged) variable names.
BUILTIN_KIND_NAMES = frozenset({
    "Owner", "ObjOwner", "Region", "GCRegion", "NoGCRegion",
    "LocalRegion", "SharedRegion",
})


class Token(NamedTuple):
    """One lexed token.  ``loc`` is its stored location (an untracked
    exact tuple, see :mod:`repro.source`); ``span`` is the diagnostic
    view, built on read."""

    kind: TokenKind
    text: str
    loc: Loc

    @property
    def span(self) -> Span:
        return loc_span(self.loc)

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"
