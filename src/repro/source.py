"""Source locations, and the spans diagnostics render them as.

Tokens and AST nodes store their location as a :data:`Loc`: an exact
tuple ``(start_line, start_col, end_line, end_col, filename)`` of four
ints and a str.  CPython's collector untracks an exact tuple whose items
are all atomic the first time a collection examines it, so a parsed
program's locations cost the collector nothing for as long as the
program stays alive.  A ``NamedTuple`` is never untracked (the collector
tests for *exact* tuples), which is why the stored form is not one.

:class:`Position` and :class:`Span` are the diagnostic view of a
location: ``token.span`` and ``node.span`` build one on read
(:func:`loc_span`), and every :class:`~repro.errors.StaticError` carries
one.  Build them only where a diagnostic is raised or rendered.  They are
immutable, hashable, and structurally comparable; ordering a
:class:`Position` compares ``(line, column)`` lexicographically.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

#: A stored source location: ``(start_line, start_col, end_line,
#: end_col, filename)``, lines and columns 1-based.
Loc = Tuple[int, int, int, int, str]

#: The location of synthesized nodes that have no source text.
UNKNOWN_LOC: Loc = (0, 0, 0, 0, "<unknown>")


class Position(NamedTuple):
    """A single point in a source file (1-based line and column)."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Span(NamedTuple):
    """A contiguous range of source text, used to anchor diagnostics."""

    start: Position
    end: Position
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.start}"

    @staticmethod
    def unknown() -> "Span":
        return loc_span(UNKNOWN_LOC)

    def merge(self, other: "Span") -> "Span":
        """Smallest span covering both ``self`` and ``other``."""
        return Span(min(self.start, other.start),
                    max(self.end, other.end), self.filename)


def loc_span(loc: Optional[Loc]) -> Optional[Span]:
    """The :class:`Span` view of ``loc`` (None stays None)."""
    if loc is None:
        return None
    start_line, start_col, end_line, end_col, filename = loc
    return Span(Position(start_line, start_col),
                Position(end_line, end_col), filename)


def merge_locs(a: Loc, b: Loc) -> Loc:
    """Smallest location covering both ``a`` and ``b``, in ``a``'s file
    (the stored-form counterpart of :meth:`Span.merge`)."""
    if (b[0], b[1]) < (a[0], a[1]):
        start_line, start_col = b[0], b[1]
    else:
        start_line, start_col = a[0], a[1]
    if (b[2], b[3]) > (a[2], a[3]):
        end_line, end_col = b[2], b[3]
    else:
        end_line, end_col = a[2], a[3]
    return (start_line, start_col, end_line, end_col, a[4])


def excerpt(text: str, span: Span, context: int = 0) -> str:
    """Return the source line(s) covered by ``span`` for error messages."""
    lines = text.splitlines()
    lo = max(span.start.line - 1 - context, 0)
    hi = min(span.end.line + context, len(lines))
    return "\n".join(lines[lo:hi])
