"""Lexer for the core language.

``tokenize`` is a single-pass scanner driven by one master regular
expression (one ``re.match`` per token instead of one Python-level loop
iteration per *character*, which made the old hand-written scanner the
dominant cost of ``analyze()``).  It must produce the same tokens,
locations included, and raise the same :class:`~repro.errors.LexError`
messages and spans as the character-at-a-time :class:`Lexer` kept below
as the executable specification of the token grammar;
``tests/property/test_lexer_differential.py`` compares the two.

Each token stores its location as an exact tuple (see
:mod:`repro.source`); a :class:`~repro.source.Span` is built only for a
``LexError``.

``tokenize`` also accepts a start line/column so a *slice* of a larger
file (a class-declaration chunk, as cut by
:mod:`repro.core.cache`) can be lexed with locations expressed in the
coordinates of the enclosing file.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from ..errors import LexError
from ..source import Loc, Position, Span, loc_span
from .tokens import KEYWORDS, Token, TokenKind

_PUNCT2 = {
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.AND_AND,
    "||": TokenKind.OR_OR,
}

_PUNCT1 = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "<": TokenKind.LANGLE,
    ">": TokenKind.RANGLE,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    ".": TokenKind.DOT,
    ":": TokenKind.COLON,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "!": TokenKind.BANG,
}


# Number classes are ASCII-only ([0-9], not \d): unicode decimal digits
# like ARABIC-INDIC ZERO satisfy \d but are not valid literals.  Word
# start is "word character that is not a decimal digit" — the unicode
# letters the old scanner's str.isalpha() admitted — with a post-check
# for the few non-ASCII \w characters (e.g. '¹') that isalpha() rejects;
# word continuation \w matches isalnum()-or-underscore exactly.
_MASTER_RE = re.compile(
    r"""
      [ \t\r\n]+                                      # whitespace
    | //[^\n]*                                        # line comment
    | /\*[^*]*(?:\*(?!/)[^*]*)*\*/                    # block comment
    | (?P<float>[0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)?
               |[0-9]+[eE][+-]?[0-9]+)
    | (?P<int>[0-9]+)
    | (?P<word>[^\W\d]\w*)
    | (?P<p2>==|!=|<=|>=|&&|\|\|)
    | (?P<p1>[(){}<>,;.:=+\-*/%!])
    """,
    re.VERBOSE,
)


def tokenize(text: str, filename: str = "<input>",
             start_line: int = 1, start_col: int = 1) -> List[Token]:
    """Tokenize ``text``, returning a list ending in an EOF token.

    ``start_line``/``start_col`` place the first character of ``text``
    at that position, so chunk slices lex to full-file coordinates.
    """
    tokens: List[Token] = []
    append = tokens.append
    scan = _MASTER_RE.match
    keyword_get = KEYWORDS.get
    pos = 0
    n = len(text)
    line = start_line
    # Column of position p is p - line_start + 1; the initial value
    # offsets the first line so position 0 lands on start_col.
    line_start = 1 - start_col
    while pos < n:
        match = scan(text, pos)
        if match is None:
            here = Position(line, pos - line_start + 1)
            raise LexError(f"unexpected character {text[pos]!r}",
                           Span(here, here, filename))
        end = match.end()
        group = match.lastgroup
        if group is None:
            # trivia — only whitespace and block comments span lines
            seg = match[0]
            if "\n" in seg:
                line += seg.count("\n")
                line_start = match.start() + seg.rindex("\n") + 1
            pos = end
            continue
        tok_text = match[0]
        col = pos - line_start + 1
        if group == "word":
            first = tok_text[0]
            if first >= "\x80" and not first.isalpha():
                here = Position(line, col)
                raise LexError(f"unexpected character {first!r}",
                               Span(here, here, filename))
            kind = keyword_get(tok_text, TokenKind.IDENT)
        elif group == "int":
            kind = TokenKind.INT_LIT
        elif group == "float":
            kind = TokenKind.FLOAT_LIT
        elif group == "p1":
            if tok_text == "/" and end < n and text[end] == "*":
                # a terminated comment would have matched above; the
                # error runs from the opener to the end of input
                rest = text[pos:]
                newlines = rest.count("\n")
                end_col = (len(rest) - rest.rindex("\n") if newlines
                           else n - line_start + 1)
                raise LexError(
                    "unterminated block comment",
                    Span(Position(line, col),
                         Position(line + newlines, end_col), filename))
            kind = _PUNCT1[tok_text]
        else:
            kind = _PUNCT2[tok_text]
        append(Token(kind, tok_text,
                     (line, col, line, col + end - pos, filename)))
        pos = end
    col = n - line_start + 1
    append(Token(TokenKind.EOF, "", (line, col, line, col, filename)))
    return tokens


_ASCII_DIGITS = "0123456789"


def _is_digit(ch: str) -> bool:
    """ASCII decimal digits only — unicode "digits" like '¹' satisfy
    str.isdigit() but are not valid literals.  ``ch`` may be the empty
    string (end of input)."""
    return len(ch) == 1 and ch in _ASCII_DIGITS


class Lexer:
    """Character-at-a-time reference scanner.

    Kept as the executable specification of the token grammar — the
    regex-driven :func:`tokenize` above must build the same tokens, and
    the differential property test compares the two — and for
    incremental ``next_token`` use."""

    def __init__(self, text: str, filename: str = "<input>"):
        self.text = text
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1

    # -- low-level cursor ---------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def _advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _here(self) -> Tuple[int, int]:
        return self.line, self.col

    def _loc(self, start: Tuple[int, int]) -> Loc:
        return (start[0], start[1], self.line, self.col, self.filename)

    def _error(self, message: str, start: Tuple[int, int]) -> LexError:
        return LexError(message, loc_span(self._loc(start)))

    # -- scanning -----------------------------------------------------------

    def _skip_trivia(self) -> None:
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._here()
                self._advance()
                self._advance()
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self.pos >= len(self.text):
                        raise self._error("unterminated block comment",
                                          start)
                    self._advance()
                self._advance()
                self._advance()
            else:
                return

    def _lex_number(self) -> Token:
        start = self._here()
        begin = self.pos
        while _is_digit(self._peek()):
            self._advance()
        is_float = False
        if self._peek() == "." and _is_digit(self._peek(1)):
            is_float = True
            self._advance()
            while _is_digit(self._peek()):
                self._advance()
        if self._peek() in "eE" and (
                _is_digit(self._peek(1))
                or (self._peek(1) in "+-" and _is_digit(self._peek(2)))):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while _is_digit(self._peek()):
                self._advance()
        text = self.text[begin:self.pos]
        kind = TokenKind.FLOAT_LIT if is_float else TokenKind.INT_LIT
        return Token(kind, text, self._loc(start))

    def _lex_word(self) -> Token:
        start = self._here()
        begin = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.text[begin:self.pos]
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        return Token(kind, text, self._loc(start))

    def next_token(self) -> Token:
        self._skip_trivia()
        start = self._here()
        if self.pos >= len(self.text):
            return Token(TokenKind.EOF, "", self._loc(start))
        ch = self._peek()
        if _is_digit(ch):
            return self._lex_number()
        if ch.isalpha() or ch == "_":
            return self._lex_word()
        two = ch + self._peek(1)
        if two in _PUNCT2:
            self._advance()
            self._advance()
            return Token(_PUNCT2[two], two, self._loc(start))
        if ch in _PUNCT1:
            self._advance()
            return Token(_PUNCT1[ch], ch, self._loc(start))
        raise self._error(f"unexpected character {ch!r}", start)

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        while True:
            tok = self.next_token()
            out.append(tok)
            if tok.kind is TokenKind.EOF:
                return out
