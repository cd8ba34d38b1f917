"""Differential test: the regex-driven ``tokenize`` against the
character-at-a-time reference ``Lexer``.

Both must build equal token lists, locations included, or raise
``LexError``s with equal message and span.  Inputs are drawn from the
token alphabet, comment openers and closers, newlines, and the unicode
digit and letter cases the lexer's comments single out (superscript
digits satisfy ``isdigit()`` but are not literals; non-ASCII decimal
digits satisfy ``\\d`` but cannot start a word; non-ASCII letters can).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import LexError
from repro.lang.lexer import Lexer, tokenize
from repro.lang.tokens import KEYWORDS

FRAGMENTS = sorted(KEYWORDS) + [
    # punctuation and operators, including the halves of two-char ones
    "(", ")", "{", "}", "<", ">", ",", ";", ".", ":", "=", "+", "-",
    "*", "/", "%", "!", "==", "!=", "<=", ">=", "&&", "||", "&", "|",
    # numbers and the pieces of float syntax
    "0", "7", "42", "3.14", "1e5", "2E-3", "e", "E", "1e", "1.",
    # identifiers
    "x", "_tmp", "node2", "Owner",
    # trivia and comments
    " ", "\t", "\r", "\n", "\r\n", "//", "/*", "*/", "/**/", "// c\n",
    # unicode: a letter, letters with digits, superscript and
    # ARABIC-INDIC digits, and characters no token admits
    "é", "λx", "x¹", "¹", "٠", "x٠", "$", "#", "\x0b",
]

inputs = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join),
    st.text(alphabet=st.sampled_from("".join(FRAGMENTS)), max_size=40),
)


def lex_outcome(lex, text):
    try:
        return "tokens", lex(text)
    except LexError as err:
        return "error", err.message, err.span


@settings(max_examples=400, deadline=None)
@given(inputs)
@example("{{-<b,/*\n\n0\n1e")
@example("a /* never closed")
@example("a /* x */ b\n  /* y\n z")
def test_tokenize_matches_reference_lexer(text):
    fast = lex_outcome(lambda t: tokenize(t, "f.rtj"), text)
    reference = lex_outcome(lambda t: Lexer(t, "f.rtj").tokens(), text)
    assert fast == reference


def test_unterminated_comment_span_runs_to_end_of_input():
    _, message, span = lex_outcome(tokenize, "{{-<b,/*\n\n0\n1e")
    assert message == "unterminated block comment"
    assert (span.start.line, span.start.column) == (1, 7)
    assert (span.end.line, span.end.column) == (4, 3)
