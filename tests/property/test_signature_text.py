"""Differential test: the regex ``signature_text`` against the
character-at-a-time scan it replaced, kept here as the reference.

The two must return the same string on every input, because the
string feeds every class fingerprint and disk-shard key: a difference
would re-key the cache.  Inputs are drawn from braces, comment openers
and closers, statement punctuation, whitespace, ASCII letters, digits
and ``_``, and two non-ASCII characters that ``str.isalnum()`` accepts
(a letter, and a superscript digit that is not a decimal).
"""

from typing import List

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cache import signature_text

FRAGMENTS = ["{", "}", "/", "*", ";", "\n", "\t", " ", "//", "/*", "*/",
             "a", "Z", "x1", "0", "9", "_", "é", "²"]

inputs = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=32).map("".join),
    st.text(alphabet=st.sampled_from("".join(FRAGMENTS)), max_size=48),
)


def reference_signature_text(chunk_text: str) -> str:
    """The scan ``signature_text`` used to run, one character at a
    time."""
    units: List[str] = []
    i, n = 0, len(chunk_text)
    depth = 0
    while i < n:
        ch = chunk_text[i]
        if ch == "/" and chunk_text.startswith("//", i):
            j = chunk_text.find("\n", i)
            i = n if j < 0 else j
            continue
        if ch == "/" and chunk_text.startswith("/*", i):
            j = chunk_text.find("*/", i + 2)
            i = n if j < 0 else j + 2
            continue
        if ch == "{":
            if depth < 2:
                units.append("{")
            depth += 1
            i += 1
            continue
        if ch == "}":
            depth -= 1
            if depth < 2:
                units.append("}")
            i += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i + 1
            while j < n and (chunk_text[j].isalnum()
                             or chunk_text[j] == "_"):
                j += 1
            if depth < 2:
                units.append(chunk_text[i:j])
            i = j
            continue
        if depth < 2 and not ch.isspace():
            units.append(ch)
        i += 1
    return " ".join(units)


@settings(max_examples=400, deadline=None)
@given(inputs)
@example("class A<Owner o> { int f(int x) { return x; } } // tail")
@example("/*/ a */ b /* never closed { c")
@example("}}} a { b { c } d } e")
@example("x²_é/y**/z")
def test_signature_text_matches_the_reference_scan(text):
    assert signature_text(text) == reference_signature_text(text)
