"""Shared plumbing for the codegen backends.

The lowering layer (:mod:`repro.interp.lower`) produces backend-neutral
facts; this module holds the pieces the concrete emitters
(:mod:`repro.interp.codegen_py`, :mod:`repro.interp.codegen_c`) share:

* :class:`SourceWriter` — an indentation-tracking line buffer (every
  backend emits textual source and ``compile()``/``cc``-compiles it);
* :class:`CodegenUnsupported` — "this backend cannot compile this
  program/configuration"; the orchestrator (``machine.execute``)
  catches it and falls back to the next-most-capable backend, so
  raising it is always safe and never user-visible as a failure;
* name mangling and literal baking helpers;
* :func:`memo` — every compiled form lives on the
  ``AnalyzedProgram`` it was built from and is freed with it;
* the cost-model key (generated code bakes cost constants into its
  text, so a memoized form must key on them).

Nothing here knows about Python-vs-C specifics.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from ..rtsj.stats import CostModel

#: fields of CostModel baked into generated code, in key order
COST_FIELDS = (
    "op_basic", "op_local", "op_field_read", "op_field_write",
    "op_invoke", "op_return", "op_branch", "op_builtin",
    "alloc_base", "alloc_per_byte", "vt_alloc_extra", "vt_chunk_cost",
    "heap_alloc_extra", "region_create", "lt_prealloc_per_byte",
    "region_enter", "region_exit", "portal_read", "portal_write",
    "thread_spawn", "thread_yield",
    "check_assign_base", "check_assign_per_level", "check_read_base",
    "gc_base", "gc_per_live_object", "gc_per_dead_object",
)


class CodegenUnsupported(Exception):
    """The backend cannot compile this program or run configuration.

    Raising this is a *routing* signal, not an error: the execution
    orchestrator falls back to a more capable backend (``py`` fused ->
    ``py`` faithful -> interpreter) and the run proceeds with identical
    observable behaviour.
    """


def cost_key(cost: CostModel) -> Tuple[int, ...]:
    """Memo key over every cost constant the emitters bake in."""
    return tuple(getattr(cost, name) for name in COST_FIELDS)


def memo(analyzed: Any, key: Any, build: Callable[[], Any]) -> Any:
    """The compiled form ``key`` of ``analyzed``, built on first use.

    Forms are kept in ``analyzed.compiled``: a repeated run of one
    analyzed program reuses them.  No form may refer back to the
    program (the lowered program keeps the AST and tables, not the
    ``AnalyzedProgram``), so a program and its forms stay acyclic and
    reference counting frees them the moment the last reference goes —
    a serve worker's LRU eviction frees them at once, leaving no work
    for the cyclic collector.
    """
    forms = analyzed.compiled
    form = forms.get(key)
    if form is None:
        form = forms[key] = build()
    return form


def mangle(name: str) -> str:
    """A Python/C-safe identifier fragment for a source-language name."""
    out = []
    for ch in name:
        if ch.isalnum() or ch == "_":
            out.append(ch)
        else:
            out.append(f"_{ord(ch):x}_")
    text = "".join(out)
    if not text or text[0].isdigit():
        text = "_" + text
    return text


def bake(value: Any) -> str:
    """Literal text for a compile-time constant embedded in generated
    source.  Covers the value domain of the core language (plus None)."""
    if value is None:
        return "None"
    if value is True:
        return "True"
    if value is False:
        return "False"
    if isinstance(value, (int, str)):
        return repr(value)
    if isinstance(value, float):
        return repr(value)
    raise CodegenUnsupported(f"cannot bake constant {value!r}")


class SourceWriter:
    """Indentation-tracking line buffer shared by the emitters."""

    __slots__ = ("lines", "depth", "_indent")

    def __init__(self, indent: str = "    ") -> None:
        self.lines: List[str] = []
        self.depth = 0
        self._indent = indent

    def emit(self, text: str = "") -> None:
        if text:
            self.lines.append(self._indent * self.depth + text)
        else:
            self.lines.append("")

    def indent(self) -> None:
        self.depth += 1

    def dedent(self) -> None:
        assert self.depth > 0
        self.depth -= 1

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"
