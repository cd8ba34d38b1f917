"""Content-addressed, incremental analysis cache for the frontend.

``analyze(source, cache=AnalysisCache(...))`` re-checks only the class
declarations whose *fingerprint* changed since the last run and replays
the recorded diagnostics (and inferred owner annotations) for the rest.
The fingerprint of a class covers everything its parse/inference/check
can observe:

* the SHA-256 of its own source slice (``chunk``);
* the :class:`~repro.core.inference.DefaultPolicy` in effect;
* a digest over every ``regionKind`` declaration in the program (the
  kind table is global);
* the *signature digests* of the transitive closure of classes it
  textually references — a signature digest hashes the class text with
  method bodies stripped, so editing a method body invalidates only the
  edited class, while editing a signature invalidates its dependents;
* every identifier in the closure's chunks that does **not** currently
  name a class ("absent markers"), so introducing a new class with a
  previously-unbound name invalidates conservatively.

The closure argument: a class's check consults only (a) its own text,
(b) the signatures of classes named in its own text, and (c) recursively
the signatures of classes named in *those* signatures.  Every class name
occurring in a signature occurs in the declaring class's chunk text, so
the transitive closure over full-chunk identifier sets (which contain
the signature identifiers) reaches every declaration the check can
touch.  Whole-program phases that the cache cannot scope — wellformed
checks, region kinds, and the main block — always run live; they are a
fraction of a percent of frontend time.

Two tiers, looked up in this order:

* **in-memory** — a :class:`ClassTable` of class analyses keyed by
  fingerprint: the annotated (post-inference) ``ClassDecl``, its
  class-relative diagnostics and its inferred owner annotations.  A
  table outlives the analyses that fill it and may be shared by many
  programs (the serve worker keeps one per process), because a
  fingerprint names everything a class's analysis observes — except
  where the class sits.  So a hit at the same ``(line, col, filename)``
  reuses the stored decl and skips lexing *and* parsing of that chunk;
  a hit anywhere else re-parses the chunk and replays the entry's
  annotations and diagnostics, as the disk tier does, so no node ever
  carries another program's (or an earlier edit's) locations;
* **disk (JSON)** — one shard per program, surviving processes; a hit
  re-parses the pristine chunk but replays the inferred owner
  annotations and the recorded diagnostics, skipping inference and
  checking.  A shard holds only its own program's classes.

A shared decl is never written again: inference fills only the chunks
analyzed live, and the signature defaults write only slots that omit
their owners, which an annotated decl no longer has.  Stale entries
cannot leak either: a changed class has a new fingerprint, so its old
entry is simply never found again (inference only fills *empty* owner
slots, so re-using a stale annotated AST would silently pin old owners
— a fresh parse makes that impossible).

If the source cannot be split into chunks (unbalanced braces, duplicate
class names, a parse error inside a chunk), the caller falls back to the
plain whole-program path so diagnostics are bit-identical with the
uncached frontend.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..errors import OwnershipTypeError
from ..lang import ast
from ..source import Loc, Position, Span

SCHEMA = "repro-analysis-cache/1"

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: top-level declaration keywords recognised by the chunk splitter
_DECL_KEYWORDS = ("class", "regionKind")


# ---------------------------------------------------------------------------
# chunk splitting
# ---------------------------------------------------------------------------

class Chunk(NamedTuple):
    """One top-level slice of the source: a ``class`` declaration, a
    ``regionKind`` declaration, or a run of main-block statements."""

    kind: str            # "class" | "regionKind" | "main"
    name: Optional[str]  # declared name (None for main segments)
    text: str
    line: int            # 1-based line of the first character
    col: int             # 1-based column of the first character


#: everything the splitter must not scan past blindly: comments (an
#: unterminated ``/*`` matches the bare-``/*`` alternative and aborts
#: the split), braces, and the two declaration keywords
_SCAN_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/|/\*|[{}]|\b(?:class|regionKind)\b", re.S)

#: the declared name following a ``class``/``regionKind`` keyword,
#: allowing interleaved comments
_NAME_RE = re.compile(
    r"(?:\s|//[^\n]*|/\*.*?\*/)*([A-Za-z_][A-Za-z0-9_]*)", re.S)


def split_chunks(source: str) -> Optional[List[Chunk]]:
    """Split ``source`` into top-level chunks, or ``None`` when the text
    cannot be segmented safely (unbalanced braces, unterminated comment,
    declaration without a body).  The language has no string literals,
    so only comments need skipping."""
    depth = 0
    seg_start = 0
    decl: Optional[Tuple[str, int]] = None  # keyword, start offset
    decl_name: Optional[str] = None
    saw_brace = False
    raw: List[Tuple[str, Optional[str], int, int]] = []
    for match in _SCAN_RE.finditer(source):
        token = match.group()
        head = token[0]
        if head == "/":
            if token == "/*":
                return None  # unterminated; the lexer owns this error
            continue
        if head == "{":
            depth += 1
            saw_brace = True
            continue
        if head == "}":
            depth -= 1
            if depth < 0:
                return None
            if depth == 0 and decl is not None and saw_brace:
                if decl_name is None:
                    return None
                raw.append((decl[0], decl_name, decl[1], match.end()))
                decl = None
                seg_start = match.end()
            continue
        # a declaration keyword
        if depth == 0 and decl is None:
            if source[seg_start:match.start()].strip():
                raw.append(("main", None, seg_start, match.start()))
            decl = (token, match.start())
            saw_brace = False
            name = _NAME_RE.match(source, match.end())
            decl_name = name.group(1) if name else None
    if decl is not None or depth != 0:
        return None
    if source[seg_start:].strip():
        raw.append(("main", None, seg_start, len(source)))
    # one incremental pass turns the byte offsets into line/column
    chunks: List[Chunk] = []
    line, pos = 1, 0
    for kind, name, start, end in raw:
        line += source.count("\n", pos, start)
        col = start - source.rfind("\n", 0, start)
        pos = start
        chunks.append(Chunk(kind, name, source[start:end], line, col))
    return chunks


def first_token_loc(chunks: Sequence[Chunk], filename: str
                    ) -> Optional[Loc]:
    """The location of the program's first token — what the
    whole-program parser assigns to the main block (it snapshots the
    first token's location before reading any declarations), reproduced
    here so assembled programs compare equal to freshly parsed ones."""
    from ..lang.lexer import tokenize
    from ..lang.tokens import TokenKind
    for c in chunks:
        if c.kind == "class":
            return (c.line, c.col, c.line, c.col + 5, filename)
        if c.kind == "regionKind":
            return (c.line, c.col, c.line, c.col + 10, filename)
        tokens = tokenize(c.text, filename, c.line, c.col)
        if tokens[0].kind is not TokenKind.EOF:
            return tokens[0].loc
    return None


#: one pass over a class chunk: comments (an unterminated ``/*`` runs
#: to the end), a brace, or a run of anything else (a ``/`` that opens
#: no comment is a run of its own)
_SIG_RE = re.compile(r"//[^\n]*|/\*.*?(?:\*/|\Z)|([{}])|([^{}/]+|/)", re.S)

#: the units of a run: identifier-or-number words (``\w`` is
#: ``str.isalnum()`` plus ``_``) and single non-space characters
_UNIT_RE = re.compile(r"\w+|\S")


def signature_text(chunk_text: str) -> str:
    """The class chunk with method bodies (and all comments/whitespace
    runs) stripped: the textual interface other classes can observe.
    Tokens at brace depth >= 2 belong to method bodies and are dropped;
    depth 0 (the ``class ... {`` header) and depth 1 (fields, method
    headers, ``where`` clauses) are kept, joined by single spaces."""
    units: List[str] = []
    depth = 0
    for brace, run in _SIG_RE.findall(chunk_text):
        if brace == "{":
            if depth < 2:
                units.append("{")
            depth += 1
        elif brace:
            depth -= 1
            if depth < 2:
                units.append("}")
        elif run and depth < 2:
            units.extend(_UNIT_RE.findall(run))
    return " ".join(units)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _entries_digest(entries: Dict[str, dict]) -> str:
    """Content digest of a shard's entry table, stable across a JSON
    round-trip (canonical key order and separators) — what
    :meth:`AnalysisCache.load` verifies before trusting disk bytes."""
    return _sha(json.dumps(entries, sort_keys=True,
                           separators=(",", ":")))


def fingerprints(class_chunks: Sequence[Chunk], policy_key: str,
                 rk_digest: str, shas: Dict[str, str],
                 text_cache: Optional[Dict[str, Tuple[str, Tuple[str, ...]]]]
                 = None) -> Dict[str, str]:
    """Per-class content fingerprints (see the module docstring).

    ``shas`` maps class name -> chunk SHA.  ``text_cache`` (chunk SHA ->
    ``(signature digest, distinct identifiers)``) lets warm runs skip the
    signature/identifier scans for unchanged chunks — the scans are pure
    functions of the chunk text.  Its values are tuples of strings,
    which the collector untracks: a long-lived cache keeps them."""
    sigs: Dict[str, str] = {}
    words: Dict[str, Tuple[str, ...]] = {}
    for c in class_chunks:
        sha = shas[c.name]
        cached = None if text_cache is None else text_cache.get(sha)
        if cached is None:
            cached = (_sha(signature_text(c.text)),
                      tuple(set(_WORD_RE.findall(c.text))))
            if text_cache is not None:
                text_cache[sha] = cached
        sigs[c.name], words[c.name] = cached
    class_names = set(shas)
    closure_digests: Dict[frozenset, Tuple[str, str]] = {}
    result: Dict[str, str] = {}
    for c in class_chunks:
        closure = {c.name}
        frontier = [c.name]
        while frontier:
            nxt: List[str] = []
            for name in frontier:
                for w in words[name]:
                    if w in class_names and w not in closure:
                        closure.add(w)
                        nxt.append(w)
            frontier = nxt
        key = frozenset(closure)
        digests = closure_digests.get(key)
        if digests is None:
            # classes sharing a closure (the common case in connected
            # programs) share the expensive part of the payload
            absent: Set[str] = set()
            for name in closure:
                absent.update(words[name])
            absent -= class_names
            digests = (
                _sha(json.dumps([[d, sigs[d]] for d in sorted(closure)],
                                separators=(",", ":"))),
                _sha(" ".join(sorted(absent))))
            closure_digests[key] = digests
        payload = json.dumps(
            [SCHEMA, policy_key, rk_digest, shas[c.name],
             digests[0], digests[1]],
            separators=(",", ":"))
        result[c.name] = _sha(payload)
    return result


# ---------------------------------------------------------------------------
# diagnostics: record / replay
# ---------------------------------------------------------------------------

def serialize_errors(errors: Sequence[OwnershipTypeError],
                     chunk_line: int) -> Optional[List[dict]]:
    """Class-relative records for ``errors``, or ``None`` when any error
    is not replayable (a subclass the cache does not understand)."""
    records: List[dict] = []
    for err in errors:
        if type(err) is not OwnershipTypeError:
            return None
        prefix = f"[{err.rule}] " if err.rule else ""
        message = err.message[len(prefix):]
        span = err.span
        if span is None:
            where = None
        elif span.filename == "<unknown>":
            where = "u"
        else:
            where = [span.start.line - chunk_line, span.start.column,
                     span.end.line - chunk_line, span.end.column]
        records.append({"m": message, "r": err.rule, "s": where})
    return records


def deserialize_errors(records: Sequence[dict], chunk_line: int,
                       filename: str) -> List[OwnershipTypeError]:
    out: List[OwnershipTypeError] = []
    for rec in records:
        where = rec["s"]
        if where is None:
            span = None
        elif where == "u":
            span = Span.unknown()
        else:
            sl, sc, el, ec = where
            span = Span(Position(sl + chunk_line, sc),
                        Position(el + chunk_line, ec), filename)
        out.append(OwnershipTypeError(rec["m"], span, rule=rec["r"]))
    return out


# ---------------------------------------------------------------------------
# inferred-annotation record / replay (disk tier)
# ---------------------------------------------------------------------------

#: the owner names of each inference-fillable slot of a class, in walk
#: order (lists once a disk shard round-trips them)
Annotations = Sequence[Sequence[str]]


def _walk_slots(decl: ast.ClassDecl):
    """Deterministic pre-order over the owner slots Section 2.5
    inference can fill: ``LocalDecl.declared_type`` owners (class types
    only), ``NewExpr.owners``, and ``Invoke.owner_args``.  The walk only
    depends on the chunk text, so it enumerates identical node sequences
    for the pristine and the annotated parse of the same chunk."""

    def expr(e):
        if isinstance(e, ast.NewExpr):
            yield ("new", e)
            for a in e.args:
                yield from expr(a)
        elif isinstance(e, ast.Invoke):
            yield ("invoke", e)
            yield from expr(e.target)
            for a in e.args:
                yield from expr(a)
        elif isinstance(e, ast.FieldRead):
            yield from expr(e.target)
        elif isinstance(e, ast.Binary):
            yield from expr(e.left)
            yield from expr(e.right)
        elif isinstance(e, ast.Unary):
            yield from expr(e.operand)
        elif isinstance(e, ast.BuiltinCall):
            for a in e.args:
                yield from expr(a)

    def stmt(s):
        if isinstance(s, ast.Block):
            for inner in s.stmts:
                yield from stmt(inner)
        elif isinstance(s, ast.LocalDecl):
            if isinstance(s.declared_type, ast.ClassTypeAst):
                yield ("local", s)
            if s.init is not None:
                yield from expr(s.init)
        elif isinstance(s, (ast.AssignLocal, ast.AssignField)):
            if isinstance(s, ast.AssignField):
                yield from expr(s.target)
            yield from expr(s.value)
        elif isinstance(s, ast.ExprStmt):
            yield from expr(s.expr)
        elif isinstance(s, ast.If):
            yield from expr(s.cond)
            yield from stmt(s.then_body)
            if s.else_body is not None:
                yield from stmt(s.else_body)
        elif isinstance(s, ast.While):
            yield from expr(s.cond)
            yield from stmt(s.body)
        elif isinstance(s, ast.Return):
            if s.value is not None:
                yield from expr(s.value)
        elif isinstance(s, ast.Fork):
            yield from expr(s.call)
        elif isinstance(s, ast.RegionStmt):
            yield from stmt(s.body)
        elif isinstance(s, ast.SubregionStmt):
            yield from expr(s.parent_handle)
            yield from stmt(s.body)

    for meth in decl.methods:
        yield from stmt(meth.body)


def collect_annotations(decl: ast.ClassDecl) -> Annotations:
    """Owner names of every inference-fillable slot, in walk order, as
    tuples, which the collector untracks (a class table keeps them for
    as long as it lives)."""
    out = []
    for kind, node in _walk_slots(decl):
        if kind == "local":
            owners = node.declared_type.owners
        elif kind == "new":
            owners = node.owners
        else:
            owners = node.owner_args
        out.append(tuple(o.name for o in owners))
    return tuple(out)


def apply_annotations(decl: ast.ClassDecl,
                      annotations: Annotations) -> bool:
    """Replay recorded owners onto a pristine parse of the same chunk.
    Slots whose parsed owners already match are left untouched (so
    explicit annotations keep their parser locations); filled slots
    reproduce the locations :meth:`_MethodInference._rewrite` would
    assign.
    Returns False on any structural mismatch (caller re-infers live)."""
    slots = list(_walk_slots(decl))
    if len(slots) != len(annotations):
        return False
    for (kind, node), names in zip(slots, annotations):
        if kind == "local":
            old = node.declared_type
            if [o.name for o in old.owners] == list(names):
                continue
            owners = tuple(ast.OwnerAst(nm, node.loc) for nm in names)
            node.declared_type = ast.ClassTypeAst(old.name, owners,
                                                  old.loc)
        elif kind == "new":
            if [o.name for o in node.owners] == list(names):
                continue
            node.owners = tuple(ast.OwnerAst(nm, node.loc)
                                for nm in names)
        else:
            if [o.name for o in node.owner_args] == list(names):
                continue
            node.owner_args = tuple(ast.OwnerAst(nm, node.loc)
                                    for nm in names)
    return True


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

def shard_path(root: str, fingerprint: str) -> str:
    """Content-addressed location of a cache shard under ``root``.

    Shards fan out over a two-hex-digit directory (256-way) so a shared
    cache tree scales to many programs without giant directories:
    ``root/ab/abcdef….json``.  Multi-process serving builds one
    :class:`AnalysisCache` per analysis over its program's shard — a
    program analyzed by one worker is a warm disk hit on every other.
    """
    fingerprint = fingerprint.lower()
    return os.path.join(root, fingerprint[:2], f"{fingerprint}.json")


@dataclass
class CacheStats:
    """The per-class counts of the last ``analyze`` call (``last``),
    which ``/v1/analyze`` bodies and the metrics exporter read, plus
    cumulative ``fallbacks`` (to the whole-program path) and
    ``quarantines`` (of corrupt shards).  ``replay_hits`` counts every
    class whose inference and check were replayed; ``memory_hits`` the
    share of them the :class:`ClassTable` answered (the rest came from
    the disk shard), and ``ast_hits`` the table hits whose stored decl
    was reused without a parse."""

    fallbacks: int = 0
    quarantines: int = 0
    last: Dict[str, int] = field(default_factory=dict)

    def begin_run(self) -> None:
        self.last = {"ast_hits": 0, "ast_misses": 0, "memory_hits": 0,
                     "replay_hits": 0, "check_misses": 0}

    def bump(self, key: str) -> None:
        self.last[key] += 1


#: where a chunk was parsed: ``(line, col, filename)`` of its first
#: character — with the chunk text, it fixes every node location
Where = Tuple[int, int, str]


@dataclass
class ClassEntry:
    """One class analysis in a :class:`ClassTable`."""

    where: Optional[Where]
    decl: ast.ClassDecl                 # annotated (post-inference)
    errors: List[dict]                  # class-relative records
    annotations: Annotations


class _Lru(OrderedDict):
    """A dict of at most ``capacity`` keys (``None``: no bound) that
    evicts the least recently read or written one."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        super().__init__()
        self.capacity = capacity

    def get(self, key, default=None):
        if key not in self:
            return default
        self.move_to_end(key)
        return self[key]

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        if self.capacity is not None and len(self) > self.capacity:
            self.popitem(last=False)


class ClassTable:
    """The in-memory tier: class analyses keyed by class fingerprint
    (``entries``), plus the text scans :func:`fingerprints` memoizes by
    chunk SHA (``texts``), each an LRU of at most ``capacity`` keys
    (``None``: no bound).  It holds no :class:`AnalysisCache`, so one
    table can outlive and serve any number of analyses."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.entries: Dict[str, ClassEntry] = _Lru(capacity)
        self.texts: Dict[str, Tuple[str, Tuple[str, ...]]] = \
            _Lru(capacity)


class AnalysisCache:
    """The two tiers one analysis reads: a :class:`ClassTable` and an
    optional JSON shard.

    Pass the same instance to successive :func:`repro.core.api.analyze`
    calls for in-process incrementality, or pass a longer-lived
    ``table`` to share class analyses across caches; give it a ``path``
    and call :meth:`save` to persist the disk tier between processes
    (the CLI's ``--analysis-cache DIR`` does both).
    """

    def __init__(self, path: Optional[str] = None,
                 table: Optional[ClassTable] = None) -> None:
        self.path = path
        self.table = table if table is not None else ClassTable()
        self.disk: Dict[str, dict] = {}
        #: class name -> disk record of a class the analyses through
        #: this cache used but its shard lacks; :meth:`save` writes them
        self.unsaved: Dict[str, dict] = {}
        self.stats = CacheStats()
        if path:
            self.load()

    # -- persistence ----------------------------------------------------

    def load(self) -> None:
        if not self.path or not os.path.exists(self.path):
            return
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError:
            return  # unreadable: start cold
        try:
            payload = json.loads(raw)
        except ValueError:
            # truncated or garbage JSON — a torn shard.  Move it aside
            # (quarantine) so the evidence survives and the next writer
            # doesn't fight a poisoned path, then start cold: the
            # caller recomputes, it never raises and never trusts.
            self._quarantine()
            return
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
            return
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            self._quarantine()
            return
        digest = payload.get("digest")
        if digest is not None and digest != _entries_digest(entries):
            # well-formed JSON whose content digest doesn't match: a
            # corrupted-in-place shard (bit rot, partial overwrite) —
            # same treatment as a torn one
            self._quarantine()
            return
        self.disk = entries

    def _quarantine(self) -> None:
        """Move a corrupt shard to ``<shard>.corrupt-<pid>`` so the
        bytes survive for diagnosis while the path heals."""
        self.stats.quarantines += 1
        if not self.path:
            return
        try:
            os.replace(self.path, f"{self.path}.corrupt-{os.getpid()}")
        except OSError:
            pass  # a racing quarantine already moved it

    def save(self) -> None:
        """Persist the disk tier atomically: the loaded shard plus
        every record in :attr:`unsaved`.

        The payload lands in a private temp file first and is moved into
        place with :func:`os.replace`, so a concurrent reader sees either
        the old complete file or the new complete file, never a torn
        write.  Concurrent writers of the same path race benignly: every
        entry is keyed by content fingerprint, so whichever rename lands
        last wins with a payload that is correct for its fingerprints
        (last-write-wins is safe by construction).
        """
        if not self.path:
            return
        merged = dict(self.disk)
        merged.update(self.unsaved)
        payload = {"schema": SCHEMA,
                   "digest": _entries_digest(merged),
                   "entries": merged}
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp = f"{self.path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        self.disk = merged
        self.unsaved = {}

    # -- lookups --------------------------------------------------------

    def disk_entry(self, name: str, chunk_sha: str, policy_key: str,
                   fingerprint: str) -> Optional[dict]:
        entry = self.disk.get(name)
        if (isinstance(entry, dict) and entry.get("sha") == chunk_sha
                and entry.get("policy") == policy_key
                and entry.get("fp") == fingerprint
                and entry.get("errors") is not None
                and isinstance(entry.get("ann"), list)):
            return entry
        return None

    def keep_in_shard(self, name: str, chunk_sha: str, policy_key: str,
                      fingerprint: str, errors: List[dict],
                      annotations: Annotations) -> None:
        """Note that this cache's program has class ``name``: queue its
        disk record when the shard lacks it."""
        if self.path and self.disk_entry(name, chunk_sha, policy_key,
                                         fingerprint) is None:
            self.unsaved[name] = {"sha": chunk_sha, "policy": policy_key,
                                  "fp": fingerprint, "errors": errors,
                                  "ann": annotations}

    def record(self, name: str, chunk_sha: str, policy_key: str,
               fingerprint: str, decl: ast.ClassDecl,
               errors: Optional[List[dict]],
               annotations: Optional[Annotations] = None,
               where: Optional[Where] = None) -> None:
        """Learn one class analysis: into the table, and into the shard
        when it lacks it.  ``where`` is the chunk's position; an entry
        without one is only ever replayed onto a fresh parse.
        ``errors`` of ``None`` (a diagnostic the cache cannot replay)
        records nothing: the class stays live."""
        if errors is None:
            return
        if annotations is None:
            annotations = collect_annotations(decl)
        self.table.entries[fingerprint] = ClassEntry(where, decl, errors,
                                                     annotations)
        self.keep_in_shard(name, chunk_sha, policy_key, fingerprint,
                           errors, annotations)
