"""Cold/warm equivalence of the incremental analysis cache.

The contract of ``analyze(..., cache=AnalysisCache(...))`` is strict:
identical errors (messages, rules, spans), identical semantic tables,
and — downstream — byte-identical interpreter behaviour, whether a
program is analyzed cold, replayed from the in-memory tier, replayed
from the disk tier, or re-analyzed after a one-class edit.  Malformed
input must fall back to the whole-program path so diagnostics never
change shape.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro import RunOptions, analyze, run_source
from repro.core.cache import AnalysisCache, signature_text, split_chunks
from repro.core.owners import Owner
from repro.core.types import ClassType, HandleType, PrimType
from repro.errors import LexError
from repro.lang import ast

# load the shared sources by path — a bare `import conftest` resolves
# to whichever conftest.py pytest put on sys.path first
_spec = importlib.util.spec_from_file_location(
    "_tests_conftest",
    Path(__file__).resolve().parent.parent / "conftest.py")
_conftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_conftest)
TSTACK_SOURCE = _conftest.TSTACK_SOURCE
PRODUCER_CONSUMER_SOURCE = _conftest.PRODUCER_CONSUMER_SOURCE
REALTIME_SOURCE = _conftest.REALTIME_SOURCE

#: Figure 5's illegal s6 assignment — a representative ill-typed
#: program: the inner region's object must not escape to the outer
#: stack (fails the outlives premise of the assignment rule).
ILL_TYPED_ESCAPE = TSTACK_SOURCE.replace(
    "T<r2> t = s1.pop();",
    "T<r2> t = s1.pop(); s2.push(new T<r1>); s3.push(t);")

#: several classes, several distinct errors, comments between decls —
#: exercises per-class error replay with spans past the first chunk
ILL_TYPED_MULTI = """
class A<Owner o> { int x; }
// a comment between declarations
class B<Owner o> {
    A<o> held;
    void bad(A<heap> a) { held = a; }   /* [ASSIGN] error */
}
class C<Owner o> {
    int also_bad() { return missing; }
}
(RHandle<r> h) {
    B<r> b = new B<r>;
    print(b.nope);
}
"""

CORPUS = [TSTACK_SOURCE, PRODUCER_CONSUMER_SOURCE, REALTIME_SOURCE,
          ILL_TYPED_ESCAPE, ILL_TYPED_MULTI]


def errors_key(analyzed):
    """Everything observable about the diagnostics."""
    return [(str(e), e.rule, str(e.span)) for e in analyzed.errors]


@pytest.mark.parametrize("source", CORPUS)
def test_cold_and_warm_agree(source):
    cold = analyze(source)
    cache = AnalysisCache()
    first = analyze(source, cache=cache)   # populates
    warm = analyze(source, cache=cache)    # replays everything
    for cached in (first, warm):
        assert errors_key(cached) == errors_key(cold)
        assert cached.program == cold.program
        assert cached.info == cold.info
    if warm.cache_stats is not None and "class" in source:
        assert warm.cache_stats["ast_hits"] > 0
        assert warm.cache_stats["ast_misses"] == 0


@pytest.mark.parametrize("source", CORPUS)
def test_disk_tier_round_trip(source, tmp_path):
    path = str(tmp_path / "cache.json")
    cold = analyze(source)
    cache = AnalysisCache(path)
    analyze(source, cache=cache)
    cache.save()

    fresh = AnalysisCache(path)            # new process, empty memory
    replayed = analyze(source, cache=fresh)
    assert errors_key(replayed) == errors_key(cold)
    assert replayed.program == cold.program
    assert replayed.info == cold.info
    if replayed.cache_stats is not None and "class" in source:
        # disk tier re-parses but replays inference + diagnostics
        assert replayed.cache_stats["ast_hits"] == 0
        assert replayed.cache_stats["replay_hits"] > 0
        assert replayed.cache_stats["check_misses"] == 0


def test_one_class_edit_rechecks_only_that_class():
    from repro.bench.frontend import edit_one_class, synth_program
    source = synth_program(8)
    edited = edit_one_class(source)
    cache = AnalysisCache()
    analyze(source, cache=cache)
    warm = analyze(edited, cache=cache)
    cold = analyze(edited)
    assert errors_key(warm) == errors_key(cold)
    assert warm.info == cold.info
    assert warm.cache_stats["ast_misses"] == 1
    assert warm.cache_stats["check_misses"] == 1
    assert warm.cache_stats["ast_hits"] == 8  # Cell + 8 workers − edited


#: a null call in class B, below class A: an edit that adds a line to
#: A moves every node of the unchanged B one line down
MOVED_CLASS_SOURCE = """class A<Owner o> {
    int f() {
        return 1;
    }
}
class B<Owner o> {
    IntArray<o> arr;
    int g() {
        return arr.get(0);
    }
}
(RHandle<r> h) {
    B<r> b = new B<r>;
    print(b.g());
}
"""


def node_locs(root):
    """``(node type, loc)`` of every AST node under ``root``, in walk
    order."""
    out = []

    def walk(obj):
        if isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)
        elif isinstance(obj, ast.Node):
            out.append((type(obj).__name__, obj.loc))
            for f in dataclasses.fields(obj):
                if f.name != "loc":
                    walk(getattr(obj, f.name))

    walk(root)
    return out


def runtime_error(analyzed):
    with pytest.raises(Exception) as err:
        run_source(analyzed, RunOptions(backend="interp", validate=False))
    return f"{type(err.value).__name__}: {err.value}"


def test_a_moved_class_carries_its_new_locations():
    """An unchanged class whose chunk moved is not served with its old
    locations: its runtime errors and every node location match a cold
    analysis of the edited text."""
    edited = MOVED_CLASS_SOURCE.replace(
        "        return 1;", "        int z = 2;\n        return 1;")
    cache = AnalysisCache()
    analyze(MOVED_CLASS_SOURCE, cache=cache)
    warm = analyze(edited, cache=cache)
    cold = analyze(edited)
    assert warm.cache_stats["replay_hits"] == 1   # B: not re-checked
    assert runtime_error(warm) == runtime_error(cold)
    assert "<input>:10:" in runtime_error(cold)
    assert node_locs(warm.program.classes) == \
        node_locs(cold.program.classes)
    assert warm.program == cold.program
    # the table now holds B where it sits in the edited text
    again = analyze(edited, cache=cache)
    assert again.cache_stats["ast_hits"] == 2
    assert node_locs(again.program.classes) == \
        node_locs(cold.program.classes)


def test_signature_edit_invalidates_dependents():
    source = ("class A<Owner o> { int f() { return 1; } }\n"
              "class B<Owner o> { A<o> a;"
              " int g() { return a.f(); } }\n"
              "class C<Owner o> { int x; }\n")
    cache = AnalysisCache()
    analyze(source, cache=cache)
    # body-only edit of A: only A re-checked
    warm = analyze(source.replace("return 1", "return 2"), cache=cache)
    assert warm.cache_stats["check_misses"] == 1
    # signature edit of A: dependent B re-checked too, C untouched
    cache = AnalysisCache()
    analyze(source, cache=cache)
    warm = analyze(source.replace("int f()", "int f(int z)"),
                   cache=cache)
    assert warm.errors  # a.f() now misses an argument
    assert warm.cache_stats["check_misses"] == 2
    assert warm.cache_stats["ast_hits"] == 1  # only C is untouched


def test_interpreter_equivalence_through_cache():
    """A cached analysis drives the interpreter byte-identically."""
    for source in (TSTACK_SOURCE, PRODUCER_CONSUMER_SOURCE,
                   REALTIME_SOURCE):
        cold = analyze(source)
        cache = AnalysisCache()
        analyze(source, cache=cache)
        warm = analyze(source, cache=cache)
        options = RunOptions(validate=False)
        a = run_source(cold, options)
        b = run_source(warm, options)
        assert a.output == b.output
        assert a.stats.cycles == b.stats.cycles
        assert a.stats.steps == b.stats.steps


def test_malformed_input_falls_back_identically():
    cache = AnalysisCache()
    # unbalanced braces: split fails, plain path reports the parse error
    bad = "class A<Owner o> { int x; "
    with pytest.raises(Exception) as cached_err:
        analyze(bad, cache=cache)
    with pytest.raises(Exception) as cold_err:
        analyze(bad)
    assert str(cached_err.value) == str(cold_err.value)
    assert cache.stats.fallbacks >= 1
    # lex error inside a class: chunk parsing aborts, same fallback
    bad = "class A<Owner o> { int x; } class B<Owner o> { in€t y; }"
    with pytest.raises(LexError) as cached_err:
        analyze(bad, cache=cache)
    with pytest.raises(LexError) as cold_err:
        analyze(bad)
    assert str(cached_err.value) == str(cold_err.value)


def test_split_chunks_structure():
    chunks = split_chunks(TSTACK_SOURCE)
    assert chunks is not None
    kinds = [(c.kind, c.name) for c in chunks]
    assert ("class", "TStack") in kinds
    assert ("class", "TNode") in kinds
    assert kinds[-1][0] == "main"
    # chunk texts reassemble the class declarations verbatim
    for c in chunks:
        if c.kind == "class":
            assert c.text in TSTACK_SOURCE
    # braces inside comments and strings of unbalance return None
    assert split_chunks("class A<Owner o> { /* { */ int x; }") is not None
    assert split_chunks("class A { ") is None
    assert split_chunks("/* unterminated") is None


def test_signature_text_ignores_bodies():
    a = "class A<Owner o> { int f() { return 1; } int g; }"
    b = "class A<Owner o> { int f() { return 2 + 2; } int g; }"
    c = "class A<Owner o> { int f(int z) { return 1; } int g; }"
    assert signature_text(a) == signature_text(b)
    assert signature_text(a) != signature_text(c)


def test_interning_properties():
    """Hash-consed constructors return the same object for equal
    arguments, and equality/hash match structural equality."""
    assert Owner("alpha") is Owner("alpha")
    assert PrimType("int") is PrimType("int")
    o = Owner("alpha")
    assert ClassType("A", (o, Owner("beta"))) is \
        ClassType("A", (Owner("alpha"), Owner("beta")))
    assert HandleType(o) is HandleType(Owner("alpha"))
    assert ClassType("A", (o,)) != ClassType("B", (o,))
    assert hash(Owner("alpha")) == hash(Owner("alpha"))
    assert Owner("alpha") != Owner("beta")


def test_cached_analysis_matches_seed_fixture():
    """A cache-replayed analysis drives the interpreter to the exact
    seed-interpreter numbers pinned in ``seed_equivalence.json``."""
    import hashlib
    import json

    from repro.bench.suite import BENCHMARKS

    fixture_path = (Path(__file__).resolve().parent.parent / "data"
                    / "seed_equivalence.json")
    fixture = json.loads(fixture_path.read_text())["fixture"]
    for name in sorted(BENCHMARKS):
        cache = AnalysisCache()
        source = BENCHMARKS[name].source(fast=True)
        analyze(source, cache=cache)
        warm = analyze(source, cache=cache)   # fully replayed
        assert not warm.errors
        result = run_source(warm, RunOptions(checks_enabled=False,
                                             validate=False))
        pinned = fixture[name]["static"]
        assert result.stats.cycles == pinned["cycles"]
        assert result.stats.steps == pinned["steps"]
        assert hashlib.sha256("\n".join(result.output).encode()) \
            .hexdigest() == pinned["output_sha256"]


# ---------------------------------------------------------------------------
# multi-process disk tier: atomic writes, concurrent writers
# ---------------------------------------------------------------------------

def _hammer_cache(path, source, rounds, failures):
    """Writer+reader loop run in a child process: every observed file
    state must be a complete, schema-valid payload (atomic rename means
    torn JSON is impossible), and analysis through the shared path must
    stay correct throughout."""
    import json as _json
    import os as _os

    from repro import analyze as _analyze
    from repro.core.cache import SCHEMA as _SCHEMA
    from repro.core.cache import AnalysisCache as _Cache
    try:
        for _ in range(rounds):
            cache = _Cache(path)
            analyzed = _analyze(source, cache=cache)
            if analyzed.errors:
                failures.put("analysis through shared cache errored")
                return
            cache.save()
            raw = open(path, "r", encoding="utf-8").read()
            payload = _json.loads(raw)      # a torn write raises here
            if payload.get("schema") != _SCHEMA:
                failures.put(f"bad schema: {payload.get('schema')!r}")
                return
            for name in _os.listdir(_os.path.dirname(path) or "."):
                if name.endswith(".tmp"):
                    # benign transiently, but it must carry a pid tag so
                    # concurrent writers never share a temp file
                    stem = name[:-len(".tmp")]
                    if not stem.rpartition(".")[2].isdigit():
                        failures.put(f"untagged temp file: {name}")
                        return
    except Exception as exc:  # pragma: no cover - failure reporting
        failures.put(f"{type(exc).__name__}: {exc}")


def test_two_process_disk_tier_stress(tmp_path):
    import multiprocessing as mp

    path = str(tmp_path / "shared" / "cache.json")
    # different bodies, same class names: the processes overwrite each
    # other's entries (last-write-wins) while readers must never see a
    # torn file
    src_a = ("class A<Owner o> { int f() { return 1; } }\n"
             "{ A<heap> a = new A<heap>; print(a.f()); }")
    src_b = ("class A<Owner o> { int f() { return 2; } }\n"
             "{ A<heap> a = new A<heap>; print(a.f()); }")
    ctx = mp.get_context()
    failures = ctx.Queue()
    procs = [ctx.Process(target=_hammer_cache,
                         args=(path, src, 25, failures))
             for src in (src_a, src_b)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    assert failures.empty(), failures.get()
    # the survivor is a complete payload either process can warm from
    fresh = AnalysisCache(path)
    assert fresh.disk  # non-empty disk tier survived the stampede


def test_save_failure_leaves_no_temp_litter(tmp_path, monkeypatch):
    import json as _json

    path = str(tmp_path / "cache.json")
    cache = AnalysisCache(path)
    analyze("class A<Owner o> { int x; }\n{ print(1); }", cache=cache)

    real_dump = _json.dump

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("repro.core.cache.json.dump", boom)
    with pytest.raises(OSError):
        cache.save()
    monkeypatch.setattr("repro.core.cache.json.dump", real_dump)
    assert [p.name for p in tmp_path.iterdir()] == []  # no .tmp left
    cache.save()
    assert (tmp_path / "cache.json").exists()


def test_shard_path_layout():
    from repro.core.cache import shard_path

    fp = "ABCDEF0123456789"
    p = shard_path("/var/cache", fp)
    assert p == "/var/cache/ab/abcdef0123456789.json"
    # shards for distinct fingerprints never collide on one file
    assert shard_path("r", "aa11") != shard_path("r", "aa12")
