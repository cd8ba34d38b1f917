"""Programs that share a class share its analysis, and nothing else.

A serve worker keeps one class table for its lifetime, so two live
programs that declare the same class unchanged, at the same place, hold
the same annotated ``ClassDecl`` objects.  Each program must still run
exactly as its isolated analysis does, on every backend, and running
one must leave the decls the other holds untouched: no pass writes onto
a shared node.
"""

import gc
import hashlib
import re

import pytest

from repro import RunOptions, analyze
from repro.bench.suite import BENCHMARKS
from repro.core.types import ClassType
from repro.interp.machine import execute
from repro.serve.protocol import program_sha
from repro.serve.worker import WarmWorker

from .test_backend_equivalence import C_AVAILABLE

BACKENDS = ["interp", "py"] + (["c"] if C_AVAILABLE else [])
FORMS = {"interp": "interp", "py": "py-fused", "c": "c"}
MODES = [False, True]  # checks_enabled: static, dynamic


def dump(obj):
    """Every attribute of every node under ``obj``, locations
    included — also attributes no dataclass field declares."""
    if isinstance(obj, (list, tuple)):
        return [dump(item) for item in obj]
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__,
                {k: dump(v) for k, v in sorted(vars(obj).items())})
    return obj


def identities(obj, out=None):
    """``id`` of every node and container under ``obj``, in walk
    order: a pass that rebinds a field, even to an equal value,
    changes it."""
    out = [] if out is None else out
    if isinstance(obj, (list, tuple)):
        out.append(id(obj))
        for item in obj:
            identities(item, out)
    elif hasattr(obj, "__dict__"):
        out.append(id(obj))
        for _k, v in sorted(vars(obj).items()):
            identities(v, out)
    return out


def class_names(source):
    return re.findall(r"\bclass\s+([A-Za-z_]\w*)", source)


def salted(source, salt):
    """Rename the last-declared class, as first-sight traffic does."""
    name = class_names(source)[-1]
    return re.sub(rf"\b{name}\b", f"{name}_s{salt}", source)


def observe(analyzed, backend, checks):
    result, machine = execute(analyzed, RunOptions(
        backend=backend, checks_enabled=checks, validate=False,
        instrument=False))
    return {"backend_used": (machine.program.backend
                             if machine.program is not None
                             else "interp"),
            "cycles": result.stats.cycles,
            "output_sha256": hashlib.sha256(
                "\n".join(result.output).encode()).hexdigest(),
            "summary": result.stats.summary()}


@pytest.mark.parametrize("name", ["Barnes", "phone", "http"])
def test_two_live_programs_share_a_class(name):
    base = BENCHMARKS[name].source(fast=True)
    first_src, second_src = salted(base, "1"), salted(base, "2")
    worker = WarmWorker()
    # a class enters the worker's table on its second sighting
    zeroth = salted(base, "0")
    worker._analyze(zeroth, program_sha(zeroth))
    first = worker._analyze(first_src, program_sha(first_src))
    snapshot = (dump(first.program.classes),
                identities(first.program.classes))
    second = worker._analyze(second_src, program_sha(second_src))
    assert not first.errors and not second.errors

    # every class but the renamed one is the very same decl object
    shared = [d for d in second.program.classes
              if any(d is e for e in first.program.classes)]
    assert len(shared) == len(class_names(base)) - 1
    assert second.cache_stats["ast_hits"] == len(shared)
    isolated = {src: analyze(src) for src in (first_src, second_src)}
    by_name = {d.name: d for d in isolated[first_src].program.classes}
    assert dump(shared) == dump([by_name[d.name] for d in shared])

    expected = {}
    for backend in BACKENDS:
        for checks in MODES:
            for src, program in ((first_src, first),
                                 (second_src, second)):
                want = observe(isolated[src], backend, checks)
                expected[src, backend, checks] = want
                assert observe(program, backend, checks) == want
    # Barnes and phone compile; http's hazards send it to the
    # interpreter on every backend
    used = {want["backend_used"] for want in expected.values()}
    assert used == ({"interp"} if name == "http"
                    else {"interp"} | {FORMS[b] for b in BACKENDS})
    # the first program again, after the second was analyzed and run
    for backend in BACKENDS:
        for checks in MODES:
            assert observe(first, backend, checks) == \
                expected[first_src, backend, checks]
    assert (dump(first.program.classes),
            identities(first.program.classes)) == snapshot


def test_table_is_bounded():
    from repro.serve import worker as worker_mod

    worker = WarmWorker()
    base = BENCHMARKS["Tree"].source(fast=True)
    for i in range(worker_mod.MAX_CLASSES + 10):
        src = salted(base, str(i))
        for _ in range(2):  # admitted on the second sighting
            worker._analyze(src, program_sha(src))
    assert len(worker._classes.entries) == worker_mod.MAX_CLASSES
    assert len(worker._classes.texts) == worker_mod.MAX_CLASSES
    assert len(worker._classes.seen) <= worker_mod.MAX_CLASSES


def test_a_class_enters_the_table_on_its_second_sighting():
    worker = WarmWorker()
    table = worker._classes
    base = BENCHMARKS["Tree"].source(fast=True)
    unchanged = class_names(base)[:-1]
    variants = [salted(base, str(i)) for i in (1, 2, 3)]
    stored = []

    def analyze_variant(src):
        analyzed = worker._analyze(src, program_sha(src))
        assert not analyzed.errors
        stored.extend(entry.decl.name for entry in table.entries.values())
        return analyzed

    analyze_variant(variants[0])
    assert not table.entries
    second = analyze_variant(variants[1])
    assert sorted(e.decl.name for e in table.entries.values()) == \
        sorted(unchanged)
    third = analyze_variant(variants[2])
    cache = third.cache_stats
    assert cache["ast_hits"] == cache["memory_hits"] == len(unchanged) == 1
    (reused,) = [d for d in third.program.classes if d.name in unchanged]
    assert any(reused is d for d in second.program.classes)
    # a salted class is sighted once, so it never enters the table
    assert set(stored) <= set(unchanged)


def test_class_types_of_a_dropped_program_are_collected():
    worker = WarmWorker()
    base = BENCHMARKS["Barnes"].source(fast=True)
    salt_marker = "_sw"
    for i in range(3):
        src = salted(base, f"w{i}")
        analyzed = worker._analyze(src, program_sha(src))
        assert not analyzed.errors
        assert any(salt_marker in t.name
                   for t in list(ClassType._interned.values()))
    del analyzed
    gc.collect()
    assert not [t for t in list(ClassType._interned.values())
                if salt_marker in t.name]
