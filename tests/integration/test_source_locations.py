"""No location object outlives its analysis.

Tokens and AST nodes store their locations as exact tuples of ints and
a str, which CPython's collector untracks; ``Position``/``Span`` are
only built for diagnostics.  A tracked location kept alive by a parsed
program would be walked by every full collection for as long as the
program stays cached, which is what this test guards against.
"""

import dataclasses
import gc

from repro.bench.suite import BENCHMARKS
from repro.core.api import analyze
from repro.core.cache import AnalysisCache
from repro.interp.machine import Machine, RunOptions
from repro.lang import ast, tokenize
from repro.source import Position, Span


def _nodes(obj, out):
    if isinstance(obj, ast.Node):
        out.append(obj)
        for f in dataclasses.fields(obj):
            _nodes(getattr(obj, f.name), out)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _nodes(item, out)
    return out


def _live_views():
    gc.collect()
    return [o for o in gc.get_objects() if type(o) in (Position, Span)]


def test_no_location_object_outlives_its_analysis(tmp_path):
    before = _live_views()   # held, so their ids cannot be reused
    token_lists, analyses = [], []
    for name, bench in BENCHMARKS.items():
        source = bench.source(fast=True)
        token_lists.append(tokenize(source))
        path = str(tmp_path / f"{name}.json")
        cache = AnalysisCache(path)
        cold = analyze(source, cache=cache)
        cache.save()
        replayed = analyze(source, cache=AnalysisCache(path))
        assert replayed.cache_stats["replay_hits"] > 0
        for analyzed in (cold, replayed):
            analyzed.require_well_typed()
            for options in (RunOptions(backend="interp", record=True),
                            RunOptions(backend="py")):
                Machine(analyzed, options).run()
            analyses.append(analyzed)

    known = {id(o) for o in before}
    leaked = [o for o in _live_views() if id(o) not in known]
    assert leaked == []
    tokens = [tok for toks in token_lists for tok in toks]
    nodes = []
    for analyzed in analyses:
        program = analyzed.program
        _nodes([program.classes, program.region_kinds, program.main],
               nodes)
    assert len(tokens) > 5000 and len(nodes) > 5000
    assert not any(gc.is_tracked(tok.loc) for tok in tokens)
    assert not any(gc.is_tracked(node.loc) for node in nodes)
