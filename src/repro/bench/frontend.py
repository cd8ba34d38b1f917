"""Wall-clock benchmark of the static frontend (parse → infer → check).

The interp suite (:func:`repro.bench.timing.measure`) guards the
runtime hot loop; this module guards the *frontend* hot path that the
performance work in ``docs/PERFORMANCE.md`` optimises: interned
owners/types, memoized substitution and relation queries, the regex
lexer, and the content-addressed :class:`repro.core.cache.AnalysisCache`.

Two quantities per program size:

* ``cold_s`` — a full ``analyze()`` with no cache (the first-open cost);
* ``warm_s`` — re-analysis after editing one class body, with a
  populated :class:`~repro.core.cache.AnalysisCache` (the keystroke
  cost).  Only the edited class is re-parsed, re-inferred, and
  re-checked; everything else replays.

``measure()`` returns a ``repro-bench/2`` payload
(:mod:`repro.bench.compare`; ``BENCH_frontend.json`` at the repo root)
with one row per size and quantity, program ``size N``.  The rows
carry their judgments: ``cold_s`` is a wall row (CI fails on a cold
regression beyond the threshold), ``n_errors`` is exact (the synthetic
corpus or checker changed), and the largest size's ``warm_speedup``
has a floor of :data:`MIN_WARM_SPEEDUP`, checked on every run — the
cache silently degrading to recompute-everything is a
correctness-of-purpose bug even though the output stays right.  The
committed payload's ``baseline`` preserves the numbers from before the
frontend work for the table's ratio column; it is never judged.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Any, Dict, Iterable, List, Optional

from ..core.api import analyze
from ..core.cache import AnalysisCache
from .compare import cell_rows, make_payload, set_bound

__all__ = ["SIZES", "MIN_WARM_SPEEDUP", "JUDGES", "synth_program",
           "edit_one_class", "measure", "measure_size"]

#: program sizes (class count) measured by default
SIZES = (5, 20, 40)

#: warm/cold speedup floor on the largest size; the incremental cache
#: on a one-class edit of a 40-class program must stay well above 1x
MIN_WARM_SPEEDUP = 3.0

#: how each measured quantity is judged (see repro.bench.compare)
JUDGES = {"n_errors": "exact", "cold_s": "wall"}


def synth_program(n_classes: int, methods_per_class: int = 3) -> str:
    """A well-typed program with ``n_classes`` linked classes.

    Shared with ``benchmarks/test_checker_scalability.py``: each class
    carries fields, ``accesses`` clauses, region blocks, and a local
    whose type is inferred, so the generated text exercises parsing,
    defaults/inference, and every per-class checking judgment.
    """
    parts = ["class Cell<Owner o> { int v; Cell<o> next; }"]
    for i in range(n_classes):
        methods = []
        for j in range(methods_per_class):
            methods.append(f"""
    int work{j}(int x) accesses o, heap {{
        Cell<o> local = new Cell<o>;
        local.v = x * {j + 1};
        held = local;
        (RHandle<r{j}> h{j}) {{
            Cell<r{j}> scratch = new Cell<r{j}>;
            scratch.v = local.v + {i};
            Cell inferredLocal = scratch;
            inferredLocal.next = scratch;
        }}
        return local.v;
    }}""")
        parts.append(f"""
class Worker{i}<Owner o> {{
    Cell<o> held;
    {''.join(methods)}
}}""")
    body = "\n".join(
        f"    Worker{i}<r> w{i} = new Worker{i}<r>;"
        f" int v{i} = w{i}.work0({i});"
        for i in range(min(n_classes, 20)))
    parts.append(f"(RHandle<r> h) {{\n{body}\n}}")
    return "\n".join(parts)


def edit_one_class(source: str, step: int = 1) -> str:
    """The canonical one-class edit: change one method-body constant
    (to ``step``; distinct steps give distinct texts).

    The edit alters a single class's chunk text without touching any
    signature or line, so a correct incremental cache re-analyses
    exactly one class.
    """
    needle = "scratch.v = local.v + 0;"
    edited = source.replace(needle, f"scratch.v = local.v + 0 + {step};",
                            1)
    if edited == source:
        raise ValueError("edit needle not found in synthetic program")
    return edited


def _best_of(fn, repeats: int) -> float:
    best = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def measure_size(size: int, repeats: int = 3,
                 cache_path: Optional[str] = None) -> Dict[str, Any]:
    """Cold and warm-incremental analysis times for one program size."""
    source = synth_program(size)
    cold_result = analyze(source)
    n_errors = len(cold_result.errors)
    cold_s = _best_of(lambda: analyze(source), repeats)

    # warm: every timed run analyses a new edit of the same class body,
    # so it differs from everything the cache holds by exactly one
    # class — the steady-state keystroke cost.  (Alternating between
    # two texts would replay both from the fingerprint-keyed table.)
    cache = AnalysisCache(cache_path)
    analyze(source, cache=cache)
    edits = iter([edit_one_class(source, step)
                  for step in range(1, max(repeats, 1) + 2)])

    def warm_run():
        result = analyze(next(edits), cache=cache)
        assert len(result.errors) == n_errors

    warm_s = _best_of(warm_run, repeats)
    stats = analyze(next(edits), cache=cache).cache_stats or {}
    if cache_path is not None:
        cache.save()
    return {
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "warm_speedup": round(cold_s / warm_s, 2) if warm_s else 0.0,
        "lines": source.count("\n") + 1,
        "n_errors": n_errors,
        "warm_ast_hits": stats.get("ast_hits", 0),
    }


def measure(sizes: Optional[Iterable[int]] = None, repeats: int = 3,
            cache_dir: Optional[str] = None) -> Dict[str, Any]:
    """Measure all (selected) sizes and return the full payload.

    ``cache_dir`` backs each size's warm cache with a JSON file under
    that directory (one per size, so sizes stay independent) instead of
    keeping it in memory — the ``bench --suite frontend
    --analysis-cache DIR`` path, which also exercises the disk tier.
    """
    selected = [int(s) for s in (sizes if sizes is not None else SIZES)]
    rows: List[Dict[str, Any]] = []
    for size in selected:
        path = (os.path.join(cache_dir, f"analysis-cache-{size}.json")
                if cache_dir else None)
        rows += cell_rows(f"size {size}", None, None,
                          measure_size(size, repeats=repeats,
                                       cache_path=path), JUDGES)
    payload = make_payload("frontend", {
        "repeats": repeats, "python": platform.python_version()}, rows)
    if selected:
        set_bound(payload, f"size {max(selected)}", None, None,
                  "warm_speedup", floor=MIN_WARM_SPEEDUP)
    return payload
