"""Front door for the static half of the system.

Typical use::

    from repro.core import analyze

    analyzed = analyze(source_text)       # parse → defaults/infer → check
    analyzed.require_well_typed()         # raises on the first type error

``analyze`` returns an :class:`AnalyzedProgram` carrying the (annotated)
AST, the semantic tables, and the list of ownership type errors; the
interpreter in :mod:`repro.interp` consumes it directly.

Pass ``cache=AnalysisCache(...)`` to make repeated analyses incremental:
unchanged class declarations are neither re-parsed nor re-checked (see
:mod:`repro.core.cache`).  The cached and uncached paths produce
identical errors and identical semantic tables.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..errors import LexError, OwnershipTypeError, ParseError
from ..lang import ast, parse_program
from .cache import (AnalysisCache, deserialize_errors, fingerprints,
                    first_token_loc, serialize_errors, split_chunks)
from .checker import Checker
from .inference import (DefaultPolicy, PAPER_DEFAULTS, _MethodInference,
                        apply_signature_defaults)
from .phases import PhaseClock
from .program import ProgramInfo, build_program_info

#: wall-clock buckets for the frontend phase histogram (seconds)
_SECONDS_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                    0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


@dataclass
class AnalyzedProgram:
    """A parsed, default-completed, inferred, and typechecked program."""

    program: ast.Program
    info: ProgramInfo
    errors: List[OwnershipTypeError]
    #: wall-clock seconds per frontend phase (parse/tables/infer plus the
    #: checker's wellformed/region-kinds/classes/main-block)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: per-run analysis-cache counters when a cache was used, else None
    cache_stats: Optional[Dict[str, int]] = None
    #: forms compiled from this program (the lowered program and each
    #: bound backend form, keyed by form plus the options it bakes in);
    #: they live and die with the program (``codegen_base.memo``)
    compiled: Dict[Any, Any] = field(default_factory=dict, repr=False,
                                     compare=False)

    @property
    def well_typed(self) -> bool:
        return not self.errors

    def require_well_typed(self) -> "AnalyzedProgram":
        if self.errors:
            raise self.errors[0]
        return self

    def error_rules(self) -> List[str]:
        """The judgment names of all failures (for auditing tests)."""
        return [e.rule or "?" for e in self.errors]


def _empty_analysis(program: ast.Program,
                    err: OwnershipTypeError) -> AnalyzedProgram:
    """Structural errors surfaced while building the tables (e.g.
    redefining a built-in class) are reported like any other."""
    from .kinds import KindTable
    empty = ProgramInfo({}, {}, program, KindTable())
    return AnalyzedProgram(program, empty, [err])


def analyze(source: Union[str, ast.Program],
            filename: str = "<input>",
            infer: bool = True,
            defaults: Optional[DefaultPolicy] = None,
            cache: Optional[AnalysisCache] = None,
            metrics=None) -> AnalyzedProgram:
    """Parse (if needed), apply Section 2.5 defaults/inference, and
    typecheck.  Never raises for *type* errors — inspect ``.errors`` or
    call :meth:`AnalyzedProgram.require_well_typed`; lex/parse errors do
    raise.  Per-phase wall times land in the result's
    ``phase_seconds``; ``metrics`` (a :class:`repro.obs.MetricsRegistry`)
    receives the ``repro_frontend_*`` series; ``cache`` (an
    :class:`repro.core.cache.AnalysisCache`) makes repeated analyses
    incremental."""
    clock = PhaseClock()
    policy = defaults if defaults is not None else PAPER_DEFAULTS
    result = None
    if cache is not None and infer and isinstance(source, str):
        result = _analyze_cached(source, filename, policy, cache, clock)
        if result is None:
            cache.stats.bump("fallbacks")
            clock.restart()
    if result is None:
        result = _analyze_plain(source, filename, infer, policy, clock)
    result.phase_seconds = clock.seconds
    if metrics is not None:
        _export_frontend_metrics(metrics, clock.seconds, cache)
    return result


def _analyze_plain(source: Union[str, ast.Program], filename: str,
                   infer: bool, policy: DefaultPolicy,
                   clock: PhaseClock) -> AnalyzedProgram:
    """The whole-program path (no cache)."""
    if isinstance(source, str):
        program = parse_program(source, filename)
        clock.lap("parse")
    else:
        program = source
    try:
        if infer:
            apply_signature_defaults(program, policy)
            info = build_program_info(program)
            clock.lap("tables")
            for cls in program.classes:
                for meth in cls.methods:
                    _MethodInference(info, cls, meth, policy).run(
                        meth.body)
            if program.main is not None:
                _MethodInference(info, None, None, policy).run(
                    program.main)
            clock.lap("infer")
        else:
            info = build_program_info(program)
            clock.lap("tables")
    except OwnershipTypeError as err:
        return _empty_analysis(program, err)
    checker = Checker(info)
    errors = checker.check(clock=clock)
    return AnalyzedProgram(program, info, errors)


def _analyze_cached(source: str, filename: str, policy: DefaultPolicy,
                    cache: AnalysisCache,
                    clock: PhaseClock) -> Optional[AnalyzedProgram]:
    """The incremental path; returns None to fall back to the plain
    path (diagnostics then come from the canonical whole-program
    parse)."""
    chunks = split_chunks(source)
    if chunks is None:
        return None
    class_chunks = [c for c in chunks if c.kind == "class"]
    names = [c.name for c in class_chunks]
    if len(set(names)) != len(names):
        return None  # duplicate declarations; let the plain path report
    cache.stats.begin_run()
    policy_key = repr(policy)
    rk_digest = hashlib.sha256(
        (policy_key + "\x00".join(
            c.text for c in chunks if c.kind == "regionKind"))
        .encode("utf-8")).hexdigest()
    shas = {c.name: hashlib.sha256(c.text.encode("utf-8")).hexdigest()
            for c in class_chunks}
    fps = fingerprints(class_chunks, policy_key, rk_digest, shas,
                       cache.text_cache)

    decls: List[ast.ClassDecl] = []
    live: set = set()
    replay: Dict[str, List[OwnershipTypeError]] = {}
    chunk_by_name = {c.name: c for c in class_chunks}
    try:
        for c in class_chunks:
            entry = cache.mem_entry(c.name, shas[c.name], policy_key,
                                    fps[c.name])
            if entry is not None:
                cache.stats.bump("ast_hits")
                cache.stats.bump("replay_hits")
                decls.append(entry.decl)
                replay[c.name] = deserialize_errors(entry.errors, c.line,
                                                    filename)
                continue
            cache.stats.bump("ast_misses")
            sub = parse_program(c.text, filename, c.line, c.col)
            if (len(sub.classes) != 1 or sub.region_kinds
                    or sub.main is not None):
                return None
            decl = sub.classes[0]
            decls.append(decl)
            disk = cache.disk_entry(c.name, shas[c.name], policy_key,
                                    fps[c.name])
            if disk is not None:
                from .cache import apply_annotations
                if apply_annotations(decl, disk["ann"]):
                    cache.stats.bump("replay_hits")
                    replay[c.name] = deserialize_errors(
                        disk["errors"], c.line, filename)
                    continue
            live.add(c.name)

        region_kinds: List[ast.RegionKindDecl] = []
        main_stmts: List[ast.Stmt] = []
        for c in chunks:
            if c.kind == "class":
                continue
            sub = parse_program(c.text, filename, c.line, c.col)
            if c.kind == "regionKind":
                if (len(sub.region_kinds) != 1 or sub.classes
                        or sub.main is not None):
                    return None
                region_kinds.append(sub.region_kinds[0])
            else:
                if sub.classes or sub.region_kinds:
                    return None
                if sub.main is not None:
                    main_stmts.extend(sub.main.stmts)
    except (LexError, ParseError):
        return None

    # the whole-program parser stamps the main block with the location of
    # the program's *first* token; reproduce that so assembled programs
    # compare equal to freshly parsed ones
    main = (ast.Block(main_stmts, first_token_loc(chunks, filename))
            if main_stmts else None)
    program = ast.Program(decls, region_kinds, main, filename=filename,
                          source_text=source)
    clock.lap("parse")

    try:
        apply_signature_defaults(program, policy)
        info = build_program_info(program)
        clock.lap("tables")
        for cls in program.classes:
            if cls.name in live:
                for meth in cls.methods:
                    _MethodInference(info, cls, meth, policy).run(
                        meth.body)
        if program.main is not None:
            _MethodInference(info, None, None, policy).run(program.main)
        clock.lap("infer")
    except OwnershipTypeError as err:
        return _empty_analysis(program, err)

    checker = Checker(info)
    per_class: Dict[str, List[OwnershipTypeError]] = {}
    errors = checker.check(clock=clock, replay_errors=replay,
                           per_class_errors=per_class)

    # record what this run learned (per_class is empty when the
    # wellformed phase aborted checking — record nothing then, so the
    # next run re-checks everything live)
    decl_by_name = {d.name: d for d in decls}
    for name in live:
        cache.stats.bump("check_misses")
        errs = per_class.get(name)
        if errs is None:
            continue
        chunk = chunk_by_name[name]
        cache.record(name, shas[name], policy_key, fps[name],
                     decl_by_name[name],
                     serialize_errors(errs, chunk.line))

    result = AnalyzedProgram(program, info, errors)
    result.cache_stats = dict(cache.stats.last)
    return result


def _export_frontend_metrics(metrics, seconds: Dict[str, float],
                             cache: Optional[AnalysisCache]) -> None:
    hist = metrics.histogram(
        "repro_frontend_phase_seconds",
        "wall-clock seconds per frontend phase, labeled by phase",
        buckets=_SECONDS_BUCKETS)
    for phase, secs in seconds.items():
        hist.labels(phase=phase).observe(secs)
    if cache is not None:
        hits = metrics.counter(
            "repro_frontend_analysis_cache_hits_total",
            "class declarations whose analysis was replayed from the "
            "cache, labeled by tier (ast = parse skipped, check = "
            "inference+check skipped)")
        misses = metrics.counter(
            "repro_frontend_analysis_cache_misses_total",
            "class declarations analyzed live, labeled by tier")
        last = cache.stats.last
        hits.labels(tier="ast").inc(last.get("ast_hits", 0))
        hits.labels(tier="check").inc(last.get("replay_hits", 0))
        misses.labels(tier="ast").inc(last.get("ast_misses", 0))
        misses.labels(tier="check").inc(last.get("check_misses", 0))


def typecheck_source(source: str,
                     filename: str = "<input>") -> List[OwnershipTypeError]:
    """Convenience: the type errors of ``source`` (empty = well-typed)."""
    return analyze(source, filename).errors
