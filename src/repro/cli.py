"""Command-line front end: ``python -m repro <command> <file>``.

Commands
--------

``check``      typecheck a core-language program and report diagnostics
``run``        typecheck and execute on the simulated RTSJ platform
``profile``    run and report per-category / per-region / per-site cycles
``translate``  emit the Section 2.6 pseudo-RTSJ-Java erasure
``infer``      print the program after Section 2.5 defaults + inference
``graph``      run and emit the Figure 6 ownership graph as Graphviz dot
``bench``      benchmark suites (interpreter, static frontend, codegen
               backends, serve load, serve chaos) with one judge
               (CI regression gates)
``chaos``      seeded fault-injection campaign over the example corpus
               with sanitizer + deterministic replay verification
``inspect``    post-mortem analysis of a flight-recorder dump: region
               timelines, leak suspects, portal contention, and the
               check-elimination ledger (Figure 12)
``metricsd``   serve the telemetry store over HTTP: ``/metrics``
               (Prometheus text), ``/healthz``, ``/runs`` — on the
               serve frontend's HTTP server
``serve``      analysis-as-a-service: POST programs to
               ``/v1/analyze``, ``/v1/run``, ``/v1/inspect`` on a
               pre-forked pool of warm workers (coalescing,
               admission control, per-tenant quotas, deadlines)
``report``     cross-run regression observatory: judge the recorded
               bench history against the committed baselines

Long-lived daemons (``serve``, ``metricsd``, ``run --serve-metrics``)
all answer on one HTTP server (:class:`repro.serve.server.HTTPEdge`),
and print a machine-readable ready line naming the actually-bound
host/port *after* the listening socket exists — with ``--port 0`` a
script parses that line and connects immediately, no polling.

Continuous telemetry: ``run``/``profile``/``bench``/``chaos`` accept
``--telemetry`` to append a versioned envelope (stats summary, metric
snapshots, bench timings, chaos taxonomy) to the content-addressed
store under ``.repro/telemetry/``, which ``metricsd`` serves and
``report`` trends.

Inputs are core-language source files; a ``.py`` driver script (like the
ones under ``examples/``) is also accepted — the embedded ``PROGRAM``
string literal is extracted and used as the program.

Exit status is 0 on success, 1 on type errors, 2 on runtime failures.
A file that cannot be read or written is one ``error: cannot read
FILE: ...`` / ``error: cannot write FILE: ...`` line and exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
from typing import Iterator, List, Optional

import dataclasses

from .core.api import analyze
from .errors import LexError, ParseError, ReproError
from .interp.machine import BACKENDS, Machine, RunOptions, execute
from .interp.translate import translate as run_translate
from .lang import pretty_program

_EMBEDDED_PROGRAM = re.compile(r'^PROGRAM\s*=\s*r?"""(.*?)"""',
                               re.S | re.M)


class _FileError(Exception):
    """An input file that cannot be read, or an output file that cannot
    be written; ``main`` reports it in one line and exits 1."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        raise _FileError(f"cannot read {path}: {reason}") from err


def _read(path: str) -> str:
    text = _read_text(path)
    if path.endswith(".py"):
        # a Python driver script (examples/*.py): run the embedded
        # core-language program it carries
        match = _EMBEDDED_PROGRAM.search(text)
        if match:
            return match.group(1)
    return text


@contextlib.contextmanager
def _writing(path: str) -> Iterator[None]:
    """Report a failed write of ``path`` as a :class:`_FileError`."""
    try:
        yield
    except OSError as err:
        raise _FileError(
            f"cannot write {path}: {err.strerror or err}") from err


def _open_cache(args):
    """An :class:`AnalysisCache` backed by ``--analysis-cache DIR``, or
    None when the flag was not given."""
    directory = getattr(args, "analysis_cache", None)
    if not directory:
        return None
    import os

    from .core.cache import AnalysisCache
    return AnalysisCache(os.path.join(directory, "analysis-cache.json"))


def _telemetry_store(args):
    """The :class:`TelemetryStore` for ``--telemetry`` runs, or None
    when telemetry was not requested."""
    store_dir = getattr(args, "telemetry_store", None)
    if not (getattr(args, "telemetry", False) or store_dir):
        return None
    from .obs.telemetry import DEFAULT_STORE, TelemetryStore
    return TelemetryStore(store_dir or DEFAULT_STORE)


def _record_envelope(args, kind: str, **sections) -> None:
    """Append one telemetry envelope when ``--telemetry`` was given.
    Never raises: a full disk must not turn a green run red."""
    store = _telemetry_store(args)
    if store is None:
        return
    from .obs.telemetry import make_envelope
    try:
        sha = store.append(make_envelope(kind, **sections))
    except (OSError, ValueError) as err:
        print(f"telemetry: failed to record envelope: {err}",
              file=sys.stderr)
        return
    print(f"telemetry: recorded {kind} envelope {sha[:12]} "
          f"in {store.root}", file=sys.stderr)


def _observability_overhead(recorder) -> dict:
    """The self-measured observability cost section of an envelope."""
    overhead = {}
    if recorder is not None:
        overhead["flightrec_s"] = round(recorder.overhead_s, 6)
        overhead["flight_events_seen"] = recorder.events_seen
        if recorder.sampled_out:
            overhead["flight_sampled_out"] = recorder.sampled_out
            overhead["flight_sample"] = recorder.sample
    return overhead


def _analyze_or_report(source: str, path: str, cache=None,
                       metrics=None):
    analyzed = analyze(source, filename=path, cache=cache,
                       metrics=metrics)
    if cache is not None:
        with _writing(cache.path):
            cache.save()
    for err in analyzed.errors:
        print(f"error: {err}", file=sys.stderr)
    return analyzed


def cmd_check(args) -> int:
    analyzed = _analyze_or_report(_read(args.file), args.file)
    if analyzed.errors:
        print(f"{len(analyzed.errors)} error(s)", file=sys.stderr)
        return 1
    classes = len(analyzed.program.classes)
    kinds = len(analyzed.program.region_kinds)
    print(f"{args.file}: well-typed "
          f"({classes} classes, {kinds} region kinds)")
    return 0


def _write_exports(args, machine, mode: str) -> bool:
    """Write every export file ``run`` was asked for, each attempted
    even when an earlier one failed.  Each failed write is reported in
    one line; returns False when any failed."""
    from .obs import dump_flight, write_metrics, write_trace
    recorder, stats = machine.recorder, machine.stats
    exports = (
        (args.trace_out, lambda path: write_trace(recorder, path)),
        (args.metrics_out, lambda path: write_metrics(stats.metrics,
                                                      path)),
        (args.record_out, lambda path: dump_flight(recorder, path, meta={
            "mode": mode, "program": args.file,
            "summary": stats.summary()})),
    )
    written = True
    for path, write in exports:
        if not path:
            continue
        try:
            with _writing(path):
                write(path)
        except _FileError as err:
            print(f"error: {err}", file=sys.stderr)
            written = False
    return written


def cmd_run(args) -> int:
    from .obs import MetricsRegistry
    metrics = MetricsRegistry()
    analyzed = _analyze_or_report(_read(args.file), args.file,
                                  cache=_open_cache(args),
                                  metrics=metrics)
    if analyzed.errors:
        return 1
    # an explicit compiled backend implies the uninstrumented fast
    # path (the hooks are compiled out) — unless the user also asked
    # for an observability export, which needs live sinks and
    # therefore the interpreter/faithful forms
    wants_obs = bool(args.trace_out or args.metrics_out
                     or args.record_out or args.serve_metrics is not None
                     or getattr(args, "telemetry", None))
    instrument = not (args.backend and args.backend != "interp"
                      and not wants_obs)
    options = RunOptions(checks_enabled=args.dynamic_checks,
                         validate=not args.no_validate,
                         metrics=metrics if instrument else None,
                         record=bool(args.record_out or args.trace_out),
                         record_capacity=args.record_capacity,
                         record_sample=args.record_sample,
                         instrument=instrument,
                         backend=args.backend or "interp")
    machine = Machine(analyzed, options)
    mode = "dynamic" if args.dynamic_checks else "static"
    server = None
    if args.serve_metrics is not None:
        # live scrape endpoint for the duration of the run: /metrics
        # renders the run's own registry on every request
        from .obs.live import telemetry_routes
        from .serve.server import HTTPEdge
        routes = telemetry_routes(_telemetry_store(args), metrics)
        try:
            server = HTTPEdge("127.0.0.1", args.serve_metrics, routes)
        except OSError as err:
            # nothing has run or been written yet
            return _cannot_bind("127.0.0.1", args.serve_metrics, err)
        server.serve_background()
        # bound + listening before this prints: the line is the ready
        # signal (stderr so it never mixes with program output), and
        # the only place an ephemeral --serve-metrics 0 port appears
        print(f"REPRO-METRICS-READY host={server.host} "
              f"port={server.port}", file=sys.stderr, flush=True)
        print(f"serving /metrics on http://{server.host}:{server.port}",
              file=sys.stderr)
    failure: Optional[ReproError] = None
    try:
        result = machine.run()
        # a compiled backend bails (instead of raising) on anything it
        # cannot reproduce exactly; re-execute on its declared fallback
        # — same loop as interp.machine.execute, but keeping the final
        # machine visible to the export paths below
        while machine.program_bailed:
            options = dataclasses.replace(
                machine.options, backend=machine.program.fallback_backend)
            machine = Machine(analyzed, options)
            result = machine.run()
    except ReproError as err:
        failure = err
    finally:
        # a crashed run is when the trace is most valuable: export
        # whatever was recorded up to the failure
        exported = _write_exports(args, machine, mode)
        _record_envelope(
            args, "run", label=args.file,
            summary=machine.stats.summary(),
            metrics=metrics.to_dict(),
            flight=(machine.recorder.header()
                    if machine.recorder is not None else None),
            overhead=_observability_overhead(machine.recorder),
            meta={"mode": mode,
                  "crashed": failure is not None})
        if server is not None:
            server.close()
    if failure is not None:
        print(f"runtime error: {failure}", file=sys.stderr)
        return 2 if exported else 1
    for line in result.output:
        print(line)
    if args.stats:
        backend = (machine.program.backend
                   if machine.program is not None else "interp")
        note = (f" [{machine.codegen_fallback}]"
                if machine.codegen_fallback else "")
        print(f"--- {mode}-checks run ({backend}{note}): "
              f"{result.cycles} cycles, "
              f"{result.stats.assignment_checks} assignment checks, "
              f"{result.stats.gc_runs} GCs, "
              f"{result.stats.regions_created} regions",
              file=sys.stderr)
    if args.stats_json:
        payload = {"mode": mode}
        payload.update(result.stats.summary())
        print(json.dumps(payload, sort_keys=True))
    return 0 if exported else 1


def cmd_profile(args) -> int:
    from .obs import build_report
    analyzed = _analyze_or_report(_read(args.file), args.file,
                                  cache=_open_cache(args))
    if analyzed.errors:
        return 1
    # the report reads only the recorder's exact aggregates, so a
    # one-record ring is enough
    options = RunOptions(checks_enabled=not args.static_checks,
                         backend=args.backend or "interp",
                         record=True, record_capacity=1)
    try:
        _result, machine = execute(analyzed, options)
    except ReproError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2
    report = build_report(machine.stats, machine.regions.areas)
    _record_envelope(
        args, "profile", label=args.file,
        summary=machine.stats.summary(),
        metrics=machine.stats.metrics.to_dict(),
        meta={"profile": report.to_dict(),
              "mode": ("static" if args.static_checks else "dynamic")})
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format(top=args.top))
    return 0


def cmd_translate(args) -> int:
    analyzed = _analyze_or_report(_read(args.file), args.file)
    if analyzed.errors:
        return 1
    translation = run_translate(analyzed)
    print(translation.java)
    if args.strategies:
        print("// allocation strategies:", file=sys.stderr)
        for site in translation.sites:
            handle = f" via {site.handle}" if site.handle else ""
            print(f"//   line {site.line}: new {site.class_name} -> "
                  f"{site.strategy.name}{handle}", file=sys.stderr)
    return 0


def cmd_infer(args) -> int:
    analyzed = _analyze_or_report(_read(args.file), args.file)
    print(pretty_program(analyzed.program), end="")
    return 1 if analyzed.errors else 0


def cmd_compile(args) -> int:
    from .interp.codegen_base import CodegenUnsupported
    from .interp.codegen_py import erased_source
    analyzed = _analyze_or_report(_read(args.file), args.file)
    if analyzed.errors:
        return 1
    try:
        text = erased_source(analyzed, checks=args.dynamic_checks)
    except CodegenUnsupported as err:
        print(f"compile error: {err}", file=sys.stderr)
        return 2
    print(text, end="")
    return 0


def cmd_lint(args) -> int:
    from .tools import format_report, lint_effects
    analyzed = _analyze_or_report(_read(args.file), args.file)
    if analyzed.errors:
        return 1
    reports = lint_effects(analyzed)
    print(format_report(reports, only_redundant=not args.all))
    return 0


def cmd_advise(args) -> int:
    from .tools import advise
    analyzed = _analyze_or_report(_read(args.file), args.file)
    if analyzed.errors:
        return 1
    try:
        report = advise(analyzed)
    except ReproError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2
    print(report.format())
    return 0


def _measure(args):
    """Run ``--suite``; returns (payload, None) or (None, exit code)."""
    suite = args.suite
    if args.only and suite in ("frontend", "serve-chaos"):
        print("error: --only applies to the interp, codegen and serve "
              "suites", file=sys.stderr)
        return None, 1
    if args.only:
        from .bench.suite import BENCHMARKS
        unknown = [n for n in args.only if n not in BENCHMARKS]
        if unknown:
            print(f"error: unknown benchmark(s) {unknown}; known: "
                  f"{sorted(BENCHMARKS)}", file=sys.stderr)
            return None, 1
    if suite == "frontend":
        from .bench import frontend
        return frontend.measure(repeats=args.repeats,
                                cache_dir=args.analysis_cache), None
    if suite == "codegen":
        from .bench import codegen
        from .bench.compare import set_bound
        if args.backend == "interp":
            print("error: the codegen suite measures codegen backends "
                  "against the interpreter; pick py or c",
                  file=sys.stderr)
            return None, 1
        # --backend narrows the measured backends; default is every
        # codegen backend (C auto-skips without a toolchain)
        payload = codegen.measure(
            args.only, backends=[args.backend] if args.backend else None,
            fast=not args.full, repeats=args.repeats)
        if args.min_speedup:
            set_bound(payload, "aggregate", "static",
                      args.backend or "py", "speedup_vs_seed",
                      floor=args.min_speedup)
        return payload, None
    if suite == "serve":
        from .bench import serve
        return serve.measure(args.only, fast=not args.full,
                             workers=args.serve_workers,
                             clients=args.serve_clients), None
    if suite == "serve-chaos":
        from .bench import serve_chaos
        return serve_chaos.measure(workers=args.serve_workers,
                                   fast=not args.full), None
    from .bench import timing
    return timing.measure(args.only, fast=not args.full,
                          repeats=args.repeats), None


def _load_payloads(paths, what: str):
    """``repro-bench/2`` payloads from ``paths``; None (after one
    ``error:`` line) when one cannot be read."""
    from .bench.compare import load_payload
    payloads = []
    for path in paths:
        try:
            payloads.append(load_payload(path))
        except (OSError, ValueError) as err:
            print(f"error: cannot load {what} {path}: {err}",
                  file=sys.stderr)
            return None
    return payloads


def _print_failures(suite: str, messages) -> None:
    for message in messages:
        print(f"{suite} gate: {message}", file=sys.stderr)


def cmd_bench(args) -> int:
    from .bench.compare import (failures, judge, render_table,
                                save_payload)

    loaded = _load_payloads(filter(None, (args.compare,
                                          args.merge_baseline)),
                            "payload")
    if loaded is None:
        return 1
    baseline = loaded.pop(0) if args.compare else None
    merged = loaded.pop(0) if args.merge_baseline else None
    if baseline is not None and baseline["suite"] != args.suite:
        print(f"error: {args.compare} holds the {baseline['suite']} "
              f"suite, not {args.suite}", file=sys.stderr)
        return 1
    payload, err = _measure(args)
    if err is not None:
        return err
    if merged is not None:
        # embed a prior payload as the "baseline" so the committed
        # artifact itself records the before/after story
        payload["baseline"] = dict(merged, baseline=None)
    elif baseline is not None:
        payload["baseline"] = baseline.get("baseline")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_table(payload, payload["baseline"] or baseline))
    if args.out:
        with _writing(args.out):
            save_payload(payload, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    _record_envelope(args, "bench", label=args.suite,
                     bench={"suite": args.suite, "payload": payload})
    failed = failures(judge(payload, baseline, threshold=args.threshold))
    if failed:
        _print_failures(args.suite, failed)
        return 3
    if baseline is not None:
        print(f"no regression vs {args.compare} "
              f"(threshold +{args.threshold * 100:.0f}%)",
              file=sys.stderr)
    return 0


def _print_serve_chaos(args, report, replayed: bool = False) -> int:
    from .serve.chaos import campaign_telemetry
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        contract = report.get("contract") or {}
        verb = "replayed" if replayed else "campaign:"
        counts = ", ".join(f"{k}={v}" for k, v in
                           sorted((report.get("faults") or {}).items()))
        print(f"serve {verb} {report['requests']} requests, "
              f"{report['fault_total']} faults ({counts}) in "
              f"{report['wall_s']}s -> {report['status']}")
        print(f"contract: lost={contract.get('lost_requests')} "
              f"parity_breaks={contract.get('parity_failures')} "
              f"respawns={contract.get('worker_restarts')} "
              f"quarantined={contract.get('quarantined_shards')} "
              f"recovered={contract.get('recovered_healthy')}")
        if "replay_ok" in report:
            print("replay: " + ("bit-for-bit" if report["replay_ok"]
                                else "MISMATCH"))
    for failure in report.get("failures") or []:
        print(f"chaos failure: {failure}", file=sys.stderr)
    for mismatch in report.get("mismatches") or []:
        print(f"replay mismatch: {mismatch}", file=sys.stderr)
    for failure in report.get("replay_failures") or []:
        print(f"replay-run failure: {failure}", file=sys.stderr)
    _record_envelope(args, "chaos", label="target=serve",
                     seed=getattr(args, "seed_base", None),
                     chaos=campaign_telemetry(report))
    return 0 if report["ok"] else 4


def cmd_chaos(args) -> int:
    import glob
    import os

    from .chaos import run_chaos
    from .faults import FaultPlan, ScheduleError, replay_schedule

    if args.replay:
        # an optional PROGRAM replaces the source the schedule embeds
        if len(args.paths) > 1:
            print("error: --replay takes at most one PROGRAM",
                  file=sys.stderr)
            return 1
        source = _read(args.paths[0]) if args.paths else None
        try:
            report = replay_schedule(args.replay, source=source)
        except ScheduleError as err:
            print(f"invalid fault schedule: {err}", file=sys.stderr)
            return 1
        if report["target"] == "serve":
            return _print_serve_chaos(args, report, replayed=True)
        outcome = report["outcome"]
        print(f"{outcome.program}: replayed {len(outcome.faults)} "
              f"fault(s), status={report['status']}, "
              f"cycles={outcome.cycles}")
        for mismatch in report["mismatches"]:
            print(f"replay mismatch: {mismatch}", file=sys.stderr)
        return 0 if report["ok"] else 4

    if args.target == "serve":
        from .serve.chaos import run_serve_chaos
        schedule_path = None
        if args.schedule_out:
            os.makedirs(args.schedule_out, exist_ok=True)
            schedule_path = os.path.join(
                args.schedule_out,
                f"serve-seed{args.seed_base}.schedule.jsonl")
        report = run_serve_chaos(seed=args.seed_base,
                                 requests=args.requests,
                                 workers=args.serve_workers,
                                 verify=not args.no_verify,
                                 schedule_path=schedule_path)
        if schedule_path:
            print(f"wrote {schedule_path}", file=sys.stderr)
        return _print_serve_chaos(args, report)

    try:
        plan = FaultPlan(rate=args.rate,
                         sites=tuple(args.sites) if args.sites else None,
                         magnitudes={"gc_spike_factor": args.gc_spike})
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    paths = args.paths or sorted(glob.glob(
        os.path.join("examples", "*.py")))
    corpus = []
    for path in paths:
        text = _read_text(path)
        if path.endswith(".py"):
            match = _EMBEDDED_PROGRAM.search(text)
            if match is None:
                print(f"chaos: skipping {path} (no embedded PROGRAM)",
                      file=sys.stderr)
                continue
            text = match.group(1)
        corpus.append((os.path.basename(path), text))
    if not corpus:
        print("error: no programs to run", file=sys.stderr)
        return 1
    if args.schedule_out:
        os.makedirs(args.schedule_out, exist_ok=True)
    seeds = [args.seed_base + i for i in range(args.seeds)]
    report = run_chaos(corpus, seeds, plan,
                       max_cycles=args.max_cycles,
                       verify=not args.no_verify,
                       schedule_dir=args.schedule_out or None,
                       backend=args.backend or "interp")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for entry in report["results"]:
            replayed = ""
            if "replay_ok" in entry:
                replayed = (" replay=ok" if entry["replay_ok"]
                            else " replay=MISMATCH")
            print(f"{entry['program']} seed={entry['seed']}: "
                  f"{entry['status']} ({entry['faults']} faults, "
                  f"{entry['cycles']} cycles{replayed})")
        counts = ", ".join(f"{k}={v}" for k, v
                           in sorted(report["statuses"].items()))
        print(f"--- {report['runs']} runs: {counts}, "
              f"{report['faults_injected']} faults injected",
              file=sys.stderr)
    for failure in report["failures"]:
        print(f"chaos failure: {failure}", file=sys.stderr)
    from .chaos import campaign_telemetry
    _record_envelope(args, "chaos", label=f"seeds={args.seeds}",
                     seed=args.seed_base,
                     chaos=campaign_telemetry(report))
    return 0 if report["ok"] else 4


def _load_dump(path: str, what: str = ""):
    """Load and validate one flight dump: ``(header, records)``, or
    ``None`` after one ``invalid flight record{what}: ...`` line per
    problem."""
    from .obs.flightrec import load_flight, validate_flight
    try:
        header, records = load_flight(path)
    except (OSError, ValueError, KeyError) as err:
        problems = [str(err)]
    else:
        problems = validate_flight(header, records)
    for problem in problems:
        print(f"invalid flight record{what}: {problem}", file=sys.stderr)
    return None if problems else (header, records)


def cmd_inspect(args) -> int:
    from .obs.analyze import build_report, report_json

    loaded = _load_dump(args.dump)
    if loaded is None:
        return 1
    header, records = loaded
    compare = None
    if args.compare:
        loaded = _load_dump(args.compare, " (--compare)")
        if loaded is None:
            return 1
        compare = loaded[0]
    schedule = None
    if args.schedule:
        from .faults import ScheduleError, load_schedule
        try:
            _, schedule, _ = load_schedule(args.schedule,
                                           target="runtime")
        except ScheduleError as err:
            print(f"invalid fault schedule: {err}", file=sys.stderr)
            return 1
    report = build_report(header, records, schedule=schedule,
                          compare=compare)
    if args.html:
        with _writing(args.html), \
                open(args.html, "w", encoding="utf-8") as handle:
            handle.write(report.to_html())
        print(f"wrote {args.html}", file=sys.stderr)
    if args.json:
        print(report_json(report))
    elif args.ledger:
        print(report.format_ledger())
    elif not args.html:
        print(report.format())
    if args.trace:
        # join the runtime flight record to its request trace: a
        # traced serve dump stamps the trace id into the header meta
        from .obs.trace import load_traces, render_trace_text
        trace_id = (header.get("meta") or {}).get("trace_id")
        if not trace_id:
            print("inspect: flight header carries no trace_id "
                  "(not a traced serve dump)", file=sys.stderr)
            return 1
        try:
            _trace_header, trace_records = load_traces(args.trace)
        except (OSError, ValueError) as err:
            print(f"invalid trace dump (--trace): {err}",
                  file=sys.stderr)
            return 1
        match = next((r for r in trace_records
                      if r.get("trace") == trace_id), None)
        if match is None:
            print(f"inspect: trace {trace_id} not retained in "
                  f"{args.trace}", file=sys.stderr)
            return 1
        print(f"-- request trace (joined via header meta) --")
        print(render_trace_text(match))
    if report.mismatches:
        for problem in report.mismatches:
            print(f"inspect: {problem}", file=sys.stderr)
        return 2
    return 0


def _cannot_bind(host: str, port: int, err: OSError) -> int:
    """Report a failed listen in one line; the exit status."""
    print(f"error: cannot bind {host}:{port}: {err.strerror or err}",
          file=sys.stderr)
    return 1


def cmd_metricsd(args) -> int:
    from .obs.live import telemetry_routes
    from .obs.telemetry import TelemetryStore
    from .serve.server import HTTPEdge

    store = TelemetryStore(args.store)
    routes = telemetry_routes(store)
    try:
        server = HTTPEdge(args.host, args.port, routes)
    except OSError as err:
        return _cannot_bind(args.host, args.port, err)
    # the constructor bound the socket, so the kernel is already
    # queueing connections: this line IS the readiness signal, and
    # with --port 0 it is the only place the real port appears.
    # machine-readable, flushed, on stdout — scripts parse it and
    # connect immediately instead of polling a maybe-dead port
    print(f"REPRO-METRICSD-READY host={server.host} "
          f"port={server.port}", flush=True)
    print(f"repro metricsd: serving http://{server.host}:{server.port}"
          f" (store: {store.root})", file=sys.stderr)
    print(f"routes: /metrics /healthz /runs /runs/<sha>",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro metricsd: shutting down", file=sys.stderr)
    finally:
        server.close()
    return 0


def cmd_serve(args) -> int:
    import signal

    from .faults import FaultInjector, FaultPlan
    from .serve import ServeConfig, ServeService

    # deterministic fault injection for smoke/chaos drills: the seed
    # fixes the schedule, max-faults bounds the blast radius
    try:
        plan = FaultPlan(seed=args.fault_seed, rate=args.fault_rate,
                         sites=("worker_crash",),
                         max_faults=args.max_faults, target="serve")
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    def _graceful(_signum, _frame):
        # supervisors stop services with SIGTERM; route it through the
        # KeyboardInterrupt path so the worker pool is reaped instead
        # of orphaned (forked workers must never outlive the frontend)
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _graceful)
    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_depth=args.queue_depth,
        quota_rate=args.quota_rate, quota_burst=args.quota_burst,
        cache_dir=args.cache_dir,
        default_backend=args.backend or "py",
        default_deadline_ms=args.deadline_ms,
        tracing=not args.no_trace,
        trace_capacity=args.trace_capacity,
        trace_sample=args.trace_sample,
        access_log=args.access_log,
        flight_dir=args.flight_dir)
    injector = FaultInjector(plan) if plan.rate > 0 else None
    try:
        service = ServeService(config, fault_injector=injector)
    except OSError as err:
        if config.access_log and err.filename == config.access_log:
            # the access log is the one file the service opens, before
            # any worker forks: report it as every other unwritable path
            with _writing(config.access_log):
                raise
        # otherwise the bind failed (the service has reaped its pool)
        return _cannot_bind(config.host, config.port, err)
    # workers are forked and the socket is listening: connections are
    # already queueing in the backlog, so this ready line is accurate
    # (and, for --port 0, the only place the real port appears)
    print(f"REPRO-SERVE-READY host={service.host} port={service.port} "
          f"workers={config.workers}", flush=True)
    print(f"repro serve: http://{service.host}:{service.port} "
          f"(workers={config.workers}, queue={config.queue_depth}, "
          f"cache={config.cache_dir}, "
          f"tracing={'on' if config.tracing else 'off'})",
          file=sys.stderr)
    print("routes: POST /v1/analyze /v1/run /v1/inspect; "
          "GET /healthz /livez /readyz /metrics /traces "
          "/traces/<id>", file=sys.stderr)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        if args.trace_out:
            from .obs.trace import dump_traces
            try:
                n = dump_traces(service.traces.snapshot(),
                                args.trace_out,
                                meta=service.traces.stats())
                print(f"repro serve: wrote {n} trace line(s) to "
                      f"{args.trace_out}", file=sys.stderr)
            except OSError as err:
                print(f"repro serve: trace dump failed: {err}",
                      file=sys.stderr)
        service.close()
    return 0


def cmd_trace(args) -> int:
    """``repro trace`` — the critical-path analyzer over retained
    request traces (a dump file or a live ``/traces`` endpoint)."""
    import json as jsonlib

    from .obs.trace import (analyze_traces, load_traces,
                            render_report_html, render_report_text,
                            render_trace_text, validate_trace)

    if args.url:
        import io
        import urllib.request
        url = args.url.rstrip("/")
        if not url.endswith("/traces"):
            url += "/traces"
        try:
            with urllib.request.urlopen(url, timeout=30) as resp:
                text = resp.read().decode("utf-8")
        except OSError as err:
            print(f"trace: fetch {url} failed: {err}",
                  file=sys.stderr)
            return 1
        source = io.StringIO(text)
    elif args.dump:
        source = args.dump
    else:
        print("trace: need a DUMP file or --url", file=sys.stderr)
        return 1
    try:
        header, records = load_traces(source)
    except (OSError, ValueError) as err:
        print(f"invalid trace dump: {err}", file=sys.stderr)
        return 1
    if args.trace_id:
        matches = [r for r in records
                   if str(r.get("trace", ""))
                   .startswith(args.trace_id)]
        if not matches:
            print(f"trace: no retained trace matching "
                  f"{args.trace_id!r} "
                  f"({len(records)} records searched)",
                  file=sys.stderr)
            return 1
        problems = []
        for record in matches:
            print(render_trace_text(record))
            problems.extend(validate_trace(record))
        for problem in problems:
            print(f"trace: {problem}", file=sys.stderr)
        return 2 if problems else 0
    report = analyze_traces(records, tail=args.tail)
    if args.html:
        with _writing(args.html), \
                open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_report_html(report, records))
        print(f"wrote {args.html}", file=sys.stderr)
    if args.json:
        print(jsonlib.dumps(report, sort_keys=True, indent=2))
    elif not args.html:
        print(render_report_text(report))
    # the per-trace span payloads stay out of the envelope — the
    # aggregate report is the durable artifact
    _record_envelope(args, "trace",
                     label=args.label or "trace",
                     summary=report)
    if report["problems"]:
        for problem in report["problems"]:
            print(f"trace: {problem}", file=sys.stderr)
        return 2
    return 0


def cmd_report(args) -> int:
    import os

    from .bench.compare import SCHEMA
    from .obs.report import BASELINE_FILES, RENDERERS, build_report
    from .obs.telemetry import TelemetryStore

    defaults = [path for path in BASELINE_FILES.values()
                if os.path.exists(path)]
    given = _load_payloads(args.baseline, "baseline")
    current = _load_payloads(args.current, "current payload")
    committed = _load_payloads(defaults, "baseline")
    if given is None or current is None or committed is None:
        return 1
    # an explicit --baseline replaces the committed file of its suite
    baselines = {p["suite"]: p for p in committed + given}
    report = build_report(TelemetryStore(args.store),
                          baselines=baselines,
                          current={p["suite"]: p for p in current},
                          history=args.history,
                          threshold=args.threshold)
    if report["skipped_envelopes"]:
        print(f"repro report: skipped {report['skipped_envelopes']} "
              f"recorded bench envelope(s) whose payload is not "
              f"{SCHEMA}", file=sys.stderr)
    if not report["suites"]:
        print("repro report: nothing to judge (no committed baselines "
              "and no recorded bench envelopes)", file=sys.stderr)
        return 1
    rendered = RENDERERS[args.format](report)
    if args.out:
        with _writing(args.out), \
                open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    if not report["ok"]:
        for suite, data in report["suites"].items():
            _print_failures(suite, data["failures"])
        return 3
    judged = sum(v["verdict"] == "ok" for s in report["suites"].values()
                 for v in s["rows"])
    print(f"no regression across {judged} judged row(s)",
          file=sys.stderr)
    return 0


def cmd_graph(args) -> int:
    analyzed = _analyze_or_report(_read(args.file), args.file)
    if analyzed.errors:
        return 1
    machine = Machine(analyzed, RunOptions())
    try:
        machine.run()
    except ReproError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2
    print(machine.ownership_graph(include_dead=args.include_dead).to_dot())
    return 0


def _shared_parents():
    """Parent parsers for the flags shared by run/profile/bench/chaos.

    One definition each — the per-command copies had already drifted in
    wording, and a new flag (``--backend``) would have needed four more
    copies.  ``add_help=False`` is the stock argparse parent idiom.
    """
    backend = argparse.ArgumentParser(add_help=False)
    backend.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="execution backend: the coroutine interpreter (default), "
             "compiled Python source ('py': fused straight-line code "
             "with checks erased at emit time where possible, faithful "
             "generator transliteration otherwise), or compiled C via "
             "cffi ('c', static mode only).  Unsupported program/"
             "configuration combinations fall back toward the "
             "interpreter with identical observable behaviour")
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument(
        "--analysis-cache", metavar="DIR",
        help="persist the incremental analysis cache under DIR; "
             "re-runs after an edit only re-check the classes that "
             "changed (frontend bench suite: backs the warm "
             "measurement's cache with JSON files under DIR)")
    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry.add_argument(
        "--telemetry", action="store_true",
        help="append a telemetry envelope to the content-addressed "
             "store under .repro/telemetry/")
    telemetry.add_argument(
        "--telemetry-store", metavar="DIR",
        help="store root for --telemetry (implies it; "
             "default .repro/telemetry)")
    return backend, cache, telemetry


def _number(convert, noun: str, low, strict: bool = False):
    """An argparse type: a finite number >= ``low`` (> ``low`` when
    ``strict``); anything else is a usage error (exit 2)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not math.isfinite(value) or value < low \
                or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"expected {noun}, got {text!r}")
        return value
    return parse


_positive_int = _number(int, "a positive integer", 1)
_count = _number(int, "a non-negative integer", 0)
_threshold = _number(float, "a finite fraction >= 0", 0.0)
_positive_float = _number(float, "a finite number > 0", 0.0, strict=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_backend, p_cache, p_telemetry = _shared_parents()

    p_check = sub.add_parser("check", help="typecheck a program")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", help="typecheck and execute",
                           parents=[p_backend, p_cache, p_telemetry])
    p_run.add_argument("file")
    p_run.add_argument("--dynamic-checks", action="store_true",
                       help="perform + charge the RTSJ dynamic checks")
    p_run.add_argument("--no-validate", action="store_true",
                       help="skip free check validation")
    p_run.add_argument("--stats", action="store_true",
                       help="print cycle/check statistics to stderr")
    p_run.add_argument("--stats-json", action="store_true",
                       help="print the machine-readable run summary as "
                            "one JSON object on stdout")
    p_run.add_argument("--trace-out", metavar="FILE",
                       help="arm the flight recorder and write its "
                            "window as a JSON Lines span trace (region "
                            "enter/exit spans, allocations, checks)")
    p_run.add_argument("--metrics-out", metavar="FILE",
                       help="write end-of-run metrics in Prometheus "
                            "text format")
    p_run.add_argument("--record-out", metavar="FILE",
                       help="arm the flight recorder and dump the "
                            "post-mortem event ring as JSONL (cycle-"
                            "neutral; feed the file to `repro inspect`)")
    p_run.add_argument("--record-capacity", type=_positive_int,
                       default=1 << 16, metavar="N",
                       help="flight-recorder ring size in records; the "
                            "ring keeps the newest (default 65536)")
    p_run.add_argument("--record-sample", type=_positive_int, default=1,
                       metavar="N",
                       help="store only every N-th high-volume flight "
                            "record per kind; exact aggregates are "
                            "kept regardless (default 1)")
    p_run.add_argument("--serve-metrics", type=int, metavar="PORT",
                       help="serve /metrics, /healthz and /runs over "
                            "HTTP for the duration of the run "
                            "(0 = ephemeral port)")
    p_run.set_defaults(func=cmd_run)

    p_prof = sub.add_parser(
        "profile", help="run and report where the cycles went",
        parents=[p_backend, p_cache, p_telemetry])
    p_prof.add_argument("file")
    p_prof.add_argument("--static-checks", action="store_true",
                        help="profile the statically-checked build "
                             "(dynamic checks are on by default, so "
                             "their cost is visible)")
    p_prof.add_argument("--top", type=_count, default=10,
                        help="call sites to list (default 10)")
    p_prof.add_argument("--json", action="store_true",
                        help="emit the profile as JSON")
    p_prof.set_defaults(func=cmd_profile)

    p_tr = sub.add_parser("translate",
                          help="emit the pseudo-RTSJ-Java erasure")
    p_tr.add_argument("file")
    p_tr.add_argument("--strategies", action="store_true",
                      help="also list per-new-site handle strategies")
    p_tr.set_defaults(func=cmd_translate)

    p_inf = sub.add_parser("infer",
                           help="print the program after inference")
    p_inf.add_argument("file")
    p_inf.set_defaults(func=cmd_infer)

    p_comp = sub.add_parser(
        "compile", help="compile to erased Python (Section 2.6)")
    p_comp.add_argument("file")
    p_comp.add_argument("--dynamic-checks", action="store_true",
                        help="emit the RTSJ build with store checks")
    p_comp.set_defaults(func=cmd_compile)

    p_lint = sub.add_parser(
        "lint", help="find redundant `accesses` effects")
    p_lint.add_argument("file")
    p_lint.add_argument("--all", action="store_true",
                        help="show every method, not just redundant ones")
    p_lint.set_defaults(func=cmd_lint)

    p_adv = sub.add_parser(
        "advise", help="profile a run and suggest LT region budgets")
    p_adv.add_argument("file")
    p_adv.set_defaults(func=cmd_advise)

    p_bench = sub.add_parser(
        "bench", help="wall-clock benchmark of the interpreter, the "
                      "static frontend, or the codegen backends",
        parents=[p_backend, p_cache, p_telemetry])
    p_bench.add_argument("--suite",
                         choices=("interp", "frontend", "codegen",
                                  "serve", "serve-chaos"),
                         default="interp",
                         help="what to benchmark: the interpreter hot "
                              "loop (default), the static frontend's "
                              "cold/warm analyze() path, the codegen "
                              "backends with their differential "
                              "equivalence gate, the serve load "
                              "suite (closed-loop clients against a "
                              "live worker pool, with throughput/"
                              "latency/parity gates), or the serve "
                              "resilience gate (a seeded chaos "
                              "campaign with bit-for-bit replay)")
    p_bench.add_argument("--serve-workers", type=_positive_int,
                         default=2, metavar="N",
                         help="serve suite: worker processes behind "
                              "the benched service (default 2)")
    p_bench.add_argument("--serve-clients", type=_positive_int, default=4,
                         metavar="N",
                         help="serve suite: closed-loop client threads "
                              "in the warm phase (default 4)")
    p_bench.add_argument("--min-speedup", type=_positive_float,
                         default=None,
                         metavar="X",
                         help="codegen suite: fail (exit 3) unless the "
                              "aggregate static-mode speedup vs the "
                              "seed interpreter baseline reaches X "
                              "(judged on --backend, default py)")
    p_bench.add_argument("--full", action="store_true",
                         help="use the full benchmark parameters "
                              "(default: fast parameters)")
    p_bench.add_argument("--repeats", type=_positive_int, default=3,
                         help="timing repeats per benchmark/mode; the "
                              "best run is reported (default 3)")
    p_bench.add_argument("--only", nargs="+", metavar="NAME",
                         help="run a subset of the registry")
    p_bench.add_argument("--out", metavar="FILE",
                         help="write the JSON payload (e.g. "
                              "BENCH_interp.json)")
    p_bench.add_argument("--compare", metavar="FILE",
                         help="judge against a prior payload; exit 3 "
                              "on wall-clock regression, determinism "
                              "break or missing row")
    p_bench.add_argument("--threshold", type=_threshold, default=0.30,
                         help="fractional wall-clock regression allowed "
                              "by --compare (default 0.30)")
    p_bench.add_argument("--merge-baseline", metavar="FILE",
                         help="embed FILE as the payload's 'baseline' "
                              "section (records before/after in the "
                              "committed artifact)")
    p_bench.add_argument("--json", action="store_true",
                         help="print the payload as JSON instead of a "
                              "table")
    p_bench.set_defaults(func=cmd_bench)

    p_chaos = sub.add_parser(
        "chaos", help="seeded fault-injection campaign with sanitizer "
                      "and replay verification",
        parents=[p_backend, p_telemetry])
    p_chaos.add_argument("paths", nargs="*",
                         help="programs to perturb (default: "
                              "examples/*.py with an embedded PROGRAM); "
                              "with --replay, one program to run in "
                              "place of the source the schedule embeds")
    p_chaos.add_argument("--target", choices=("runtime", "serve"),
                         default="runtime",
                         help="what to perturb: the RTSJ runtime "
                              "(default) or a live serve worker pool "
                              "(service-level faults: worker kills, "
                              "stalls, pipe failures, torn cache "
                              "shards, latency spikes)")
    p_chaos.add_argument("--requests", type=_positive_int, default=32,
                         help="serve target: campaign traffic "
                              "(default 32; topped up until the "
                              "schedule minima are met)")
    p_chaos.add_argument("--serve-workers", type=_positive_int,
                         default=2, metavar="N",
                         help="serve target: worker processes behind "
                              "the campaigned service (default 2)")
    p_chaos.add_argument("--seeds", type=_positive_int, default=5,
                         help="fault plans per program (default 5)")
    p_chaos.add_argument("--seed-base", type=int, default=0,
                         help="first seed (default 0)")
    p_chaos.add_argument("--rate", type=float, default=0.02,
                         help="per-consult injection probability at "
                              "every site (default 0.02)")
    p_chaos.add_argument("--sites", nargs="+", metavar="SITE",
                         help="restrict injection to these fault sites")
    p_chaos.add_argument("--gc-spike", type=int, default=8,
                         help="GC pause multiplier for gc_pause_spike "
                              "(default 8)")
    p_chaos.add_argument("--max-cycles", type=int,
                         default=5_000_000,
                         help="per-run clock bound (default 5M; keeps "
                              "degraded runs from running away)")
    p_chaos.add_argument("--no-verify", action="store_true",
                         help="skip the deterministic-replay check")
    p_chaos.add_argument("--schedule-out", metavar="DIR",
                         help="persist each run's fault schedule as a "
                              "replayable JSONL file under DIR")
    p_chaos.add_argument("--replay", metavar="FILE",
                         help="re-execute one persisted schedule "
                              "bit-for-bit instead of a campaign")
    p_chaos.add_argument("--json", action="store_true",
                         help="print the campaign report as JSON")
    p_chaos.set_defaults(func=cmd_chaos)

    p_ins = sub.add_parser(
        "inspect", help="post-mortem analysis of a flight-recorder "
                        "dump: region lifetimes, leak suspects, portal "
                        "contention, stall attribution, and the check-"
                        "elimination ledger")
    p_ins.add_argument("dump", help="a *.flight.jsonl file from "
                                    "`repro run --record-out` or a "
                                    "chaos auto-dump")
    p_ins.add_argument("--compare", metavar="DUMP",
                       help="a second dump (the other check mode) for "
                            "the Figure 12 dynamic-vs-static comparison")
    p_ins.add_argument("--schedule", metavar="FILE",
                       help="join a chaos *.schedule.jsonl: map each "
                            "injected fault to its recovery/crash "
                            "events")
    p_ins.add_argument("--ledger", action="store_true",
                       help="print only the check-elimination ledger")
    p_ins.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")
    p_ins.add_argument("--html", metavar="FILE",
                       help="write a self-contained HTML report")
    p_ins.add_argument("--trace", metavar="FILE",
                       help="join a request-trace dump (repro serve "
                            "--trace-out): print the span tree whose "
                            "trace id this flight record carries")
    p_ins.set_defaults(func=cmd_inspect)

    p_md = sub.add_parser(
        "metricsd", help="serve the telemetry store over HTTP "
                         "(/metrics, /healthz, /runs)")
    p_md.add_argument("--host", default="127.0.0.1",
                      help="bind address (default 127.0.0.1)")
    p_md.add_argument("--port", type=int, default=9464,
                      help="port (default 9464; 0 = ephemeral)")
    p_md.add_argument("--store", metavar="DIR",
                      default=".repro/telemetry",
                      help="telemetry store root "
                           "(default .repro/telemetry)")
    p_md.set_defaults(func=cmd_metricsd)

    p_srv = sub.add_parser(
        "serve", help="analysis-as-a-service over a pre-forked pool "
                      "of warm workers (POST /v1/analyze /v1/run "
                      "/v1/inspect; GET /healthz /metrics)")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8750,
                       help="port (default 8750; 0 = ephemeral, "
                            "reported on the READY line)")
    p_srv.add_argument("--workers", type=_positive_int, default=2,
                       metavar="N",
                       help="pre-forked warm worker processes "
                            "(default 2)")
    p_srv.add_argument("--queue-depth", type=int, default=64,
                       metavar="N",
                       help="admission bound: queued+in-flight jobs "
                            "past N shed with 429 (default 64)")
    p_srv.add_argument("--quota-rate", type=float, default=0.0,
                       metavar="R",
                       help="per-tenant token-bucket refill rate, "
                            "req/s (default 0 = quotas off)")
    p_srv.add_argument("--quota-burst", type=float, default=0.0,
                       metavar="B",
                       help="per-tenant bucket capacity (default "
                            "max(rate, 1))")
    p_srv.add_argument("--cache-dir", metavar="DIR",
                       default=".repro/serve-cache",
                       help="shared content-addressed AnalysisCache "
                            "tree (default .repro/serve-cache)")
    p_srv.add_argument("--backend", choices=BACKENDS,
                       default=None,
                       help="default execution backend when a request "
                            "names none (default py)")
    p_srv.add_argument("--deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="default per-request deadline when a "
                            "request names none (default: unbounded)")
    trace_switch = p_srv.add_mutually_exclusive_group()
    trace_switch.add_argument("--no-trace", action="store_true",
                              help="disable request tracing (span "
                                   "trees, tail sampling, "
                                   "X-Repro-Trace-Id; on by default)")
    p_srv.add_argument("--trace-sample", type=int, default=16,
                       metavar="N",
                       help="retain 1-in-N healthy fast traces; the "
                            "tail — errors, faults, degradation, "
                            "slower-than-p99 — is always retained "
                            "(default 16; 1 = keep everything)")
    p_srv.add_argument("--trace-capacity", type=int, default=512,
                       metavar="N",
                       help="retained-trace ring size (default 512)")
    trace_switch.add_argument("--trace-out", metavar="FILE",
                              help="dump retained traces as JSONL at "
                                   "shutdown (repro trace reads this)")
    p_srv.add_argument("--access-log", metavar="FILE",
                       help="append one JSON line per request (trace "
                            "id, tenant, status, rung, queue/compute "
                            "ms); written off the response path")
    p_srv.add_argument("--flight-dir", metavar="DIR",
                       help="workers dump each traced /v1/inspect "
                            "job's flight record here, keyed by "
                            "trace id (repro inspect --trace joins "
                            "them)")
    p_srv.add_argument("--fault-rate", type=float, default=0.0,
                       metavar="R",
                       help="deterministic worker-crash injection "
                            "rate for smoke drills (default 0 = off)")
    p_srv.add_argument("--fault-seed", type=int, default=0,
                       help="seed for --fault-rate's schedule "
                            "(default 0)")
    p_srv.add_argument("--max-faults", type=int, default=1,
                       metavar="N",
                       help="cap injected faults for --fault-rate "
                            "(default 1)")
    p_srv.set_defaults(func=cmd_serve)

    p_trc = sub.add_parser(
        "trace", help="critical-path analysis over retained request "
                      "traces: per-request span trees, the "
                      "where-does-p99-go table, queue-vs-compute "
                      "decomposition",
        parents=[p_telemetry])
    p_trc.add_argument("dump", nargs="?",
                       help="a trace dump (repro serve --trace-out) "
                            "or a saved GET /traces response")
    p_trc.add_argument("--url", metavar="URL",
                       help="fetch live traces from a running serve "
                            "(base URL or .../traces)")
    p_trc.add_argument("--trace-id", metavar="ID",
                       help="print the span tree(s) for one trace id "
                            "(prefix match) instead of the aggregate")
    p_trc.add_argument("--tail", type=float, default=0.99,
                       help="tail percentile for the breakdown "
                            "(default 0.99)")
    p_trc.add_argument("--label", default="",
                       help="label for the --telemetry envelope")
    p_trc.add_argument("--json", action="store_true",
                       help="print the aggregate report as JSON")
    p_trc.add_argument("--html", metavar="FILE",
                       help="write a self-contained HTML report")
    p_trc.set_defaults(func=cmd_trace)

    p_rep = sub.add_parser(
        "report", help="cross-run regression observatory over the "
                       "telemetry store and committed bench baselines; "
                       "exits 3 on regression")
    p_rep.add_argument("--store", metavar="DIR",
                       default=".repro/telemetry",
                       help="telemetry store root "
                            "(default .repro/telemetry)")
    p_rep.add_argument("--baseline", metavar="FILE", action="append",
                       default=[],
                       help="baseline payload; replaces the committed "
                            "BENCH_*.json of the suite it names "
                            "(repeatable)")
    p_rep.add_argument("--current", metavar="FILE", action="append",
                       default=[],
                       help="judge this payload instead of the newest "
                            "recorded bench envelope of the suite it "
                            "names (repeatable)")
    p_rep.add_argument("--history", type=_count, default=50,
                       help="recorded bench runs consulted "
                            "(default 50)")
    p_rep.add_argument("--threshold", type=_threshold, default=0.30,
                       help="base fractional wall-clock threshold, "
                            "widened by history spread (default 0.30)")
    p_rep.add_argument("--format", choices=("text", "json", "html"),
                       default="text",
                       help="rendering (default text)")
    p_rep.add_argument("--out", metavar="FILE",
                       help="write the rendering to FILE instead of "
                            "stdout")
    p_rep.set_defaults(func=cmd_report)

    p_graph = sub.add_parser("graph",
                             help="emit the ownership graph (dot)")
    p_graph.add_argument("file")
    p_graph.add_argument("--include-dead", action="store_true")
    p_graph.set_defaults(func=cmd_graph)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_FileError, LexError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream pager/head closed the pipe; not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
