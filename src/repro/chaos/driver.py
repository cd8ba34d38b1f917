"""The chaos campaign driver.

One *campaign* runs every program in a corpus under N seeded fault
plans, with the region sanitizer armed and graceful degradation on, and
asserts the robustness contract:

* **no crash without a diagnostic** — every failing run ends in a
  structured :class:`ReproError` (catchable, ``diagnostic()``-able),
  never a bare host traceback;
* **sanitizer-clean** — a well-typed program never trips an invariant,
  no matter which faults are injected (the runtime's recovery paths
  must preserve O1–O3/R1–R3);
* **deterministic replay** — re-executing a run's recorded fault
  schedule through a replaying :class:`~repro.faults.FaultInjector`
  reproduces the run bit-for-bit (same fault sequence, status, cycle
  count, output, and stats summary).

This module is the runtime target of the shared fault core
(:mod:`repro.faults`): it keeps the runtime's contract, its identity
function (:meth:`ChaosOutcome.identity`) and its schedule runner
(:func:`rerun`); plans, injection, schedule files and the identity
diff are the core's.

Outcome taxonomy (``ChaosOutcome.status``):

``clean``      completed, zero faults injected
``recovered``  completed despite injected faults (retries, spills,
               degrade-mode thread aborts)
``diagnosed``  the run failed, but with a structured diagnostic
``violation``  the sanitizer found broken runtime state — a real bug
``crash``      a non-``ReproError`` escaped — the bug class chaos hunts

``violation`` and ``crash`` fail the campaign; everything else is the
contract working as designed.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from ..core.api import AnalyzedProgram, analyze
from ..errors import ReproError, SanitizerViolation
from ..faults import (FaultInjector, FaultPlan, FaultRecord,
                      ScheduleError, fault_key, identity_diff,
                      save_schedule)
from ..interp.machine import Machine, RunOptions

#: chaos runs bound the clock tightly: an injected fault that degrades
#: a producer/consumer pair into a busy-wait should end in a prompt
#: DeadlockError ("cleanly diagnosed"), not a wall-clock explosion
DEFAULT_MAX_CYCLES = 5_000_000

#: keys of a diagnostic dict that are stable across in-process runs
#: (messages embed object ids from a process-global counter, so they
#: are excluded from replay identity)
_ERROR_IDENTITY_KEYS = ("type", "site", "injected", "thread", "cycle",
                       "invariant", "checkpoint")


def _error_identity(diag: Optional[Dict[str, Any]]) \
        -> Optional[Dict[str, Any]]:
    if diag is None:
        return None
    return {k: diag[k] for k in _ERROR_IDENTITY_KEYS if k in diag}


def _output_sha(output: Sequence[str]) -> str:
    # each line plus "\n", unlike RunResult.output_sha256: committed
    # schedules (tests/data/schedule_v1_runtime.jsonl) record this value
    # as identity.output_sha256, so replay must keep computing it
    digest = hashlib.sha256()
    for line in output:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class ChaosOutcome:
    """What one seeded run did, in replay-comparable terms."""

    program: str
    seed: int
    status: str                      # clean|recovered|diagnosed|...
    cycles: int
    faults: List[FaultRecord] = field(default_factory=list)
    #: degrade-mode thread aborts (run still completed)
    diagnostics: List[Dict[str, Any]] = field(default_factory=list)
    #: the terminal diagnostic when the run failed
    error: Optional[Dict[str, Any]] = None
    output: List[str] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)
    #: the run's flight recorder (when recording was requested); not
    #: part of the replay identity — recording is cycle-neutral
    recorder: Optional[Any] = field(default=None, repr=False,
                                    compare=False)

    @property
    def ok(self) -> bool:
        return self.status not in ("violation", "crash")

    def identity(self) -> Dict[str, Any]:
        """The replay-comparable projection of this outcome."""
        return {
            "faults": fault_key(self.faults),
            "status": self.status,
            "cycles": self.cycles,
            "output_sha256": _output_sha(self.output),
            "summary": self.summary,
            "error": _error_identity(self.error),
            "diagnostics": [_error_identity(d)
                            for d in self.diagnostics],
        }


def run_one(program: Union[str, AnalyzedProgram],
            plan: Optional[FaultPlan] = None,
            replay: Optional[Sequence[FaultRecord]] = None,
            label: str = "<program>",
            max_cycles: int = DEFAULT_MAX_CYCLES,
            record: bool = False,
            backend: str = "interp") -> ChaosOutcome:
    """Execute one program under one fault plan, sanitizer armed,
    degradation on; ``replay`` re-fires a recorded schedule instead of
    drawing from the plan's seed.  Never raises for simulated failures
    — they land in the outcome.  ``record`` arms the flight recorder
    (cycle-neutral, so replay identity is unaffected).  ``backend`` is
    plumbed through to :class:`RunOptions`; with fault injection active
    the compiled backends decline the configuration and the run falls
    back to the interpreter, so replay identity is backend-independent
    by construction."""
    analyzed = analyze(program) if isinstance(program, str) else program
    if analyzed.errors:
        raise analyzed.errors[0]
    injector = (FaultInjector(plan, replay) if plan is not None
                else None)
    options = RunOptions(checks_enabled=True, validate=True,
                         fault_injector=injector,
                         sanitize=True, degrade=True,
                         max_cycles=max_cycles, record=record,
                         backend=backend)
    machine = Machine(analyzed, options)
    status = "clean"
    error: Optional[Dict[str, Any]] = None
    try:
        machine.run()
    except SanitizerViolation as err:
        status, error = "violation", err.diagnostic()
    except ReproError as err:
        status, error = "diagnosed", err.diagnostic()
    except Exception as err:  # noqa: BLE001 - the bug class chaos hunts
        status = "crash"
        error = {"type": type(err).__name__, "message": str(err)}
    faults = (list(machine.fault_injector.injected)
              if machine.fault_injector is not None else [])
    diagnostics = [d.diagnostic()
                   for d in machine.scheduler.diagnostics]
    if status == "clean" and (faults or diagnostics):
        status = "recovered"
    return ChaosOutcome(
        program=label,
        seed=plan.seed if plan is not None else -1,
        status=status,
        cycles=machine.stats.cycles,
        faults=faults,
        diagnostics=diagnostics,
        error=error,
        output=list(machine.output),
        summary=machine.stats.summary(),
        recorder=machine.recorder)


def verify_replay(program: Union[str, AnalyzedProgram],
                  plan: FaultPlan, baseline: ChaosOutcome,
                  max_cycles: int = DEFAULT_MAX_CYCLES) -> List[str]:
    """Re-run ``baseline``'s recorded schedule and diff the
    replay-comparable identity.  Returns the list of mismatches
    (empty = bit-for-bit replay)."""
    replay = run_one(program, plan, replay=baseline.faults,
                     label=baseline.program, max_cycles=max_cycles)
    return identity_diff(baseline.identity(), replay.identity())


def rerun(plan: FaultPlan, records: Sequence[FaultRecord],
          meta: Mapping[str, Any]) -> Dict[str, Any]:
    """Re-execute a runtime schedule read back from disk: the runtime
    runner behind :func:`repro.faults.replay_schedule`.  The program is
    the source the schedule's metadata embeds."""
    source = meta.get("source")
    if not source:
        raise ScheduleError(
            "schedule embeds no program source; name the program: "
            "repro chaos --replay FILE PROGRAM")
    analyzed = analyze(source)
    if analyzed.errors:
        raise ScheduleError(f"schedule program does not typecheck: "
                            f"{analyzed.errors[0]}")
    outcome = run_one(analyzed, plan, replay=records,
                      label=str(meta.get("program", "<schedule>")),
                      max_cycles=int(meta.get("max_cycles",
                                              DEFAULT_MAX_CYCLES)))
    # a faithful rerun of a recorded failure is a successful replay
    return {"ok": True, "status": outcome.status,
            "identity": outcome.identity(), "outcome": outcome}


def run_chaos(corpus: Sequence[Tuple[str, str]],
              seeds: Sequence[int],
              plan: FaultPlan,
              max_cycles: int = DEFAULT_MAX_CYCLES,
              verify: bool = True,
              schedule_dir: Optional[str] = None,
              backend: str = "interp") -> Dict[str, Any]:
    """Run every (label, source) program under ``plan`` once per seed;
    optionally verify replay and persist the schedules.  Returns a
    report dict with per-run outcomes and campaign-level pass/fail."""
    import os
    results: List[Dict[str, Any]] = []
    failures: List[str] = []
    for label, source in corpus:
        analyzed = analyze(source)
        if analyzed.errors:
            raise analyzed.errors[0]
        for seed in seeds:
            seeded = dataclasses.replace(plan, seed=seed)
            outcome = run_one(analyzed, seeded, label=label,
                              max_cycles=max_cycles,
                              record=schedule_dir is not None,
                              backend=backend)
            entry: Dict[str, Any] = {
                "program": label,
                "seed": seed,
                "status": outcome.status,
                "cycles": outcome.cycles,
                "faults": len(outcome.faults),
                "threads_aborted": outcome.summary.get(
                    "threads_aborted", 0),
                "error": outcome.error,
            }
            if not outcome.ok:
                failures.append(
                    f"{label} seed={seed}: {outcome.status} "
                    f"({(outcome.error or {}).get('type')})")
            if verify:
                mismatches = verify_replay(analyzed, seeded, outcome,
                                           max_cycles=max_cycles)
                entry["replay_ok"] = not mismatches
                if mismatches:
                    failures.append(
                        f"{label} seed={seed}: non-replayable schedule "
                        f"({'; '.join(mismatches)})")
            if schedule_dir is not None:
                safe = label.replace("/", "_").replace(".", "_")
                path = os.path.join(schedule_dir,
                                    f"{safe}-seed{seed}.schedule.jsonl")
                save_schedule(path, seeded, outcome.faults, meta={
                    "program": label,
                    "source": source,
                    "max_cycles": max_cycles,
                    "identity": outcome.identity(),
                })
                entry["schedule"] = path
                # post-mortem: any run that failed (terminal error) or
                # broke the contract dumps its flight record next to
                # the schedule, so `repro inspect --schedule` can join
                # the two and map each injected fault to its reaction
                if (outcome.recorder is not None
                        and (outcome.error is not None
                             or not outcome.ok)):
                    from ..obs.flightrec import dump_flight
                    flight_path = os.path.join(
                        schedule_dir, f"{safe}-seed{seed}.flight.jsonl")
                    dump_flight(outcome.recorder, flight_path, meta={
                        "mode": "chaos",
                        "program": label,
                        "seed": seed,
                        "status": outcome.status,
                        "error": outcome.error,
                        "summary": outcome.summary,
                    })
                    entry["flight"] = flight_path
            results.append(entry)
    statuses: Dict[str, int] = {}
    total_faults = 0
    for entry in results:
        statuses[entry["status"]] = statuses.get(entry["status"], 0) + 1
        total_faults += entry["faults"]
    return {
        "runs": len(results),
        "statuses": statuses,
        "faults_injected": total_faults,
        "failures": failures,
        "ok": not failures,
        "results": results,
    }


def campaign_telemetry(report: Dict[str, Any]) -> Dict[str, Any]:
    """The compact chaos taxonomy a telemetry envelope carries: the
    campaign-level counts plus per-program status breakdown, without
    the per-run detail (the full report stays in ``--json`` output and
    schedule files)."""
    by_program: Dict[str, Dict[str, int]] = {}
    replay_checked = replay_ok = 0
    for entry in report.get("results", []):
        program = by_program.setdefault(entry["program"], {})
        program[entry["status"]] = program.get(entry["status"], 0) + 1
        if "replay_ok" in entry:
            replay_checked += 1
            if entry["replay_ok"]:
                replay_ok += 1
    taxonomy: Dict[str, Any] = {
        "runs": report.get("runs", 0),
        "statuses": dict(report.get("statuses", {})),
        "faults_injected": report.get("faults_injected", 0),
        "failures": len(report.get("failures", [])),
        "ok": bool(report.get("ok")),
        "by_program": by_program,
    }
    if replay_checked:
        taxonomy["replay_checked"] = replay_checked
        taxonomy["replay_ok"] = replay_ok
    return taxonomy
