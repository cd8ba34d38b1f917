"""Property-style robustness test (the PR's acceptance property):

For any seeded fault schedule over a well-typed program, the run must

* never produce a sanitizer violation (the recovery paths preserve the
  paper's invariants O1-O3/R1-R3 and the flush rule),
* end either clean or cleanly-diagnosed (a structured ReproError with a
  complete diagnostic, never a bare host exception),
* leave no wedged state behind: every thread is finished and every live
  area's thread count is back to zero.
"""

import sys
from pathlib import Path

import pytest

from repro import RunOptions
from repro.errors import ReproError, SanitizerViolation
from repro.interp.machine import Machine
from repro.faults import FaultInjector, FaultPlan, fault_key

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from conftest import (PRODUCER_CONSUMER_SOURCE, REALTIME_SOURCE,  # noqa: E402
                      TSTACK_SOURCE, assert_well_typed)

PROGRAMS = [
    ("tstack", TSTACK_SOURCE),
    ("producer_consumer", PRODUCER_CONSUMER_SOURCE),
    ("realtime", REALTIME_SOURCE),
]

SEEDS = range(6)

#: every site enabled, rates high enough that most runs inject faults
PLAN_RATE = 0.1


def chaos_run(analyzed, seed):
    """One run under a seeded plan with sanitizer + degradation armed.
    Returns (machine, error): error is None for a completed run."""
    plan = FaultPlan(seed=seed, rate=PLAN_RATE)
    machine = Machine(analyzed, RunOptions(
        checks_enabled=True, validate=True,
        fault_injector=FaultInjector(plan),
        sanitize=True, degrade=True, max_cycles=5_000_000))
    try:
        machine.run()
        return machine, None
    except ReproError as err:
        return machine, err


@pytest.mark.parametrize("name,source", PROGRAMS,
                         ids=[name for name, _ in PROGRAMS])
class TestSeededFaultSchedules:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_never_violates_never_wedges(self, name, source, seed):
        machine, err = chaos_run(assert_well_typed(source), seed)

        # never a sanitizer violation on a well-typed program
        assert not isinstance(err, SanitizerViolation), \
            f"sanitizer violation under seed {seed}: {err}"
        for diag in machine.scheduler.diagnostics:
            assert not isinstance(diag, SanitizerViolation)

        # clean end or structured diagnosis — chaos_run only catches
        # ReproError, so reaching this point already excludes bare
        # host exceptions; the diagnostic must be complete
        if err is not None:
            diag = err.diagnostic()
            assert diag["type"] and diag["message"]
            assert diag["cycle"] is not None

        # no wedged scheduler: every thread finished
        assert all(t.done for t in machine.scheduler.threads)
        # thread counts back to zero in every surviving area
        for area in machine.regions.live_areas():
            assert area.thread_count == 0, \
                (f"seed {seed}: area '{area.name}' ended with "
                 f"thread count {area.thread_count}")
        # the fault accounting is consistent
        injected = machine.fault_injector.injected
        assert machine.stats.faults_injected == len(injected)

    def test_schedule_is_deterministic(self, name, source):
        analyzed = assert_well_typed(source)
        a, err_a = chaos_run(analyzed, seed=1)
        b, err_b = chaos_run(analyzed, seed=1)
        assert fault_key(a.fault_injector.injected) == \
            fault_key(b.fault_injector.injected)
        assert a.stats.cycles == b.stats.cycles
        assert a.output == b.output
        assert type(err_a) is type(err_b)
