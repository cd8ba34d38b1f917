"""Unit tests for the deterministic cooperative scheduler."""

import pathlib

import pytest

from repro.bench.suite import BENCHMARKS
from repro.cli import _read
from repro.core.api import analyze
from repro.errors import DeadlockError, InterpreterError
from repro.interp.machine import RunOptions, execute
from repro.rtsj.regions import VT, RegionManager
from repro.rtsj.stats import Stats
from repro.rtsj.threads import PREEMPT, Scheduler, SimThread, YIELD

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def costs(*values):
    """A coroutine charging the given costs."""
    def gen():
        for value in values:
            yield value
    return gen()


class TestBasicScheduling:
    def test_single_thread_runs_to_completion(self):
        stats = Stats()
        sched = Scheduler(stats, quantum=100)
        sched.spawn(SimThread("t", costs(10, 20, 30)))
        sched.run()
        assert stats.cycles == 60
        assert stats.cycles_by_thread["t"] == 60

    def test_round_robin_between_threads(self):
        stats = Stats()
        sched = Scheduler(stats, quantum=15)
        order = []

        def tracked(name, slices):
            for _ in range(slices):
                order.append(name)
                yield 10
                yield YIELD

        sched.spawn(SimThread("a", tracked("a", 3)))
        sched.spawn(SimThread("b", tracked("b", 3)))
        sched.run()
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_quantum_preempts_long_slices(self):
        stats = Stats()
        sched = Scheduler(stats, quantum=25)
        order = []

        def greedy(name):
            for _ in range(4):
                order.append(name)
                yield 20

        sched.spawn(SimThread("a", greedy("a")))
        sched.spawn(SimThread("b", greedy("b")))
        sched.run()
        # quantum 25 = two 20-cycle ops per slice
        assert order == ["a", "a", "b", "b"] * 2

    def test_realtime_threads_run_first(self):
        stats = Stats()
        sched = Scheduler(stats, quantum=100)
        order = []

        def tracked(name):
            order.append(name)
            yield 5

        sched.spawn(SimThread("regular", tracked("regular")))
        sched.spawn(SimThread("rt", tracked("rt"), realtime=True))
        sched.run()
        assert order == ["rt", "regular"]

    def test_max_cycles_guard(self):
        stats = Stats()
        sched = Scheduler(stats, quantum=100, max_cycles=500)

        def forever():
            while True:
                yield 10

        sched.spawn(SimThread("loop", forever()))
        with pytest.raises(DeadlockError):
            sched.run()

    def test_thread_failure_propagates(self):
        stats = Stats()
        sched = Scheduler(stats, quantum=100)

        def boom():
            yield 5
            raise InterpreterError("bang")

        sched.spawn(SimThread("bad", boom()))
        with pytest.raises(InterpreterError):
            sched.run()


class TestThreadExitSemantics:
    def test_dying_thread_releases_shared_regions(self):
        mgr = RegionManager()
        shared = mgr.create("s", "Shared", VT, 0, set())
        shared.thread_count = 2
        stats = Stats()
        sched = Scheduler(stats, quantum=100)
        t = SimThread("t", costs(1))
        t.shared_stack.append(shared)
        sched.spawn(t)
        sched.run()
        assert shared.thread_count == 1
        assert shared.live  # another thread still holds it

    def test_last_thread_destroys_top_level_shared_region(self):
        mgr = RegionManager()
        shared = mgr.create("s", "Shared", VT, 0, set())
        shared.thread_count = 1
        stats = Stats()
        sched = Scheduler(stats, quantum=100)
        t = SimThread("t", costs(1))
        t.shared_stack.append(shared)
        sched.spawn(t)
        sched.run()
        assert shared.thread_count == 0
        assert not shared.live

    def test_latency_metric_counts_from_spawn(self):
        stats = Stats()
        sched = Scheduler(stats, quantum=1000)
        sched.spawn(SimThread("warmup", costs(500)))
        late = SimThread("late", costs(1))
        sched.spawn(late)
        sched.run()
        # 'late' was spawned after warmup charged 0 cycles (spawn happens
        # before run); its dispatch latency is the warmup slice, not the
        # whole history of the machine
        assert late.max_dispatch_latency <= 500


class TestGCHook:
    def test_gc_pause_charged_and_regular_delayed(self):
        stats = Stats()
        fired = []

        def hook():
            if not fired:
                fired.append(True)
                return 1000
            return 0

        sched = Scheduler(stats, quantum=100, gc_hook=hook)
        rt = SimThread("rt", costs(10, 10), realtime=True)
        reg = SimThread("reg", costs(10, 10))
        sched.spawn(rt)
        sched.spawn(reg)
        sched.run()
        assert stats.cycles_by_thread["<gc>"] == 1000
        # the RT thread's dispatch clock was reset across the pause
        assert rt.max_dispatch_latency < 1000


class TestChargeProtocol:
    """A coroutine may charge its costs in place (clock and slice budget,
    suspending with PREEMPT once the budget is spent) or yield them as
    ints for the scheduler to charge; both must give the same run."""

    #: one costs script per thread; quantum 25: "a" overshoots the
    #: quantum with one charge, "b" spends its slice exactly and then
    #: gives up the next one at once, "rt" runs first every round
    SCRIPTS = {"a": (10, 30, YIELD, 5, 5, 5, 40),
               "b": (25, YIELD, 3, 40, 1),
               "rt": (7, 7, 7, YIELD, 20, 20)}

    @staticmethod
    def _yielding(stats, thread, name, script, log):
        for item in script:
            log.append((name, stats.cycles))
            yield item

    @staticmethod
    def _charging(stats, thread, name, script, log):
        for item in script:
            log.append((name, stats.cycles))
            if item is YIELD:
                yield YIELD
                continue
            stats.cycles += item
            thread.budget -= item
            if thread.budget <= 0:
                yield PREEMPT

    def _run(self, body):
        stats = Stats()
        sched = Scheduler(stats, quantum=25)
        log = []
        threads = []
        for name, script in self.SCRIPTS.items():
            thread = SimThread(name, iter(()), realtime=(name == "rt"))
            thread.coroutine = body(stats, thread, name, script, log)
            sched.spawn(thread)
            threads.append(thread)
        sched.run()
        return (log, stats.cycles, dict(stats.cycles_by_thread),
                {t.name: (t.cycles, t.max_dispatch_latency)
                 for t in threads})

    def test_in_place_charges_match_int_yields(self):
        charged = self._run(self._charging)
        assert charged == self._run(self._yielding)
        log, cycles, by_thread, per_thread = charged
        assert cycles == sum(c for s in self.SCRIPTS.values()
                             for c in s if c is not YIELD)
        assert by_thread == {name: per_thread[name][0]
                             for name in self.SCRIPTS}
        # "a" charged 30 at clock 31 with 15 cycles of its slice left:
        # the slice ended on that charge, and "b" ran next at 61
        assert log[5:7] == [("a", 31), ("b", 61)]
        # "b" spent its slice exactly; the YIELD that follows is a slice
        # of its own that charges nothing, so "a" runs at the same clock
        b_yield = log.index(("b", 126))
        assert log[b_yield + 1] == ("a", 126)
        assert per_thread == {"a": (95, 65), "b": (69, 61),
                              "rt": (61, 65)}


#: the registry and the two threaded examples, by name
INTERP_PROGRAMS = {
    **{name: bench.source(fast=True) for name, bench in BENCHMARKS.items()},
    **{name: _read(str(EXAMPLES / f"{name}.py"))
       for name in ("producer_consumer", "realtime_pipeline")}}


class _Guarded:
    """A thread's coroutine, checked at every suspension: the
    interpreter never yields an int, and it yields PREEMPT only once
    the slice budget is spent."""

    def __init__(self, thread, coroutine, seen):
        self.thread = thread
        self.coroutine = coroutine
        self.seen = seen

    def __next__(self):
        item = next(self.coroutine)
        if item is PREEMPT:
            self.seen.append("ok" if self.thread.budget <= 0
                             else f"early PREEMPT ({self.thread.budget})")
        elif item is not YIELD:
            self.seen.append(f"yielded {item!r}")
        return item

    def close(self):
        self.coroutine.close()


@pytest.mark.parametrize("name", sorted(INTERP_PROGRAMS))
def test_interpreter_suspends_only_at_slice_ends(name, monkeypatch):
    analyzed = analyze(INTERP_PROGRAMS[name])
    assert not analyzed.errors
    seen = []
    spawn = Scheduler.spawn

    def guarded_spawn(self, thread):
        thread.coroutine = _Guarded(thread, thread.coroutine, seen)
        return spawn(self, thread)

    monkeypatch.setattr(Scheduler, "spawn", guarded_spawn)
    for checks, record in ((True, False), (False, False), (False, True)):
        execute(analyzed, RunOptions(
            backend="interp", checks_enabled=checks, validate=False,
            record=record, quantum=17))
    assert seen and set(seen) == {"ok"}, sorted(set(seen))
