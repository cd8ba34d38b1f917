"""Wall-clock comparison of the interpreter and the erased Python form.

The interpreter pays for its deterministic cycle accounting and
preemption machinery; ``execute(..., backend="py")`` runs
``codegen_py``'s fused module, in which the owner types (and, in this
checks-off build, every check) are erased.  This bench documents the
gap, and that both produce identical cycles, output and
``Stats.summary()`` — the practical payoff of the Section 2.6 erasure
design: the typed front end costs nothing at run time.
"""

import pytest

from repro import RunOptions, analyze
from repro.bench.suite import BENCHMARKS
from repro.interp.machine import execute

NAMES = ["Array", "Tree", "Water"]


def _execute(analyzed, backend):
    return execute(analyzed, RunOptions(
        checks_enabled=False, validate=False, instrument=False,
        backend=backend))


def _observed(result):
    return result.cycles, result.output, result.stats.summary()


@pytest.fixture(scope="module")
def prepared():
    out = {}
    for name in NAMES:
        analyzed = analyze(
            BENCHMARKS[name].source(fast=True)).require_well_typed()
        # parity before timing; the first run also builds the fused
        # form, which later runs of this program reuse
        compiled, machine = _execute(analyzed, "py")
        assert machine.program.backend == "py-fused"
        interpreted, _machine = _execute(analyzed, "interp")
        assert _observed(compiled) == _observed(interpreted)
        out[name] = analyzed
    return out


@pytest.mark.parametrize("name", NAMES)
def test_interpreted(benchmark, prepared, name):
    benchmark(_execute, prepared[name], "interp")


@pytest.mark.parametrize("name", NAMES)
def test_compiled(benchmark, prepared, name):
    benchmark(_execute, prepared[name], "py")


def test_compiled_is_faster(prepared, benchmark):
    import time

    def best(fn, repeats=5):
        out = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            out = min(out, time.perf_counter() - start)
        return out

    analyzed = prepared["Array"]
    interp = best(lambda: _execute(analyzed, "interp"))
    comp = best(lambda: _execute(analyzed, "py"))
    benchmark(lambda: None)
    print(f"\nArray: interpreted {interp * 1000:.2f} ms, "
          f"compiled {comp * 1000:.2f} ms ({interp / comp:.1f}x)")
    assert comp < interp
