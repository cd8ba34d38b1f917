"""Request generator: salted programs, seeded lists, disjoint warm-up.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import pytest

from perfbench.workloads import (WORKLOADS, base_sources, build_plan,
                                 output_digest, references, salt_source)
from repro.core.api import analyze
from repro.interp.machine import RunOptions, execute
from repro.serve.protocol import program_sha

SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def sources():
    return base_sources()


@pytest.fixture(scope="module")
def refs(sources):
    return references(sources)


def _interp(source: str, record: bool = False):
    result, _machine = execute(
        analyze(source).require_well_typed(),
        RunOptions(checks_enabled=False, validate=False,
                   instrument=False, backend="interp", record=record))
    return result.stats.cycles, output_digest(result.output)


@pytest.mark.parametrize("seed", SEEDS)
def test_salted_programs_are_new_and_equivalent(seed, sources, refs):
    plan = build_plan("cold", seed, 16, sources)
    base_shas = {program_sha(src) for src in sources.values()}
    seen = set()
    for req in plan.setup + plan.timed:
        sha = program_sha(req.source)
        assert sha not in base_shas and sha not in seen, req.label()
        seen.add(sha)
        assert req.salt in req.source
        assert _interp(req.source) == tuple(refs[req.program]), \
            req.label()


def test_every_base_program_salts_equivalently(sources, refs):
    """One salt per registry program, also under the flight recorder
    that ``/v1/inspect`` attaches."""
    for name, source in sources.items():
        salted = salt_source(source, "00c0ffee00")
        assert salted != source, name
        assert _interp(salted) == tuple(refs[name]), name
        assert _interp(salted, record=True) == tuple(refs[name]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_list_other_seed_other_list(workload, sources):
    first = build_plan(workload, 7, 200, sources)
    again = build_plan(workload, 7, 200, sources)
    other = build_plan(workload, 8, 200, sources)
    assert first.setup == again.setup and first.timed == again.timed
    assert first.timed != other.timed
    assert first.warmup != other.warmup


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_warmup_shares_no_program_with_timed(workload, seed, sources):
    plan = build_plan(workload, seed, 300, sources)
    timed = {req.source for req in plan.timed}
    assert not timed & {req.source for req in plan.warmup}
    # at least two warm-up programs per worker of a two-worker service
    assert len({req.source for req in plan.warmup}) >= 4


def test_hot_times_only_primed_programs(sources):
    plan = build_plan("hot", 1, 500, sources)
    primed = {req.source for req in plan.prime}
    assert primed == set(sources.values())
    assert {req.source for req in plan.timed} <= primed


def test_first_sight_lists_never_repeat_a_program(sources):
    for workload in ("cold", "inspect"):
        plan = build_plan(workload, 5, 1000, sources)
        texts = [req.source for req in plan.setup + plan.timed]
        assert len(set(texts)) == len(texts)
        assert {req.endpoint for req in plan.timed} == {
            "inspect" if workload == "inspect" else "run"}
