"""Integration tests over the eight benchmark programs of Section 3."""

import json
import pathlib

import pytest

from repro import RunOptions, analyze, run_source
from repro.bench.overhead import count_annotations
from repro.bench.suite import BENCHMARKS, IMAGEREC_STAGES
from repro.bench.timing import measure_check_overhead

ALL = sorted(BENCHMARKS)

#: cycles, output digests and check counts of the seed interpreter
SEED = json.loads((pathlib.Path(__file__).parent.parent / "data"
                   / "seed_equivalence.json").read_text())["fixture"]


@pytest.mark.parametrize("name", ALL)
def test_benchmark_typechecks(name):
    bench = BENCHMARKS[name]
    analyzed = analyze(bench.source(fast=True))
    assert not analyzed.errors, [str(e) for e in analyzed.errors]


@pytest.mark.parametrize("name", ALL)
def test_benchmark_runs_identically_in_both_modes(name):
    bench = BENCHMARKS[name]
    row = measure_check_overhead(bench.source(fast=True), name,
                                 expected_output=bench.expected_output())
    assert row.dynamic_cycles > 0
    assert row.static_cycles > 0
    # Figure 12's cycles and check counts are the seed interpreter's
    assert row.dynamic_cycles == SEED[name]["dynamic"]["cycles"]
    assert row.static_cycles == SEED[name]["static"]["cycles"]
    assert row.assignment_checks == SEED[name]["dynamic"]["assignment_checks"]
    assert row.read_checks == SEED[name]["dynamic"]["read_checks"]


@pytest.mark.parametrize("name", ALL)
def test_benchmark_validates_clean(name):
    """Theorems 3/4 on the benchmark suite: running a well-typed program
    with every check *verified* (but not charged) raises nothing."""
    bench = BENCHMARKS[name]
    analyzed = analyze(bench.source(fast=True))
    result = run_source(analyzed, RunOptions(checks_enabled=False,
                                             validate=True))
    assert result.stats.cycles > 0


@pytest.mark.parametrize("name", ALL)
def test_benchmark_checks_removed_in_static_mode(name):
    bench = BENCHMARKS[name]
    analyzed = analyze(bench.source(fast=True))
    result = run_source(analyzed, RunOptions(checks_enabled=False,
                                             validate=False))
    assert result.stats.assignment_checks == 0
    assert result.stats.read_checks == 0
    assert result.stats.check_cycles == 0


@pytest.mark.parametrize("stage", IMAGEREC_STAGES)
def test_imagerec_stages_run(stage):
    bench = BENCHMARKS["ImageRec"]
    row = measure_check_overhead(bench.source(fast=True, stage=stage),
                                 stage)
    assert row.overhead >= 0.999


class TestCheckOverheadShape:
    """Figure 12's qualitative shape on the fast parameters: micro ≫
    scientific > servers ≈ 1.  (The full-parameter numeric match is the
    benchmark harness's job.)"""

    @pytest.fixture(scope="class")
    def rows(self):
        return {name: measure_check_overhead(
            BENCHMARKS[name].source(fast=True), name)
            for name in ALL}

    def test_micro_benchmarks_dominate(self, rows):
        assert rows["Array"].overhead > 3.0
        assert rows["Tree"].overhead > 2.0
        assert rows["Array"].overhead > rows["Tree"].overhead

    def test_scientific_modest(self, rows):
        for name in ("Water", "Barnes"):
            assert 1.0 < rows[name].overhead < 1.6

    def test_servers_negligible(self, rows):
        for name in ("http", "game", "phone"):
            assert 1.0 <= rows[name].overhead < 1.1

    def test_ordering_matches_paper(self, rows):
        assert (rows["Array"].overhead > rows["Tree"].overhead
                > rows["Water"].overhead >= rows["Barnes"].overhead
                > rows["http"].overhead)


class TestAnnotationOverheadShape:
    """Figure 11's qualitative claim: only a small fraction of lines needs
    annotations, concentrated where regions are created."""

    @pytest.mark.parametrize("name", ALL)
    def test_annotated_fraction_small(self, name):
        bench = BENCHMARKS[name]
        report = count_annotations(bench.source(), name)
        assert report.annotated_lines < report.total_lines * 0.35
        assert report.annotated_lines >= 1  # regions must be created

    def test_imagerec_nearly_annotation_free(self):
        report = count_annotations(BENCHMARKS["ImageRec"].source(),
                                   "ImageRec")
        assert report.annotated_lines <= 3
