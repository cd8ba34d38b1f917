"""Unit tests for the observability layer: the ``--trace-out`` view of
the flight recorder, metric instrument math, and exporter formats."""

import json
from types import SimpleNamespace

import pytest

from repro.obs import (FlightRecorder, MetricsRegistry, to_prometheus,
                       trace_lines)
from repro.obs.profile import build_report


def _trace(recorder):
    return [json.loads(line) for line in trace_lines(recorder)]


def _spans_nest(events):
    """True when every thread's ``B``/``E`` events nest like a stack."""
    stacks = {}
    for event in events:
        stack = stacks.setdefault(event["thread"], [])
        if event["ph"] == "B":
            stack.append(event["subject"])
        elif event["ph"] == "E":
            if not stack or stack.pop() != event["subject"]:
                return False
    return all(not stack for stack in stacks.values())


class TestTracer:
    """``trace_lines``: the flight recorder's window as a span trace."""

    def test_emit_records_in_order(self):
        rec = FlightRecorder()
        rec.record("a", "x", cycle=1)
        rec.record("b", "y", cycle=5, thread="t1")
        events = _trace(rec)
        assert [(e["cycle"], e["kind"], e["subject"]) for e in events] \
            == [(1, "a", "x"), (5, "b", "y")]
        assert events[1]["thread"] == "t1"
        assert [e["id"] for e in events] == [1, 2]

    def test_detail_gated_by_flag(self):
        # a run that asked for no export carries no recorder at all; a
        # recording run keeps the high-volume kinds too
        from repro.core.api import analyze
        from repro.interp.machine import Machine, RunOptions
        analyzed = analyze("""
            class Box { int v; }
            (RHandle<r> h) { Box<r> b = new Box<r>; b.v = 1; }
        """).require_well_typed()
        plain = Machine(analyzed, RunOptions())
        plain.run()
        assert plain.recorder is None and plain.stats.recorder is None
        recorded = Machine(analyzed, RunOptions(record=True))
        recorded.run()
        kinds = {e["kind"] for e in _trace(recorded.recorder)}
        assert {"alloc", "region-enter", "region-exit"} <= kinds

    def test_close_abandoned_ends_open_spans(self):
        rec = FlightRecorder()
        rec.push("region-enter", "r1", cycle=1, thread="t1")
        rec.push("region-enter", "r1.sub", cycle=2, thread="t1")
        rec.record("thread-finished", "t1", cycle=9, thread="t1")
        events = _trace(rec)
        ends = [e for e in events if e["ph"] == "E"]
        assert [e["subject"] for e in ends] == ["r1.sub", "r1"]
        assert all(e["kind"] == "region-exit" for e in ends)
        assert all(e["attrs"] == {"aborted": True} for e in ends)
        # synthesized, not recorded: no id, parented to the span start
        assert [(e["id"], e["parent"]) for e in ends] == [(0, 2), (0, 1)]
        assert [e["cycle"] for e in ends] == [9, 9]
        # closed before the thread's finish, which stays the last line
        assert events[-1]["kind"] == "thread-finished"
        assert _spans_nest(events)

    def test_max_records_drops_and_counts(self):
        rec = FlightRecorder(capacity=2)
        for i in range(5):
            rec.record("k", str(i), cycle=i)
        events = _trace(rec)
        assert [e["subject"] for e in events[:-1]] == ["3", "4"]
        assert events[-1]["attrs"] == {"dropped": 3}

    def test_spans_balanced(self):
        rec = FlightRecorder()
        rec.push("region-enter", "r", cycle=1)
        rec.push("region-enter", "r.b", cycle=2)
        rec.pop("region-exit", "r.b", cycle=3)
        rec.pop("region-exit", "r", cycle=4)
        events = _trace(rec)
        assert [e["ph"] for e in events] == ["B", "B", "E", "E"]
        assert _spans_nest(events)

    def test_spans_per_thread(self):
        rec = FlightRecorder()
        rec.push("region-enter", "a", cycle=1, thread="t1")
        rec.push("region-enter", "b", cycle=2, thread="t2")
        rec.pop("region-exit", "a", cycle=3, thread="t1")
        rec.pop("region-exit", "b", cycle=4, thread="t2")
        assert _spans_nest(_trace(rec))

    def test_trace_lines_are_json(self):
        rec = FlightRecorder()
        rec.record("gc", "run", cycle=7, thread="<gc>",
                   attrs={"pause": 2000})
        lines = list(trace_lines(rec))
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "id": 1, "parent": 0, "cycle": 7, "kind": "gc", "ph": "i",
            "subject": "run", "thread": "<gc>", "attrs": {"pause": 2000}}

    def test_truncation_marker_line(self):
        rec = FlightRecorder(capacity=1)
        rec.record("a", "x")
        rec.record("b", "y")
        events = _trace(rec)
        assert events[-1]["kind"] == "trace-truncated"
        assert events[-1]["attrs"]["dropped"] == 1

    def test_evicted_span_start_exports_end_as_instant(self):
        rec = FlightRecorder(capacity=3)
        rec.push("region-enter", "r", cycle=1)
        rec.push("region-enter", "r.b", cycle=2)
        rec.pop("region-exit", "r.b", cycle=3)
        rec.pop("region-exit", "r", cycle=4)
        events = _trace(rec)
        # the ring kept r.b's whole span and r's exit only
        assert [(e["subject"], e["ph"]) for e in events[:-1]] \
            == [("r.b", "B"), ("r.b", "E"), ("r", "i")]
        assert _spans_nest(events)


class TestCountersAndGauges:
    def test_counter_inc_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things_total", "things")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.labels(kind="a").inc(2)
        c.labels(kind="a").inc(1)
        assert c.labels(kind="a").value == 3
        assert c.value == 5  # default series unaffected

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("c", "")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_watermark(self):
        g = MetricsRegistry().gauge("g", "")
        g.set(10)
        g.set_max(5)
        assert g.value == 10
        g.set_max(25)
        assert g.value == 25

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x", "") is reg.counter("x", "")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x", "")
        with pytest.raises(ValueError):
            reg.gauge("x", "")


class TestHistogram:
    def test_bucket_math(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", "", buckets=(10, 20, 40))
        for v in (5, 10, 11, 39, 100):
            h.observe(v)
        child = h.labels()
        # non-cumulative: (<=10)=2, (<=20)=1, (<=40)=1, +Inf=1
        assert child.counts == [2, 1, 1, 1]
        assert child.cumulative() == [2, 3, 4, 5]
        assert child.sum == 165
        assert child.count == 5
        assert child.mean() == pytest.approx(33.0)

    def test_quantile_upper_bound(self):
        h = MetricsRegistry().histogram("h", "", buckets=(10, 20, 40))
        for v in (1, 2, 3, 15, 35):
            h.observe(v)
        assert h.labels().quantile(0.5) == 10.0
        assert h.labels().quantile(1.0) == 40.0
        assert h.labels().quantile(0.0) == 10.0

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", "", buckets=(5, 1))

    def test_labeled_series_independent(self):
        h = MetricsRegistry().histogram("h", "", buckets=(10,))
        h.labels(thread="a").observe(3)
        h.labels(thread="b").observe(30)
        assert h.labels(thread="a").count == 1
        assert h.labels(thread="a").counts == [1, 0]
        assert h.labels(thread="b").counts == [0, 1]


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("repro_allocs_total", "allocations").inc(3)
        reg.gauge("repro_bytes", "bytes").labels(
            region="r.b", policy="LT").set(24)
        text = to_prometheus(reg)
        assert "# HELP repro_allocs_total allocations" in text
        assert "# TYPE repro_allocs_total counter" in text
        assert "repro_allocs_total 3" in text.splitlines()
        assert ('repro_bytes{policy="LT",region="r.b"} 24'
                in text.splitlines())

    def test_histogram_exposition(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_cost", "cost", buckets=(10, 20))
        for v in (5, 15, 99):
            h.observe(v)
        lines = to_prometheus(reg).splitlines()
        assert "# TYPE repro_cost histogram" in lines
        assert 'repro_cost_bucket{le="10"} 1' in lines
        assert 'repro_cost_bucket{le="20"} 2' in lines
        assert 'repro_cost_bucket{le="+Inf"} 3' in lines
        assert "repro_cost_sum 119" in lines
        assert "repro_cost_count 3" in lines

    def test_registered_but_unobserved_exports_zero_series(self):
        reg = MetricsRegistry()
        reg.histogram("repro_idle", "never touched", buckets=(1,))
        lines = to_prometheus(reg).splitlines()
        assert 'repro_idle_bucket{le="+Inf"} 0' in lines
        assert "repro_idle_count 0" in lines

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.gauge("g", "").labels(name='we"ird\\x').set(1)
        text = to_prometheus(reg)
        assert 'name="we\\"ird\\\\x"' in text

    def test_to_dict_roundtrips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("c", "help").inc(2)
        reg.histogram("h", "", buckets=(10,)).observe(4)
        snapshot = json.loads(json.dumps(reg.to_dict()))
        assert snapshot["c"]["series"][0]["value"] == 2
        assert snapshot["h"]["series"][0]["buckets"]["10"] == 1
        assert snapshot["h"]["series"][0]["buckets"]["+Inf"] == 1


def _fake_stats(recorder=None):
    return SimpleNamespace(
        cycles=1000, check_cycles=100, alloc_cycles=200,
        region_cycles=150, thread_cycles=50, gc_pause_cycles=300,
        io_cycles=0, cycles_by_thread={"main": 1000}, recorder=recorder)


class TestProfileView:
    """``repro profile``'s per-site and per-region tables are a view of
    the flight recorder's exact ``site_totals``."""

    def test_alloc_and_check_accumulation(self):
        rec = FlightRecorder(capacity=1)  # the report needs no ring
        for nbytes in (16, 24):
            rec.record("alloc", "A -> r", attrs={
                "bytes": nbytes, "region": "r", "line": 10})
        rec.record("alloc", "A -> heap", attrs={
            "bytes": 16, "region": "heap", "line": 12})
        for cycles in (32, 36):
            rec.record("check-assign", "r", attrs={
                "cycles": cycles, "line": 11})
        rec.record("check-read", "main", attrs={"cycles": 8, "line": 11})
        rec.record("check-elide-assign", "r", attrs={
            "cycles_saved": 28, "line": 13})
        assert rec.site_totals == {
            ("alloc", 10, "r"): [2, 40],
            ("alloc", 12, "heap"): [1, 16],
            ("check-assign", 11, "r"): [2, 68],
            ("check-read", 11, "main"): [1, 8],
            ("check-elide-assign", 13, "r"): [1, 28]}
        areas = [SimpleNamespace(name=name, policy="LT",
                                 kind_name="LocalRegion", peak_bytes=0)
                 for name in ("r", "heap", "main")]
        report = build_report(_fake_stats(rec), areas)
        sites = {s.line: s for s in report.sites}
        assert (sites[10].allocations, sites[10].alloc_bytes) == (2, 40)
        assert (sites[12].allocations, sites[12].alloc_bytes) == (1, 16)
        # performed checks only: an elided check charged nothing
        assert (sites[11].checks, sites[11].check_cycles) == (3, 76)
        assert 13 not in sites
        regions = {r.name: r for r in report.regions}
        assert (regions["r"].allocations, regions["r"].alloc_bytes,
                regions["r"].check_cycles) == (2, 40, 68)
        # a read check's subject is its thread, never a region
        assert "main" not in regions

    def test_build_report_category_attribution(self):
        report = build_report(_fake_stats())
        assert report.total_cycles == 1000
        assert report.categories["compute"] == 200
        assert report.attributed_fraction == 1.0
        assert report.sites == [] and report.regions == []
        assert "compute" in report.format()


# ---------------------------------------------------------------------------
# Prometheus exposition round-trip (exporter fidelity)
# ---------------------------------------------------------------------------

def _parse_prometheus(text):
    """A minimal exposition-format parser: returns
    (help, types, samples) where samples maps
    (name, frozenset(labels.items())) -> float value."""
    import re
    help_text, types, samples = {}, {}, {}
    label_re = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            name, _, rest = line[len("# HELP "):].partition(" ")
            help_text[name] = (rest.replace("\\n", "\n")
                               .replace("\\\\", "\\"))
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unparsed comment: {line!r}"
        if "{" in line:
            name, _, rest = line.partition("{")
            body, _, value = rest.rpartition("} ")
            labels = {}
            for key, raw in label_re.findall(body):
                labels[key] = (raw.replace("\\\\", "\x00")
                               .replace('\\"', '"').replace("\\n", "\n")
                               .replace("\x00", "\\"))
        else:
            name, _, value = line.partition(" ")
            labels = {}
        samples[(name, frozenset(labels.items()))] = float(value)
    return help_text, types, samples


class TestPrometheusRoundTrip:
    HOSTILE = 'sp ace\\"quote\\back\nnew"line{brace}'

    def test_help_text_escaped_and_recovered(self):
        registry = MetricsRegistry()
        registry.counter("hostile_help",
                         'first\nsecond "quoted" back\\slash').inc()
        text = to_prometheus(registry)
        # the rendered exposition must stay line-oriented: the newline
        # in the help text may not produce an unparseable bare line
        for line in text.splitlines():
            assert line.startswith(("#", "hostile_help"))
        help_text, _, _ = _parse_prometheus(text)
        assert help_text["hostile_help"] \
            == 'first\nsecond "quoted" back\\slash'

    def test_hostile_label_values_roundtrip(self):
        registry = MetricsRegistry()
        registry.gauge("g", "h").labels(region=self.HOSTILE).set(7)
        text = to_prometheus(registry)
        _, _, samples = _parse_prometheus(text)
        key = ("g", frozenset({("region", self.HOSTILE)}))
        assert samples[key] == 7.0

    def test_counter_gauge_histogram_fidelity(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "count").labels(k="a").inc(3)
        registry.counter("c_total", "count").labels(k="b").inc(5)
        registry.gauge("g_bytes", "gauge").set(12.5)
        hist = registry.histogram("h_cycles", "hist", buckets=(1, 10, 100))
        for v in (0, 5, 5, 50, 500):
            hist.observe(v)
        help_text, types, samples = _parse_prometheus(
            to_prometheus(registry))
        assert types == {"c_total": "counter", "g_bytes": "gauge",
                         "h_cycles": "histogram"}
        assert help_text["h_cycles"] == "hist"
        assert samples[("c_total", frozenset({("k", "a")}))] == 3.0
        assert samples[("c_total", frozenset({("k", "b")}))] == 5.0
        assert samples[("g_bytes", frozenset())] == 12.5
        buckets = [samples[("h_cycles_bucket",
                            frozenset({("le", le)}))]
                   for le in ("1", "10", "100", "+Inf")]
        # cumulative buckets are monotone non-decreasing
        assert buckets == sorted(buckets)
        assert buckets == [1.0, 3.0, 4.0, 5.0]
        # +Inf bucket == _count; _sum matches the observations
        assert buckets[-1] == samples[("h_cycles_count", frozenset())]
        assert samples[("h_cycles_sum", frozenset())] == 560.0


class TestHistogramQuantiles:
    """p50/p95/p99 derived from buckets at export time (no collection
    cost beyond what the buckets already paid)."""

    def test_quantiles_dict_from_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_q", buckets=(10, 100, 1000))
        for v in [5] * 50 + [50] * 45 + [500] * 5:
            h.observe(v)
        q = h.quantiles()
        assert set(q) == {"p50", "p95", "p99"}
        assert q["p50"] == 10.0   # 50th obs lands in the <=10 bucket
        assert q["p95"] == 100.0
        assert q["p99"] == 1000.0

    def test_quantiles_merge_across_children(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_q", buckets=(10, 100))
        for _ in range(99):
            h.labels(region="a").observe(5)
        h.labels(region="b").observe(50)
        q = h.quantiles()
        assert q["p50"] == 10.0
        assert q["p99"] == 10.0

    def test_empty_histogram_has_no_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_q", buckets=(10,))
        assert h.quantiles() == {}

    def test_prometheus_export_emits_quantile_lines(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_q", "help", buckets=(10, 100))
        for v in (5, 5, 50):
            h.observe(v)
        text = to_prometheus(reg)
        assert 'repro_q{quantile="0.5"} 10.0' in text
        assert 'repro_q{quantile="0.99"} 100.0' in text
        # the summary-style lines sit between buckets and _sum/_count
        assert text.index("_bucket") < text.index('quantile="0.5"') \
            < text.index("repro_q_sum")

    def test_stats_summary_includes_quantiles(self):
        from repro.rtsj.stats import Stats
        stats = Stats()
        h = stats.metrics.histogram("repro_check_cycles",
                                    buckets=(10, 100))
        h.observe(5)
        summary = stats.summary()
        assert summary["quantiles"]["repro_check_cycles"]["p50"] == 10.0
        # deterministic: derived from simulated data only
        assert summary["quantiles"] == stats.quantile_summary()


class TestLabelCardinalityGuard:
    """The per-metric label-set cap: overflow folds into "<other>" and
    counts drops instead of growing without bound."""

    def test_overflow_folds_into_other(self):
        from repro.obs.metrics import (LABELS_DROPPED_METRIC,
                                       OVERFLOW_LABEL_VALUE)
        reg = MetricsRegistry(max_label_sets=4)
        counter = reg.counter("repro_sites")
        for i in range(10):
            counter.labels(site=f"s{i}").inc()
        keys = [dict(key) for key, _ in counter.children()]
        assert len(keys) == 5  # 4 real + 1 overflow
        assert {"site": OVERFLOW_LABEL_VALUE} in keys
        overflow = counter.labels(site=OVERFLOW_LABEL_VALUE)
        assert overflow.value == 6  # the 6 folded observations
        drops = reg.counter(LABELS_DROPPED_METRIC)
        assert drops.labels(metric="repro_sites").value == 6

    def test_existing_series_keep_updating_past_cap(self):
        reg = MetricsRegistry(max_label_sets=2)
        counter = reg.counter("repro_sites")
        counter.labels(site="a").inc()
        counter.labels(site="b").inc()
        counter.labels(site="c").inc()   # folded
        counter.labels(site="a").inc(5)  # existing: not folded
        assert counter.labels(site="a").value == 6

    def test_drop_counter_is_exempt_from_its_own_cap(self):
        from repro.obs.metrics import LABELS_DROPPED_METRIC
        reg = MetricsRegistry(max_label_sets=1)
        for i in range(5):
            reg.counter(f"repro_m{i}").labels(x="a").inc()
            reg.counter(f"repro_m{i}").labels(x="b").inc()  # folded
        drops = reg.counter(LABELS_DROPPED_METRIC)
        # one real child per overflowing metric, never folded itself
        assert len(list(drops.children())) == 5

    def test_unlabeled_series_never_fold(self):
        reg = MetricsRegistry(max_label_sets=1)
        gauge = reg.gauge("repro_g")
        gauge.labels(a="1").set(1)
        gauge.set(7)  # the unlabeled default child
        assert gauge.labels().value == 7


class TestTracerSampling:
    """The recorder's one 1-in-N stride, seen through the trace export:
    high-volume instants thin, spans and lifecycle records never do."""

    def test_instant_detail_events_sampled(self):
        rec = FlightRecorder(sample=4)
        for i in range(10):
            rec.record("check-assign", f"s{i}", cycle=i,
                       attrs={"cycles": 1})
        stored = [e for e in _trace(rec) if e["kind"] == "check-assign"]
        assert [e["subject"] for e in stored] == ["s0", "s4", "s8"]
        assert rec.sampled_out == 7

    def test_spans_never_sampled(self):
        rec = FlightRecorder(sample=100)
        for i in range(5):
            rec.push("region-enter", f"r{i}", cycle=i)
            rec.pop("region-exit", f"r{i}", cycle=i + 1)
        events = _trace(rec)
        assert len(events) == 10
        assert _spans_nest(events)
        assert rec.sampled_out == 0

    def test_lifecycle_emit_never_sampled(self):
        rec = FlightRecorder(sample=100)
        for i in range(5):
            rec.record("gc", f"run{i}", cycle=i)
        assert len(_trace(rec)) == 5

    def test_trace_lines_appends_sampled_marker(self):
        rec = FlightRecorder(sample=2)
        for i in range(4):
            rec.record("alloc", f"s{i}", cycle=i)
        marker = [e for e in _trace(rec) if e["kind"] == "trace-sampled"]
        assert len(marker) == 1
        assert marker[0]["attrs"] == {"sampled_out": 2, "sample": 2}


class TestParsePrometheus:
    """The library parser: exact inverse of to_prometheus, used by the
    CI scrape-validation job."""

    def test_round_trip_samples(self):
        from repro.obs import parse_prometheus
        reg = MetricsRegistry()
        reg.counter("repro_c", "a counter").labels(kind="x").inc(3)
        reg.gauge("repro_g", "a gauge").set(2.5)
        h = reg.histogram("repro_h", "a hist", buckets=(10, 100))
        h.observe(5)
        help_text, types, samples = parse_prometheus(to_prometheus(reg))
        assert types == {"repro_c": "counter", "repro_g": "gauge",
                         "repro_h": "histogram"}
        assert samples[("repro_c", (("kind", "x"),))] == 3.0
        assert samples[("repro_g", ())] == 2.5
        assert samples[("repro_h_bucket", (("le", "10"),))] == 1.0
        assert samples[("repro_h_count", ())] == 1.0

    def test_hostile_label_values_round_trip(self):
        from repro.obs import parse_prometheus
        hostile = 'a"b\\c\nd'
        reg = MetricsRegistry()
        reg.counter("repro_c").labels(site=hostile).inc()
        _, _, samples = parse_prometheus(to_prometheus(reg))
        assert samples[("repro_c", (("site", hostile),))] == 1.0

    def test_malformed_lines_raise(self):
        from repro.obs import parse_prometheus
        with pytest.raises(ValueError):
            parse_prometheus("repro_c_no_value\n")
        with pytest.raises(ValueError):
            parse_prometheus("repro_c not-a-number\n")

    def test_snapshot_render_matches_live_render(self):
        from repro.obs import parse_prometheus, snapshot_to_prometheus
        reg = MetricsRegistry()
        reg.counter("repro_c", "c help").labels(kind="x").inc(3)
        h = reg.histogram("repro_h", "h help", buckets=(10, 100))
        for v in (5, 50, 500):
            h.observe(v)
        snapshot = json.loads(json.dumps(reg.to_dict()))
        live = parse_prometheus(to_prometheus(reg))
        rendered = parse_prometheus(snapshot_to_prometheus(snapshot))
        # same samples modulo the live render's derived quantile lines
        live_samples = {k: v for k, v in live[2].items()
                        if not any(lk == "quantile"
                                   for lk, _ in k[1])}
        assert rendered[2] == live_samples
