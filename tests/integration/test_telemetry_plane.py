"""Integration tests for the continuous-telemetry plane: the CLI
telemetry flags, the sampling tier's cycle neutrality, the metricsd
scrape path, and the `repro report` regression gate."""

import io
import json
import sys
import urllib.request
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.cli import main
from repro.core.api import analyze
from repro.interp.machine import Machine, RunOptions
from repro.obs.telemetry import TelemetryStore, validate_envelope

from .test_serve import _keepalive_probe

#: a program with enough regions, allocations, and checks to exercise
#: every high-volume event kind the sampling tier thins
PROGRAM = """
class Cell<Owner o> { int v; Cell<o> next; }
class Chain<Owner o> {
    Cell<o> head;
    void build(int n) accesses o, heap {
        int i = 0;
        while (i < n) {
            Cell<o> c = new Cell<o>;
            c.v = i;
            c.next = head;
            head = c;
            i = i + 1;
        }
    }
}
(RHandle<r> h) {
    Chain<r> chain = new Chain<r>;
    chain.build(40);
    (RHandle<r2> h2) {
        Cell<r2> scratch = new Cell<r2>;
        scratch.v = 7;
        print(scratch.v);
    }
    print(1);
}
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "chain.rtj"
    path.write_text(PROGRAM)
    return str(path)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestSamplingCycleNeutrality:
    """The always-on tier must never perturb simulated results."""

    def _cycles(self, **options):
        analyzed = analyze(PROGRAM)
        assert not analyzed.errors
        machine = Machine(analyzed, RunOptions(checks_enabled=True,
                                               **options))
        result = machine.run()
        return result.stats.cycles, result.output

    def test_sampled_recording_is_cycle_neutral(self):
        plain = self._cycles()
        recorded = self._cycles(record=True, record_sample=8)
        evicting = self._cycles(record=True, record_capacity=16)
        assert recorded == plain
        assert evicting == plain

    def test_sampled_recorder_keeps_exact_check_totals(self):
        analyzed = analyze(PROGRAM)
        full = Machine(analyzed, RunOptions(checks_enabled=True,
                                            record=True))
        full.run()
        sampled = Machine(analyzed, RunOptions(checks_enabled=True,
                                               record=True,
                                               record_sample=5))
        sampled.run()
        assert sampled.recorder.kind_counts == full.recorder.kind_counts
        assert sampled.recorder.check_totals \
            == full.recorder.check_totals
        assert sampled.recorder.sampled_out > 0
        assert sampled.recorder.total < full.recorder.total

    def test_overhead_gauge_exported(self):
        analyzed = analyze(PROGRAM)
        machine = Machine(analyzed, RunOptions(checks_enabled=True,
                                               record=True))
        machine.run()
        from repro.obs import to_prometheus
        text = to_prometheus(machine.stats.metrics)
        assert 'repro_observability_overhead_seconds{' \
               'component="flightrec"}' in text
        assert 'repro_flight_events{disposition="seen"}' in text


class TestTelemetryCli:
    def test_run_records_valid_envelope(self, program_file, tmp_path):
        store_dir = str(tmp_path / "tstore")
        code, _out, err = run_cli(
            "run", program_file, "--dynamic-checks",
            "--record-out", str(tmp_path / "f.jsonl"),
            "--record-sample", "4",
            "--telemetry-store", store_dir)
        assert code == 0
        assert "telemetry: recorded run envelope" in err
        store = TelemetryStore(store_dir)
        assert store.validate() == []
        (envelope,) = store.load_recent(1, kind="run")
        assert validate_envelope(envelope) == []
        assert envelope["summary"]["assignment_checks"] > 0
        assert envelope["flight"]["sample"] == 4
        assert envelope["meta"]["mode"] == "dynamic"
        assert "repro_run_cycles" in envelope["metrics"]
        assert envelope["overhead"]["flightrec_s"] >= 0.0

    def test_chaos_records_taxonomy(self, program_file, tmp_path):
        store_dir = str(tmp_path / "tstore")
        code, _out, _err = run_cli(
            "chaos", program_file, "--seeds", "2",
            "--telemetry-store", store_dir)
        assert code in (0, 4)  # campaign result, not telemetry, decides
        (envelope,) = TelemetryStore(store_dir).load_recent(
            1, kind="chaos")
        assert envelope["chaos"]["runs"] == 2
        assert "statuses" in envelope["chaos"]
        assert "by_program" in envelope["chaos"]

    def test_serve_metrics_scrapes_during_run(self, program_file,
                                              tmp_path):
        code, _out, err = run_cli(
            "run", program_file, "--serve-metrics", "0",
            "--telemetry-store", str(tmp_path / "tstore"))
        assert code == 0
        assert "serving /metrics on http://" in err

    def test_serve_metrics_keeps_one_connection_alive(
            self, program_file, tmp_path, monkeypatch):
        # probe the endpoint from inside the run, while it is up
        probed = {}
        real_run = Machine.run

        def run_after_probe(machine):
            ready = next(line for line in sys.stderr.getvalue()
                         .splitlines()
                         if line.startswith("REPRO-METRICS-READY"))
            fields = dict(part.split("=", 1)
                          for part in ready.split()[1:])
            probed["result"] = _keepalive_probe(fields["host"],
                                                int(fields["port"]))
            return real_run(machine)

        monkeypatch.setattr(Machine, "run", run_after_probe)
        code, _out, _err = run_cli(
            "run", program_file, "--serve-metrics", "0",
            "--telemetry-store", str(tmp_path / "tstore"))
        assert code == 0
        statuses, one_connection = probed["result"]
        assert statuses == [200, 200, 404, 404, 400]
        assert one_connection


def _interp_payload(wall=0.1, cycles=1000):
    from repro.bench.compare import make_payload, row
    return make_payload("interp", {}, [
        row("array", "dynamic", "interp", "wall_s", wall, "wall"),
        row("array", "dynamic", "interp", "cycles", cycles, "exact"),
        row("array", "static", "interp", "wall_s", wall / 2, "wall"),
        row("array", "static", "interp", "cycles", 500, "exact")])


class TestReportGate:
    """The CI regression gate: exit 0 on committed baselines, exit 3 on
    an injected slowdown."""

    def _seed(self, tmp_path, walls):
        store_dir = str(tmp_path / "tstore")
        store = TelemetryStore(store_dir)
        from repro.obs.telemetry import make_envelope
        for i, wall in enumerate(walls):
            store.append(make_envelope(
                "bench", created_at=1000.0 + i, git_sha="",
                bench={"suite": "interp",
                       "payload": _interp_payload(wall)}))
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_interp_payload()))
        return store_dir, str(baseline)

    def test_passes_on_stable_history(self, tmp_path):
        store_dir, baseline = self._seed(tmp_path, [0.101, 0.099, 0.1])
        code, out, err = run_cli(
            "report", "--store", store_dir,
            "--baseline", baseline)
        assert code == 0
        assert "no regression" in err
        assert "array/dynamic" in out

    def test_fails_on_injected_slowdown(self, tmp_path):
        store_dir, baseline = self._seed(tmp_path, [0.1, 0.1])
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(_interp_payload(wall=0.5)))
        code, _out, err = run_cli(
            "report", "--store", store_dir,
            "--baseline", baseline,
            "--current", str(slow))
        assert code == 3
        assert "regression" in err

    def test_fails_on_determinism_break(self, tmp_path):
        store_dir, baseline = self._seed(tmp_path, [0.1])
        drift = tmp_path / "drift.json"
        drift.write_text(json.dumps(_interp_payload(cycles=1001)))
        code, _out, err = run_cli(
            "report", "--store", store_dir,
            "--baseline", baseline,
            "--current", str(drift))
        assert code == 3
        assert "determinism" in err

    def test_json_and_html_renderings(self, tmp_path):
        store_dir, baseline = self._seed(tmp_path, [0.1, 0.1])
        code, out, _err = run_cli(
            "report", "--store", store_dir,
            "--baseline", baseline, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "repro-report/2"
        html_path = tmp_path / "report.html"
        code, _out, err = run_cli(
            "report", "--store", store_dir,
            "--baseline", baseline,
            "--format", "html", "--out", str(html_path))
        assert code == 0
        assert "<svg" not in html_path.read_text() \
            or "polyline" in html_path.read_text()
        assert "repro regression observatory" in html_path.read_text()

    def test_nothing_to_judge_errors(self, tmp_path):
        code, _out, err = run_cli(
            "report", "--store", str(tmp_path / "empty"),
            "--baseline", str(tmp_path / "missing.json"))
        assert code == 1


class TestBenchTelemetryAndScrape:
    """bench --telemetry feeds the store the observatory and metricsd
    read; the scrape output round-trips through the library parser."""

    def test_bench_envelope_then_report(self, tmp_path):
        store_dir = str(tmp_path / "tstore")
        code, _out, _err = run_cli(
            "bench", "--only", "Array", "--repeats", "1",
            "--telemetry-store", store_dir)
        assert code == 0
        store = TelemetryStore(store_dir)
        (envelope,) = store.load_recent(1, kind="bench")
        assert envelope["bench"]["suite"] == "interp"
        payload = envelope["bench"]["payload"]
        assert {r["program"] for r in payload["rows"]} == {"Array",
                                                           "total"}
        # a report judged against this same payload as baseline: ok
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(payload))
        code, out, _err = run_cli(
            "report", "--store", store_dir,
            "--baseline", str(baseline))
        assert code == 0
        assert "Array/dynamic" in out

    def test_scrape_round_trips_through_parser(self, tmp_path):
        store_dir = str(tmp_path / "tstore")
        store = TelemetryStore(store_dir)
        from repro.obs import MetricsRegistry
        from repro.obs.telemetry import make_envelope
        reg = MetricsRegistry()
        reg.counter("repro_c", "help").labels(kind="x").inc(2)
        h = reg.histogram("repro_h", "hist", buckets=(10, 100))
        h.observe(5)
        store.append(make_envelope("run", created_at=1.0, git_sha="",
                                   metrics=reg.to_dict()))
        from repro.obs.live import telemetry_routes
        from repro.serve.server import HTTPEdge
        with HTTPEdge("127.0.0.1", 0, telemetry_routes(store)) \
                .serve_background() as server:
            url = f"http://{server.host}:{server.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain")
                body = response.read().decode()
        from repro.obs import parse_prometheus
        _help, types, samples = parse_prometheus(body)
        assert types["repro_c"] == "counter"
        assert samples[("repro_c", (("kind", "x"),))] == 2.0
        assert samples[("repro_h_bucket", (("le", "+Inf"),))] == 1.0
