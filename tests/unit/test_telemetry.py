"""Unit tests for the continuous-telemetry plane: the envelope store,
the shared bench-compare statistics, the regression observatory, and
the live scrape endpoint."""

import json
import urllib.request

import pytest

from repro.bench.compare import (failures, judge, mad, make_payload,
                                 median, robust_threshold, row)
from repro.obs.live import telemetry_routes
from repro.obs.report import build_report, render_html, render_text
from repro.obs.telemetry import (TELEMETRY_SCHEMA, TelemetryStore,
                                 envelope_digest, make_envelope,
                                 validate_envelope)
from repro.serve.server import HTTPEdge


def _store(tmp_path):
    return TelemetryStore(str(tmp_path / "telemetry"))


def _telemetry_server(store, registry=None):
    """The telemetry routes on the one HTTP server, as ``repro
    metricsd`` and ``repro run --serve-metrics`` mount them."""
    return HTTPEdge("127.0.0.1", 0,
                    telemetry_routes(store, registry)).serve_background()


class TestEnvelope:
    def test_make_envelope_minimal(self):
        env = make_envelope("run", created_at=123.0, git_sha="")
        assert env["schema"] == TELEMETRY_SCHEMA
        assert env["kind"] == "run"
        assert env["created_at"] == 123.0
        assert validate_envelope(env) == []

    def test_empty_sections_omitted(self):
        env = make_envelope("run", created_at=1.0, git_sha="",
                            summary={}, bench=None,
                            meta={"mode": "dynamic"})
        assert "summary" not in env and "bench" not in env
        assert env["meta"] == {"mode": "dynamic"}

    def test_validate_rejects_bad_envelopes(self):
        assert validate_envelope([]) == ["envelope is not an object"]
        assert any("schema" in p for p in validate_envelope(
            {"schema": "x/9", "kind": "run", "created_at": 1}))
        assert any("kind" in p for p in validate_envelope(
            {"schema": TELEMETRY_SCHEMA, "kind": "nope",
             "created_at": 1}))
        assert any("created_at" in p for p in validate_envelope(
            {"schema": TELEMETRY_SCHEMA, "kind": "run"}))
        assert any("section" in p for p in validate_envelope(
            {"schema": TELEMETRY_SCHEMA, "kind": "run",
             "created_at": 1, "summary": "not-a-dict"}))

    def test_digest_is_content_addressed(self):
        a = make_envelope("run", created_at=1.0, git_sha="",
                          summary={"cycles": 1})
        b = make_envelope("run", created_at=1.0, git_sha="",
                          summary={"cycles": 1})
        c = make_envelope("run", created_at=1.0, git_sha="",
                          summary={"cycles": 2})
        assert envelope_digest(a) == envelope_digest(b)
        assert envelope_digest(a) != envelope_digest(c)


class TestStore:
    def _envelope(self, i, kind="run"):
        return make_envelope(kind, created_at=1000.0 + i, git_sha="",
                             label=f"e{i}", summary={"cycles": i})

    def test_append_load_round_trip(self, tmp_path):
        store = _store(tmp_path)
        env = self._envelope(1)
        sha = store.append(env)
        assert store.load(sha) == env
        assert store.validate() == []

    def test_append_dedups_identical_envelopes(self, tmp_path):
        store = _store(tmp_path)
        env = self._envelope(1)
        assert store.append(env) == store.append(env)
        assert len(store.index()) == 1

    def test_append_rejects_invalid(self, tmp_path):
        with pytest.raises(ValueError):
            _store(tmp_path).append({"schema": "x/9"})

    def test_recent_filters_and_orders(self, tmp_path):
        store = _store(tmp_path)
        for i in range(5):
            store.append(self._envelope(i))
        store.append(self._envelope(99, kind="bench"))
        recent = store.recent(3)
        assert [e["label"] for e in recent] == ["e99", "e4", "e3"]
        assert [e["label"] for e in store.recent(10, kind="bench")] \
            == ["e99"]

    def test_empty_store_reads_empty(self, tmp_path):
        store = _store(tmp_path)
        assert store.index() == []
        assert store.recent(5) == []
        assert store.validate() == []

    def test_load_detects_corruption(self, tmp_path):
        store = _store(tmp_path)
        sha = store.append(self._envelope(1))
        path = tmp_path / "telemetry" / "objects" / (sha + ".json")
        path.write_text('{"schema": "repro-telemetry/1", "kind": '
                        '"run", "created_at": 1}')
        with pytest.raises(ValueError):
            store.load(sha)
        assert store.validate() != []

    def test_rebuild_index(self, tmp_path):
        store = _store(tmp_path)
        for i in range(3):
            store.append(self._envelope(i))
        (tmp_path / "telemetry" / "index.jsonl").unlink()
        assert store.validate() != []  # objects missing from index
        assert store.rebuild_index() == 3
        assert store.validate() == []
        assert [e["label"] for e in store.recent(3)] \
            == ["e2", "e1", "e0"]


class TestRobustStats:
    def test_median_and_mad(self):
        assert median([]) == 0.0
        assert median([3.0]) == 3.0
        assert median([1.0, 3.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        assert mad([5.0]) == 0.0
        assert mad([1.0, 1.0, 1.0]) == 0.0
        assert mad([1.0, 2.0, 9.0]) == 1.0

    def test_robust_threshold_widens_with_noise(self):
        stable = [0.100, 0.101, 0.099, 0.100]
        noisy = [0.080, 0.120, 0.095, 0.140]
        base = 0.30
        assert robust_threshold(base, []) == base
        assert robust_threshold(base, stable) == pytest.approx(
            base, abs=0.05)
        assert robust_threshold(base, noisy) > \
            robust_threshold(base, stable)

    def test_shared_judgments(self):
        def one(kind, base, cur, threshold=0.3):
            payload = {"rows": [row("x", None, None, "m", base, kind)]}
            current = {"rows": [row("x", None, None, "m", cur, kind)]
                       if cur is not None else []}
            return failures(judge(current, payload, threshold))

        assert one("wall", 0.1, 0.1) == []
        assert one("wall", 0.0, 9.9) == []  # no baseline timing
        (msg,) = one("wall", 0.1, 0.2)
        assert "regression" in msg
        assert one("exact", 5, 5) == []
        assert "determinism" in one("exact", 5, 6)[0]
        assert "missing" in one("exact", 5, None)[0]


def _interp_payload(wall=0.1, cycles=1000):
    return make_payload("interp", {}, [
        row("array", "dynamic", "interp", "wall_s", wall, "wall"),
        row("array", "dynamic", "interp", "cycles", cycles, "exact"),
        row("array", "static", "interp", "wall_s", wall / 2, "wall"),
        row("array", "static", "interp", "cycles", 500, "exact")])


def _rows(report, suite="interp"):
    return {r["label"]: r for r in report["suites"][suite]["rows"]}


class TestObservatory:
    def _seed_history(self, store, walls):
        for i, wall in enumerate(walls):
            store.append(make_envelope(
                "bench", created_at=1000.0 + i, git_sha="",
                bench={"suite": "interp",
                       "payload": _interp_payload(wall)}))

    def test_ok_on_stable_history(self, tmp_path):
        store = _store(tmp_path)
        self._seed_history(store, [0.101, 0.099, 0.100])
        report = build_report(store,
                              baselines={"interp": _interp_payload()})
        assert report["ok"]
        rows = _rows(report)
        assert rows["array/dynamic/interp/wall_s"]["verdict"] == "ok"
        assert rows["array/dynamic/interp/wall_s"]["history"] == \
            [0.101, 0.099]

    def test_regression_fails_report(self, tmp_path):
        store = _store(tmp_path)
        self._seed_history(store, [0.10, 0.10, 0.25])
        report = build_report(store,
                              baselines={"interp": _interp_payload()})
        assert not report["ok"]
        assert any("regression" in f
                   for f in report["suites"]["interp"]["failures"])

    def test_determinism_break_fails_report(self, tmp_path):
        store = _store(tmp_path)
        report = build_report(
            store, baselines={"interp": _interp_payload(cycles=1000)},
            current={"interp": _interp_payload(cycles=1001)})
        assert not report["ok"]
        assert any("determinism" in f
                   for f in report["suites"]["interp"]["failures"])

    def test_missing_strict_only_for_explicit_current(self, tmp_path):
        store = _store(tmp_path)
        subset = make_payload("interp", {}, [])
        # store-inferred subset run: informational, not failing
        store.append(make_envelope(
            "bench", created_at=1.0, git_sha="",
            bench={"suite": "interp", "payload": subset}))
        report = build_report(store,
                              baselines={"interp": _interp_payload()})
        assert report["ok"]
        # explicit --current payload must be complete
        report = build_report(store,
                              baselines={"interp": _interp_payload()},
                              current={"interp": subset})
        assert not report["ok"]

    def test_noisy_history_widens_threshold(self, tmp_path):
        store = _store(tmp_path)
        # very noisy history: +50% current should NOT page
        self._seed_history(store,
                           [0.05, 0.15, 0.07, 0.18, 0.06, 0.150])
        report = build_report(store,
                              baselines={"interp": _interp_payload()})
        wall = _rows(report)["array/dynamic/interp/wall_s"]
        assert wall["threshold"] > report["threshold"]
        assert wall["verdict"] == "ok"

    def test_renderings(self, tmp_path):
        store = _store(tmp_path)
        self._seed_history(store, [0.10, 0.25])
        report = build_report(store,
                              baselines={"interp": _interp_payload()})
        text = render_text(report)
        assert "array/dynamic/interp/wall_s" in text and "FAIL" in text
        html = render_html(report)
        assert "regression" in html and "<table>" in html

    def test_empty_report(self, tmp_path):
        report = build_report(_store(tmp_path))
        assert report["suites"] == {} and report["ok"]


class TestLiveServer:
    def _get(self, server, path):
        url = f"http://{server.host}:{server.port}{path}"
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode()

    def test_routes_over_store(self, tmp_path):
        store = _store(tmp_path)
        from repro.obs import MetricsRegistry
        reg = MetricsRegistry()
        reg.counter("repro_c", "help").labels(kind="x").inc(3)
        sha = store.append(make_envelope(
            "run", created_at=1.0, git_sha="", label="demo",
            summary={"cycles": 7}, metrics=reg.to_dict()))
        with _telemetry_server(store) as server:
            status, body = self._get(server, "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["envelopes"] == 1
            assert health["metrics_source"] == "store"

            status, body = self._get(server, "/metrics")
            assert status == 200
            from repro.obs import parse_prometheus
            _, types, samples = parse_prometheus(body)
            assert samples[("repro_c", (("kind", "x"),))] == 3.0

            status, body = self._get(server, "/runs?n=5")
            runs = json.loads(body)
            assert [e["sha"] for e in runs] == [sha]

            status, body = self._get(server, f"/runs/{sha}")
            assert json.loads(body)["label"] == "demo"

    def test_live_registry_takes_precedence(self, tmp_path):
        from repro.obs import MetricsRegistry, parse_prometheus
        reg = MetricsRegistry()
        gauge = reg.gauge("repro_live", "live gauge")
        gauge.set(1)
        with _telemetry_server(_store(tmp_path), reg) as server:
            _, body = self._get(server, "/metrics")
            _, _, samples = parse_prometheus(body)
            assert samples[("repro_live", ())] == 1.0
            gauge.set(42)  # scrapes see the current value
            _, body = self._get(server, "/metrics")
            _, _, samples = parse_prometheus(body)
            assert samples[("repro_live", ())] == 42.0
            health = json.loads(self._get(server, "/healthz")[1])
            assert health["metrics_source"] == "live"

    def test_unknown_routes_404(self, tmp_path):
        with _telemetry_server(_store(tmp_path)) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._get(server, "/nope")
            assert err.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as err:
                self._get(server, "/runs/doesnotexist")
            assert err.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as err:
                self._get(server, "/runs?n=many")
            assert err.value.code == 400
