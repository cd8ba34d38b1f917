"""End-to-end request tracing over a live ``repro serve`` instance.

The wire contracts pinned here, all over real sockets and real forked
workers:

* **every** response carries ``X-Repro-Trace-Id`` — successes, 4xx
  admission rejects, and early protocol rejects alike — and a caller
  supplied ``X-Repro-Trace`` context is adopted, not replaced;
* one request produces **one complete span tree spanning three
  processes** (frontend admission, pool queue/dispatch, worker
  analyze/execute), readable back via ``GET /traces/<id>`` with zero
  ``validate_trace`` complaints — the cross-fork propagation gate;
* a coalesced follower's trace contains a ``coalesce-wait`` span
  naming the leader's trace id instead of duplicated worker spans;
* a job requeued across a worker crash keeps its trace id, shows two
  ``dispatch`` spans, and is flagged + retained as ``faulted``;
* error traces always survive tail-based sampling, even at an
  absurd 1-in-1000 rate;
* the ``ResilientClient`` mints the context end to end: the server
  root's parent is the client's attempt span;
* ``--access-log`` emits one JSON line per request naming the trace.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs.trace import validate_trace
from repro.faults import FaultInjector, FaultPlan
from repro.serve import (ClientPolicy, ResilientClient, ServeConfig,
                         ServeService, format_traceparent)
from repro.serve.protocol import TRACE_HEADER

from .test_serve import SOURCE, _get, _post, _variant


@pytest.fixture(scope="module")
def service():
    config = ServeConfig(workers=2, queue_depth=16, trace_sample=1)
    with ServeService(config).serve_background() as svc:
        yield svc


def _trace_record(service, trace_id):
    status, _headers, data = _get(service, f"/traces/{trace_id}")
    assert status == 200, f"trace {trace_id} not retained"
    return json.loads(data)


class TestTraceHeaders:

    def test_every_response_names_its_trace(self, service):
        cases = [
            ("run", {"program": _variant("hdr-ok")}, 200),
            ("run", {"program": "{ print( }"}, 422),
            ("run", {}, 400),
            ("nope", {"program": SOURCE}, 404),
        ]
        seen = set()
        for endpoint, payload, expect in cases:
            status, headers, _body = _post(service, endpoint, payload)
            assert status == expect, (endpoint, status)
            trace_id = headers.get("X-Repro-Trace-Id")
            assert trace_id and len(trace_id) == 32, \
                f"{endpoint} -> {expect} lost its trace id"
            seen.add(trace_id)
        assert len(seen) == len(cases)  # one fresh trace per request

    def test_a_supplied_context_is_adopted(self, service):
        import http.client
        trace_id = "ab" * 16
        parent = "cd" * 8
        conn = http.client.HTTPConnection(service.host, service.port,
                                          timeout=60)
        try:
            conn.request(
                "POST", "/v1/run",
                body=json.dumps({"program": _variant("hdr-adopt")}),
                headers={TRACE_HEADER:
                         format_traceparent(trace_id, parent)})
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200
            assert resp.getheader("X-Repro-Trace-Id") == trace_id
        finally:
            conn.close()
        record = _trace_record(service, trace_id)
        root = [s for s in record["spans"]
                if s["span"] == record["root"]][0]
        assert root["parent"] == parent  # the caller's span, external


class TestSpanTreeAcrossFork:

    def test_cold_miss_produces_a_complete_three_process_tree(
            self, service):
        status, headers, body = _post(service, "run", {
            "program": _variant("tree"), "mode": "static"})
        assert status == 200 and body["ok"]
        record = _trace_record(service,
                               headers["X-Repro-Trace-Id"])
        assert validate_trace(record) == []
        by_name = {}
        for span in record["spans"]:
            by_name.setdefault(span["name"], []).append(span)
        # the three processes each contributed their layer
        assert by_name["request"][0]["process"] == "frontend"
        assert by_name["admission"][0]["process"] == "frontend"
        assert by_name["queue-wait"][0]["process"] == "pool"
        assert by_name["dispatch"][0]["process"] == "pool"
        assert by_name["analyze"][0]["process"] == "worker"
        assert by_name["execute"][0]["process"] == "worker"
        # worker spans parent the dispatch span they rode
        dispatch = by_name["dispatch"][0]
        assert by_name["analyze"][0]["parent"] == dispatch["span"]
        # and the tree is temporally sane: monotonic clocks agree
        # across the fork, so the worker span nests inside dispatch
        analyze = by_name["analyze"][0]
        assert dispatch["start"] <= analyze["start"]
        assert analyze["end"] <= dispatch["end"] + 1e-3

    def test_hot_hit_traces_without_touching_the_pool(self, service):
        program = _variant("hot")
        _post(service, "run", {"program": program})
        status, headers, _body = _post(service, "run",
                                       {"program": program})
        assert status == 200
        record = _trace_record(service,
                               headers["X-Repro-Trace-Id"])
        names = {s["name"] for s in record["spans"]}
        assert "cache-hot" in names
        assert "dispatch" not in names  # answered at the frontend

    def test_error_trace_is_flagged_and_sound(self, service):
        status, headers, _body = _post(
            service, "run", {"program": "{ print( }"})
        assert status == 422
        record = _trace_record(service,
                               headers["X-Repro-Trace-Id"])
        assert record["status"] == 422
        assert record["retained"] == "error"
        assert validate_trace(record) == []


class TestCoalescedFollowers:

    def test_followers_reference_the_leaders_trace(self, service):
        program = _variant("coalesce-trace")
        barrier = threading.Barrier(6)
        results = []

        def fire():
            barrier.wait(timeout=10)
            status, headers, _ = _post(service, "run",
                                       {"program": program})
            results.append((status, headers["X-Repro-Trace-Id"]))

        threads = [threading.Thread(target=fire) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert [s for s, _ in results] == [200] * 6
        records = [_trace_record(service, tid) for _, tid in results]
        leaders = [r for r in records
                   if any(s["name"] == "dispatch"
                          for s in r["spans"])]
        followers = [r for r in records if "coalesced" in r["flags"]]
        hot = [r for r in records
               if any(s["name"] == "cache-hot" for s in r["spans"])]
        assert len(leaders) == 1
        assert len(followers) + len(hot) == 5
        leader_trace = leaders[0]["trace"]
        for record in followers:
            (wait,) = [s for s in record["spans"]
                       if s["name"] == "coalesce-wait"]
            assert wait["attrs"]["leader_trace"] == leader_trace
            # a follower rides the leader's work — no worker spans
            assert not any(s["process"] == "worker"
                           for s in record["spans"])


class TestRequeueAcrossCrash:

    def test_requeued_job_keeps_its_trace_and_shows_both_dispatches(
            self, tmp_path):
        injector = FaultInjector(FaultPlan(
            seed=0, rate=1.0, sites=("worker_crash",), max_faults=1,
            target="serve"))
        config = ServeConfig(workers=1, trace_sample=1000)
        with ServeService(config, fault_injector=injector) \
                .serve_background() as svc:
            status, headers, body = _post(svc, "run", {
                "program": _variant("crash"), "mode": "static"})
            assert status == 200 and body["ok"], body
            trace_id = headers["X-Repro-Trace-Id"]
            record = _trace_record(svc, trace_id)
        # survived sampling at 1-in-1000 because it is faulted
        assert record["retained"] == "faulted"
        assert "requeued" in record["flags"]
        assert "faulted" in record["flags"]
        dispatches = [s for s in record["spans"]
                      if s["name"] == "dispatch"]
        assert len(dispatches) == 2
        attempts = sorted(d["attrs"]["attempt"] for d in dispatches)
        assert attempts == [1, 2]
        # the second queue-wait is marked as the requeue
        requeues = [s for s in record["spans"]
                    if s["name"] == "queue-wait"
                    and s["attrs"].get("requeued")]
        assert len(requeues) == 1
        assert validate_trace(record) == []


class TestSamplingUnderLoad:

    def test_errors_survive_an_absurd_sampling_rate(self):
        config = ServeConfig(workers=1, trace_sample=1000)
        with ServeService(config).serve_background() as svc:
            for i in range(4):
                _post(svc, "run", {"program": _variant(f"spl{i}")})
            status, headers, _ = _post(svc, "run",
                                       {"program": "{ print( }"})
            assert status == 422
            error_trace = headers["X-Repro-Trace-Id"]
            status, _h, data = _get(svc, "/traces")
            payload = json.loads(data)
            stats = payload["stats"]
            assert stats["seen"] == 5
            assert stats["by_reason"].get("error") == 1
            retained = {r["trace"] for r in payload["traces"]}
            assert error_trace in retained

    def test_no_trace_mode_disables_the_whole_plane(self):
        config = ServeConfig(workers=1, tracing=False)
        with ServeService(config).serve_background() as svc:
            status, headers, _ = _post(svc, "run",
                                       {"program": _variant("off")})
            assert status == 200
            assert "X-Repro-Trace-Id" not in headers
            status, _h, _d = _get(svc, "/traces")
            assert status == 404


class TestClientPropagation:

    def test_client_context_parents_the_server_tree(self, service):
        client = ResilientClient(
            service.host, service.port,
            policy=ClientPolicy(max_retries=1))
        result = client.post("run",
                             {"program": _variant("client-prop")})
        assert result.status == 200
        assert result.trace_id
        assert result.headers.get("X-Repro-Trace-Id") == \
            result.trace_id
        record = _trace_record(service, result.trace_id)
        root = [s for s in record["spans"]
                if s["span"] == record["root"]][0]
        client_record = client.traces[-1]
        assert client_record["trace"] == result.trace_id
        attempt_ids = {s["span"] for s in client_record["spans"]
                       if s["name"] == "attempt"}
        assert root["parent"] in attempt_ids
        client_names = {s["name"] for s in client_record["spans"]}
        assert "client-request" in client_names


class TestAccessLog:

    def test_one_json_line_per_request_with_trace_ids(self, tmp_path):
        log_path = str(tmp_path / "access.jsonl")
        config = ServeConfig(workers=1, trace_sample=1,
                             access_log=log_path)
        with ServeService(config).serve_background() as svc:
            _post(svc, "run", {"program": _variant("log1"),
                               "tenant": "alice"})
            _post(svc, "run", {"program": "{ print( }",
                               "tenant": "bob"})
        # the writer thread is flushed by close(); read afterwards
        lines = [json.loads(line)
                 for line in open(log_path, encoding="utf-8")
                 if line.strip()]
        assert len(lines) == 2
        for entry in lines:
            assert len(entry["trace"]) == 32
            assert entry["endpoint"] == "run"
            assert {"status", "tenant", "rung", "queue_ms",
                    "compute_ms", "duration_ms"} <= set(entry)
        assert lines[0]["tenant"] == "alice"
        assert lines[0]["status"] == 200
        assert lines[1]["tenant"] == "bob"
        assert lines[1]["status"] == 422

    def test_requests_refused_before_admission_are_logged(self,
                                                         tmp_path):
        log_path = str(tmp_path / "access.jsonl")
        config = ServeConfig(workers=1, access_log=log_path)
        with ServeService(config).serve_background() as svc:
            status, headers, _ = _post(svc, "nope", {"program": "{ }"})
            assert status == 404
            status, _headers, _ = _post(svc, "run", None, raw="{")
            assert status == 400
        lines = [json.loads(line)
                 for line in open(log_path, encoding="utf-8")
                 if line.strip()]
        assert [(e["endpoint"], e["status"]) for e in lines] == [
            ("nope", 404), ("run", 400)]
        assert lines[0]["trace"] == headers["X-Repro-Trace-Id"]
        assert all(len(e["trace"]) == 32 for e in lines)

    def test_logging_never_blocks_responses(self):
        # every write to /dev/full fails (ENOSPC), as on a full disk:
        # the writer thread drops the line, the service still answers
        config = ServeConfig(workers=1, access_log="/dev/full")
        with ServeService(config).serve_background() as svc:
            status, headers, _ = _post(
                svc, "run", {"program": _variant("log-bad")})
            assert status == 200
            assert headers.get("X-Repro-Trace-Id")

    def test_an_unwritable_path_fails_before_any_fork(self, tmp_path):
        import multiprocessing
        children = set(multiprocessing.active_children())
        config = ServeConfig(workers=1, access_log=str(tmp_path))
        with pytest.raises(IsADirectoryError):
            ServeService(config)
        assert set(multiprocessing.active_children()) <= children


def test_worker_analyze_span_names_the_disk_tier(tmp_path):
    """A worker that replays another worker's disk shard says so in its
    ``analyze`` span: tier ``disk`` with the body's ``replay_hits``."""
    from repro.bench.suite import BENCHMARKS
    from repro.serve.protocol import Job, job_fingerprint, program_sha
    from repro.serve.worker import WarmWorker

    source = BENCHMARKS["Tree"].source(fast=True)
    sha = program_sha(source)
    job = Job("analyze", source, sha,
              job_fingerprint("analyze", sha, "static", "py"),
              trace_id="ab" * 16).to_wire()

    def analyze_span(reply):
        (span,) = [s for s in reply["spans"] if s["name"] == "analyze"]
        return span["attrs"]

    first = WarmWorker(cache_root=str(tmp_path)).handle(dict(job))
    assert analyze_span(first)["tier"] == "computed"
    second = WarmWorker(cache_root=str(tmp_path)).handle(dict(job))
    cache = second["body"]["cache"]
    assert cache["replay_hits"] > 0 and cache["check_misses"] == 0
    attrs = analyze_span(second)
    assert attrs["tier"] == "disk"
    assert attrs["replay_hits"] == cache["replay_hits"]
    assert first["body"]["classes"] == second["body"]["classes"]


def test_worker_analyze_span_names_the_memory_tier():
    """A worker that takes classes from its own class table says so:
    tier ``memory`` with the body's ``ast_hits``, and only the renamed
    class re-checked."""
    import re

    from repro.bench.suite import BENCHMARKS
    from repro.serve.protocol import Job, job_fingerprint, program_sha
    from repro.serve.worker import WarmWorker

    source = BENCHMARKS["Tree"].source(fast=True)
    last = re.findall(r"\bclass\s+(\w+)", source)[-1]
    variant = re.sub(rf"\b{last}\b", f"{last}_s1", source)

    def job(text):
        sha = program_sha(text)
        return Job("analyze", text, sha,
                   job_fingerprint("analyze", sha, "static", "py"),
                   trace_id="cd" * 16).to_wire()

    def analyze_span(reply):
        (span,) = [s for s in reply["spans"] if s["name"] == "analyze"]
        return span["attrs"]

    worker = WarmWorker()
    # a class enters the worker's table on its second sighting
    worker.handle(job(source))
    first = worker.handle(job(source))
    assert analyze_span(first)["tier"] == "computed"
    assert analyze_span(first)["ast_hits"] == 0
    second = worker.handle(job(variant))
    cache = second["body"]["cache"]
    assert cache["ast_hits"] == cache["memory_hits"] == 1
    assert cache["check_misses"] == 1
    attrs = analyze_span(second)
    assert attrs["tier"] == "memory"
    assert attrs["ast_hits"] == cache["ast_hits"]
    assert attrs["replay_hits"] == cache["replay_hits"]
