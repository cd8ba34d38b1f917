"""``repro serve`` end-to-end: real HTTP, forked workers, admission.

Everything here drives an in-process :class:`ServeService` over actual
sockets (the same path the CLI serves), so the contracts under test
are wire-level:

* served results are byte-identical to in-process CLI execution;
* N identical concurrent cold requests collapse to exactly one
  analysis (read back from the service's own ``/metrics``);
* a full queue sheds with ``429`` and a ``Retry-After`` header
  without touching in-flight work;
* an expired deadline is answered ``504`` *without executing*;
* tenant quotas shed independently per tenant;
* the ``REPRO-SERVE-READY`` / ``REPRO-METRICSD-READY`` stdout lines
  are printed only once the socket is accepting — a subprocess
  connects immediately, no polling;
* ``repro metricsd`` answers on the same HTTP/1.1 keep-alive server.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest

from repro.core.api import analyze
from repro.interp.machine import RunOptions, execute
from repro.serve import ServeConfig, ServeService

REPO_ROOT = pathlib.Path(__file__).parent.parent.parent

SOURCE = """\
class Counter<Owner o> {
  int total;
  void bump(int n) { total = total + n; }
  int read() { return total; }
}
{
  Counter<heap> c = new Counter<heap>;
  int i = 0;
  while (i < 5) { c.bump(i); i = i + 1; }
  print(c.read());
}
"""

BROKEN_SOURCE = """\
class C<Owner o> { int x; }
{ C<heap> c = new C<heap>; print(c.missing); }
"""


def _variant(tag: str) -> str:
    """A semantically identical program with a fresh content address."""
    return SOURCE + f"// {tag}\n"


def _post(service, endpoint, payload, raw=None):
    """One POST over a fresh connection; returns (status, headers,
    body-dict)."""
    conn = http.client.HTTPConnection(service.host, service.port,
                                      timeout=60)
    try:
        body = raw if raw is not None else json.dumps(payload)
        conn.request("POST", f"/v1/{endpoint}", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, dict(resp.getheaders()), json.loads(data)
    finally:
        conn.close()


def _get(service, path):
    conn = http.client.HTTPConnection(service.host, service.port,
                                      timeout=60)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def _keepalive_probe(host, port):
    """The statuses of two ``/healthz`` GETs, an unknown route, a
    missing envelope and a bad ``n=`` sent over one HTTP/1.1
    connection, and whether that connection carried them all."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.connect()
        sock = conn.sock
        statuses = []
        for path in ("/healthz", "/healthz", "/nope", "/runs/missing",
                     "/runs?n=many"):
            conn.request("GET", path)
            resp = conn.getresponse()
            resp.read()
            statuses.append(resp.status)
        # http.client drops a socket the server closed and reconnects
        # on the next request, so a surviving socket is the proof
        return statuses, conn.sock is sock
    finally:
        conn.close()


def _metric(service, name) -> float:
    """Sum of one metric family's samples from a live /metrics scrape."""
    _status, _headers, data = _get(service, "/metrics")
    total = 0.0
    for line in data.decode("utf-8").splitlines():
        if line.startswith("#"):
            continue
        head = line.split(" ")
        if head[0] == name or head[0].startswith(name + "{"):
            total += float(head[-1])
    return total


def _cli_reference(source):
    analyzed = analyze(source)
    assert not analyzed.errors
    result, _machine = execute(analyzed, RunOptions(
        checks_enabled=False, validate=False, instrument=False,
        backend="py"))
    return {
        "cycles": result.stats.cycles,
        "output_sha256": hashlib.sha256(
            "\n".join(result.output).encode()).hexdigest(),
        "output": result.output,
    }


@pytest.fixture(scope="module")
def service():
    config = ServeConfig(workers=1, queue_depth=16)
    with ServeService(config).serve_background() as svc:
        yield svc


class TestServedParity:

    def test_run_matches_cli_byte_for_byte(self, service):
        ref = _cli_reference(SOURCE)
        status, _headers, body = _post(service, "run", {
            "program": SOURCE, "mode": "static", "backend": "py"})
        assert status == 200 and body["ok"]
        assert body["cycles"] == ref["cycles"]
        assert body["output_sha256"] == ref["output_sha256"]
        assert body["output"] == ref["output"]

    def test_analyze_reports_the_frontend_verdict(self, service):
        status, _headers, body = _post(service, "analyze",
                                       {"program": SOURCE})
        assert status == 200
        assert body["well_typed"] is True and body["errors"] == []
        assert body["classes"] >= 1
        status, _headers, body = _post(service, "analyze",
                                       {"program": BROKEN_SOURCE})
        assert status == 200
        assert body["well_typed"] is False and body["errors"]

    def test_inspect_returns_a_causal_report(self, service):
        status, _headers, body = _post(service, "inspect", {
            "program": _variant("inspect"), "mode": "static"})
        assert status == 200 and body["ok"]
        assert isinstance(body["report"], dict)
        assert "output" not in body  # the report subsumes raw output

    def test_ill_typed_program_is_422_on_run(self, service):
        status, _headers, body = _post(service, "run",
                                       {"program": BROKEN_SOURCE})
        assert status == 422
        assert body["ok"] is False and body["errors"]

    def test_unparsable_program_is_422_not_500(self, service):
        # lexer/parser rejections raise instead of returning .errors;
        # still the client's fault, never a server error
        status, _headers, body = _post(service, "run",
                                       {"program": "{ print( }"})
        assert status == 422
        assert body["ok"] is False and body["errors"]


class TestRequestHygiene:

    def test_malformed_bodies_are_400(self, service):
        status, _headers, body = _post(service, "run", {})
        assert status == 400 and "program" in body["error"]
        status, _headers, body = _post(service, "run", None,
                                       raw="{not json")
        assert status == 400 and "JSON" in body["error"]
        status, _headers, body = _post(service, "run", {
            "program": SOURCE, "mode": "fast"})
        assert status == 400 and "mode" in body["error"]

    def test_oversized_program_is_413(self, service):
        from repro.serve.protocol import MAX_PROGRAM_BYTES
        status, _headers, body = _post(service, "run", {
            "program": "x" * (MAX_PROGRAM_BYTES + 1)})
        assert status == 413

    def test_unknown_routes_are_404(self, service):
        status, _headers, body = _post(service, "destroy",
                                       {"program": SOURCE})
        assert status == 404
        status, _headers, _data = _get(service, "/v2/run")
        assert status == 404

    def test_healthz_reports_live_workers(self, service):
        status, _headers, data = _get(service, "/healthz")
        assert status == 200
        health = json.loads(data)
        assert health["status"] == "ok"
        assert health["workers_alive"] == service.config.workers
        assert health["worker_restarts"] == 0

    def test_metrics_exposition(self, service):
        status, headers, data = _get(service, "/metrics")
        assert status == 200
        assert "text/plain" in headers.get("Content-Type", "")
        text = data.decode("utf-8")
        for family in ("repro_serve_requests_total",
                       "repro_serve_request_seconds",
                       "repro_serve_coalesced_total"):
            assert family in text


class TestCacheTiers:

    def test_repeat_request_hits_the_frontend_hot_tier(self, service):
        program = _variant("hot-tier")
        first = _post(service, "run", {"program": program})
        before = _metric(service,
                         "repro_serve_result_cache_hits_total")
        second = _post(service, "run", {"program": program})
        after = _metric(service, "repro_serve_result_cache_hits_total")
        assert first[0] == second[0] == 200
        assert second[2] == first[2]  # byte-identical replay
        assert after == before + 1

    @pytest.mark.parametrize("source,status", [
        (SOURCE, 200), (BROKEN_SOURCE, 422)],
        ids=["well-typed", "ill-typed"])
    def test_worker_repeat_reanalyzes_through_the_class_table(
            self, source, status):
        # a repeat the hot tier does not hold (a 4xx, an evicted
        # fingerprint, or the same program on another endpoint) reaches
        # the worker, which analyzes it again through its class table:
        # the same bytes, and every class answered from the table
        # without a parse or a check
        from repro.serve.protocol import Job, job_fingerprint, program_sha
        from repro.serve.worker import WarmWorker
        sha = program_sha(source)

        def job(endpoint):
            fingerprint = job_fingerprint(endpoint, sha, "static", "py")
            return Job(endpoint, source, sha, fingerprint).to_wire()

        worker = WarmWorker()
        first = worker.handle(job("run"))
        second = worker.handle(job("run"))
        assert first["status"] == second["status"] == status
        assert (json.dumps(second["body"], sort_keys=True)
                == json.dumps(first["body"], sort_keys=True))
        reply = worker.handle(job("analyze"))
        assert reply["status"] == 200, reply
        classes = len(analyze(source).program.classes)
        cache = reply["body"]["cache"]
        assert cache["ast_hits"] == cache["memory_hits"] == classes
        assert cache["check_misses"] == 0

    @pytest.mark.parametrize("endpoint", ["run", "analyze"])
    def test_a_failed_shard_write_costs_the_shard_not_the_reply(
            self, endpoint, tmp_path):
        # a cache tree the worker cannot write (its root is a regular
        # file) answers as if the worker had no tree
        from repro.bench.suite import BENCHMARKS
        from repro.serve.protocol import Job, job_fingerprint, program_sha
        from repro.serve.worker import WarmWorker
        root = tmp_path / "not-a-directory"
        root.write_text("")
        source = BENCHMARKS["Array"].source(fast=True)
        sha = program_sha(source)
        job = Job(endpoint, source, sha,
                  job_fingerprint(endpoint, sha, "static", "py")).to_wire()
        blocked = WarmWorker(cache_root=str(root)).handle(dict(job))
        assert blocked["status"] == 200, blocked["body"]
        assert blocked == WarmWorker().handle(dict(job))


class TestDispatch:

    def test_back_to_back_jobs_run_on_both_workers(self):
        # a dispatcher takes one job, so the second of two jobs queued
        # back to back goes to the idle worker, not behind the first
        from repro.bench.suite import BENCHMARKS
        from repro.obs.trace import new_span_id, new_trace_id
        from repro.serve import PendingJob, WorkerPool
        from repro.serve.protocol import Job, job_fingerprint, program_sha
        source = BENCHMARKS["Barnes"].source()
        sha = program_sha(source)
        fingerprint = job_fingerprint("run", sha, "static", "interp")
        reference, _machine = execute(analyze(source), RunOptions(
            checks_enabled=False, validate=False, instrument=False,
            backend="interp"))
        expect = (reference.stats.cycles, hashlib.sha256(
            "\n".join(reference.output).encode()).hexdigest())
        with WorkerPool(workers=2) as pool:
            for pair in range(5):
                pendings = [pool.submit(PendingJob(Job(
                    "run", source, sha, fingerprint, backend="interp",
                    trace_id=new_trace_id(), root_span=new_span_id())))
                    for _ in range(2)]
                workers = []
                for pending in pendings:
                    assert pending.done.wait(timeout=120)
                    body = pending.outcome.body
                    assert pending.outcome.status == 200, body
                    assert (body["cycles"], body["output_sha256"]) == expect
                    (dispatch,) = [span for span in pending.spans
                                   if span["name"] == "dispatch"]
                    workers.append(dispatch["attrs"]["worker"])
                assert sorted(workers) == [0, 1], f"pair {pair}"


class TestTrafficMechanics:

    def test_identical_concurrent_requests_analyze_once(self, service):
        program = _variant("coalesce-burst")
        clients = 6
        analyses_before = _metric(service,
                                  "repro_serve_analyses_total")
        coalesced_before = _metric(service,
                                   "repro_serve_coalesced_total")
        barrier = threading.Barrier(clients)
        results, lock = [], threading.Lock()

        def fire():
            barrier.wait(timeout=10)
            status, _headers, body = _post(service, "run",
                                           {"program": program})
            with lock:
                results.append((status, body))

        threads = [threading.Thread(target=fire)
                   for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(results) == clients
        assert all(status == 200 for status, _body in results)
        bodies = [body for _status, body in results]
        assert all(body == bodies[0] for body in bodies)
        d_analyses = (_metric(service, "repro_serve_analyses_total")
                      - analyses_before)
        assert d_analyses == 1  # exactly one analysis for the burst
        d_coalesced = (_metric(service, "repro_serve_coalesced_total")
                       - coalesced_before)
        # every request beyond the leader either adopted the in-flight
        # job or (having lost the race) replayed the finished result
        assert d_coalesced <= clients - 1
        assert d_analyses + d_coalesced <= clients

    def test_full_queue_sheds_429_with_retry_after(self):
        # queue_depth=0: admission rejects every job that would queue,
        # which isolates the shedding branch deterministically
        config = ServeConfig(workers=1, queue_depth=0)
        with ServeService(config).serve_background() as svc:
            status, headers, body = _post(svc, "run",
                                          {"program": _variant("shed")})
            assert status == 429
            assert body["ok"] is False
            assert int(headers["Retry-After"]) >= 1
            _status, _headers, data = _get(svc, "/metrics")
            shed = [line for line in data.decode("utf-8").splitlines()
                    if line.startswith(
                        'repro_serve_shed_total{reason="queue_full"}')]
            assert shed and float(shed[0].split()[-1]) == 1.0

    def test_expired_deadline_cancels_without_executing(self, service):
        program = _variant("deadline")
        analyses_before = _metric(service,
                                  "repro_serve_analyses_total")
        cancelled_before = _metric(
            service, "repro_serve_deadline_cancelled_total")
        # 100ns deadline: expired long before any dispatcher can see it
        status, _headers, body = _post(service, "run", {
            "program": program, "deadline_ms": 0.0001})
        assert status == 504
        assert "deadline" in body["error"]
        assert (_metric(service, "repro_serve_deadline_cancelled_total")
                == cancelled_before + 1)
        # the job never executed: no analysis happened for it
        assert (_metric(service, "repro_serve_analyses_total")
                == analyses_before)

    def test_tenant_quota_sheds_independently(self):
        config = ServeConfig(workers=1, quota_rate=0.001,
                             quota_burst=1.0)
        with ServeService(config).serve_background() as svc:
            program = _variant("quota")
            status, _h, _b = _post(svc, "run", {
                "program": program, "tenant": "alice"})
            assert status == 200
            status, headers, body = _post(svc, "run", {
                "program": program, "tenant": "alice"})
            assert status == 429
            assert "quota" in body["error"]
            assert int(headers["Retry-After"]) >= 1
            assert body["retry_after_s"] > 0
            # bob's bucket is full: same program, admitted (and served
            # straight from the hot tier alice warmed)
            status, _h, _b = _post(svc, "run", {
                "program": program, "tenant": "bob"})
            assert status == 200


class TestReadySignals:
    """The READY stdout lines are printed only after the socket is
    bound and accepting: a parent process parses one line and connects
    immediately — no retry loop, no sleep."""

    def _spawn(self, argv, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            cwd=str(tmp_path), env=env)

    def _ready_fields(self, proc, token):
        line = {}

        def read():
            line["text"] = proc.stdout.readline().decode(
                "utf-8", "replace")

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=60)
        if "text" not in line:
            proc.kill()
            pytest.fail(f"no {token} line within 60s")
        text = line["text"].strip()
        assert text.startswith(token), text
        return dict(part.split("=", 1) for part in text.split()[1:])

    def _reap(self, proc):
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)

    def test_serve_ready_line_is_accurate(self, tmp_path):
        proc = self._spawn(["serve", "--port", "0", "--workers", "1",
                            "--cache-dir", str(tmp_path / "cache")],
                           tmp_path)
        try:
            fields = self._ready_fields(proc, "REPRO-SERVE-READY")
            assert fields["workers"] == "1"
            assert int(fields["port"]) > 0  # port 0 was resolved
            conn = http.client.HTTPConnection(
                fields["host"], int(fields["port"]), timeout=30)
            try:  # first and only attempt — the line IS readiness
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                assert json.loads(resp.read())["status"] == "ok"
            finally:
                conn.close()
        finally:
            self._reap(proc)

    def test_sigterm_reaps_the_worker_pool(self, tmp_path):
        # SIGTERM is how supervisors stop a service; the forked
        # workers must not be orphaned (they inherit the parent's pipe
        # ends at fork, so without explicit hygiene they would block
        # on recv forever instead of seeing EOF)
        import time
        proc = self._spawn(["serve", "--port", "0", "--workers", "2",
                            "--cache-dir", str(tmp_path / "cache")],
                           tmp_path)
        try:
            self._ready_fields(proc, "REPRO-SERVE-READY")
            workers = subprocess.run(
                ["ps", "--ppid", str(proc.pid), "-o", "pid="],
                capture_output=True).stdout.decode().split()
            assert len(workers) == 2, workers
        finally:
            self._reap(proc)
        deadline = time.monotonic() + 10
        alive = workers
        while alive and time.monotonic() < deadline:
            alive = [p for p in workers
                     if pathlib.Path(f"/proc/{p}").exists()]
            time.sleep(0.1)
        assert not alive, f"orphaned workers: {alive}"

    def test_metricsd_ready_line_is_accurate(self, tmp_path):
        proc = self._spawn(["metricsd", "--port", "0",
                            "--store", str(tmp_path / "telemetry")],
                           tmp_path)
        try:
            fields = self._ready_fields(proc, "REPRO-METRICSD-READY")
            assert int(fields["port"]) > 0
            conn = http.client.HTTPConnection(
                fields["host"], int(fields["port"]), timeout=30)
            try:
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                # metricsd answers on the HTTP/1.1 keep-alive edge
                assert resp.version == 11
            finally:
                conn.close()
        finally:
            self._reap(proc)

    def test_metricsd_keeps_one_connection_alive(self, tmp_path):
        proc = self._spawn(["metricsd", "--port", "0",
                            "--store", str(tmp_path / "telemetry")],
                           tmp_path)
        try:
            fields = self._ready_fields(proc, "REPRO-METRICSD-READY")
            statuses, one_connection = _keepalive_probe(
                fields["host"], int(fields["port"]))
        finally:
            self._reap(proc)
        assert statuses == [200, 200, 404, 404, 400]
        assert one_connection
