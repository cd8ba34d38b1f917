"""The serve resilience plane, end to end over real sockets.

Crash storms, stall watchdogs, the degradation ladder's rungs, torn
cache shards, and body hygiene — each driven against an in-process
:class:`ServeService` with a deterministic fault injector where
faults are needed, so the tests are seeded, not flaky:

* a storm that kills >= 3 workers mid-burst loses zero requests, the
  pool respawns every worker, and ``/metrics`` agrees with the pool's
  own restart count;
* a wedged worker trips the stall watchdog and heals through the same
  path as a crash;
* worker failures brown the service out (``/readyz`` 503 while
  ``/livez`` stays 200), and a calm window heals it back;
* a torn on-disk cache shard is quarantined to ``<shard>.corrupt-<pid>``
  and recomputed, never trusted;
* requests with chunked bodies, missing lengths, oversized lengths, or
  stalled uploads are rejected at the socket with the right status.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.core.cache import AnalysisCache, _entries_digest
from repro.faults import FaultInjector, FaultPlan
from repro.serve import (ClientPolicy, ResilientClient, ServeConfig,
                         ServeService, server)

SOURCE = """\
class Cell<Owner o> {
  int v;
  void put(int n) { v = n; }
  int get() { return v; }
}
{
  Cell<heap> c = new Cell<heap>;
  c.put(41);
  print(c.get() + 1);
}
"""


def _variant(tag: str) -> str:
    return SOURCE + f"// {tag}\n"


def _metric(client: ResilientClient, name: str) -> float:
    _status, raw = client.get("/metrics")
    total = 0.0
    for line in raw.decode("utf-8").splitlines():
        head = line.split(" ")[0]
        if head == name or head.startswith(name + "{"):
            total += float(line.split()[-1])
    return total


def _patient_client(service) -> ResilientClient:
    return ResilientClient(service.host, service.port, ClientPolicy(
        max_retries=10, backoff_base_s=0.02, backoff_cap_s=0.5))


class TestCrashStorm:

    def test_storm_of_kills_loses_nothing_and_heals(self, tmp_path):
        kills = 3
        injector = FaultInjector(FaultPlan(
            rates={"worker_crash": 1.0}, max_faults=kills,
            target="serve"))
        config = ServeConfig(workers=2,
                             cache_dir=str(tmp_path / "cache"),
                             stall_timeout_s=5.0, heal_after_s=0.2)
        with ServeService(config, fault_injector=injector
                          ).serve_background() as service:
            client = _patient_client(service)
            try:
                statuses = []
                for i in range(8):  # every request a fresh cold job
                    outcome = client.post("run", {
                        "program": _variant(f"storm-{i}"),
                        "mode": "static", "backend": "py"})
                    statuses.append(outcome.status)
                # zero lost: the client rode every crash to an answer
                assert statuses == [200] * 8
                assert injector.counts()["worker_crash"] == kills
                # every killed worker respawned
                assert service.pool.alive_workers() == config.workers
                assert service.pool.restarts == kills
                # and /metrics agrees with the pool's own ledger
                assert _metric(
                    client, "repro_serve_worker_restarts_total"
                ) == kills
                # the transparent-retry path actually ran
                assert _metric(
                    client, "repro_serve_requeued_jobs_total") >= 1
            finally:
                client.close()

    def test_stalled_worker_trips_the_watchdog(self, tmp_path):
        injector = FaultInjector(FaultPlan(
            rates={"worker_stall": 1.0}, max_faults=1,
            magnitudes={"stall_ms": 4000.0}, target="serve"))
        config = ServeConfig(workers=1,
                             cache_dir=str(tmp_path / "cache"),
                             stall_timeout_s=0.5, heal_after_s=0.2)
        with ServeService(config, fault_injector=injector
                          ).serve_background() as service:
            client = _patient_client(service)
            try:
                outcome = client.post("run", {
                    "program": _variant("stall"), "mode": "static",
                    "backend": "py"})
                # the wedged worker was killed, the job requeued, and
                # the retry answered correctly
                assert outcome.status == 200
                assert service.pool.restarts == 1
                assert service.pool.alive_workers() == 1
            finally:
                client.close()


class TestDegradationLadder:

    def test_crash_browns_out_then_heals(self):
        injector = FaultInjector(FaultPlan(
            rates={"worker_crash": 1.0}, max_faults=1, target="serve"))
        config = ServeConfig(workers=1, stall_timeout_s=5.0,
                             heal_after_s=0.2)
        with ServeService(config, fault_injector=injector
                          ).serve_background() as service:
            client = _patient_client(service)
            try:
                outcome = client.post("run", {
                    "program": _variant("brownout"),
                    "mode": "static", "backend": "py"})
                assert outcome.status == 200
                # liveness is unconditional; readiness is rung-gated
                status, _raw = client.get("/livez")
                assert status == 200
                status, raw = client.get("/healthz")
                health = json.loads(raw)
                if health["rung"] != "healthy":
                    status, _raw = client.get("/readyz")
                    assert status == 503
                # a calm window heals back to healthy
                deadline = time.monotonic() + 10.0
                ready = False
                while time.monotonic() < deadline:
                    status, _raw = client.get("/readyz")
                    if status == 200:
                        ready = True
                        break
                    time.sleep(0.05)
                assert ready, "service never healed to the ready rung"
                assert _metric(
                    client, "repro_serve_degradation_rung") == 0.0
            finally:
                client.close()

    def test_shed_rung_still_serves_the_hot_tier(self):
        config = ServeConfig(workers=1, heal_after_s=30.0)
        with ServeService(config).serve_background() as service:
            client = _patient_client(service)
            try:
                program = _variant("hot-under-shed")
                first = client.post("run", {"program": program,
                                            "mode": "static",
                                            "backend": "py"})
                assert first.ok
                # force the worst rung directly; the heal window is
                # far away so it stays put for the whole test
                for _ in range(service.ladder.shed_after_troubles + 1):
                    service.ladder.trouble("test")
                assert service.ladder.rung_name == "shed"
                # fingerprint-exact repeat: served from the hot tier
                repeat = ResilientClient(
                    service.host, service.port,
                    ClientPolicy(max_retries=0))
                try:
                    again = repeat.post("run", {"program": program,
                                                "mode": "static",
                                                "backend": "py"})
                    assert again.ok
                    assert again.body == first.body
                    # a cold miss is shed with Retry-After, honestly
                    miss = repeat.post("run", {
                        "program": _variant("cold-under-shed"),
                        "mode": "static", "backend": "py"})
                    assert miss.status == 503
                    assert "Retry-After" in miss.headers
                finally:
                    repeat.close()
            finally:
                client.close()


class TestBodyHygiene:
    """Raw-socket abuse the normal client can't produce."""

    def _raw(self, service, request: bytes,
             settle_s: float = 0.0) -> bytes:
        with socket.create_connection(
                (service.host, service.port), timeout=30) as sock:
            sock.sendall(request)
            if settle_s:
                time.sleep(settle_s)
            chunks = []
            sock.settimeout(30)
            try:
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    chunks.append(chunk)
            except socket.timeout:
                pass
            return b"".join(chunks)

    @pytest.fixture(scope="class")
    def service(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(server, "READ_TIMEOUT_S", 1.0)
            with ServeService(ServeConfig(workers=1)) \
                    .serve_background() as svc:
                yield svc

    def test_chunked_bodies_are_411(self, service):
        reply = self._raw(service, (
            b"POST /v1/run HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n"))
        assert b" 411 " in reply.split(b"\r\n", 1)[0]

    def test_missing_content_length_is_411(self, service):
        reply = self._raw(service,
                          b"POST /v1/run HTTP/1.1\r\nHost: x\r\n\r\n")
        assert b" 411 " in reply.split(b"\r\n", 1)[0]

    def test_oversized_content_length_is_413_before_reading(
            self, service):
        reply = self._raw(service, (
            b"POST /v1/run HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 999999999\r\n\r\n"))
        assert b" 413 " in reply.split(b"\r\n", 1)[0]

    def test_stalled_upload_times_out_408(self, service):
        # promise 100 bytes, send none: the per-connection read
        # timeout must reclaim the handler thread with a 408
        reply = self._raw(service, (
            b"POST /v1/run HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 100\r\n\r\n"))
        assert b" 408 " in reply.split(b"\r\n", 1)[0]

    def test_truncated_body_is_400(self, service):
        body = b'{"program": "x"'
        reply = self._raw(service, (
            b"POST /v1/run HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + str(len(body) + 50).encode()
            + b"\r\n\r\n" + body), settle_s=1.2)
        assert b" 400 " in reply.split(b"\r\n", 1)[0] \
            or b" 408 " in reply.split(b"\r\n", 1)[0]


class TestShardQuarantine:
    """The disk tier never trusts bytes it can't verify."""

    def _seed_shard(self, path: str) -> None:
        cache = AnalysisCache(str(path))
        cache.record("C", "sha", "policy", "fp", _FakeDecl(), [])
        cache.save()

    def test_torn_shard_is_quarantined_and_recomputed(self, tmp_path):
        path = tmp_path / "ab" / "abc.json"
        self._seed_shard(str(path))
        # tear it: truncated JSON, the mid-write crash shape
        path.write_text('{"schema": "repro-analysis-cache/1", '
                        '"entries": {"torn')
        cache = AnalysisCache(str(path))
        assert cache.disk == {}  # cold start, never trusted
        assert cache.stats.quarantines == 1
        wrecks = list(tmp_path.glob("ab/*.corrupt-*"))
        assert len(wrecks) == 1  # evidence preserved on disk
        assert not path.exists()  # the poisoned path healed

    def test_digest_mismatch_is_quarantined(self, tmp_path):
        path = tmp_path / "cd" / "cde.json"
        self._seed_shard(str(path))
        payload = json.loads(path.read_text())
        # bit-rot an entry without touching the recorded digest
        payload["entries"]["C"]["sha"] = "flipped"
        path.write_text(json.dumps(payload))
        cache = AnalysisCache(str(path))
        assert cache.disk == {}
        assert cache.stats.quarantines == 1
        assert list(tmp_path.glob("cd/*.corrupt-*"))

    def test_legacy_shard_without_digest_still_loads(self, tmp_path):
        path = tmp_path / "ef" / "efg.json"
        self._seed_shard(str(path))
        payload = json.loads(path.read_text())
        del payload["digest"]  # written by an older version
        path.write_text(json.dumps(payload))
        cache = AnalysisCache(str(path))
        assert cache.disk and cache.stats.quarantines == 0

    def test_schema_mismatch_is_a_cold_start_not_a_quarantine(
            self, tmp_path):
        path = tmp_path / "gh" / "ghi.json"
        path.parent.mkdir()
        path.write_text(json.dumps({"schema": "something-else/9",
                                    "entries": {}}))
        cache = AnalysisCache(str(path))
        # a foreign-but-intact file is not corruption; leave it alone
        assert cache.disk == {} and cache.stats.quarantines == 0
        assert path.exists()

    def test_saved_digest_matches_the_entries(self, tmp_path):
        path = tmp_path / "ij" / "ijk.json"
        self._seed_shard(str(path))
        payload = json.loads(path.read_text())
        assert payload["digest"] == _entries_digest(payload["entries"])


class _FakeDecl:
    """Just enough ClassDecl surface for cache.record()."""

    methods = ()


class TestFaultFlags:

    @pytest.mark.parametrize("flags,message", [
        (["--fault-rate", "nan"], "fault rate"),
        (["--fault-rate", "-1"], "fault rate"),
        (["--fault-rate", "0.5", "--max-faults", "-3"], "max_faults"),
    ])
    def test_invalid_fault_flags_exit_1_before_boot(self, flags,
                                                    message):
        import io
        from contextlib import redirect_stderr

        from repro.cli import main
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(["serve", "--port", "0", *flags])
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert message in err.getvalue()
