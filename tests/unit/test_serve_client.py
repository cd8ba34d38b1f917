"""Unit coverage for the resilient serve client.

A scripted in-memory transport drives the whole policy surface with no
socket: retry classification, exponential backoff with deterministic
jitter, Retry-After floors, and deadline budgets.
"""

from __future__ import annotations

import json

from repro.serve.client import (RETRY_STATUSES,
                                STATUS_TRANSPORT_ERROR, ClientPolicy,
                                ClientResult, ResilientClient,
                                ServeClientError)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class ScriptedTransport:
    """Replays a list of (status, headers, body) replies in order;
    a reply of ``"error"`` raises a transport failure instead."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []

    def __call__(self, method, path, body, headers):
        self.requests.append((method, path, body))
        if not self.replies:
            raise AssertionError("transport exhausted")
        reply = self.replies.pop(0)
        if reply == "error":
            raise ServeClientError("connection reset")
        status, headers_out, payload = reply
        return status, dict(headers_out), json.dumps(payload).encode()


def _client(replies, policy=None, clock=None):
    clock = clock or FakeClock()
    transport = ScriptedTransport(replies)
    client = ResilientClient(policy=policy or ClientPolicy(),
                             transport=transport,
                             sleep=clock.sleep, clock=clock)
    return client, transport, clock


class TestRetryDiscipline:

    def test_success_first_try(self):
        client, transport, _ = _client([(200, {}, {"ok": True})])
        result = client.post("analyze", {"program": "x"})
        assert result.ok and result.attempts == 1 and not result.retried
        assert transport.requests[0][1] == "/v1/analyze"

    def test_retries_5xx_until_success(self):
        client, _, clock = _client([
            (503, {}, {"ok": False}),
            (500, {}, {"ok": False}),
            (200, {}, {"ok": True}),
        ])
        result = client.post("run", {"program": "x"})
        assert result.ok and result.attempts == 3 and result.retried
        assert clock.now > 0  # it actually backed off
        assert client.stats["retries"] == 2

    def test_client_errors_never_retry(self):
        client, transport, _ = _client([(422, {}, {"ok": False})])
        result = client.post("run", {"program": "x"})
        assert result.status == 422 and result.attempts == 1
        assert len(transport.requests) == 1

    def test_transport_errors_are_retriable(self):
        client, _, _ = _client(["error", (200, {}, {"ok": True})])
        result = client.post("run", {"program": "x"})
        assert result.ok and result.attempts == 2
        assert client.stats["transport_errors"] == 1

    def test_retries_are_bounded(self):
        policy = ClientPolicy(max_retries=2)
        client, transport, _ = _client(
            [(503, {}, {"ok": False})] * 3, policy)
        result = client.post("run", {"program": "x"})
        assert result.status == 503 and result.attempts == 3
        assert len(transport.requests) == 3

    def test_backoff_is_exponential_and_deterministic(self):
        def run():
            clock = FakeClock()
            client, _, _ = _client(
                [(503, {}, {"ok": False})] * 3
                + [(200, {}, {"ok": True})],
                ClientPolicy(max_retries=5, backoff_base_s=0.1,
                             jitter_seed=42),
                clock)
            sleeps = []
            real_sleep = clock.sleep
            client._sleep = lambda s: (sleeps.append(s), real_sleep(s))
            client.post("run", {"program": "x"})
            return sleeps

        first, second = run(), run()
        assert first == second  # same seed, same jitter
        # each backoff's deterministic part doubles; jitter < base
        assert first[1] > first[0] and first[2] > first[1]

    def test_retry_after_is_a_floor_on_the_wait(self):
        clock = FakeClock()
        client, _, _ = _client(
            [(429, {"Retry-After": "3"}, {"ok": False}),
             (200, {}, {"ok": True})],
            ClientPolicy(backoff_base_s=0.01), clock)
        result = client.post("run", {"program": "x"})
        assert result.ok
        assert clock.now >= 3.0  # never earlier than the server asked


class TestDeadlineBudget:

    def test_budget_propagates_to_the_wire(self):
        client, transport, _ = _client([(200, {}, {"ok": True})])
        client.post("run", {"program": "x"}, deadline_ms=5000)
        wire = json.loads(transport.requests[0][2])
        assert 0 < wire["deadline_ms"] <= 5000

    def test_budget_stops_retries_early(self):
        clock = FakeClock()
        client, transport, _ = _client(
            [(503, {"Retry-After": "10"}, {"ok": False})] * 5,
            ClientPolicy(max_retries=5), clock)
        result = client.post("run", {"program": "x"}, deadline_ms=1000)
        # waiting 10s would blow the 1s budget: return the last reply
        assert result.status == 503
        assert len(transport.requests) == 1

    def test_exhausted_budget_is_a_synthetic_504(self):
        clock = FakeClock()
        clockwise = ClientPolicy(max_retries=5)
        client, _, _ = _client([(503, {}, {"ok": False})] * 6,
                               clockwise, clock)
        clock.now = 100.0
        start = clock.now

        # burn the budget before the first attempt
        result = client.post("run", {"program": "x"}, deadline_ms=0)
        assert result.status == 504
        assert "deadline" in result.body["error"]
        assert clock.now == start  # no attempt, no sleep


class TestCircuitBreaker:

    def test_threshold_zero_disables_the_breaker(self):
        # there is no breaker: consecutive 5xx replies, past any
        # threshold, always reach the transport
        client, transport, _ = _client(
            [(500, {}, {"ok": False})] * 8, ClientPolicy(max_retries=0))
        for _ in range(8):
            assert client.post("run", {"program": "x"}).status == 500
        assert len(transport.requests) == 8


class TestMisc:

    def test_retry_statuses_cover_shed_and_server_failure(self):
        assert {429, 500, 502, 503, 504} == set(RETRY_STATUSES)
        assert STATUS_TRANSPORT_ERROR not in RETRY_STATUSES

    def test_result_ok_window(self):
        assert ClientResult(200, {}).ok
        assert ClientResult(204, {}).ok
        assert not ClientResult(503, {}).ok

    def test_get_is_raw_and_unretried(self):
        client, transport, _ = _client([(503, {}, {"x": 1})])
        status, raw = client.get("/healthz")
        assert status == 503 and json.loads(raw) == {"x": 1}
        assert len(transport.requests) == 1
