"""Client behaviour: the retry loop in isolation, then keep-alive.

For the retry loop ``_request_once`` is stubbed so every retry
decision — what is retried, what is not, which headers ride along — is
asserted without sockets or sleep-heavy backoff (the policies here use
microscopic backoff with zero jitter).  The connection tests at the end
run against a real server in a thread of the test.
"""

import select
import socket
import threading
import time

import numpy as np
import pytest

import repro.service.server as server_module
from repro.resilience import RetryPolicy
from repro.service import (
    SchedulingService,
    ServiceClient,
    ServiceConfig,
    ServiceUnavailableError,
)
from tests.service.conftest import serve_in_thread

FAST = RetryPolicy(
    max_attempts=4,
    base_backoff_s=0.001,
    backoff_multiplier=1.0,
    jitter_frac=0.0,
)


class StubTransport:
    """Record every attempt; pop scripted outcomes in order."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.attempts = []

    def __call__(self, method, path, payload=None, headers=None):
        self.attempts.append(
            {"method": method, "path": path, "headers": dict(headers or {})}
        )
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def make_client(outcomes, retry=FAST):
    client = ServiceClient(
        "127.0.0.1", 1, retry=retry, rng=np.random.default_rng(0)
    )
    transport = StubTransport(outcomes)
    client._request_once = transport
    return client, transport


def refused():
    return ServiceUnavailableError("connection refused")


class TestRetryLoop:
    def test_connection_refused_retried_until_success(self):
        client, transport = make_client(
            [refused(), refused(), (200, {"ok": True})]
        )
        assert client.solve({"x": 1}) == (200, {"ok": True})
        assert len(transport.attempts) == 3

    def test_5xx_replies_retried(self):
        client, transport = make_client(
            [
                (503, {"error": {"code": "draining"}}),
                (500, {"error": {"code": "internal_error"}}),
                (200, {"ok": True}),
            ]
        )
        assert client.solve({"x": 1}) == (200, {"ok": True})
        assert len(transport.attempts) == 3

    def test_4xx_replies_returned_immediately(self):
        client, transport = make_client(
            [(429, {"error": {"code": "quota_exhausted"}})]
        )
        status, body = client.solve({"x": 1})
        assert status == 429
        assert len(transport.attempts) == 1

    def test_budget_exhausted_returns_last_5xx(self):
        client, transport = make_client([(503, {"n": i}) for i in range(4)])
        status, body = client.solve({"x": 1})
        assert (status, body) == (503, {"n": 3})
        assert len(transport.attempts) == 4

    def test_budget_exhausted_reraises_transport_error(self):
        client, transport = make_client([refused()] * 4)
        with pytest.raises(ServiceUnavailableError, match="refused"):
            client.solve({"x": 1})
        assert len(transport.attempts) == 4

    def test_deadline_stops_before_budget(self):
        policy = RetryPolicy(
            max_attempts=10,
            base_backoff_s=5.0,  # the first backoff already busts it
            backoff_multiplier=1.0,
            jitter_frac=0.0,
            deadline_s=1.0,
        )
        client, transport = make_client([refused()] * 10, retry=policy)
        with pytest.raises(ServiceUnavailableError):
            client.solve({"x": 1})
        assert len(transport.attempts) == 1


class TestIdempotencyKey:
    def test_same_key_on_every_attempt(self):
        client, transport = make_client(
            [refused(), (503, {}), (200, {"ok": True})]
        )
        client.solve({"x": 1})
        keys = [
            a["headers"]["X-Idempotency-Key"] for a in transport.attempts
        ]
        assert len(set(keys)) == 1

    def test_key_distinguishes_payload_and_route(self):
        def key_of(path_payloads):
            client, transport = make_client([(200, {})])
            if path_payloads[0] == "solve":
                client.solve(path_payloads[1])
            else:
                client.campaign(path_payloads[1])
            return transport.attempts[0]["headers"]["X-Idempotency-Key"]

        assert key_of(("solve", {"x": 1})) != key_of(("solve", {"x": 2}))
        assert key_of(("solve", {"x": 1})) != key_of(("campaign", {"x": 1}))
        assert key_of(("solve", {"x": 1})) == key_of(("solve", {"x": 1}))


class TestOptOut:
    def test_no_policy_means_single_shot(self):
        client, transport = make_client([refused()], retry=None)
        with pytest.raises(ServiceUnavailableError):
            client.solve({"x": 1})
        assert len(transport.attempts) == 1
        assert "X-Idempotency-Key" not in transport.attempts[0]["headers"]

    def test_campaign_retries_like_solve(self):
        client, transport = make_client([refused(), (200, {"ok": True})])
        assert client.campaign({"app": "nyx"}) == (200, {"ok": True})
        assert len(transport.attempts) == 2

    def test_shutdown_never_retried(self):
        client, transport = make_client([refused()])
        with pytest.raises(ServiceUnavailableError):
            client.shutdown()
        assert len(transport.attempts) == 1

    def test_health_never_retried(self):
        client, transport = make_client([refused()])
        with pytest.raises(ServiceUnavailableError):
            client.health()
        assert len(transport.attempts) == 1


# ----------------------------------------------------------------------
# Keep-alive against a real server: one connection per calling thread.
# ----------------------------------------------------------------------


def connections(client):
    status, body = client.status()
    assert status == 200
    return body["connections"]


def count_calls(monkeypatch, obj, name):
    """Wrap ``obj.name`` so each call is recorded; return the record."""
    calls = []
    original = getattr(obj, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(obj, name, counted)
    return calls


class TestConnectionReuse:
    def test_one_thread_keeps_one_connection(self, running_server):
        observer, _ = running_server
        before = connections(observer)["accepted"]
        with ServiceClient(observer.host, observer.port) as client:
            for _ in range(100):
                assert client.health()[0] == 200
        assert connections(observer)["accepted"] == before + 1

    def test_each_thread_keeps_its_own_connection(self, running_server):
        observer, _ = running_server
        before = connections(observer)["accepted"]
        statuses = []
        with ServiceClient(observer.host, observer.port) as client:

            def calls():
                statuses.extend(client.health()[0] for _ in range(50))

            threads = [threading.Thread(target=calls) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        assert statuses == [200] * 100
        assert connections(observer)["accepted"] == before + 2

    def test_close_ends_the_connections_of_live_threads(self, running_server):
        observer, _ = running_server
        baseline = connections(observer)["open"]
        client = ServiceClient(observer.host, observer.port)
        called, release = threading.Barrier(4), threading.Event()

        def call_then_wait():
            client.health()
            called.wait(timeout=10.0)
            release.wait(timeout=10.0)

        threads = [threading.Thread(target=call_then_wait) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            called.wait(timeout=10.0)
            assert connections(observer)["open"] == baseline + 3
            client.close()  # from a thread that opened none of them
            deadline = time.monotonic() + 5.0
            while connections(observer)["open"] > baseline:
                assert time.monotonic() < deadline, "connections left open"
                time.sleep(0.02)
        finally:
            release.set()
            for t in threads:
                t.join(timeout=10.0)

    def test_idle_closed_connection_is_sent_once_more(self, monkeypatch):
        monkeypatch.setattr(server_module, "_IDLE_TIMEOUT_S", 1.0)
        service = SchedulingService(ServiceConfig(workers=1))
        thread, port = serve_in_thread(service)
        try:
            with ServiceClient("127.0.0.1", port, timeout=10.0) as client:
                before = connections(client)["accepted"]
                conn = client._connection()
                # Wait for the server to close the idle connection.
                readable, _, _ = select.select([conn.sock], [], [], 5.0)
                assert readable
                assert conn.sock.recv(1, socket.MSG_PEEK) == b""
                sends = count_calls(monkeypatch, conn, "request")
                assert client.health()[0] == 200
                assert len(sends) == 2  # the failed send and one more
                assert connections(client)["accepted"] == before + 1
                # The drain's reply says ``Connection: close``.
                assert client.shutdown()[0] == 200
                assert conn.sock is None
        finally:
            thread.join(timeout=20.0)
        assert not thread.is_alive()

    def test_refused_fresh_connection_is_not_sent_again(self, monkeypatch):
        client = ServiceClient("127.0.0.1", 1, timeout=2.0)
        connects = count_calls(monkeypatch, client._connection(), "connect")
        with pytest.raises(ServiceUnavailableError, match="unreachable"):
            client.health()
        assert len(connects) == 1
