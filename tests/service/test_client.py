"""Client behaviour: the retry loop in isolation, then keep-alive.

For the retry loop ``_request_once`` is stubbed so every retry
decision — what is retried, what is not, which headers ride along — is
asserted without sockets or sleep-heavy backoff (the policies here use
microscopic backoff with zero jitter).  The connection tests run
against a real server in a thread of the test, and the transport's
failure paths against a scripted peer that sends exactly the bytes a
test names.
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
                sends = count_calls(monkeypatch, conn, "exchange")
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


# ----------------------------------------------------------------------
# Failure paths of the socket transport, against a scripted peer.
# ----------------------------------------------------------------------


def reply(body: bytes = b"{}", *headers: str) -> bytes:
    head = "".join(f"{h}\r\n" for h in headers)
    return (
        f"HTTP/1.1 200 OK\r\nContent-Length: {len(body)}\r\n{head}\r\n"
    ).encode() + body


class ScriptedPeer:
    """A one-thread HTTP peer on an ephemeral port.

    Answers the n-th request with ``script[n]``: ``(raw bytes, then)``
    where ``then`` is ``"keep"`` (read the next request on the same
    connection), ``"close"`` (close it and accept the next) or
    ``"hold"`` (send the bytes, then keep the connection open and
    silent until the test ends).
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests = 0
        self.accepted = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _read_request(self, conn) -> bool:
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return False
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(body) < length:
            body += conn.recv(65536)
        return True

    def _serve(self):
        self._listener.settimeout(0.05)
        while self.script and not self._done.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(None)
            self.accepted += 1
            with conn:
                while self.script and self._read_request(conn):
                    self.requests += 1
                    raw, then = self.script.pop(0)
                    conn.sendall(raw)
                    if then == "hold":
                        self._done.wait(30.0)
                    if then != "keep":
                        break

    def stop(self):
        self._done.set()
        self._thread.join(timeout=5.0)
        self._listener.close()


@pytest.fixture
def peer():
    peers = []

    def start(*script):
        peers.append(ScriptedPeer(script))
        return peers[-1]

    yield start
    for p in peers:
        p.stop()


class TestTransportFailures:
    def test_close_mid_body_raises_and_is_not_sent_again(self, peer):
        truncated = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"ok\""
        server = peer((reply(), "keep"), (truncated, "close"), (reply(), "keep"))
        with ServiceClient("127.0.0.1", server.port, timeout=5.0) as client:
            assert client.health() == (200, {})
            with pytest.raises(ServiceUnavailableError, match="mid-body"):
                client.health()
        assert server.requests == 2
        assert server.accepted == 1

    def test_connection_close_reply_ends_the_connection(self, peer):
        server = peer(
            (reply(b'{"n": 1}', "Connection: close"), "close"),
            (reply(b'{"n": 2}'), "keep"),
        )
        with ServiceClient("127.0.0.1", server.port, timeout=5.0) as client:
            assert client.health() == (200, {"n": 1})
            assert client._connection().sock is None
            assert client.health() == (200, {"n": 2})
        assert server.accepted == 2

    @pytest.mark.parametrize(
        "raw, problem",
        [
            (
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"2\r\n{}\r\n0\r\n\r\n",
                "Transfer-Encoding",
            ),
            (b"HTTP/1.1 200 OK\r\n\r\n{}", "no Content-Length"),
            (b"SPDY/3 200 OK\r\nContent-Length: 2\r\n\r\n{}", "status line"),
        ],
    )
    def test_unframed_reply_raises_a_named_error(self, peer, raw, problem):
        # The peer holds the connection open: a client that read to EOF
        # instead of refusing would hang until its timeout.
        server = peer((raw, "hold"))
        started = time.monotonic()
        with ServiceClient("127.0.0.1", server.port, timeout=5.0) as client:
            with pytest.raises(ServiceUnavailableError, match=problem):
                client.health()
            assert client._connection().sock is None
        assert time.monotonic() - started < 4.0
        assert server.requests == 1

    def test_socket_timeout_raises_and_is_not_sent_again(self, peer):
        server = peer((b"", "hold"))
        with ServiceClient("127.0.0.1", server.port, timeout=0.3) as client:
            with pytest.raises(ServiceUnavailableError, match="timed out"):
                client.health()
        assert server.requests == 1
        assert server.accepted == 1

    def test_non_json_reply_raises(self, peer):
        server = peer((reply(b"<html>"), "keep"))
        with ServiceClient("127.0.0.1", server.port, timeout=5.0) as client:
            with pytest.raises(ServiceUnavailableError, match="non-JSON"):
                client.health()
