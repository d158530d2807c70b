"""Blocking client for the scheduling service (stdlib only).

:class:`ServiceClient` speaks the service's JSON-over-HTTP protocol via
``http.client`` over HTTP/1.1 keep-alive: each calling thread opens one
connection on its first call and reuses it for every call after, so
the client is thread-safe without a lock on the request path and a call
costs no TCP set-up.  It is what ``repro submit`` uses, and the natural
handle for tests:

    with ServiceClient("127.0.0.1", 8742) as client:
        client.wait_healthy()
        reply = client.solve({"instance": {...}})

The server closes a connection that sat idle too long, and every idle
connection when it drains.  A call that finds its reused connection
closed that way fails before any reply byte arrives; it is sent once
more on a fresh connection.  Nothing else is ever re-sent by this
layer.  A reply carrying ``Connection: close`` ends that thread's
connection, and :meth:`ServiceClient.close` (or leaving the ``with``
block) closes every connection the client opened.

Every call returns the decoded ``(http_status, body)`` pair — including
rejections, which arrive as structured bodies, not exceptions.  Only
transport-level failures (connection refused, timeouts, non-JSON
responses) raise :class:`ServiceUnavailableError`.

Retries are opt-in: construct with a
:class:`~repro.resilience.RetryPolicy` and ``solve`` / ``campaign``
calls survive connection-refused windows (a supervised server
restarting) and 500/503 replies with exponential backoff + jitter,
bounded by the policy's attempt budget and per-request deadline.  Every
attempt of one logical request carries the same ``X-Idempotency-Key``
header — the canonical fingerprint of the call — so a server that
already answered (or is mid-flight on) the first attempt serves the
recorded result instead of executing twice.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref

import numpy as np

from ..durability.fingerprint import fingerprint_json
from ..resilience.retry import RetryPolicy

__all__ = ["ServiceClient", "ServiceUnavailableError"]

#: How a reused connection fails when the server closed it while idle.
_IDLE_CLOSED = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)


def _retryable_status(status: int) -> bool:
    """Server-side (5xx) failures are retryable: a restarting supervised
    server, a draining predecessor, an open breaker mid-cooldown.  4xx
    replies (quota pressure, bad requests) are the caller's to handle —
    resubmitting them verbatim cannot succeed."""
    return 500 <= status < 600


class ServiceUnavailableError(ConnectionError):
    """The service could not be reached or spoke something unexpected."""


class ServiceClient:
    """A blocking JSON-over-HTTP client bound to one service address."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8742,
        timeout: float = 60.0,
        *,
        retry: RetryPolicy | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self._rng = rng if rng is not None else np.random.default_rng()
        #: This thread's ``HTTPConnection``.  It reopens its socket by
        #: itself on the call after one was closed.
        self._local = threading.local()
        #: Every thread's connection, for :meth:`close`; a thread's
        #: leaves the set when the thread ends.
        self._connections: weakref.WeakSet = weakref.WeakSet()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            with self._lock:
                self._connections.add(conn)
        return conn

    def _request_once(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict]:
        body = None if payload is None else json.dumps(payload)
        all_headers = {"Content-Type": "application/json"}
        if headers:
            all_headers.update(headers)
        conn = self._connection()
        while True:
            reused = conn.sock is not None
            response = None
            try:
                conn.request(method, path, body=body, headers=all_headers)
                response = conn.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if reused and response is None and isinstance(
                    exc, _IDLE_CLOSED
                ):
                    # The server closed the connection while it sat idle
                    # and no byte of a reply came back, so nothing ran:
                    # send once more, on a fresh connection.
                    continue
                raise ServiceUnavailableError(
                    f"scheduling service at {self.host}:{self.port} "
                    f"unreachable: {exc}"
                ) from exc
            # A ``Connection: close`` reply has already closed the socket
            # (``http.client`` does), so this thread's next call connects
            # afresh.
            status = response.status
            break
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceUnavailableError(
                f"scheduling service at {self.host}:{self.port} sent a "
                f"non-JSON response (HTTP {status})"
            ) from exc
        return status, decoded

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        retryable: bool = False,
    ) -> tuple[int, dict]:
        policy = self.retry if retryable else None
        if policy is None:
            return self._request_once(method, path, payload)

        # One idempotency key for the whole retry loop: resubmissions
        # of this logical request coalesce server-side onto one
        # execution (or are answered from the request ledger).
        headers = {
            "X-Idempotency-Key": fingerprint_json(
                {"path": path, "payload": payload}
            )
        }
        started = time.monotonic()
        last_error: ServiceUnavailableError | None = None
        last_reply: tuple[int, dict] | None = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                status, body = self._request_once(
                    method, path, payload, headers
                )
            except ServiceUnavailableError as exc:
                last_error, last_reply = exc, None
            else:
                if not _retryable_status(status):
                    return status, body
                last_error, last_reply = None, (status, body)
            if attempt >= policy.max_attempts:
                break
            backoff = policy.backoff_s(attempt, self._rng)
            elapsed = time.monotonic() - started
            if policy.past_deadline(elapsed + backoff):
                break
            time.sleep(backoff)
        if last_reply is not None:
            return last_reply
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------
    def health(self) -> tuple[int, dict]:
        """``GET /health`` — liveness, drain state, breaker states."""
        return self._request("GET", "/health")

    def status(self) -> tuple[int, dict]:
        """``GET /status`` — the full counter snapshot."""
        return self._request("GET", "/status")

    def solve(self, payload: dict) -> tuple[int, dict]:
        """``POST /solve`` — one scheduling request (retried if armed)."""
        return self._request("POST", "/solve", payload, retryable=True)

    def campaign(self, payload: dict) -> tuple[int, dict]:
        """``POST /campaign`` — one campaign request (retried if armed)."""
        return self._request("POST", "/campaign", payload, retryable=True)

    def shutdown(self) -> tuple[int, dict]:
        """``POST /shutdown`` — ask the server to drain and exit.

        Never retried: resubmitting a shutdown to a freshly restarted
        server would re-kill it.
        """
        return self._request("POST", "/shutdown")

    def wait_healthy(self, timeout: float = 10.0) -> dict:
        """Poll ``/health`` until the service answers; raises on timeout.

        The bridge between "the serve process was spawned" and "the
        socket accepts requests" — used by tests and scripted drivers.
        """
        deadline = time.monotonic() + timeout
        last: Exception | None = None
        while time.monotonic() < deadline:
            try:
                status, body = self.health()
            except ServiceUnavailableError as exc:
                last = exc
            else:
                if status == 200 and body.get("ok"):
                    return body
            time.sleep(0.05)
        raise ServiceUnavailableError(
            f"scheduling service at {self.host}:{self.port} did not "
            f"become healthy within {timeout:g}s"
        ) from last

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every connection this client opened, in any thread."""
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
