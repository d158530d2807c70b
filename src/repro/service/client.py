"""Blocking client for the scheduling service (stdlib only).

:class:`ServiceClient` speaks the service's JSON-over-HTTP protocol as
HTTP/1.1 keep-alive over plain sockets: each calling thread opens one
connection on its first call and reuses it for every call after, so
the client is thread-safe without a lock on the request path and a call
costs no TCP set-up.  It is what ``repro submit`` uses, and the natural
handle for tests:

    with ServiceClient("127.0.0.1", 8742) as client:
        client.wait_healthy()
        reply = client.solve({"instance": {...}})

A call is one ``sendall`` of the request line, headers and body on a
``TCP_NODELAY`` socket.  The reply is read up to the blank line that
ends its headers and then exactly ``Content-Length`` bytes; a reply
without a ``Content-Length``, or with a ``Transfer-Encoding``, is
refused rather than guessed at.

The server closes a connection that sat idle too long, and every idle
connection when it drains.  A call that finds its reused connection
closed that way fails before any reply byte arrives; it is sent once
more on a fresh connection.  Nothing else is ever re-sent by this
layer.  A reply carrying ``Connection: close`` ends that thread's
connection, and :meth:`ServiceClient.close` (or leaving the ``with``
block) closes every connection the client opened.

Every call returns the decoded ``(http_status, body)`` pair — including
rejections, which arrive as structured bodies, not exceptions.  Only
transport-level failures (connection refused, timeouts, malformed or
non-JSON responses) raise :class:`ServiceUnavailableError`.

Retries are opt-in: construct with a
:class:`~repro.resilience.RetryPolicy` and ``solve`` / ``campaign``
calls survive connection-refused windows (a supervised server
restarting) and 500/503 replies with exponential backoff + jitter,
bounded by the policy's attempt budget and per-request deadline.  Every
attempt of one logical request carries the same ``X-Idempotency-Key``
header — the canonical identity of the call — so a server that
already answered (or is mid-flight on) the first attempt serves the
recorded result instead of executing twice.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import weakref

import numpy as np

from ..durability.fingerprint import identity_json
from ..resilience.retry import RetryPolicy

__all__ = ["ServiceClient", "ServiceUnavailableError"]

#: Longest reply head (status line and headers) the client accepts.
_MAX_HEAD_BYTES = 64 * 1024


def _retryable_status(status: int) -> bool:
    """Server-side (5xx) failures are retryable: a restarting supervised
    server, a draining predecessor, a failed solve or campaign.  4xx
    replies (quota pressure, bad requests) are the caller's to handle —
    resubmitting them verbatim cannot succeed."""
    return 500 <= status < 600


class ServiceUnavailableError(ConnectionError):
    """The service could not be reached or spoke something unexpected."""


class _ProtocolError(Exception):
    """A reply this client will not parse; the message names why."""


class _NoReply(ConnectionError):
    """The peer closed the connection before any reply byte arrived."""


class _Connection:
    """One thread's keep-alive socket to the service.

    ``sock`` is None until :meth:`connect` and again after
    :meth:`close`; any thread may close it.
    """

    def __init__(self, address: tuple[str, int], timeout: float) -> None:
        self.address = address
        self.timeout = timeout
        self.sock: socket.socket | None = None

    def connect(self) -> None:
        sock = socket.create_connection(self.address, self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            sock.close()

    def exchange(self, request: bytes) -> tuple[int, bytes, bool]:
        """Send one request; return ``(status, body, keep_alive)``.

        Raises :class:`_NoReply` when the peer closed or reset the
        connection before a reply byte came back, :class:`_ProtocolError`
        for a reply it will not parse, and ``OSError`` (timeouts
        included) for anything else on the socket.
        """
        sock = self.sock
        try:
            sock.sendall(request)
            data = sock.recv(65536)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise _NoReply(str(exc)) from exc
        if not data:
            raise _NoReply("connection closed by the server")
        end = data.find(b"\r\n\r\n")
        while end < 0:
            if len(data) > _MAX_HEAD_BYTES:
                raise _ProtocolError("reply headers too large")
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed mid-reply")
            data += chunk
            end = data.find(b"\r\n\r\n", max(0, len(data) - len(chunk) - 3))
        status_line, *lines = data[:end].decode("latin-1").split("\r\n")
        version, _, rest = status_line.partition(" ")
        code = rest[:3]
        if not version.startswith("HTTP/1.") or not code.isdigit():
            raise _ProtocolError(f"malformed status line {status_line!r}")
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise _ProtocolError(
                "reply has Transfer-Encoding "
                f"{headers['transfer-encoding']!r}; expected Content-Length"
            )
        length_text = headers.get("content-length")
        if length_text is None:
            raise _ProtocolError("reply has no Content-Length")
        if not length_text.isdigit():
            raise _ProtocolError(f"bad Content-Length {length_text!r}")
        length = int(length_text)
        body = data[end + 4 :]
        if len(body) < length:
            parts = [body]
            missing = length - len(body)
            while missing > 0:
                chunk = sock.recv(min(missing, 1 << 20))
                if not chunk:
                    raise ConnectionError("connection closed mid-body")
                parts.append(chunk)
                missing -= len(chunk)
            body = b"".join(parts)
        # Bytes past the body mean the stream is out of step: use the
        # reply, then drop the connection.
        keep_alive = (
            len(body) == length
            and version != "HTTP/1.0"
            and "close" not in headers.get("connection", "").lower()
        )
        return int(code), body[:length], keep_alive


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
        self._host_header = f"Host: {host}:{port}\r\n"
        #: This thread's :class:`_Connection`.  It opens a socket again
        #: on the call after one was closed.
        self._local = threading.local()
        #: Every thread's connection, for :meth:`close`; a thread's
        #: leaves the set when the thread ends.
        self._connections: weakref.WeakSet = weakref.WeakSet()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _connection(self) -> _Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = _Connection(
                (self.host, self.port), self.timeout
            )
            with self._lock:
                self._connections.add(conn)
        return conn

    def _unavailable(self, what: str) -> ServiceUnavailableError:
        return ServiceUnavailableError(
            f"scheduling service at {self.host}:{self.port} {what}"
        )

    def _request_once(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict]:
        body = b"" if payload is None else json.dumps(payload).encode()
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        request = (
            f"{method} {path} HTTP/1.1\r\n{self._host_header}"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n{extra}\r\n"
        ).encode("latin-1") + body
        conn = self._connection()
        reused = conn.sock is not None
        while True:
            try:
                if conn.sock is None:
                    conn.connect()
                status, raw, keep_alive = conn.exchange(request)
            except _NoReply as exc:
                conn.close()
                if reused:
                    # The server closed the connection while it sat idle
                    # and no byte of a reply came back, so nothing ran:
                    # send once more, on a fresh connection.
                    reused = False
                    continue
                raise self._unavailable(f"unreachable: {exc}") from exc
            except _ProtocolError as exc:
                conn.close()
                raise self._unavailable(f"sent a bad reply: {exc}") from exc
            except OSError as exc:
                conn.close()
                raise self._unavailable(f"unreachable: {exc}") from exc
            break
        if not keep_alive:
            # ``Connection: close``: this thread's next call connects
            # afresh.
            conn.close()
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise self._unavailable(
                f"sent a non-JSON response (HTTP {status})"
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
            "X-Idempotency-Key": identity_json(
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
        """``GET /health`` — liveness and drain state."""
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
