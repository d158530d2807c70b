"""The JSON-over-HTTP face of the scheduling service (stdlib asyncio).

A deliberately small HTTP/1.1 server built on ``asyncio`` streams — no
web framework, no new dependencies — that adapts wire requests onto the
thread-based :class:`~repro.service.service.SchedulingService` core.
The split matters: all scheduling logic (cache, admission, dispatch,
telemetry) lives in the core and is fully testable in-process; this
module only parses requests, awaits the core's
``concurrent.futures.Future`` results via :func:`asyncio.wrap_future`,
and serializes responses.

Routes:

========  ============  ====================================================
method    path          handled by
========  ============  ====================================================
POST      ``/solve``    :meth:`SchedulingService.begin_solve`
POST      ``/campaign``  :meth:`SchedulingService.begin_campaign`
GET       ``/status``   :meth:`SchedulingService.status_payload`
GET       ``/health``   :meth:`SchedulingService.health_payload`
POST      ``/shutdown``  graceful drain, then the server exits
========  ============  ====================================================

Every response body is a JSON object; errors use the same structured
``{"ok": false, "error": {"code", "message"}}`` shape the service core
produces, so clients never parse a traceback.  A body's bytes are
``json.dumps(body).encode()``, written by
:func:`~repro.service.protocol.reply_bytes`: a value the service holds
encoded (a memo-cache solution, a settled ledger body) goes out as the
bytes it was stored with.

Connections are HTTP/1.1 keep-alive: one connection carries request
after request until the client sends ``Connection: close`` (or speaks
HTTP/1.0), a request is malformed, the connection sits idle for
``_IDLE_TIMEOUT_S``, or the server drains.  A connection's last reply
carries ``Connection: close``.  On shutdown every idle connection is
closed at once and in-flight requests finish first; without that, an
idle client would hold ``Server.wait_closed()`` open for ever on Python
3.12.1 and later.  ``/status`` counts connections under
``connections: {accepted, open}``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import threading
from concurrent.futures import Future

from ..durability.atomic import atomic_write_text
from .protocol import reply_bytes
from .service import SchedulingService

__all__ = ["ServiceServer", "serve_forever", "startup_heartbeat"]

#: Largest accepted request body — a schedule instance is small; this
#: mostly guards against accidental garbage on the port.
MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_HEADER_BYTES = 64 * 1024
#: Seconds between heartbeat-file refreshes.
_HEARTBEAT_INTERVAL_S = 1.0
#: Seconds a connection may wait for its next request before the
#: server closes it.  A sweep runs four times per timeout.
_IDLE_TIMEOUT_S = 30.0


class _HttpError(Exception):
    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


def _beat(path: str, bound: tuple[str, int] | None) -> None:
    with contextlib.suppress(OSError):
        # No fsync: the heartbeat only needs a fresh mtime, and an
        # fsync per beat would thrash the disk for nothing.
        atomic_write_text(path, f"{bound}\n", fsync=False)


@contextlib.contextmanager
def startup_heartbeat(path: str | None):
    """Refresh the heartbeat file from a thread while the block runs:
    the liveness signal of a server opening and replaying its ledger,
    which can outlast the watchdog's hang timeout, before its event
    loop beats (see :attr:`ServiceServer.heartbeat_path`)."""
    stop = threading.Event()

    def beat() -> None:
        while path is not None and not stop.is_set():
            _beat(path, None)
            stop.wait(_HEARTBEAT_INTERVAL_S)

    thread = threading.Thread(target=beat, name="repro-heartbeat", daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def _error(status: int, code: str, message: str) -> tuple[int, dict]:
    """The structured error reply the service core also produces."""
    return status, {"ok": False, "error": {"code": code, "message": message}}


class ServiceServer:
    """One listening scheduling service: asyncio front, threaded core.

    Usage::

        server = ServiceServer(service, host="127.0.0.1", port=8742)
        asyncio.run(server.run())          # serves until shutdown

    or, from synchronous code (tests, the CLI), via
    :func:`serve_forever`.
    """

    def __init__(
        self,
        service: SchedulingService,
        host: str = "127.0.0.1",
        port: int = 8742,
        *,
        heartbeat_path: str | None = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: While serving, refreshed every ``_HEARTBEAT_INTERVAL_S`` from
        #: the event loop — so a wedged loop (livelock) stops the file
        #: from advancing and the watchdog notices, even though the
        #: process is alive and the socket still accepts connections.
        self.heartbeat_path = heartbeat_path
        #: Set once the listening socket is bound; carries the actual
        #: (host, port) — useful with ``port=0``.
        self.bound: tuple[str, int] | None = None
        self._shutdown_requested = asyncio.Event()
        self._on_bound: list = []
        #: Connections accepted since the server started.
        self.accepted = 0
        #: Each open connection's writer -> the loop time it began to
        #: wait for its next request, or None while it serves one.
        self._idle_since: dict[asyncio.StreamWriter, float | None] = {}

    def add_bound_callback(self, callback) -> None:
        """``callback(host, port)`` runs once the socket is listening."""
        self._on_bound.append(callback)

    def request_shutdown(self) -> None:
        """Ask the serve loop to drain and exit (signal-handler safe)."""
        self._shutdown_requested.set()

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Bind, serve until shutdown is requested, then drain and exit."""
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = server.sockets[0].getsockname()
        self.bound = (sock[0], sock[1])
        for callback in self._on_bound:
            callback(*self.bound)
        background = [asyncio.ensure_future(self._idle_sweep_loop())]
        if self.heartbeat_path is not None:
            background.append(asyncio.ensure_future(self._heartbeat_loop()))
        try:
            async with server:
                await self._shutdown_requested.wait()
                # Leaving the block waits for every connection to end:
                # close the idle ones now, the busy ones close after
                # their reply.
                self._close_idle(math.inf)
        finally:
            for task in background:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        # Socket closed: drain the core off the event loop so queued
        # solves and in-flight campaigns finish (journals flush).
        await asyncio.get_running_loop().run_in_executor(
            None, self.service.shutdown
        )

    async def _heartbeat_loop(self) -> None:
        while True:
            _beat(self.heartbeat_path, self.bound)
            await asyncio.sleep(_HEARTBEAT_INTERVAL_S)

    async def _idle_sweep_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(_IDLE_TIMEOUT_S / 4)
            self._close_idle(loop.time() - _IDLE_TIMEOUT_S)

    def _close_idle(self, before: float) -> None:
        """Close every connection waiting for a request since ``before``;
        its handler then reads EOF and ends."""
        for writer, since in list(self._idle_since.items()):
            if since is not None and since <= before:
                writer.close()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.accepted += 1
        clock = asyncio.get_running_loop().time
        try:
            # A connection accepted as the drain began is closed unread.
            while not self._shutdown_requested.is_set():
                self._idle_since[writer] = clock()
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    await self._respond(
                        writer,
                        *_error(exc.status, exc.code, str(exc)),
                        keep_alive=False,
                    )
                    return
                if request is None:
                    return  # client closed the connection
                self._idle_since[writer] = None
                method, path, body, headers, keep_alive = request
                status, payload = await self._route(
                    method, path, body, headers
                )
                keep_alive &= not self._shutdown_requested.is_set()
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._idle_since.pop(writer, None)
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise _HttpError(
                400, "bad_request", "truncated HTTP request"
            ) from exc
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(
                431, "bad_request", "request headers too large"
            ) from exc
        if len(header_blob) > _MAX_HEADER_BYTES:
            raise _HttpError(431, "bad_request", "request headers too large")
        head, *header_lines = header_blob.decode(
            "latin-1"
        ).rstrip("\r\n").split("\r\n")
        parts = head.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(
                400, "bad_request", f"malformed request line: {head!r}"
            )
        method, path = parts[0].upper(), parts[1]
        headers = {}
        for line in header_lines:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(
                400, "bad_request", f"bad Content-Length: {length_text!r}"
            ) from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpError(
                413,
                "body_too_large",
                f"request body of {length} bytes exceeds "
                f"{MAX_BODY_BYTES} limit",
            )
        body = await reader.readexactly(length) if length else b""
        keep_alive = parts[2] != "HTTP/1.0" and "close" not in {
            token.strip()
            for token in headers.get("connection", "").lower().split(",")
        }
        return method, path, body, headers, keep_alive

    async def _route(
        self, method: str, path: str, body: bytes, headers: dict | None = None
    ):
        headers = headers or {}
        path = path.split("?", 1)[0]
        if method == "GET" and path == "/health":
            return 200, self.service.health_payload()
        if method == "GET" and path == "/status":
            return 200, {
                **self.service.status_payload(),
                "connections": {
                    "accepted": self.accepted,
                    "open": len(self._idle_since),
                },
            }
        if method == "POST" and path == "/shutdown":
            self._shutdown_requested.set()
            return 200, {"ok": True, "draining": True}
        if method == "POST" and path in ("/solve", "/campaign"):
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return _error(
                    400, "bad_request", f"request body is not valid JSON: {exc}"
                )
            idem_key = headers.get("x-idempotency-key")
            if idem_key and isinstance(payload, dict):
                # The retry header wins over any body-level key: the
                # client keeps it stable across resubmissions, which is
                # what makes retried requests exactly-once.
                payload["idempotency_key"] = idem_key
            begin = (
                self.service.begin_solve
                if path == "/solve"
                else self.service.begin_campaign
            )
            # The core answers every request, malformed ones included:
            # begin_* never raises.
            pending = begin(payload)
            if isinstance(pending, Future):
                return await asyncio.wrap_future(pending)
            return pending
        return _error(404, "not_found", f"no route for {method} {path}")

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool,
    ) -> None:
        body = reply_bytes(payload)
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            413: "Payload Too Large",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error",
            503: "Service Unavailable",
            504: "Gateway Timeout",
        }.get(status, "OK")
        close = "" if keep_alive else "Connection: close\r\n"
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{close}\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()


def serve_forever(
    service: SchedulingService,
    host: str = "127.0.0.1",
    port: int = 8742,
    *,
    on_bound=None,
    install_signal_handlers: bool = False,
    heartbeat_path: str | None = None,
) -> None:
    """Blocking entry point: serve until a shutdown request, then drain.

    ``on_bound(host, port)`` fires once the socket listens (the CLI
    prints the listening line from it; tests grab the ephemeral port).
    With ``install_signal_handlers`` SIGINT/SIGTERM trigger the same
    graceful drain as ``POST /shutdown``.  ``heartbeat_path`` arms the
    liveness file the watchdog (``repro serve --supervised``) watches.
    """
    server = ServiceServer(
        service, host=host, port=port, heartbeat_path=heartbeat_path
    )
    if on_bound is not None:
        server.add_bound_callback(on_bound)

    async def _main() -> None:
        if install_signal_handlers:
            import signal

            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(
                        signum, server.request_shutdown
                    )
        await server.run()

    asyncio.run(_main())
