"""Durable request ledger + chaos hooks: crash-recoverable serving.

A SIGKILL between "campaign admitted" and "response recorded" must not
lose the campaign — that is the same guarantee the campaign journal
gives iterations, applied to the serving tier.  A solve needs less: it
is a pure, deterministic function of its request, so a client's retry
after a crash computes the same schedule, and the ledger only has to
remember answers it gave.  This module provides

* :class:`RequestLedger` — a record schema over the campaign journal's
  :class:`~repro.durability.journal.RecordLog` (per-line CRC32C,
  torn-tail truncation on open, failed appends rolled back), keyed by
  each request's idempotency key (the canonical request identity
  unless the client sends one).  An admitted campaign appends an
  *open* record before it runs and a *close* record carrying its
  status and body when it is answered.  A solve appends one record
  only: the *close* of a solve that executed and got a 200, whose body
  is the reply's own bytes, spliced into the record unencoded.  On
  restart :meth:`RequestLedger.incomplete` yields exactly the
  campaigns (and, from a version-1 ledger, the solves) that were
  admitted but never answered, in admission order, for the service to
  replay.  :func:`fold_ledger` is the one reader of that protocol:
  strict at load, issue-collecting under ``repro verify``.
* :func:`crash_injector_from_env` — the campaign's
  :class:`~repro.resilience.faults.FaultInjector`, armed from the
  environment so tests can kill the server at three instants:
  ``post-admission`` (admission paid; a campaign's open record is
  durable, nothing ran), ``mid-dispatch`` (work executing), and
  ``pre-completion`` (a solve's result computed but only in memory, a
  campaign's journal durable; close record missing).

Ledger version 2 is this protocol.  Version 1 wrote an *open* record
for every admitted solve too; its files still open, their open solve
and campaign entries replay, and a replayed version-1 solve closes its
open entry.  Opening a version-1 file appends one upgrade record,
``begin {"ledger_version": 2}``, before anything else, so a version-1
reader refuses the file by name rather than misreading what follows.

``repro verify`` scrubs ledger files through
:func:`repro.durability.verify_ledger` (kind ``ledger``, sniffed from
the ``begin`` record's ``ledger_version`` stamp).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass

from ..durability.journal import JournalError, RecordLog
from ..resilience.faults import (
    SERVICE_CRASH_POINTS,
    FaultInjector,
    FaultPlan,
    ProcessKillFault,
)
from .protocol import EncodedJSON, reply_bytes

__all__ = [
    "LedgerEntry",
    "RequestLedger",
    "crash_injector_from_env",
    "fold_ledger",
]

LEDGER_VERSION = 2
#: Versions :func:`fold_ledger` reads; the protocol rules are the same.
_READABLE_VERSIONS = (1, 2)


@dataclass(frozen=True)
class LedgerEntry:
    """One admitted-but-unanswered request awaiting replay."""

    key: str
    kind: str  # "solve" | "campaign"
    payload: dict


def fold_ledger(
    records: list[dict], path, issues: list[str] | None = None
) -> tuple[dict[str, LedgerEntry], dict[str, tuple[int, dict]]]:
    """Replay ledger records into ``(open, closed)``, checking the protocol.

    The one reader of the open/close protocol, behind ledger load and
    ``repro verify``: a key may be opened when it is neither open nor
    settled with a 200, and closed while open; a solve's 200 close
    needs no open; a 200 close is final; a version-1 file may carry
    one version-2 ``begin`` (its upgrade record).  With ``issues=None``
    (strict) the first violation raises
    :class:`~repro.durability.JournalError`; given a list (scrub) each
    is appended to it and the fold carries on.  ``open`` keeps
    admission order.
    """

    def problem(message: str) -> None:
        if issues is None:
            raise JournalError(f"ledger {path}{message}")
        issues.append(f"ledger {path}{message}")

    opened: dict[str, LedgerEntry] = {}
    closed: dict[str, tuple[int, dict]] = {}
    if not records:
        problem(": no intact records (delete the file to start fresh)")
        return opened, closed
    first = records[0]
    if (
        first["type"] != "begin"
        or first["data"].get("ledger_version") not in _READABLE_VERSIONS
    ):
        problem(
            f": not a version-1 or version-2 request ledger "
            f"(first record: {first['type']!r})"
        )
    upgradable = first["data"].get("ledger_version") == 1
    for record in records[1:]:
        kind, data = record["type"], record["data"]
        key = data.get("key")
        where = f" seq {record['seq']}: "
        if upgradable and kind == "begin" and data == {
            "ledger_version": LEDGER_VERSION
        }:
            upgradable = False  # the one upgrade record
        elif kind not in ("open", "close"):
            problem(f"{where}unexpected record type {kind!r}")
        elif not isinstance(key, str) or not key:
            problem(f"{where}{kind!r} record without a key")
        elif closed.get(key, (None,))[0] == 200:
            problem(f"{where}{kind!r} record for key {key!r} already settled 200")
        elif kind == "open":
            if key in opened:
                problem(f"{where}key {key!r} opened while open")
            else:
                closed.pop(key, None)
                opened[key] = LedgerEntry(
                    key=key,
                    kind=data.get("kind", "solve"),
                    payload=data.get("payload") or {},
                )
        elif key in opened or (
            data.get("kind") == "solve" and data.get("status") == 200
        ):
            opened.pop(key, None)
            closed[key] = (data.get("status", 200), data.get("body"))
        else:
            problem(f"{where}'close' record for key {key!r} that is not open")
    return opened, closed


class RequestLedger:
    """Append-only log of admitted campaigns and answered solves.

    A record schema over :class:`~repro.durability.journal.RecordLog`
    (the campaign journal's file format and file operations):

    ``begin``
        seq 0, ``{"ledger_version": 2}`` — identifies the file; a
        version-1 file gets one at its end when this version opens it;
    ``open``
        ``{"key", "kind", "payload"}`` — a campaign's, appended after
        admission, before execution; fsynced before it proceeds;
    ``close``
        ``{"body", "key", "kind", "status"}`` — a request's terminal
        response, its ``body`` the bytes of the reply
        (:func:`~repro.service.protocol.reply_bytes`).  A campaign's
        closes its open entry; a solve's 200 needs none.  Only a 200
        settles a key for good: its body is served verbatim to
        duplicate submissions and the key gets no record again.  A
        non-200 close marks an entry answered, so a restart does not
        replay it, but a retry under the same key opens it afresh.

    Opening an existing ledger truncates a torn tail line (expected
    crash damage) and raises :class:`~repro.durability.JournalError`
    on damage anywhere earlier or on a protocol violation
    (:func:`fold_ledger`).  All methods are thread-safe.
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = True) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        #: Open entries in admission order / last close of other keys.
        #: A settled body is kept as its reply bytes, a quarter of the
        #: memory of the dict: a ledger hit decodes it for the caller
        #: and replies with the bytes as they are.
        self._open: dict[str, LedgerEntry] = {}
        self._closed: dict[str, tuple[int, bytes]] = {}
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if os.path.exists(self.path):
            self._log = RecordLog.open(self.path, self._load, fsync=fsync)
            if self._version == 1:
                self._log.append("begin", {"ledger_version": LEDGER_VERSION})
        else:
            self._log = RecordLog.create(self.path, fsync=fsync)
            self._log.append("begin", {"ledger_version": LEDGER_VERSION})

    def _load(self, records: list[dict]) -> None:
        self._open, closed = fold_ledger(records, self.path)
        self._version = max(
            r["data"]["ledger_version"]
            for r in records
            if r["type"] == "begin"
        )
        # A stored reply parses back in its own key order, so its reply
        # encoding is the bytes that were stored; a version-1 body was
        # stored canonically and comes back with its keys sorted.
        self._closed = {
            key: (status, reply_bytes(body))
            for key, (status, body) in closed.items()
        }

    # ------------------------------------------------------------------
    def record_open(self, key: str, kind: str, payload: dict) -> bool:
        """Admit ``key`` into the ledger; False if it is open already
        or settled with a 200 — the caller coalesces or replays
        instead of re-logging."""
        with self._lock:
            if (
                self._log.closed
                or key in self._open
                or self._closed.get(key, (None,))[0] == 200
            ):
                return False
            self._log.append(
                "open", {"key": key, "kind": kind, "payload": payload}
            )
            self._closed.pop(key, None)
            self._open[key] = LedgerEntry(key=key, kind=kind, payload=payload)
            return True

    def record_close(self, key: str, status: int, body: dict) -> bool:
        """Settle open ``key`` with its terminal response; False when
        the key has no open entry (nothing to settle)."""
        return self._close(key, status, body, needs_open=True) is not None

    def record_solved(self, key: str, body: dict) -> EncodedJSON | None:
        """A solve's one record: its 200 reply, stored as the reply's
        bytes.

        Needs no open entry, and settles one if there is (a replayed
        version-1 solve).  Returns ``body`` as an
        :class:`~repro.service.protocol.EncodedJSON` carrying the
        stored bytes, to reply with, or None when nothing was written:
        the key was settled with a 200 already (a duplicate that ran
        while the first was settling), or the ledger is closed.
        """
        return self._close(key, 200, body, needs_open=False)

    def _close(
        self, key: str, status: int, body: dict, needs_open: bool
    ) -> EncodedJSON | None:
        encoded = reply_bytes(body)
        with self._lock:
            entry = self._open.get(key)
            if self._log.closed or entry is None and (
                needs_open or self._closed.get(key, (None,))[0] == 200
            ):
                return None
            kind = "solve" if entry is None else entry.kind
            # Canonical key order, with the reply bytes as the body.
            data = b'{"body":%s,"key":%s,"kind":%s,"status":%d}' % (
                encoded,
                json.dumps(key).encode(),
                json.dumps(kind).encode(),
                status,
            )
            self._log.append("close", data)
            self._open.pop(key, None)
            self._closed[key] = (status, encoded)
        return EncodedJSON(body, encoded)

    def is_open(self, key: str) -> bool:
        with self._lock:
            return key in self._open

    def closed_body(self, key: str) -> tuple[int, dict] | None:
        """The recorded ``(status, body)`` of a settled key, or None.

        An object body comes back as an
        :class:`~repro.service.protocol.EncodedJSON` holding the bytes
        of the original reply.
        """
        with self._lock:
            recorded = self._closed.get(key)
        if recorded is None:
            return None
        status, encoded = recorded
        body = json.loads(encoded)
        if type(body) is dict:
            body = EncodedJSON(body, encoded)
        return status, body

    def incomplete(self) -> list[LedgerEntry]:
        """Admitted-but-unanswered entries, in admission order."""
        with self._lock:
            return list(self._open.values())

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """A JSON-safe snapshot for the ``/status`` endpoint."""
        with self._lock:
            return {
                "path": self.path,
                "open": len(self._open),
                "closed": len(self._closed),
                "records": self._log.seq,
                "recovered_torn_tail": self._log.torn,
            }

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __enter__(self) -> "RequestLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def crash_injector_from_env(environ=None) -> FaultInjector:
    """The service's fault injector, armed from the environment.

    ``REPRO_SERVICE_CRASH=mid-dispatch`` crashes the process (hard:
    ``os._exit(137)``) the first time the named point is passed;
    ``mid-dispatch:3`` the third time.  With
    ``REPRO_SERVICE_CRASH_TOKEN=/path/to/token`` the crash additionally
    requires the token file to exist and consumes (unlinks) it first —
    so a supervised restart of the same environment does not crash
    again, which is exactly what the watchdog end-to-end test needs.
    Unarmed (the default) the injector has an empty plan.
    """
    environ = os.environ if environ is None else environ
    spec = environ.get("REPRO_SERVICE_CRASH")
    if not spec:
        return FaultInjector(FaultPlan())
    point, _, ordinal = spec.strip().partition(":")
    try:
        n = int(ordinal or 1)
    except ValueError:
        n = 0
    if point not in SERVICE_CRASH_POINTS or n < 1:
        raise ValueError(
            f"REPRO_SERVICE_CRASH={spec!r}: expected point[:N] with point "
            f"one of {', '.join(SERVICE_CRASH_POINTS)} and N an integer "
            ">= 1"
        )
    token = environ.get("REPRO_SERVICE_CRASH_TOKEN")

    def armed() -> bool:
        if not token:
            return True
        try:
            os.unlink(token)
        except FileNotFoundError:
            return False  # already consumed: crash exactly once
        return True

    kill = ProcessKillFault(point=point, iteration=n)
    return FaultInjector(FaultPlan(process_kill=kill), crash_armed=armed)
