"""Durable request ledger + chaos hooks: crash-recoverable serving.

A SIGKILL between "request admitted" and "response recorded" must not
lose the request — that is the same guarantee the campaign journal
gives iterations, applied to the serving tier.  This module provides

* :class:`RequestLedger` — a write-ahead log of admitted ``/solve`` and
  ``/campaign`` requests: a record schema over the campaign journal's
  :class:`~repro.durability.journal.RecordLog` (canonical JSON,
  per-line CRC32C, torn-tail truncation on open, failed appends rolled
  back).  Every admitted request appends an *open* record keyed by its
  idempotency key (the canonical request identity); its terminal
  response appends a *close* record carrying the status and body.  On
  restart :meth:`RequestLedger.incomplete` yields exactly the requests
  that were admitted but never answered, in admission order, for the
  service to replay.  :func:`fold_ledger` is the one reader of that
  protocol: strict at load, issue-collecting under ``repro verify``.
* :func:`crash_injector_from_env` — the campaign's
  :class:`~repro.resilience.faults.FaultInjector`, armed from the
  environment so tests can kill the server at the three instants whose
  recovery behaviour differs: ``post-admission`` (open record durable,
  nothing ran), ``mid-dispatch`` (work executing), and
  ``pre-completion`` (result durable in the memo cache, close record
  missing).

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

LEDGER_VERSION = 1


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
    settled with a 200, closed only while open, and a 200 close is
    final.  With ``issues=None`` (strict) the first violation raises
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
        or first["data"].get("ledger_version") != LEDGER_VERSION
    ):
        problem(
            f": not a version-{LEDGER_VERSION} request ledger "
            f"(first record: {first['type']!r})"
        )
    for record in records[1:]:
        kind, data = record["type"], record["data"]
        key = data.get("key")
        where = f" seq {record['seq']}: "
        if kind not in ("open", "close"):
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
        elif key not in opened:
            problem(f"{where}'close' record for key {key!r} that is not open")
        else:
            del opened[key]
            closed[key] = (data.get("status", 200), data.get("body"))
    return opened, closed


class RequestLedger:
    """Append-only write-ahead log of admitted service requests.

    A record schema over :class:`~repro.durability.journal.RecordLog`
    (the campaign journal's file format and file operations):

    ``begin``
        seq 0, ``{"ledger_version": 1}`` — identifies the file;
    ``open``
        ``{"key", "kind", "payload"}`` — appended after admission,
        before execution; fsynced before the request proceeds;
    ``close``
        ``{"key", "status", "body"}`` — the request's terminal
        response.  Only a 200 settles a key for good: its body is
        served verbatim to duplicate submissions and the key is never
        opened again.  A non-200 close marks the entry answered, so a
        restart does not replay it, but a retry under the same key
        opens it afresh.

    Opening an existing ledger truncates a torn tail line (expected
    crash damage) and raises :class:`~repro.durability.JournalError`
    on damage anywhere earlier or on a protocol violation
    (:func:`fold_ledger`).  All methods are thread-safe.
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = True) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        #: Open entries in admission order / last close of other keys.
        #: A settled body is kept in its reply encoding
        #: (:func:`~repro.service.protocol.reply_bytes`), a quarter of
        #: the memory of the dict: a ledger hit decodes it for the
        #: caller and replies with the bytes as they are.
        self._open: dict[str, LedgerEntry] = {}
        self._closed: dict[str, tuple[int, bytes]] = {}
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if os.path.exists(self.path):
            self._log = RecordLog.open(self.path, self._load, fsync=fsync)
        else:
            self._log = RecordLog.create(self.path, fsync=fsync)
            self._log.append("begin", {"ledger_version": LEDGER_VERSION})

    def _load(self, records: list[dict]) -> None:
        self._open, closed = fold_ledger(records, self.path)
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
        """Settle ``key`` with its terminal response; False when the
        key has no open entry (nothing to settle)."""
        with self._lock:
            if self._log.closed or key not in self._open:
                return False
            self._log.append(
                "close", {"key": key, "status": status, "body": body}
            )
            del self._open[key]
            self._closed[key] = (status, reply_bytes(body))
            return True

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
