"""The record log, and the write-ahead campaign journal over it.

:class:`RecordLog` is the one CRC'd, seq-numbered, append-only
JSON-lines file in the system: wire format, strict scan, torn-tail
repair and durable append live here once.  :class:`CampaignJournal`
(below) and the service's :class:`~repro.service.recovery.RequestLedger`
are two record *schemas* over it; neither touches the file itself.

A line is ``{"crc":"<8 hex>",`` followed by the record's ``data``,
``seq`` and ``type`` in that order.  Its CRC32C covers the line's own
bytes after that prefix, with a leading ``{``, and a reader checks it
over exactly those bytes without re-encoding anything.  A record whose
``data`` is a dict is canonical JSON throughout, so for it the CRC is
also the CRC of the canonical JSON of the record without ``crc``.  A
schema may instead pass ``data`` as an already-encoded JSON object,
which is stored as it is (the ledger stores reply bytes this way).

The orchestrator appends one *plan* (intent) record before each
iteration runs and one *commit* record after it completes, each a single
canonical-JSON line carrying its own CRC32C.  Appends are flushed and
fsynced before execution proceeds, so at any crash instant the journal
holds every committed iteration plus at most one torn tail line.

Resume (``repro campaign --resume journal.jsonl``) exploits that the
whole campaign simulation is a pure function of its seeds: the fault
injector draws from key-addressed generators and the noise models replay
identically from scratch.  So a resumed run rebuilds the runner from the
journal header and **re-executes** the committed iterations in memory,
cross-checking every regenerated record byte-for-byte against the
journaled one (JSON floats round-trip exactly, so equality is exact) —
then switches to live mode at the first incomplete iteration and
continues appending.  A divergence means the journal, the code, or the
seeds changed; it is a hard error naming the iteration, never a silent
wrong continuation.

Tail handling: the final line may be torn (crash mid-append).  A torn
tail is *expected* damage — it is truncated away on resume.  A corrupt
record anywhere earlier is *unexpected* damage and raises
:class:`JournalError` naming the line.
"""

from __future__ import annotations

import contextlib
import json
import os

from ..telemetry import NULL_TRACER
from .atomic import fsync_dir
from .checksum import crc32c, crc32c_hex

__all__ = [
    "JournalError",
    "RecordLog",
    "CampaignJournal",
    "canonical_json",
    "read_journal",
    "scan_records",
    "encode_record",
    "decode_record",
]

JOURNAL_VERSION = 1


class JournalError(ValueError):
    """A journal that cannot be trusted (corrupt or diverged)."""


def canonical_json(obj) -> str:
    """The byte-stable JSON form CRCs and comparisons are defined over."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_record(seq: int, type: str, data: dict | bytes) -> bytes:
    """One journal line: canonical JSON with an embedded self-CRC.

    ``data`` is a dict, canonical-encoded here, or the bytes of a JSON
    object that is already encoded (one line, no newline), spliced in
    as they are.  The CRC covers the line after its ``{"crc":"…",``
    prefix, with the ``{`` put back: for a dict that is the canonical
    JSON of the record without its ``crc``.
    """
    if not isinstance(data, bytes):
        data = canonical_json(data).encode()
    elif data[:1] != b"{" or b"\n" in data:
        raise ValueError("record data must be one encoded JSON object")
    body = b'"data":%s,"seq":%d,"type":%s}' % (
        data,
        seq,
        json.dumps(type).encode(),
    )
    return b'{"crc":"%s",%s\n' % (crc32c_hex(b"{" + body).encode(), body)


#: ``{"crc":"`` + 8 hex digits + ``",``: the start of every line.
_CRC_PREFIX = len(b'{"crc":"00000000",')
#: The CRC of the ``{`` that the checked bytes start with.
_BRACE_CRC = crc32c(b"{")


def decode_record(line: bytes, lineno: int) -> dict:
    """Parse and CRC-check one journal line; raises :class:`JournalError`.

    The CRC is checked over the bytes the line holds, never over a
    re-encoding of what they parse to: a line that parses to a valid
    record but is not byte for byte the one its CRC was made over
    fails.
    """
    try:
        record = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JournalError(
            f"journal line {lineno}: not valid JSON: {exc}"
        ) from exc
    if not isinstance(record, dict):
        raise JournalError(
            f"journal line {lineno}: record must be an object, "
            f"got {type(record).__name__}"
        )
    for field in ("seq", "type", "data", "crc"):
        if field not in record:
            raise JournalError(
                f"journal line {lineno}: missing field {field!r}"
            )
    if line[:8] != b'{"crc":"' or line[16:_CRC_PREFIX] != b'",':
        raise JournalError(
            f"journal line {lineno}: does not start with "
            '{"crc":"<8 hex digits>",'
        )
    stored = record.pop("crc")
    actual = crc32c_hex(memoryview(line)[_CRC_PREFIX:], _BRACE_CRC)
    if stored != actual:
        raise JournalError(
            f"journal line {lineno}: checksum mismatch "
            f"(stored {stored}, computed {actual})"
        )
    return record


def scan_records(
    blob: bytes, noun: str = "journal", issues: list[str] | None = None
) -> tuple[list[dict], int, list[str]]:
    """Split, CRC-check and sequence-check the lines of a record log.

    The one scanner behind journal resume, ledger load and the offline
    scrubs.  Returns ``(records, good_bytes, torn)``: the decoded
    records, the byte length of the lines they came from, and a
    description of each kind of tail damage found (empty when the log
    ends cleanly).  A torn tail is expected damage.  Damage before the
    final line is not: with ``issues=None`` (strict) it raises
    :class:`JournalError`; given a list (scrub) each problem is appended
    to it and the scan carries on.
    """
    lines = blob.split(b"\n")
    # A well-formed log ends with "\n", so the final split element is
    # empty; anything else is an unterminated (torn) tail.
    tail = lines.pop()
    torn = [f"{len(tail)} bytes past the last newline"] if tail else []
    records: list[dict] = []
    good_bytes = 0
    for index, line in enumerate(lines):
        try:
            record = decode_record(line, index + 1)
        except JournalError as exc:
            if index == len(lines) - 1:
                # fsync boundary: the last line may be garbage
                torn.append(f"line {index + 1} fails its CRC")
            elif issues is None:
                raise
            else:
                issues.append(str(exc))
            continue
        if record["seq"] != index:
            gap = (
                f"{noun} line {index + 1}: sequence gap "
                f"(expected seq {index}, got {record['seq']!r})"
            )
            if issues is None:
                raise JournalError(gap)
            issues.append(gap)
        records.append(record)
        good_bytes += len(line) + 1
    return records, good_bytes, torn


def read_journal(path: str | os.PathLike) -> tuple[list[dict], int, bool]:
    """Read every trustworthy record of a journal.

    Returns ``(records, good_bytes, torn)`` where ``good_bytes`` is the
    file length up to and including the last valid line and ``torn``
    says whether a damaged tail line was discarded.  Damage anywhere
    before the final line raises :class:`JournalError`.
    """
    with open(path, "rb") as fh:
        records, good_bytes, torn = scan_records(fh.read())
    return records, good_bytes, bool(torn)


class RecordLog:
    """One open record log: the file, its next ``seq``, its length.

    An append encodes, writes, flushes, fsyncs, and only *then*
    advances ``seq``.  If a file call raises, the file is cut back to
    the length it had before the append and ``seq`` is untouched, so
    the next append — or the next open — finds a log that never heard
    of the failed record.  The length is tracked arithmetically: the
    success path makes no extra system call.  Not thread-safe; a schema
    that appends from several threads (the ledger) serializes its calls.
    """

    def __init__(
        self, path: str, fh, seq: int, size: int, fsync: bool, torn: bool
    ) -> None:
        self.path = path
        #: Sequence number the next appended record will carry, which
        #: is also the number of records in the file.
        self.seq = seq
        #: Byte length of the intact records in the file.
        self.size = size
        #: Whether opening the log cut a torn tail off the file.
        self.torn = torn
        self._fh = fh
        self._fsync = fsync

    @classmethod
    def create(
        cls, path: str | os.PathLike, *, fsync: bool = True
    ) -> "RecordLog":
        """Start an empty log at ``path`` (truncating any previous file)."""
        path = os.fspath(path)
        fh = open(path, "wb")
        if fsync:
            fsync_dir(os.path.dirname(path))
        return cls(path, fh, 0, 0, fsync, False)

    @classmethod
    def open(
        cls, path: str | os.PathLike, load, *, fsync: bool = True
    ) -> "RecordLog":
        """Open an existing log: trusted prefix in, torn tail out.

        ``load(records)`` is the schema's reader; it raises
        :class:`JournalError` for a log it will not continue, and runs
        before the file is touched, so a refused log stays as found.
        """
        path = os.fspath(path)
        records, good_bytes, torn = read_journal(path)
        load(records)
        fh = open(path, "r+b")
        if torn:
            fh.truncate(good_bytes)
        fh.seek(good_bytes)
        return cls(path, fh, len(records), good_bytes, fsync, torn)

    @property
    def closed(self) -> bool:
        return self._fh is None

    def append(self, type: str, data: dict | bytes) -> None:
        """Append one record durably, or leave the log as it was.

        ``data`` is what :func:`encode_record` takes: a dict, or the
        bytes of an encoded JSON object.
        """
        if self._fh is None:
            raise JournalError(f"journal {self.path} is closed")
        line = encode_record(self.seq, type, data)
        try:
            self._fh.write(line)
            self._fh.flush()
            if self._fsync:
                os.fsync(self._fh.fileno())
        except BaseException:
            self._roll_back()
            raise
        self.seq += 1
        self.size += len(line)

    def _roll_back(self) -> None:
        """Cut whatever part of a failed append reached the file.

        The handle is replaced, not reused: its buffer may still hold
        the failed line and would write it out on the next flush.
        """
        fh, self._fh = self._fh, None
        with contextlib.suppress(OSError):
            fh.close()
        fh = open(self.path, "r+b")
        fh.truncate(self.size)
        fh.seek(self.size)
        self._fh = fh

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _validate_structure(records: list[dict], path) -> None:
    """Enforce the begin, (plan, commit)*, [plan,] [end] protocol shape."""
    if not records:
        raise JournalError(f"journal {path}: no intact records")
    if records[0]["type"] != "begin":
        raise JournalError(
            f"journal {path}: first record must be 'begin', "
            f"got {records[0]['type']!r}"
        )
    expected_iter = 0
    expect = "plan"
    for record in records[1:]:
        kind = record["type"]
        if kind == "end":
            if expect != "plan":
                raise JournalError(
                    f"journal {path}: 'end' record interrupts "
                    f"iteration {expected_iter}"
                )
            expect = "done"
            continue
        if expect == "done":
            raise JournalError(
                f"journal {path}: record after 'end' record"
            )
        if kind != expect:
            raise JournalError(
                f"journal {path}: expected a {expect!r} record for "
                f"iteration {expected_iter}, got {kind!r}"
            )
        iteration = record["data"].get("iteration")
        if iteration != expected_iter:
            raise JournalError(
                f"journal {path}: {kind!r} record out of order "
                f"(expected iteration {expected_iter}, got {iteration!r})"
            )
        if kind == "plan":
            expect = "commit"
        else:
            expect = "plan"
            expected_iter += 1


class CampaignJournal:
    """Append-only write-ahead log for one campaign run.

    Use :meth:`create` for a fresh run and :meth:`resume` to continue
    from an interrupted one.  The orchestrator calls
    :meth:`record_plan` / :meth:`record_commit` / :meth:`record_end`
    with plain-JSON payload dicts; in resume mode the calls covering
    already-committed iterations verify instead of append.  With a
    fault :attr:`injector` every append passes its seeded crash points
    (:meth:`~repro.resilience.faults.FaultInjector.crash_point`).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        fsync: bool = True,
        injector=None,
        tracer=NULL_TRACER,
    ) -> None:
        self.path = os.fspath(path)
        self._fsync = fsync
        self.injector = injector
        self._tracer = tracer
        self._log: RecordLog | None = None
        self._header: dict = {}
        self._replay_plans: dict[int, dict] = {}
        self._replay_commits: dict[int, dict] = {}
        self._replay_end: dict | None = None

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | os.PathLike,
        header: dict,
        *,
        fsync: bool = True,
        injector=None,
        tracer=NULL_TRACER,
    ) -> "CampaignJournal":
        """Start a fresh journal (truncating any previous file)."""
        journal = cls(path, fsync=fsync, injector=injector, tracer=tracer)
        journal._header = dict(header, journal_version=JOURNAL_VERSION)
        journal._log = RecordLog.create(journal.path, fsync=journal._fsync)
        journal._append("begin", journal._header)
        return journal

    @classmethod
    def resume(
        cls,
        path: str | os.PathLike,
        *,
        fsync: bool = True,
        injector=None,
        tracer=NULL_TRACER,
    ) -> "CampaignJournal":
        """Open an interrupted journal: trusted prefix in, torn tail out."""
        journal = cls(path, fsync=fsync, injector=injector, tracer=tracer)
        journal._log = RecordLog.open(
            journal.path, journal._load, fsync=journal._fsync
        )
        return journal

    def _load(self, records: list[dict]) -> None:
        _validate_structure(records, self.path)
        self._header = records[0]["data"]
        for record in records[1:]:
            data = record["data"]
            if record["type"] == "plan":
                self._replay_plans[data["iteration"]] = data
            elif record["type"] == "commit":
                self._replay_commits[data["iteration"]] = data
            else:
                self._replay_end = data

    # ------------------------------------------------------------------
    @property
    def header(self) -> dict:
        return self._header

    @property
    def committed_iterations(self) -> int:
        """Count of fully committed iterations in the trusted prefix."""
        return len(self._replay_commits)

    @property
    def is_complete(self) -> bool:
        return self._replay_end is not None

    # ------------------------------------------------------------------
    def record_plan(self, iteration: int, data: dict) -> None:
        """Journal the intent to run ``iteration`` (write-ahead)."""
        data = dict(data, iteration=int(iteration))
        replayed = self._replay_plans.get(iteration)
        if replayed is not None:
            self._verify(iteration, "plan", data, replayed)
            return
        self._append("plan", data)
        self._crash_point("plan", iteration)

    def record_commit(self, iteration: int, data: dict) -> None:
        """Journal ``iteration``'s completion, durably, crash points live."""
        data = dict(data, iteration=int(iteration))
        replayed = self._replay_commits.get(iteration)
        if replayed is not None:
            self._verify(iteration, "commit", data, replayed)
            return
        self._crash_point("pre-commit", iteration)

        def torn() -> None:
            # Dying mid-append: half the record reaches the file
            # (durably, worst case), then the process is gone.
            line = encode_record(self._log.seq, "commit", data)
            with open(self.path, "ab") as fh:
                fh.write(line[: max(1, len(line) // 2)])
                fh.flush()
                os.fsync(fh.fileno())

        # A torn commit is never completed; the code after it runs only
        # when a test's crash action returned.
        if not self._crash_point("torn-commit", iteration, torn):
            self._append("commit", data)
        self._crash_point("post-commit", iteration)

    def record_end(self, data: dict) -> None:
        """Journal the campaign's aggregate metrics (final record)."""
        if self._replay_end is not None:
            self._verify(-1, "end", data, self._replay_end)
            return
        self._append("end", data)

    def close(self) -> None:
        if self._log is not None:
            self._log.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _crash_point(self, point: str, iteration: int, before=None) -> bool:
        return self.injector is not None and self.injector.crash_point(
            point, iteration, before
        )

    def _verify(
        self, iteration: int, kind: str, data: dict, replayed: dict
    ) -> None:
        """Re-executed state must match the journal byte for byte."""
        regenerated = canonical_json(data)
        journaled = canonical_json(replayed)
        if regenerated != journaled:
            raise JournalError(
                f"journal {self.path}: replay diverged at {kind} record "
                f"of iteration {iteration}: journaled {journaled} != "
                f"re-executed {regenerated}"
            )
        if self._tracer.enabled:
            self._tracer.counter("durability.journal.verified").inc()

    def _append(self, type: str, data: dict) -> None:
        self._log.append(type, data)
        if self._tracer.enabled:
            self._tracer.event(
                "durability.journal.append", type=type, seq=self._log.seq - 1
            )
            self._tracer.counter("durability.journal.append").inc()
