"""Offline scrubbing: verify snapshots, journals and ledgers in place.

``repro verify <path>`` runs each format's own reader in issue-collecting
mode (the snapshot walk, the journal and ledger protocol checks) over
every checksum the file carries, and reports every problem found.  Exit
status: 0 clean, 1 corrupt.  ``benchmarks/bench_durability.py`` times
the same functions.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

from ..telemetry import NULL_TRACER
from .atomic import find_stale_temps
from .journal import JournalError, _validate_structure, scan_records

__all__ = [
    "VerifyReport",
    "verify_snapshot",
    "verify_journal",
    "verify_ledger",
    "verify_path",
]


@dataclass
class VerifyReport:
    """Everything a scrub checked and everything it found."""

    path: str
    kind: str
    checked: int = 0
    issues: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def format(self) -> str:
        lines = [
            f"{self.kind} {self.path}: "
            f"{'clean' if self.ok else 'CORRUPT'} "
            f"({self.checked} items checked)"
        ]
        lines.extend(f"  issue: {issue}" for issue in self.issues)
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def _note_stale_temps(report: VerifyReport) -> None:
    """Note leftover temp files belonging to ``report.path`` specifically."""
    marker = os.path.basename(report.path) + ".tmp."
    try:
        candidates = find_stale_temps(os.path.dirname(report.path) or ".")
    except OSError:
        return
    report.notes.extend(
        f"stale temp file from a crashed writer: {temp}"
        for temp in candidates
        if os.path.basename(temp).startswith(marker)
    )


def verify_snapshot(
    path: str | os.PathLike, tracer=NULL_TRACER
) -> VerifyReport:
    """Scrub one snapshot: the loader's own walk
    (:func:`repro.framework.snapshot.read_snapshot`), collecting, plus
    every other container entry read under its CRC."""
    from ..framework.snapshot import MANIFEST, read_snapshot
    from ..io import SharedFileReader

    path = os.fspath(path)
    report = VerifyReport(path=path, kind="snapshot")
    with tracer.timed("durability.verify", kind="snapshot", path=path):
        try:
            reader = SharedFileReader(path)
        except (OSError, ValueError) as exc:
            report.issues.append(f"unreadable container: {exc}")
            return report
        with reader:
            # The walk reads through this view, so the sweep below reads
            # only what the walk did not and reports nothing twice.
            walked: set[str] = set()
            view = SimpleNamespace(
                entries=reader.entries,
                read=lambda name: walked.add(name) or reader.read(name),
            )
            if MANIFEST in reader.entries:
                _, fields = read_snapshot(view, path, report.issues)
                report.checked += 1 + sum(map(len, fields.values()))
            else:
                report.notes.append("no snapshot manifest (bare container)")
            bare = []
            for name, entry in sorted(reader.entries.items()):
                report.checked += 1
                if entry.crc32c is None and entry.crc32 is None:
                    bare.append(name)
                if name not in walked:
                    try:
                        reader.read(name)
                    except (OSError, ValueError) as exc:
                        report.issues.append(str(exc))
            if bare:
                report.notes.append(
                    f"{len(bare)} dataset(s) carry no checksum and "
                    f"were read unverified: {', '.join(bare)}"
                )
        _note_stale_temps(report)
    return report


def _verify_log(
    path: str | os.PathLike, kind: str, discarder: str, check, tracer
) -> VerifyReport:
    """Scrub one record log: per-record CRCs and sequencing here, the
    protocol shape by the schema's ``check(records, path, report)``."""
    path = os.fspath(path)
    report = VerifyReport(path=path, kind=kind)
    with tracer.timed("durability.verify", kind=kind, path=path):
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            report.issues.append(f"unreadable: {exc}")
            return report
        records, _, torn = scan_records(blob, kind, report.issues)
        report.checked += blob.count(b"\n")  # every complete line
        report.notes.extend(
            f"torn tail ({damage}); {discarder} will discard it"
            for damage in torn
        )
        check(records, path, report)
        _note_stale_temps(report)
    return report


def _check_journal(records: list[dict], path: str, report: VerifyReport) -> None:
    try:
        _validate_structure(records, path)
    except JournalError as exc:
        report.issues.append(str(exc))
        return
    commits = sum(1 for r in records if r["type"] == "commit")
    ended = any(r["type"] == "end" for r in records)
    report.notes.append(
        f"{commits} committed iteration(s), "
        f"{'complete' if ended else 'resumable'}"
    )


def _check_ledger(records: list[dict], path: str, report: VerifyReport) -> None:
    # The ledger's own reader, collecting instead of raising.
    from ..service.recovery import fold_ledger

    opened, closed = fold_ledger(records, path, report.issues)
    if records:
        report.notes.append(
            f"{len(opened) + len(closed)} request(s), {len(closed)} "
            f"completed, {len(opened)} pending replay"
        )


def verify_journal(
    path: str | os.PathLike, tracer=NULL_TRACER
) -> VerifyReport:
    """Scrub one journal: per-record CRCs, sequencing, protocol shape."""
    return _verify_log(path, "journal", "resume", _check_journal, tracer)


def verify_ledger(
    path: str | os.PathLike, tracer=NULL_TRACER
) -> VerifyReport:
    """Scrub one service request ledger: record CRCs, sequencing, and
    the open/close protocol (:func:`repro.service.recovery.fold_ledger`)."""
    return _verify_log(path, "ledger", "recovery", _check_ledger, tracer)


def _sniff(path) -> str:
    """An ``RPIO`` file is a snapshot; a line log whose first record
    names a ledger version is a ledger; anything else a journal."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head.startswith(b"RPIO"):
            return "snapshot"
        first = head + fh.readline()
    try:
        data = json.loads(first.decode())["data"]
    except (ValueError, LookupError, TypeError):
        return "journal"
    is_ledger = isinstance(data, dict) and "ledger_version" in data
    return "ledger" if is_ledger else "journal"


def verify_path(
    path: str | os.PathLike, kind: str = "auto", tracer=NULL_TRACER
) -> VerifyReport:
    """Scrub ``path`` as a snapshot, journal, or request ledger
    (sniffed when ``auto``)."""
    if kind not in ("auto", "snapshot", "journal", "ledger"):
        raise ValueError(
            f"unknown verify kind {kind!r} "
            f"(valid: auto, snapshot, journal, ledger)"
        )
    if kind == "auto":
        kind = _sniff(path)
    if kind == "snapshot":
        return verify_snapshot(path, tracer=tracer)
    if kind == "ledger":
        return verify_ledger(path, tracer=tracer)
    return verify_journal(path, tracer=tracer)
