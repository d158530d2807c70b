"""Offline scrubbing: verify snapshots and journals without loading them.

``repro verify <path>`` walks every checksum a file carries — container
entry CRCs, per-block compression-time CRCs declared in the snapshot
manifest, journal record CRCs — plus structural invariants (manifest
coverage, record sequencing) and reports every problem found.  Exit
status: 0 clean, 1 corrupt.  The same functions back the
``durability.verify`` bench case so the integrity-check overhead is
tracked in ``BENCH_*.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

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

_MANIFEST = "__manifest__"
_CODEBOOK = "__codebook__"


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


def _stale_temps_near(path: str) -> list[str]:
    """Leftover temp files belonging to ``path`` specifically."""
    directory = os.path.dirname(path) or "."
    marker = os.path.basename(path) + ".tmp."
    try:
        candidates = find_stale_temps(directory)
    except OSError:
        return []
    return [
        temp
        for temp in candidates
        if os.path.basename(temp).startswith(marker)
    ]


def verify_snapshot(
    path: str | os.PathLike, tracer=NULL_TRACER
) -> VerifyReport:
    """Scrub one snapshot: container CRCs, block CRCs, manifest shape."""
    from ..compression import CompressedBlock
    from ..io import SharedFileReader, SubfileReader

    path = os.fspath(path)
    report = VerifyReport(path=path, kind="snapshot")
    with tracer.timed("durability.verify", kind="snapshot", path=path):
        try:
            reader_cm = (
                SubfileReader(path)
                if os.path.isdir(path)
                else SharedFileReader(path)
            )
        except (OSError, ValueError, KeyError) as exc:
            report.issues.append(f"unreadable container: {exc}")
            return report
        with reader_cm as reader:
            payloads: dict[str, bytes] = {}
            bare: list[str] = []
            for name, entry in sorted(reader.entries.items()):
                report.checked += 1
                if entry.crc32c is None and entry.crc32 is None:
                    bare.append(name)
                try:
                    payloads[name] = reader.read(name)
                except (OSError, ValueError) as exc:
                    report.issues.append(str(exc))
            if bare:
                report.notes.append(
                    f"{len(bare)} dataset(s) carry no checksum and "
                    f"were read unverified: {', '.join(bare)}"
                )
            manifest = None
            if _MANIFEST in payloads:
                try:
                    manifest = json.loads(payloads[_MANIFEST].decode())
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    report.issues.append(f"manifest is not valid JSON: {exc}")
            elif _MANIFEST in reader.entries:
                pass  # unreadable: already an issue above
            else:
                report.notes.append("no snapshot manifest (bare container)")
            if manifest is not None:
                report.checked += 1
                for field_name, meta in manifest.items():
                    crcs = meta.get("block_crc32c")
                    for index in range(meta.get("num_blocks", 0)):
                        dataset = f"{field_name}/{index}"
                        if dataset not in reader.entries:
                            report.issues.append(
                                f"manifest names {dataset!r} but the "
                                f"container has no such entry"
                            )
                            continue
                        payload = payloads.get(dataset)
                        if payload is None:
                            continue  # read already failed above
                        report.checked += 1
                        expected = (
                            crcs[index]
                            if crcs is not None and index < len(crcs)
                            else None
                        )
                        try:
                            CompressedBlock.from_bytes(
                                payload, expected_crc32c=expected
                            )
                        except ValueError as exc:
                            report.issues.append(
                                f"field {field_name!r} block {index}: {exc}"
                            )
        for temp in _stale_temps_near(path):
            report.notes.append(f"stale temp file from a crashed writer: {temp}")
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
        for temp in _stale_temps_near(path):
            report.notes.append(
                f"stale temp file from a crashed writer: {temp}"
            )
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


def _sniff_line_format(path) -> str:
    """``ledger`` vs ``journal`` for a line-record file (best effort)."""
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
        record = json.loads(first.decode())
        if isinstance(record, dict) and isinstance(record.get("data"), dict):
            if "ledger_version" in record["data"]:
                return "ledger"
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        pass
    return "journal"


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
        if os.path.isdir(path):
            kind = "snapshot"
        else:
            with open(path, "rb") as fh:
                head = fh.read(8)
            if head.startswith(b"RPIO"):
                kind = "snapshot"
            else:
                kind = _sniff_line_format(path)
    if kind == "snapshot":
        return verify_snapshot(path, tracer=tracer)
    if kind == "ledger":
        return verify_ledger(path, tracer=tracer)
    return verify_journal(path, tracer=tracer)
