"""Ledger version 2: one durable record per solve, the reply's bytes.

What writes a record (counted with ``ledger.stats()["records"]``), the
version-1 ledgers written before it (a committed fixture), and a
byte-flip fuzz of a version-2 ledger holding spliced solve closes.
"""

import json
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import instance_json_dict
from repro.durability import (
    JournalError,
    canonical_json,
    crc32c_hex,
    read_journal,
    verify_ledger,
)
from repro.durability.journal import encode_record
from repro.service import RequestLedger, SchedulingService, ServiceConfig
from tests.conftest import figure1_instance, random_instance

#: Written by the version-1 ledger code (the release before ledger
#: version 2) through ``SchedulingService`` and ``RequestLedger``: a
#: solve settled 200 (``v1-settled``), a solve closed 429
#: (``v1-rejected``), an unanswered solve (``v1-open-solve``) and an
#: unanswered campaign (``v1-open-campaign``).
V1_LEDGER = Path(__file__).parent / "data" / "ledger_v1.jsonl"


def solve_payload(instance=None, **extra):
    payload = {"instance": instance_json_dict(instance or figure1_instance())}
    payload.update(extra)
    return payload


def make_service(tmp_path, **overrides):
    kwargs = dict(
        workers=1,
        quota_rate=0.0,
        quota_burst=50.0,
        ledger_path=str(tmp_path / "ledger.jsonl"),
    )
    kwargs.update(overrides)
    return SchedulingService(ServiceConfig(**kwargs))


def records(service) -> int:
    return service.ledger.stats()["records"]


class TestWhatWritesARecord:
    def test_cold_solve_writes_one_close_from_its_reply(self, tmp_path):
        service = make_service(tmp_path)
        try:
            assert records(service) == 1  # begin
            status, body = service.solve(solve_payload())
            assert status == 200
            assert records(service) == 2
            # The reply is the stored bytes, and they are json.dumps of
            # the body.
            assert body.encoded == json.dumps(body).encode()
        finally:
            service.shutdown()
        found, _, _ = read_journal(tmp_path / "ledger.jsonl")
        assert [r["type"] for r in found] == ["begin", "close"]
        assert found[1]["data"]["kind"] == "solve"
        assert found[1]["data"]["body"] == body
        line = (tmp_path / "ledger.jsonl").read_bytes().splitlines()[1]
        assert b'"data":{"body":' + body.encoded + b',"key":' in line

    def test_hits_and_refusals_write_nothing(self, tmp_path):
        service = make_service(tmp_path, max_queue=1)
        try:
            service.solve(solve_payload())
            service.solve(solve_payload(idempotency_key="k", cache=False))
            assert records(service) == 3

            status, body = service.solve(solve_payload())
            assert (status, body["cache"]) == (200, "hit")
            assert records(service) == 3
            status, _ = service.solve(
                solve_payload(idempotency_key="k", cache=False)
            )
            assert status == 200
            assert service.status_payload()["requests"]["ledger_hits"] == 1
            assert records(service) == 3
            status, _ = service.solve(solve_payload(algorithm="nope"))
            assert status == 400
            assert records(service) == 3
        finally:
            service.shutdown()

    def test_queue_full_writes_nothing(self, tmp_path):
        service = make_service(tmp_path, max_queue=1)
        release, running = threading.Event(), threading.Event()
        inner = service.dispatcher._solve_fn

        def blocking(work):
            running.set()
            release.wait(30.0)
            return inner(work)

        service.dispatcher._solve_fn = blocking

        def unique(seed):
            instance = random_instance(np.random.default_rng(seed), num_jobs=3)
            return solve_payload(instance, cache=False)

        try:
            busy = [service.begin_solve(unique(0))]
            assert running.wait(10.0)
            busy.append(service.begin_solve(unique(1)))
            status, body = service.solve(unique(2))
            assert (status, body["error"]["code"]) == (429, "queue_full")
            assert records(service) == 1
            release.set()
            assert [p.result(timeout=30.0)[0] for p in busy] == [200, 200]
            assert records(service) == 3
        finally:
            release.set()
            service.shutdown()

    def test_campaign_writes_open_and_close(self, tmp_path):
        service = make_service(tmp_path)
        try:
            status, _ = service.campaign(
                {"app": "nyx", "nodes": 2, "ppn": 2, "iterations": 2}
            )
            assert status == 200
            assert records(service) == 3
        finally:
            service.shutdown()
        found, _, _ = read_journal(tmp_path / "ledger.jsonl")
        assert [r["type"] for r in found] == ["begin", "open", "close"]
        assert found[2]["data"]["kind"] == "campaign"

    def test_settled_race_writes_no_second_record(self, tmp_path):
        """A duplicate that read no settled body before the first
        settled, then found no in-flight future, executes; its 200
        writes nothing, and it answers with its own reply."""
        service = make_service(tmp_path)
        payload = solve_payload(idempotency_key="race", cache=False)
        try:
            first = service.solve(payload)[1]
            assert records(service) == 2
            settled = service.ledger.closed_body
            service.ledger.closed_body = lambda key: None
            try:
                status, second = service.solve(payload)
            finally:
                service.ledger.closed_body = settled
            assert (status, second["cache"]) == (200, "bypass")
            assert second["solution"] == first["solution"]
            assert records(service) == 2
            assert service.ledger.closed_body("race")[1].encoded == (
                first.encoded
            )
        finally:
            service.shutdown()
        with RequestLedger(tmp_path / "ledger.jsonl") as reloaded:
            assert reloaded.closed_body("race")[1].encoded == first.encoded
        assert verify_ledger(tmp_path / "ledger.jsonl").ok


class TestVersion1Ledger:
    @pytest.fixture
    def v1(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        shutil.copy(V1_LEDGER, path)
        return path

    def test_fixture_is_version_1(self):
        found, _, torn = read_journal(V1_LEDGER)
        assert not torn
        assert found[0]["data"] == {"ledger_version": 1}
        assert [r["type"] for r in found] == [
            "begin", "open", "close", "open", "close", "open", "open",
        ]

    def test_scrubs_clean(self):
        report = verify_ledger(V1_LEDGER)
        assert report.ok and report.kind == "ledger", report.format()
        assert "issue:" not in report.format()

    def test_opens_and_serves_settled_bodies_as_before(self, v1):
        found, _, _ = read_journal(V1_LEDGER)
        settled = found[2]["data"]["body"]
        with RequestLedger(v1) as ledger:
            assert [(e.key, e.kind) for e in ledger.incomplete()] == [
                ("v1-open-solve", "solve"),
                ("v1-open-campaign", "campaign"),
            ]
            status, body = ledger.closed_body("v1-settled")
            # The bytes the version-1 code served: the canonical body
            # parsed back (keys sorted) and written by reply_bytes.
            assert status == 200
            assert body.encoded == json.dumps(settled).encode()
            assert ledger.closed_body("v1-rejected")[0] == 429

    def test_replays_both_open_entries_and_serves_the_settled_one(
        self, tmp_path, v1
    ):
        found, _, _ = read_journal(V1_LEDGER)
        settled_payload = dict(found[1]["data"]["payload"])
        settled_bytes = json.dumps(found[2]["data"]["body"]).encode()
        service = make_service(tmp_path)
        try:
            assert service.recover() == {
                "replayed": 2,
                "solve": 1,
                "campaign": 1,
                "failed": 0,
            }
            assert service.ledger.incomplete() == []
            for key in ("v1-open-solve", "v1-open-campaign"):
                assert service.ledger.closed_body(key)[0] == 200
            status, body = service.solve(
                dict(settled_payload, idempotency_key="v1-settled")
            )
            assert (status, body.encoded) == (200, settled_bytes)
            # The 429 did not settle its key: a retry executes, and its
            # 200 needs no open record.
            rejected = dict(found[3]["data"]["payload"])
            status, body = service.solve(
                dict(rejected, idempotency_key="v1-rejected")
            )
            assert (status, body["cache"]) == (200, "bypass")
        finally:
            service.shutdown()
        after, _, torn = read_journal(v1)
        assert not torn
        # The upgrade record, then the replayed solve closed its
        # existing open; no new opens.
        assert [(r["type"], r["data"].get("kind")) for r in after[7:]] == [
            ("begin", None),
            ("close", "solve"),
            ("close", "campaign"),
            ("close", "solve"),
        ]
        assert [r["data"]["key"] for r in after[8:]] == [
            "v1-open-solve",
            "v1-open-campaign",
            "v1-rejected",
        ]
        assert verify_ledger(v1).ok
        with RequestLedger(v1) as reloaded:
            assert reloaded.incomplete() == []
            assert reloaded.closed_body("v1-settled")[1].encoded == (
                settled_bytes
            )

    def test_opening_appends_an_upgrade_record_version_1_refuses(self, v1):
        with RequestLedger(v1) as ledger:
            # Not in canonical key order, as a reply is spliced.
            settled = ledger.record_solved("new", {"ok": True, "a": 1})
        lines = v1.read_bytes().splitlines(keepends=True)
        assert lines[:7] == V1_LEDGER.read_bytes().splitlines(keepends=True)
        assert lines[7] == encode_record(7, "begin", {"ledger_version": 2})
        assert json.loads(lines[8])["data"]["key"] == "new"
        # A version-1 reader stops at the upgrade record, by name,
        # before the spliced close it would misread.
        with pytest.raises(JournalError, match="seq 7: unexpected .*'begin'"):
            _read_as_version_1(lines)
        with pytest.raises(JournalError, match="seq 8: checksum mismatch"):
            _read_as_version_1(lines[:7] + lines[8:])
        found, _, _ = read_journal(V1_LEDGER)
        with RequestLedger(v1) as reopened:
            assert reopened.closed_body("new")[1].encoded == settled.encoded
            assert reopened.closed_body("v1-settled")[1].encoded == (
                json.dumps(found[2]["data"]["body"]).encode()
            )
            assert reopened.stats()["records"] == 9  # no second upgrade
        report = verify_ledger(v1)
        assert report.ok and "issue:" not in report.format()

    def test_a_second_upgrade_record_is_refused(self, v1):
        RequestLedger(v1).close()
        with open(v1, "ab") as fh:
            fh.write(encode_record(8, "begin", {"ledger_version": 2}))
        with pytest.raises(JournalError, match="seq 8: unexpected .*'begin'"):
            RequestLedger(v1)
        assert not verify_ledger(v1).ok

    def test_old_style_pair_appended_to_a_v2_ledger_folds(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RequestLedger(path) as ledger:
            assert ledger.record_solved("new", {"ok": True})
        seq = 2
        with open(path, "ab") as fh:
            fh.write(encode_record(seq, "open", {
                "key": "old", "kind": "solve", "payload": {"n": 1},
            }))
            fh.write(encode_record(seq + 1, "close", {
                "key": "old", "status": 200, "body": {"b": 1, "a": 2},
            }))
        assert verify_ledger(path).ok
        with RequestLedger(path) as reopened:
            assert reopened.incomplete() == []
            assert reopened.closed_body("new") == (200, {"ok": True})
            status, body = reopened.closed_body("old")
            assert status == 200
            assert body.encoded == b'{"a": 2, "b": 1}'


def _read_as_version_1(lines: list[bytes]) -> None:
    """The version-1 ledger's rules, one line at a time: the CRC over
    the canonical re-encoding of the record, then only ``open`` and
    ``close`` after the version-1 ``begin``."""
    for line in lines:
        record = json.loads(line)
        seq, stored = record["seq"], record.pop("crc")
        if crc32c_hex(canonical_json(record).encode()) != stored:
            raise JournalError(f"seq {seq}: checksum mismatch")
        if seq and record["type"] not in ("open", "close"):
            raise JournalError(
                f"seq {seq}: unexpected record type {record['type']!r}"
            )


def _v2_ledger(path) -> None:
    """Spliced solve closes, a campaign pair and an unanswered campaign."""
    with RequestLedger(path, fsync=False) as ledger:
        ledger.record_solved("s1", {"ok": True, "solution": {"m": 1.5}})
        ledger.record_open("c1", "campaign", {"app": "nyx"})
        ledger.record_solved("s2", {"ok": True, "tenant": "é", "z": [None]})
        ledger.record_close("c1", 200, {"ok": True, "campaign": {"i": 2}})
        ledger.record_open("c2", "campaign", {"app": "warpx"})


def _state(path):
    """``(records, open keys, settled bodies)`` and whether a tail was
    cut."""
    with RequestLedger(path, fsync=False) as ledger:
        closed = {
            key: (found[0], found[1].encoded)
            for key in ("s1", "s2", "c1", "c2")
            if (found := ledger.closed_body(key)) is not None
        }
        stats = ledger.stats()
        keys = [e.key for e in ledger.incomplete()]
        return (stats["records"], keys, closed), stats["recovered_torn_tail"]


def test_flipped_bytes_load_a_prefix_or_fail_by_name(tmp_path):
    """Flip every byte of a version-2 ledger (two ways): it either loads
    the state of an intact record prefix, cutting the damaged tail, or
    fails with a named JournalError; and the scrub agrees with the
    load."""
    original = tmp_path / "original.jsonl"
    _v2_ledger(original)
    blob = original.read_bytes()
    prefix = tmp_path / "prefix.jsonl"
    prefixes = {}
    for end in [i + 1 for i, byte in enumerate(blob) if byte == ord("\n")]:
        prefix.write_bytes(blob[:end])
        state, _ = _state(prefix)
        prefixes[state[0]] = state

    path = tmp_path / "flipped.jsonl"
    outcomes = {"torn": 0, "refused": 0}
    for index in range(len(blob)):
        for mask in (0x01, 0x20):
            flipped = bytearray(blob)
            flipped[index] ^= mask
            path.write_bytes(bytes(flipped))
            scrub = verify_ledger(path)
            try:
                state, torn = _state(path)
            except JournalError:
                assert not scrub.ok, (index, mask)
                outcomes["refused"] += 1
                continue
            assert scrub.ok, (index, mask, scrub.format())
            # No flip goes unnoticed: a ledger that loads lost its
            # damaged tail and holds exactly what came before it.
            assert torn, (index, mask)
            assert state[0] < len(prefixes), (index, mask)
            assert state == prefixes[state[0]], (index, mask)
            outcomes["torn"] += 1
    assert outcomes["torn"] > 0 and outcomes["refused"] > 0
