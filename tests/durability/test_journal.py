"""Campaign journal: record integrity, torn tails, replay verification."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import (
    CampaignJournal,
    JournalError,
    canonical_json,
    decode_record,
    encode_record,
    read_journal,
)
from repro.durability.checksum import crc32c_hex
from repro.durability.journal import scan_records
from repro.resilience import (
    CRASH_POINTS,
    FaultInjector,
    FaultPlan,
    ProcessKillFault,
)
from tests.conftest import fail_fsync

HEADER = {"app": "nyx", "seed": 3, "iterations": 2}


class Killed(Exception):
    """Test stand-in for os._exit at a crash point."""


def _raise_killed(point, iteration):
    raise Killed(f"{point}@{iteration}")


def kill_at(point: str, iteration: int = -1, on_crash=_raise_killed):
    """A real injector armed for exactly one crash point."""
    return FaultInjector(
        FaultPlan(
            process_kill=ProcessKillFault(iteration=iteration, point=point)
        ),
        on_crash=on_crash,
    )


def _write_run(path, iterations=2):
    journal = CampaignJournal.create(path, HEADER, fsync=False)
    for i in range(iterations):
        journal.record_plan(i, {"dump": i > 0})
        journal.record_commit(i, {"overall_s": float(i)})
    journal.record_end({"iterations": iterations})
    journal.close()


class TestRecords:
    def test_encode_decode_roundtrip(self):
        line = encode_record(0, "begin", {"a": 1})
        record = decode_record(line.rstrip(b"\n"), 1)
        assert record == {"seq": 0, "type": "begin", "data": {"a": 1}}

    def test_decode_rejects_flipped_byte(self):
        line = bytearray(encode_record(0, "begin", {"a": 1}).rstrip(b"\n"))
        # Flip inside the data, keeping the JSON parseable.
        line[line.index(b"1")] = ord("2")
        with pytest.raises(JournalError, match="checksum mismatch"):
            decode_record(bytes(line), 4)

    def test_decode_rejects_missing_field(self):
        with pytest.raises(JournalError, match="missing field 'crc'"):
            decode_record(b'{"seq": 0, "type": "x", "data": {}}', 1)

    def test_decode_rejects_non_json(self):
        with pytest.raises(JournalError, match="not valid JSON"):
            decode_record(b"\xff\xfe", 1)

    def test_spliced_data_is_stored_as_it_is(self):
        data = b'{"body":{"z": 1, "a": [1.5, null]},"key":"k"}'
        line = encode_record(4, "close", data)
        assert line == (
            b'{"crc":"%s","data":%s,"seq":4,"type":"close"}\n'
            % (crc32c_hex(b'{"data":%s,"seq":4,"type":"close"}' % data)
               .encode(), data)
        )
        record = decode_record(line.rstrip(b"\n"), 1)
        assert record["data"] == {
            "body": {"z": 1, "a": [1.5, None]},
            "key": "k",
        }

    @pytest.mark.parametrize(
        "data", [b"", b"[1]", b'{"a":\n1}', b' {"a": 1}']
    )
    def test_spliced_data_must_be_one_json_object(self, data):
        with pytest.raises(ValueError, match="one encoded JSON object"):
            encode_record(0, "close", data)

    @pytest.mark.parametrize(
        "old, new",
        [
            (b'{"a":1}', b'{"a": 1}'),  # inside the data
            (b',"seq"', b', "seq"'),  # between fields
            (b'"crc":"', b'"crc": "'),  # inside the prefix
        ],
    )
    def test_same_json_other_bytes_fails_by_name(self, old, new):
        """The CRC is over the line's bytes: a line that parses to the
        same record but differs in bytes is refused."""
        line = encode_record(0, "begin", {"a": 1}).rstrip(b"\n")
        changed = line.replace(old, new, 1)
        assert changed != line
        assert json.loads(changed) == json.loads(line)
        with pytest.raises(JournalError, match="journal line 3: "):
            decode_record(changed, 3)

    def test_canonical_json_is_byte_stable(self):
        assert canonical_json({"b": 1, "a": [1.5, "x"]}) == (
            '{"a":[1.5,"x"],"b":1}'
        )


class TestReadJournal:
    def test_full_run_reads_clean(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_run(path)
        records, good_bytes, torn = read_journal(path)
        assert [r["type"] for r in records] == [
            "begin", "plan", "commit", "plan", "commit", "end",
        ]
        assert good_bytes == path.stat().st_size
        assert not torn

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_run(path)
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 6, "type":')  # crashed mid-append
        records, good_bytes, torn = read_journal(path)
        assert torn
        assert good_bytes == size
        assert len(records) == 6

    def test_corrupt_middle_record_is_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_run(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:10] + b"X" + lines[2][11:]
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="line 3"):
            read_journal(path)

    def test_sequence_gap_is_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "wb") as fh:
            fh.write(encode_record(0, "begin", HEADER))
            fh.write(encode_record(2, "plan", {"iteration": 0}))
            fh.write(encode_record(3, "x", {}))  # gap is not the tail
        with pytest.raises(JournalError, match="sequence gap"):
            read_journal(path)


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


class TestCrcDefinition:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=5),
        seq=st.integers(min_value=0, max_value=10**9),
        type=st.text(min_size=1, max_size=8),
    )
    def test_byte_crc_is_the_canonical_crc(self, data, seq, type):
        """For a dict record the CRC the reader checks over the line's
        bytes is the CRC of the record's canonical JSON — the
        definition every existing journal and ledger was written
        with — and spliced canonical bytes give the same line."""
        record = {"seq": seq, "type": type, "data": data}
        line = encode_record(seq, type, data)
        canonical = canonical_json(record).encode()
        assert line[8:16].decode() == crc32c_hex(canonical)
        assert line == encode_record(seq, type, canonical_json(data).encode())
        assert decode_record(line.rstrip(b"\n"), 1) == json.loads(
            canonical_json(record)
        )


class TestScanRecords:
    """Strict readers and the scrubbers see one scan."""

    def _damaged(self):
        lines = [
            encode_record(0, "begin", HEADER),
            encode_record(1, "plan", {"iteration": 0}),
            encode_record(5, "commit", {"iteration": 0}),
            encode_record(3, "plan", {"iteration": 1}),
        ]
        lines[1] = lines[1][:10] + b"X" + lines[1][11:]
        return b"".join(lines) + b'{"seq": 4, "ty'

    def test_scrub_collects_what_strict_raises(self):
        issues: list[str] = []
        records, _, torn = scan_records(self._damaged(), "ledger", issues)
        assert [r["seq"] for r in records] == [0, 5, 3]
        assert torn == ["14 bytes past the last newline"]
        assert len(issues) == 2
        assert "journal line 2: checksum mismatch" in issues[0]
        assert issues[1] == (
            "ledger line 3: sequence gap (expected seq 2, got 5)"
        )
        with pytest.raises(JournalError) as strict:
            scan_records(self._damaged())
        assert str(strict.value) == issues[0]

    def test_bad_last_line_is_a_torn_tail_in_both_modes(self):
        blob = encode_record(0, "begin", HEADER) + b"garbage\n"
        for issues in (None, []):
            records, good_bytes, torn = scan_records(blob, issues=issues)
            assert len(records) == 1
            assert good_bytes == len(blob) - len(b"garbage\n")
            assert torn == ["line 2 fails its CRC"]
            assert not issues


class TestResume:
    def test_resume_complete_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_run(path)
        journal = CampaignJournal.resume(path)
        assert journal.header["app"] == "nyx"
        assert journal.committed_iterations == 2
        assert journal.is_complete
        journal.close()

    def test_resume_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_run(path)
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"torn garbage")
        CampaignJournal.resume(path).close()
        assert path.stat().st_size == size

    def test_replay_verifies_identical_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_run(path)
        journal = CampaignJournal.resume(path)
        journal.record_plan(0, {"dump": False})
        journal.record_commit(0, {"overall_s": 0.0})
        journal.close()

    def test_replay_divergence_is_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_run(path)
        journal = CampaignJournal.resume(path)
        with pytest.raises(JournalError, match="diverged.*iteration 0"):
            journal.record_commit(0, {"overall_s": 999.0})
        journal.close()

    def test_resume_continues_appending(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal.create(path, HEADER, fsync=False)
        journal.record_plan(0, {"dump": False})
        journal.record_commit(0, {"overall_s": 0.0})
        journal.record_plan(1, {"dump": True})
        journal.close()  # crashed before commit 1

        resumed = CampaignJournal.resume(path, fsync=False)
        assert resumed.committed_iterations == 1
        assert not resumed.is_complete
        resumed.record_plan(0, {"dump": False})  # replay
        resumed.record_commit(0, {"overall_s": 0.0})  # replay
        resumed.record_plan(1, {"dump": True})  # replay
        resumed.record_commit(1, {"overall_s": 1.0})  # live append
        resumed.record_end({"iterations": 2})
        resumed.close()
        records, _, torn = read_journal(path)
        assert not torn
        assert [r["type"] for r in records] == [
            "begin", "plan", "commit", "plan", "commit", "end",
        ]

    def test_failed_append_leaves_no_trace(self, tmp_path, monkeypatch):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal.create(path, HEADER)
        journal.record_plan(0, {"dump": False})
        size = path.stat().st_size
        fail_fsync(monkeypatch)
        with pytest.raises(OSError, match="No space left"):
            journal.record_commit(0, {"overall_s": 0.0})
        # The file and the sequence are where they were: the same
        # record can be appended again, and the journal resumes.
        assert path.stat().st_size == size
        journal.record_commit(0, {"overall_s": 0.0})
        journal.close()
        records, _, torn = read_journal(path)
        assert not torn
        assert [r["seq"] for r in records] == [0, 1, 2]
        resumed = CampaignJournal.resume(path)
        assert resumed.committed_iterations == 1
        resumed.close()

    def test_refused_journal_is_left_as_found(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "wb") as fh:
            fh.write(encode_record(0, "begin", HEADER))
            fh.write(encode_record(1, "commit", {"iteration": 0}))
            fh.write(b"torn garbage")
        before = path.read_bytes()
        with pytest.raises(JournalError, match="expected a 'plan'"):
            CampaignJournal.resume(path)
        assert path.read_bytes() == before

    def test_structure_violation_is_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "wb") as fh:
            fh.write(encode_record(0, "begin", HEADER))
            fh.write(encode_record(1, "commit", {"iteration": 0}))
            fh.write(encode_record(2, "end", {}))
        with pytest.raises(JournalError, match="expected a 'plan'"):
            CampaignJournal.resume(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            CampaignJournal.resume(tmp_path / "absent.jsonl")


class TestCrashPoints:
    def test_crash_point_names_are_closed(self):
        assert set(CRASH_POINTS) == {
            "plan", "pre-commit", "torn-commit", "post-commit", "report",
        }

    def test_trigger_crash_validates_point(self):
        with pytest.raises(ValueError, match="unknown crash point"):
            kill_at("plan").crash_point("nonsense", 0)

    @pytest.mark.parametrize("point", ["plan", "pre-commit", "post-commit"])
    def test_injected_kill_fires_at_point(self, tmp_path, point):
        journal = CampaignJournal.create(
            tmp_path / "j.jsonl",
            HEADER,
            fsync=False,
            injector=kill_at(point, iteration=1),
        )
        journal.record_plan(0, {})
        journal.record_commit(0, {})
        with pytest.raises(Killed, match=f"{point}@1"):
            journal.record_plan(1, {})
            journal.record_commit(1, {})
        journal.close()

    def test_torn_commit_writes_half_a_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal.create(
            path,
            HEADER,
            fsync=False,
            injector=kill_at("torn-commit", iteration=0),
        )
        journal.record_plan(0, {})
        with pytest.raises(Killed):
            journal.record_commit(0, {"overall_s": 0.0})
        journal.close()
        blob = path.read_bytes()
        assert not blob.endswith(b"\n")  # genuinely torn
        records, _, torn = read_journal(path)
        assert torn
        assert [r["type"] for r in records] == ["begin", "plan"]
        # And the torn journal resumes: iteration 0 is uncommitted.
        resumed = CampaignJournal.resume(path, fsync=False)
        assert resumed.committed_iterations == 0
        resumed.close()

    def test_survived_torn_commit_is_not_completed(self, tmp_path):
        """A crash action that returns leaves the half-record as the
        tail: the journal must not append the whole record behind it."""
        path = tmp_path / "j.jsonl"
        survived = []
        journal = CampaignJournal.create(
            path,
            HEADER,
            fsync=False,
            injector=kill_at(
                "torn-commit", on_crash=lambda *at: survived.append(at)
            ),
        )
        journal.record_plan(0, {})
        journal.record_commit(0, {"overall_s": 0.0})
        journal.close()
        assert survived == [("torn-commit", 0)]
        records, _, torn = read_journal(path)
        assert torn
        assert [r["type"] for r in records] == ["begin", "plan"]

    def test_disarmed_injector_never_fires(self, tmp_path):
        """What a resumed campaign relies on: ``crash_armed`` false."""
        path = tmp_path / "j.jsonl"
        injector = kill_at("post-commit")
        injector.crash_armed = lambda: False
        journal = CampaignJournal.create(
            path, HEADER, fsync=False, injector=injector
        )
        journal.record_plan(0, {})
        journal.record_commit(0, {})
        journal.close()
        assert injector.log.injected == {}

    def test_closed_journal_rejects_appends(self, tmp_path):
        journal = CampaignJournal.create(
            tmp_path / "j.jsonl", HEADER, fsync=False
        )
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.record_plan(0, {})


class TestHeaderIntegrity:
    def test_header_round_trips_json_types(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = {"app": "nyx", "faults": {"stall": {"probability": 0.5}}}
        CampaignJournal.create(path, header, fsync=False).close()
        journal = CampaignJournal.resume(path)
        assert journal.header["faults"] == {"stall": {"probability": 0.5}}
        assert journal.header["journal_version"] == 1
        journal.close()

    def test_journal_lines_are_valid_jsonl(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_run(path)
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert {"seq", "type", "data", "crc"} <= set(record)


def _journal_state(path):
    """What a resumed journal trusts: header, commits, completion."""
    with CampaignJournal.resume(path, fsync=False) as journal:
        return (
            journal.header,
            journal.committed_iterations,
            journal.is_complete,
        )


def test_flipped_bytes_resume_a_prefix_or_fail_by_name(tmp_path):
    """Flip every byte of a real 3-iteration journal (two ways): resume
    either keeps exactly the lines before the damaged one, which must
    then be the file's last line (a torn tail), or refuses the file
    with a JournalError.  Nothing else is allowed."""
    from repro.engines import CampaignSpec, run_campaign

    original = tmp_path / "original.jsonl"
    run_campaign(
        CampaignSpec(app="nyx", nodes=1, ppn=2, iterations=3, seed=3),
        journal_path=str(original),
    )
    blob = original.read_bytes()
    prefix = tmp_path / "prefix.jsonl"
    prefixes = {}
    for end in [i + 1 for i, byte in enumerate(blob) if byte == ord("\n")]:
        prefix.write_bytes(blob[:end])
        prefixes[end] = _journal_state(prefix)

    path = tmp_path / "flipped.jsonl"
    outcomes = {"torn": 0, "refused": 0}
    for index in range(len(blob)):
        # A line's newline belongs to the line it ends.
        line_start = blob.rfind(b"\n", 0, index) + 1
        for mask in (0x01, 0x20):
            flipped = bytearray(blob)
            flipped[index] ^= mask
            path.write_bytes(bytes(flipped))
            try:
                state = _journal_state(path)
            except JournalError:
                outcomes["refused"] += 1
                continue
            # No flip goes unnoticed: a journal that resumes lost its
            # damaged last line and holds exactly what came before it.
            assert b"\n" not in bytes(flipped[line_start:-1]), (index, mask)
            assert path.read_bytes() == blob[:line_start], (index, mask)
            assert state == prefixes[line_start], (index, mask)
            outcomes["torn"] += 1
    assert outcomes["torn"] > 0 and outcomes["refused"] > 0
