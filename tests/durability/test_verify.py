"""The ``repro verify`` scrubber: snapshots, journals, auto-sniffing."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.compression import SZCompressor, build_codebook
from repro.durability import (
    CampaignJournal,
    atomic_write_text,
    encode_record,
    verify_journal,
    verify_path,
    verify_snapshot,
)
from repro.framework import load_snapshot, save_snapshot
from repro.io import SharedFileReader, SharedFileWriter


def _make_snapshot(path, rng):
    fields = {
        "rho": np.cumsum(rng.normal(size=(16, 16, 16)), axis=0),
        "energy": np.cumsum(rng.normal(size=(400,))),
    }
    save_snapshot(path, fields, error_bounds=0.01, block_bytes=16_384)
    return fields


def _make_journal(path, iterations=3):
    journal = CampaignJournal.create(
        path, {"app": "nyx", "seed": 1}, fsync=False
    )
    for i in range(iterations):
        journal.record_plan(i, {"dump": False})
        journal.record_commit(i, {"overall_s": float(i)})
    journal.record_end({"iterations": iterations})
    journal.close()


class TestVerifySnapshot:
    def test_clean_snapshot(self, tmp_path, rng):
        path = tmp_path / "snap.rpio"
        _make_snapshot(path, rng)
        report = verify_snapshot(path)
        assert report.ok
        assert report.kind == "snapshot"
        assert report.checked > 2
        assert "clean" in report.format()
        assert "no checksum" not in report.format()

    def test_corrupt_block_names_field_and_index(self, tmp_path, rng):
        path = tmp_path / "snap.rpio"
        _make_snapshot(path, rng)
        with SharedFileReader(path) as reader:
            entry = reader.entries["rho/0"]
            offset = entry.offset + entry.nbytes // 2
        blob = bytearray(path.read_bytes())
        blob[offset] ^= 0x10
        path.write_bytes(bytes(blob))
        report = verify_snapshot(path)
        assert not report.ok
        assert any("rho" in issue for issue in report.issues)
        assert "CORRUPT" in report.format()

    def test_garbage_file_is_unreadable_container(self, tmp_path):
        path = tmp_path / "junk.rpio"
        path.write_bytes(b"RPIO????not a container at all")
        report = verify_snapshot(path)
        assert not report.ok
        assert any("container" in issue for issue in report.issues)

    def test_stale_temp_noted(self, tmp_path, rng):
        path = tmp_path / "snap.rpio"
        _make_snapshot(path, rng)
        (tmp_path / "snap.rpio.tmp.999.0").write_bytes(b"half written")
        report = verify_snapshot(path)
        assert report.ok  # a stale temp is a note, not corruption
        assert any("stale temp" in note for note in report.notes)

    def test_unchecksummed_datasets_are_named(self, tmp_path):
        """A footer entry without a checksum (files of the retired
        external-write path) is reported, not passed off as checked."""
        import json
        import struct

        from repro.durability import crc32c

        entry = {"nbytes": 4, "reserved": 4, "overflowed": False}
        footer = json.dumps(
            {
                "bare": {"offset": 8, "crc32c": None, **entry},
                "sound": {"offset": 12, "crc32c": crc32c(b"good"), **entry},
            }
        ).encode()
        tail = struct.pack("<QI8s", len(footer), crc32c(footer), b"RPIO0002")
        path = tmp_path / "old.rpio"
        path.write_bytes(b"RPIO0002" + b"datagood" + footer + tail)
        report = verify_snapshot(path)
        assert report.ok
        (note,) = [n for n in report.notes if "no checksum" in n]
        assert "1 dataset(s)" in note and note.endswith(": bare")


def _rewrite(src, dst, replace):
    """Copy the container at ``src`` to ``dst`` with the named entries
    replaced (bytes) or dropped (None).  Entry CRCs are recomputed, so
    only the snapshot layer can object to the result."""
    with SharedFileReader(src) as reader, SharedFileWriter(dst) as writer:
        for name in reader.names():
            payload = replace.get(name, reader.read(name))
            if payload is not None:
                writer.write_unreserved(name, payload)


def _manifest(path):
    with SharedFileReader(path) as reader:
        return json.loads(reader.read("__manifest__"))


def _with_rho(manifest, **changes):
    rho = {k: v for k, v in manifest["rho"].items() if k not in changes}
    rho.update({k: v for k, v in changes.items() if v is not None})
    return {**manifest, "rho": rho}


# Malformed manifests with a valid entry CRC, and a word each issue names.
MALFORMED = {
    "list": (lambda m: list(m), "got list"),
    "int_entry": (lambda m: {**m, "rho": 3}, "'rho'"),
    "string_num_blocks": (
        lambda m: _with_rho(m, num_blocks=str(m["rho"]["num_blocks"])),
        "'num_blocks'",
    ),
    "no_shape": (lambda m: _with_rho(m, shape=None), "'shape'"),
    "wrong_shape": (
        lambda m: _with_rho(m, shape=[15, 16, 16]),
        "float64 [15, 16, 16]",
    ),
    "wrong_dtype": (lambda m: _with_rho(m, dtype="float32"), "float32"),
}


class TestLoaderAndScrubberAgree:
    """``load_snapshot`` refuses exactly what ``verify_snapshot`` flags."""

    def _check_refused(self, path, needle, capsys):
        report = verify_snapshot(path)
        assert not report.ok
        assert any(needle in issue for issue in report.issues), report.issues
        assert "CORRUPT" in report.format()
        with pytest.raises(ValueError) as excinfo:
            load_snapshot(path)
        assert str(path) in str(excinfo.value)
        from repro.cli import main

        assert main(["verify", str(path)]) == 1
        assert "issue:" in capsys.readouterr().out

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_manifest(self, tmp_path, rng, capsys, case):
        pristine = tmp_path / "pristine.rpio"
        _make_snapshot(pristine, rng)
        build, needle = MALFORMED[case]
        path = tmp_path / "snap.rpio"
        manifest = json.dumps(build(_manifest(pristine))).encode()
        _rewrite(pristine, path, {"__manifest__": manifest})
        self._check_refused(path, needle, capsys)

    @pytest.mark.parametrize(
        "codebook, needle",
        [
            (None, "no __codebook__"),
            (b"garbage", "shared codebook is corrupt"),
        ],
        ids=["missing", "garbled"],
    )
    def test_shared_codebook_must_decode(
        self, tmp_path, rng, capsys, codebook, needle
    ):
        field = np.cumsum(rng.normal(size=(16, 16, 16)), axis=0)
        compressor = SZCompressor()
        shared = build_codebook(
            compressor.histogram(field, 0.01),
            force_symbols=(compressor.sentinel,),
        )
        pristine = tmp_path / "pristine.rpio"
        save_snapshot(
            pristine, {"rho": field}, error_bounds=0.01,
            shared_codebook=shared,
        )
        assert verify_snapshot(pristine).ok
        path = tmp_path / "snap.rpio"
        _rewrite(pristine, path, {"__codebook__": codebook})
        self._check_refused(path, needle, capsys)

    def test_cli_reports_issues_not_a_traceback(self, tmp_path, rng):
        pristine = tmp_path / "pristine.rpio"
        _make_snapshot(pristine, rng)
        path = tmp_path / "snap.rpio"
        manifest = json.dumps(list(_manifest(pristine))).encode()
        _rewrite(pristine, path, {"__manifest__": manifest})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        scrub = subprocess.run(
            [sys.executable, "-m", "repro", "verify", str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert scrub.returncode == 1, scrub.stdout + scrub.stderr
        assert "  issue: " in scrub.stdout
        assert "Traceback" not in scrub.stderr


class TestVerifyJournal:
    def test_clean_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _make_journal(path)
        report = verify_journal(path)
        assert report.ok
        assert report.kind == "journal"
        assert any("3 committed" in note for note in report.notes)
        assert any("complete" in note for note in report.notes)

    def test_resumable_journal_noted(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal.create(path, {"app": "nyx"}, fsync=False)
        journal.record_plan(0, {})
        journal.record_commit(0, {})
        journal.close()
        report = verify_journal(path)
        assert report.ok
        assert any("resumable" in note for note in report.notes)

    def test_torn_tail_is_a_note_not_an_issue(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _make_journal(path)
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 99, "ty')
        report = verify_journal(path)
        assert report.ok
        assert any("torn tail" in note for note in report.notes)

    def test_corrupt_middle_record_is_an_issue(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _make_journal(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:12] + b"Z" + lines[1][13:]
        path.write_bytes(b"".join(lines))
        report = verify_journal(path)
        assert not report.ok
        assert any("line 2" in issue for issue in report.issues)

    def test_protocol_violation_is_an_issue(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "wb") as fh:
            fh.write(encode_record(0, "begin", {}))
            fh.write(encode_record(1, "commit", {"iteration": 0}))
            fh.write(encode_record(2, "end", {}))
        report = verify_journal(path)
        assert not report.ok
        assert any("expected a 'plan'" in issue for issue in report.issues)

    def test_missing_file_is_an_issue(self, tmp_path):
        report = verify_journal(tmp_path / "absent.jsonl")
        assert not report.ok
        assert any("unreadable" in issue for issue in report.issues)


class TestVerifyPath:
    def test_directory_fails_by_name(self, tmp_path):
        """A directory (a subfiled snapshot of earlier releases) is no
        container: sniffing raises the open's ``OSError``, and a forced
        snapshot scrub reports it unreadable."""
        target = tmp_path / "snapdir"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            verify_path(target)
        report = verify_path(target, kind="snapshot")
        assert not report.ok
        (issue,) = report.issues
        assert issue.startswith("unreadable container") and "snapdir" in issue

    def test_rpio_magic_sniffs_as_snapshot(self, tmp_path, rng):
        path = tmp_path / "snap.rpio"
        _make_snapshot(path, rng)
        assert verify_path(path).kind == "snapshot"

    def test_other_files_sniff_as_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _make_journal(path)
        assert verify_path(path).kind == "journal"

    def test_explicit_kind_overrides_sniffing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _make_journal(path)
        report = verify_path(path, kind="snapshot")
        assert report.kind == "snapshot"
        assert not report.ok  # a journal is not a valid container

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "x"
        atomic_write_text(path, "{}")
        with pytest.raises(ValueError, match="unknown verify kind"):
            verify_path(path, kind="tarball")


class TestCliExitCodes:
    def test_verify_clean_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "j.jsonl"
        _make_journal(path)
        assert main(["verify", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_verify_corrupt_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "j.jsonl"
        _make_journal(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:12] + b"Z" + lines[1][13:]
        path.write_bytes(b"".join(lines))
        assert main(["verify", str(path)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_verify_missing_target_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        missing = os.path.join(str(tmp_path), "absent.rpio")
        assert main(["verify", missing, "--kind", "auto"]) == 2
