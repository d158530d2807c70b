"""Atomic commit plumbing: DurableFile, temp naming, stale-temp scan."""

import os

import pytest

from repro.durability import (
    DurableFile,
    atomic_write_bytes,
    atomic_write_text,
    find_stale_temps,
    temp_path_for,
)


class TestTempNaming:
    def test_same_directory_and_unique(self, tmp_path):
        target = tmp_path / "out.json"
        first = temp_path_for(target)
        second = temp_path_for(target)
        assert os.path.dirname(first) == str(tmp_path)
        assert first != second
        assert str(os.getpid()) in first
        assert ".tmp." in first


class TestDurableFile:
    def test_commit_publishes_whole_file(self, tmp_path):
        target = tmp_path / "out.bin"
        with DurableFile(target) as fh:
            fh.write(b"payload")
            assert not target.exists()  # invisible until commit
        assert target.read_bytes() == b"payload"
        assert find_stale_temps(tmp_path) == []

    def test_exception_leaves_no_trace(self, tmp_path):
        target = tmp_path / "out.bin"
        with pytest.raises(RuntimeError):
            with DurableFile(target) as fh:
                fh.write(b"partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert find_stale_temps(tmp_path) == []

    def test_replaces_previous_content_atomically(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with DurableFile(target) as fh:
            fh.write(b"new content")
        assert target.read_bytes() == b"new content"

    def test_text_mode(self, tmp_path):
        target = tmp_path / "out.txt"
        with DurableFile(target, "w") as fh:
            fh.write("héllo")
        assert target.read_text(encoding="utf-8") == "héllo"

    @pytest.mark.parametrize("mode", ["r", "rb", "a", "ab", "r+", "w+"])
    def test_non_replacing_modes_rejected(self, tmp_path, mode):
        with pytest.raises(ValueError, match="whole files"):
            DurableFile(tmp_path / "out", mode)

    def test_crash_in_commit_window_leaves_stale_temp_only(self, tmp_path):
        """Dying between fsync and rename: no final file, one temp."""
        target = tmp_path / "report.json"

        def die():
            raise KeyboardInterrupt  # stands in for os._exit

        durable = DurableFile(target, before_commit=die)
        durable._file.write(b"{}")
        with pytest.raises(KeyboardInterrupt):
            durable.commit()
        assert not target.exists()
        stale = find_stale_temps(tmp_path)
        assert len(stale) == 1
        assert os.path.basename(stale[0]).startswith("report.json.tmp.")

    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_failed_commit_removes_temp_and_keeps_previous(
        self, tmp_path, monkeypatch, failing
    ):
        """An error the OS *returns* (unlike a crash) leaves no temp."""
        target = tmp_path / "report.json"
        target.write_text("old")

        def refuse(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, failing, refuse)
        with pytest.raises(OSError, match="No space left"):
            with DurableFile(target, "w") as fh:
                fh.write("new")
        assert target.read_text() == "old"
        assert find_stale_temps(tmp_path) == []


class TestHelpers:
    def test_atomic_write_bytes(self, tmp_path):
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"

    def test_atomic_write_text(self, tmp_path):
        target = tmp_path / "text"
        atomic_write_text(target, "line\n")
        assert target.read_text() == "line\n"

    def test_find_stale_temps_only_matches_marker(self, tmp_path):
        (tmp_path / "keep.json").write_text("{}")
        (tmp_path / "x.tmp.123.0").write_text("")
        assert find_stale_temps(tmp_path) == [str(tmp_path / "x.tmp.123.0")]
