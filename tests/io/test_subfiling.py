"""Tests for the multi-file (subfiling) storage layout."""

import os

import pytest

from repro.io import SubfileReader, SubfileWriter


class TestSubfiling:
    def test_round_trip(self, tmp_path):
        with SubfileWriter(tmp_path / "dump", num_subfiles=3) as writer:
            for i in range(10):
                writer.reserve(f"d{i}", 16)
            for i in range(10):
                writer.write(f"d{i}", f"payload-{i}".encode())
        with SubfileReader(tmp_path / "dump") as reader:
            assert reader.names() == sorted(f"d{i}" for i in range(10))
            for i in range(10):
                assert reader.read(f"d{i}") == f"payload-{i}".encode()

    def test_datasets_spread_across_subfiles(self, tmp_path):
        with SubfileWriter(tmp_path / "dump", num_subfiles=4) as writer:
            for i in range(8):
                writer.reserve(f"d{i}", 4)
                writer.write(f"d{i}", b"abcd")
        files = [
            f
            for f in os.listdir(tmp_path / "dump")
            if f.startswith("subfile_")
        ]
        assert len(files) == 4
        sizes = {
            f: os.path.getsize(tmp_path / "dump" / f) for f in files
        }
        # Round-robin: every subfile received two datasets.
        assert len(set(sizes.values())) == 1

    def test_single_subfile_degenerates_to_shared_file(self, tmp_path):
        with SubfileWriter(tmp_path / "dump", num_subfiles=1) as writer:
            writer.reserve("a", 4)
            writer.write("a", b"data")
        with SubfileReader(tmp_path / "dump") as reader:
            assert reader.read("a") == b"data"

    def test_overflow_inside_subfile(self, tmp_path):
        with SubfileWriter(tmp_path / "dump", num_subfiles=2) as writer:
            writer.reserve("small", 2)
            assert not writer.write("small", b"much larger than two")
        with SubfileReader(tmp_path / "dump") as reader:
            assert reader.read("small") == b"much larger than two"
            assert reader.entries["small"].overflowed

    def test_write_unreserved(self, tmp_path):
        with SubfileWriter(tmp_path / "dump", num_subfiles=2) as writer:
            writer.write_unreserved("manifest", b"{}")
        with SubfileReader(tmp_path / "dump") as reader:
            assert reader.read("manifest") == b"{}"

    def test_double_reserve_rejected(self, tmp_path):
        with SubfileWriter(tmp_path / "dump") as writer:
            writer.reserve("a", 4)
            with pytest.raises(ValueError):
                writer.reserve("a", 4)

    def test_unreserved_write_rejected(self, tmp_path):
        with SubfileWriter(tmp_path / "dump") as writer:
            with pytest.raises(KeyError):
                writer.write("ghost", b"x")

    def test_unknown_read_rejected(self, tmp_path):
        with SubfileWriter(tmp_path / "dump") as writer:
            writer.reserve("a", 4)
            writer.write("a", b"data")
        with SubfileReader(tmp_path / "dump") as reader:
            with pytest.raises(KeyError):
                reader.read("nope")

    def test_invalid_subfile_count(self, tmp_path):
        with pytest.raises(ValueError):
            SubfileWriter(tmp_path / "dump", num_subfiles=0)

    def test_close_idempotent(self, tmp_path):
        writer = SubfileWriter(tmp_path / "dump")
        writer.close()
        writer.close()

    def test_failed_body_publishes_nothing(self, tmp_path):
        """An exception inside the ``with`` aborts every subfile and
        writes no index: a torn layout must not become readable."""
        with pytest.raises(RuntimeError, match="mid-dump"):
            with SubfileWriter(tmp_path / "dump", num_subfiles=2) as writer:
                writer.reserve("a", 4)
                writer.reserve("b", 4)
                writer.write("a", b"data")
                raise RuntimeError("mid-dump")
        assert os.listdir(tmp_path / "dump") == []
        with pytest.raises(FileNotFoundError):
            SubfileReader(tmp_path / "dump")
        writer.abort()  # idempotent

    def test_entries_merged(self, tmp_path):
        with SubfileWriter(tmp_path / "dump", num_subfiles=2) as writer:
            writer.reserve("a", 1)
            writer.reserve("b", 1)
            writer.write("a", b"x")
            writer.write("b", b"y")
        with SubfileReader(tmp_path / "dump") as reader:
            assert set(reader.entries) == {"a", "b"}
