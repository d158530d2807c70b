"""A write that exhausts its retries in the background writer must fail
the dump: nothing may be published with a zero-byte dataset in it."""

import errno
import os

import numpy as np
import pytest

from repro.engines import CampaignSpec, PoolDataPlane, SerialDataPlane
from repro.framework import save_snapshot
from repro.io.hdf5like import SharedFileReader, SharedFileWriter
from repro.resilience.retry import RetryPolicy


@pytest.fixture
def one_failing_write(monkeypatch):
    """The third ``SharedFileWriter.write`` raises ``OSError`` once."""
    real = SharedFileWriter.write
    calls = []

    def write(self, name, payload, **kwargs):
        calls.append(name)
        if len(calls) == 3:
            raise OSError(5, "injected I/O error")
        return real(self, name, payload, **kwargs)

    monkeypatch.setattr(SharedFileWriter, "write", write)
    return calls


def _spec(tmp_path, **overrides) -> CampaignSpec:
    base = dict(
        nodes=1,
        ppn=2,
        iterations=3,
        seed=5,
        data_edge=8,
        data_fields=1,
        data_block_bytes=2048,
        data_dir=str(tmp_path),
    )
    base.update(overrides)
    return CampaignSpec(**base)


@pytest.mark.parametrize("plane_type", [SerialDataPlane, PoolDataPlane])
def test_dump_with_a_failed_write_publishes_nothing(
    tmp_path, one_failing_write, plane_type
):
    overrides = (
        dict(engine="process", workers=2)
        if plane_type is PoolDataPlane
        else {}
    )
    plane = plane_type(
        _spec(tmp_path, **overrides), retry=RetryPolicy(max_attempts=1)
    )
    try:
        with pytest.raises(OSError, match="injected I/O error"):
            plane.dump(1)
        assert len(one_failing_write) >= 3
        assert os.listdir(tmp_path) == []
        assert plane.stats.containers == {}
        assert plane._open_writer is None and plane._open_async is None
        # The fault was one-shot: the plane dumps again afterwards.
        plane.dump(1)
        assert os.listdir(tmp_path) == ["ours-it0001.rpio"]
    finally:
        plane.close()


@pytest.mark.parametrize("plane_type", [SerialDataPlane, PoolDataPlane])
def test_unpublished_dump_is_not_counted(tmp_path, monkeypatch, plane_type):
    """A dump whose publish fails adds nothing to the stats, and its
    retry counts its blocks once."""
    real, calls = SharedFileWriter.close, []

    def close(self):
        calls.append(1)
        if len(calls) == 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(self)

    monkeypatch.setattr(SharedFileWriter, "close", close)
    overrides = dict(
        app="nyx", data_edge=16, data_fields=2, data_block_bytes=8192
    )
    if plane_type is PoolDataPlane:
        overrides.update(engine="process", workers=2)
    plane = plane_type(_spec(tmp_path, **overrides))
    try:
        with pytest.raises(OSError, match="No space left"):
            plane.dump(1)
        stats = plane.stats
        assert stats.containers == {}
        assert stats.block_crc32c == {}
        assert (stats.num_blocks, stats.raw_bytes, stats.compressed_bytes) == (
            0,
            0,
            0,
        )
        assert stats.generate_wall_s == stats.compress_wall_s == 0.0
        assert stats.generate_cpu_s == stats.compress_cpu_s == 0.0
        plane.dump(1)
        plane.close()
    except BaseException:
        plane.abort()
        raise
    with SharedFileReader(stats.containers[1]) as reader:
        stored = {name: reader.entries[name] for name in reader.names()}
    assert len(stored) == stats.num_blocks == len(stats.block_crc32c) == 16
    assert stats.raw_bytes == 2 * 2 * 16**3 * 8
    assert stats.compressed_bytes == sum(e.nbytes for e in stored.values())
    assert stats.block_crc32c == {
        f"it0001/{name}": e.crc32c for name, e in stored.items()
    }


def test_save_snapshot_with_a_failed_write_publishes_nothing(
    tmp_path, one_failing_write
):
    rng = np.random.default_rng(3)
    fields = {"rho": rng.normal(size=(16, 16, 16)).astype(np.float32)}
    path = tmp_path / "snap.rpio"
    with pytest.raises(OSError, match="injected I/O error"):
        save_snapshot(path, fields, error_bounds=0.01, block_bytes=2048)
    assert os.listdir(tmp_path) == []
    save_snapshot(path, fields, error_bounds=0.01, block_bytes=2048)
    assert os.listdir(tmp_path) == ["snap.rpio"]
