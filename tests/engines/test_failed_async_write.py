"""A write that exhausts its retries in the background writer must fail
the dump: nothing may be published with a zero-byte dataset in it."""

import os

import numpy as np
import pytest

from repro.engines import CampaignSpec, PoolDataPlane, SerialDataPlane
from repro.framework import save_snapshot
from repro.io.hdf5like import SharedFileWriter
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
    return CampaignSpec(
        nodes=1,
        ppn=2,
        iterations=3,
        seed=5,
        data_edge=8,
        data_fields=1,
        data_block_bytes=2048,
        data_dir=str(tmp_path),
        **overrides,
    )


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
