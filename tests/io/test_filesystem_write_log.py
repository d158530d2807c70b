"""The simulated filesystem's write log is columnar: cheap to keep,
materialized as :class:`WriteRecord` objects only when asked for."""

import tracemalloc

import numpy as np
import pytest

from repro.io import IoThroughputModel
from repro.io.filesystem import SimulatedFileSystem, WriteRecord
from repro.resilience import FaultInjector, FaultPlan


def test_ten_thousand_writes_retain_under_half_a_megabyte():
    fs = SimulatedFileSystem(IoThroughputModel())
    fs.write(0, 1)  # first-use allocations are not per-write cost
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for i in range(10_000):
            fs.write(i % 64, 100_000 + i)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 0.5 * 2**20
    assert len(fs.writes) == 10_001


def test_records_round_trip_through_the_columns():
    model = IoThroughputModel()
    fs = SimulatedFileSystem(model)
    fs.write(3, 4096)
    fs.write(1, 0)
    assert fs.writes == [
        WriteRecord(3, 4096, model.write_time(4096), 1),
        WriteRecord(1, 0, 0.0, 1),
    ]
    assert fs.mean_write_bytes == 2048.0
    fs.reset()
    assert fs.writes == []
    assert fs.mean_write_bytes == 0.0
    assert fs.total_bytes == 0


def test_write_many_equals_one_write_per_size():
    """One call per rank leaves the log, the totals (accumulated one
    write at a time) and the op counter exactly as single writes do."""
    model = IoThroughputModel(num_nodes=16)
    rng = np.random.default_rng(5)
    batches = [(r, rng.integers(0, 2_000_000, size=97)) for r in range(6)]
    single, many = SimulatedFileSystem(model), SimulatedFileSystem(model)
    single.write(2, 12_345)
    many.write(2, 12_345)
    for rank, sizes in batches:
        durations = [single.write(rank, n) for n in sizes.tolist()]
        assert many.write_many(rank, sizes).tolist() == durations
    assert many.writes == single.writes
    assert many.total_bytes == single.total_bytes
    assert many.total_time == single.total_time
    assert many._ops == single._ops


def test_write_many_refuses_negative_sizes_and_injectors():
    fs = SimulatedFileSystem(IoThroughputModel())
    with pytest.raises(ValueError):
        fs.write_many(0, np.array([5, -1]))
    assert fs.writes == []
    faulty = SimulatedFileSystem(
        IoThroughputModel(), injector=FaultInjector(FaultPlan())
    )
    with pytest.raises(ValueError):
        faulty.write_many(0, np.array([5]))
