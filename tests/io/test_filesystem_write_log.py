"""The simulated filesystem's write log is columnar: cheap to keep,
materialized as :class:`WriteRecord` objects only when asked for."""

import tracemalloc

from repro.io import IoThroughputModel
from repro.io.filesystem import SimulatedFileSystem, WriteRecord


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
