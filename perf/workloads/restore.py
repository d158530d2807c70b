"""Reads beside writes: restore every block of a dumped container."""

from __future__ import annotations

import os
import time

import numpy as np

from harness import Calibrator
from spans import SpanRecorder, StageTable

from repro.compression import CompressedBlock, SZCompressor
from repro.durability.checksum import crc32c
from repro.io.hdf5like import SharedFileReader

from .base import CheckResult, TraceResult, Workload
from .dump import DumpSerialNyx, iter_blocks

#: The one dump iteration every container holds.
_ITERATION = 1


class RestoreNyx(Workload):
    """An operation restores one whole container: ``read(verify=True)``
    -> ``CompressedBlock.from_bytes`` -> ``SZCompressor.decompress`` for
    every block.  Each set-up repetition writes one container with the
    ``dump_serial_nyx`` spec; the timed loop cycles over them."""

    name = "restore_nyx"

    def __init__(self, seed, work, smoke=False) -> None:
        super().__init__(seed, work, smoke)
        self._writer = DumpSerialNyx(seed, work / "containers", smoke)
        self.containers: list[str] = []
        self.compressor = SZCompressor()
        self._next = 0
        self._last: dict[str, np.ndarray] = {}

    def setup(self) -> None:
        writer = self._writer
        writer.setup()
        try:
            writer.op()
            self.spec = writer.spec
            self.containers.append(writer.stats.containers[_ITERATION])
        finally:
            writer.release()

    def _next_container(self) -> str:
        path = self.containers[self._next % len(self.containers)]
        self._next += 1
        return path

    def op(self) -> None:
        restored = {}
        with SharedFileReader(self._next_container()) as reader:
            for name in reader.names():
                block = CompressedBlock.from_bytes(reader.read(name))
                restored[name] = self.compressor.decompress(block)
        self._last = restored

    def io_bytes_per_op(self) -> float:
        return sum(os.path.getsize(p) for p in self.containers) / len(
            self.containers
        )

    def check(self) -> CheckResult:
        """The last restored container against the regenerated fields."""
        result = CheckResult()
        restored = self._last
        for name, values, bound in iter_blocks(
            self.spec, self.spec.data_application(), _ITERATION
        ):
            got = restored.get(name)
            ok = (
                got is not None
                and got.shape == values.shape
                and np.abs(got.astype(np.float64) - values).max()
                <= bound * (1 + 1e-6)
            )
            result.expect(bool(ok), f"it{_ITERATION:04d}/{name}")
        result.expect(
            result.attempted == len(restored),
            f"restored {len(restored)} blocks, expected {result.attempted}",
        )
        return result

    def trace(self, seconds: float, cal: Calibrator) -> TraceResult:
        untraced_p50 = self.untraced_p50(seconds / 3, cal)

        recorder = SpanRecorder()
        span = recorder.span
        blocks = bytes_read = restored_bytes = 0
        deadline = time.perf_counter() + 2 * seconds / 3
        ops = 0
        while ops < 2 or time.perf_counter() < deadline:
            ops += 1
            blocks = bytes_read = restored_bytes = 0
            with span("restore", op=ops):
                with span("io.open_index"):
                    reader = SharedFileReader(self._next_container())
                try:
                    for name in reader.names():
                        with span("io.read"):
                            payload = reader.read(name, verify=False)
                        with span("durability.crc32c"):
                            intact = (
                                crc32c(payload) == reader.entries[name].crc32c
                            )
                        if not intact:
                            raise RuntimeError(f"{name}: CRC mismatch")
                        with span("compression.from_bytes"):
                            block = CompressedBlock.from_bytes(payload)
                        with span("compression.decompress"):
                            values = self.compressor.decompress(block)
                        blocks += 1
                        bytes_read += len(payload)
                        restored_bytes += values.nbytes
                finally:
                    reader.close()
        table = StageTable(recorder, "restore")
        metrics = table.stage_metrics()
        metrics.update(
            {
                "compression.blocks": blocks,
                "compression.bytes_in": restored_bytes,
                "compression.bytes_out": bytes_read,
                "compression.ratio": restored_bytes / bytes_read,
                "durability.crc32c_calls": blocks + 1,
                "durability.crc32c_bytes": bytes_read,
                "io.restore_mb_per_s": restored_bytes / 1e6 / untraced_p50,
                **table.trace_metrics(untraced_p50),
            }
        )
        return TraceResult(metrics, recorder, table)
