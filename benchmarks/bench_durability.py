"""Durability benchmarks: the cost of end-to-end integrity.

Registers the ``repro verify`` scrub of a freshly written snapshot with
``repro bench`` (group ``durability``), so the overhead of walking
every container and block checksum is reported in ``BENCH_*.json``
alongside the codec and pipeline cases::

    PYTHONPATH=src python -m repro bench run --filter durability --quick

Snapshot synthesis (field generation, compression, write) is cached per
edge and paid by the warmup pass; the timed body is the scrub alone.

The ``durability.crc32c*`` cases time the checksum kernel at the three
sizes the write path meets: journal-record-sized buffers (2 KiB), the
compressed payload of a large block (48 KiB) and a raw field (16 MiB).
The ``*_bytewise`` and ``half_payload`` cases exist for the CI ratio
gates (kernel vs the reference loop; 48 KiB vs 24 KiB, which used to
sit on opposite sides of a 10x cliff).  Input bytes are cached like the
snapshots, so the timed body is checksumming alone.
"""

from __future__ import annotations

import functools
import tempfile
from pathlib import Path

import numpy as np

from repro.bench import bench_case

_SNAPSHOTS: dict[int, Path] = {}


def _snapshot_path(edge: int) -> Path:
    """A written-once ``.rpio`` snapshot of ``edge``-cubed Nyx fields."""
    if edge not in _SNAPSHOTS:
        from repro.apps import NyxModel
        from repro.framework import save_snapshot

        app = NyxModel(seed=61, partition_shape=(edge,) * 3)
        fields = {
            name: app.generate_field(name, 0, 5)
            for name in ("temperature", "baryon_density")
        }
        bounds = {
            name: app.field(name).error_bound for name in fields
        }
        directory = Path(tempfile.mkdtemp(prefix="repro-bench-durability-"))
        path = directory / "snap.rpio"
        save_snapshot(path, fields, error_bounds=bounds, block_bytes=65_536)
        _SNAPSHOTS[edge] = path
    return _SNAPSHOTS[edge]


@bench_case(
    "durability.verify",
    group="durability",
    params={"edge": 48},
    quick={"edge": 32},
    warmup=1,
    repeats=3,
    timeout_s=120.0,
)
def bench_verify_snapshot(edge=48):
    from repro.durability import verify_snapshot

    report = verify_snapshot(_snapshot_path(edge))
    assert report.ok, report.format()
    assert report.checked > 2


@functools.lru_cache(maxsize=None)
def _random_bytes(nbytes: int) -> bytes:
    rng = np.random.default_rng(61)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()


@bench_case(
    "durability.crc32c",
    group="durability",
    params={"mebibytes": 16},
    quick={"mebibytes": 4},
    warmup=1,
    repeats=3,
    timeout_s=60.0,
)
def bench_crc32c(mebibytes=16):
    from repro.durability import crc32c

    assert crc32c(_random_bytes(mebibytes << 20)) != 0


def _register_pieces_case(
    suffix: str, kibibytes: int, count: int, quick_count: int, bytewise=False
):
    """``count`` back-to-back checksums of ``kibibytes``-KiB buffers."""

    @bench_case(
        f"durability.crc32c.{suffix}",
        group="durability",
        params={"count": count},
        quick={"count": quick_count},
        warmup=1,
        repeats=3,
        timeout_s=60.0,
    )
    def _case(count=count):
        from repro.durability import checksum

        run = (
            functools.partial(checksum._bytewise, state=0xFFFFFFFF)
            if bytewise
            else checksum.crc32c
        )
        nbytes = kibibytes << 10
        pieces = memoryview(_random_bytes(nbytes * count))
        for start in range(0, len(pieces), nbytes):
            run(pieces[start : start + nbytes])

    return _case


# Each gate divides two cases with equal counts, so the ratio of their
# medians is the ratio of per-buffer times.
_register_pieces_case("small", 2, 2000, 500)
_register_pieces_case("small_bytewise", 2, 2000, 500, bytewise=True)
_register_pieces_case("payload", 48, 200, 50)
_register_pieces_case("payload_bytewise", 48, 200, 50, bytewise=True)
_register_pieces_case("half_payload", 24, 200, 50)
