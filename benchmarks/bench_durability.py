"""Durability benchmarks: the cost of end-to-end integrity.

``test_verify_snapshot`` times the ``repro verify`` scrub of a freshly
written snapshot: the overhead of walking every container and block
checksum.  Snapshot synthesis (field generation, compression, write) is
a module fixture; the timed body is the scrub alone.

The CRC32C tests time the checksum kernel at the three sizes the write
path meets: journal-record-sized buffers (2 KiB), the compressed payload
of a large block (48 KiB) and a raw field (4 MiB).  The ``*_bytewise``
and ``half_payload`` cases exist for the CI ratio gates (kernel vs the
reference loop; 48 KiB vs 24 KiB, which used to sit on opposite sides of
a 10x cliff).  Input bytes are cached, so the timed body is checksumming
alone::

    PYTHONPATH=src python -m pytest benchmarks/bench_durability.py \\
        --benchmark-only --benchmark-json=BENCH_quick.json
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.durability import checksum, crc32c, verify_snapshot


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """A written-once ``.rpio`` snapshot of 32-cubed Nyx fields."""
    from repro.apps import NyxModel
    from repro.framework import save_snapshot

    app = NyxModel(seed=61, partition_shape=(32,) * 3)
    fields = {
        name: app.generate_field(name, 0, 5)
        for name in ("temperature", "baryon_density")
    }
    bounds = {name: app.field(name).error_bound for name in fields}
    path = tmp_path_factory.mktemp("durability") / "snap.rpio"
    save_snapshot(path, fields, error_bounds=bounds, block_bytes=65_536)
    return path


def test_verify_snapshot(benchmark, snapshot):
    report = benchmark.pedantic(
        verify_snapshot, args=(snapshot,), rounds=3, warmup_rounds=1,
        iterations=1,
    )
    assert report.ok, report.format()
    assert report.checked > 2


@functools.lru_cache(maxsize=None)
def _random_bytes(nbytes: int) -> bytes:
    rng = np.random.default_rng(61)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()


def test_crc32c(benchmark):
    value = benchmark.pedantic(
        crc32c, args=(_random_bytes(4 << 20),), rounds=3, warmup_rounds=1,
        iterations=1,
    )
    assert value != 0


# (KiB per buffer, buffers per timed body, reference loop?).  Each gate
# divides two cases with equal counts, so the ratio of their medians is
# the ratio of per-buffer times.
_PIECES = {
    "small": (2, 500, False),
    "small_bytewise": (2, 500, True),
    "payload": (48, 50, False),
    "payload_bytewise": (48, 50, True),
    "half_payload": (24, 50, False),
}


@pytest.mark.parametrize("case", list(_PIECES))
def test_crc32c_pieces(benchmark, case):
    """``count`` back-to-back checksums of ``kibibytes``-KiB buffers."""
    kibibytes, count, bytewise = _PIECES[case]
    run = (
        functools.partial(checksum._bytewise, state=0xFFFFFFFF)
        if bytewise
        else crc32c
    )
    nbytes = kibibytes << 10
    pieces = memoryview(_random_bytes(nbytes * count))

    def checksum_pieces():
        for start in range(0, len(pieces), nbytes):
            run(pieces[start : start + nbytes])

    benchmark.pedantic(
        checksum_pieces, rounds=3, warmup_rounds=1, iterations=1
    )
