"""Container format ``RPIO0003`` (written: deflated footer) beside
``RPIO0002`` (read-only golden file), and a footer fuzzer over both."""

import base64
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.compression import CompressedBlock, SZCompressor
from repro.durability.checksum import crc32c
from repro.io import SharedFileReader, SharedFileWriter

_GOLDEN = Path(__file__).parent / "data" / "container_v2_golden.rpio"
_BLOCKS = (
    Path(__file__).parent.parent
    / "compression"
    / "data"
    / "block_v3_golden.json"
)
_TAIL = "<QI8s"


def _golden_payloads():
    """What the golden container was built from: three of the v3 golden
    blocks (one overflowed its reservation) and one unreserved note."""
    cases = json.loads(_BLOCKS.read_text())["cases"]
    return {
        "rank0/density/0": base64.b64decode(cases[0]["blob_b64"]),
        "rank0/density/1": base64.b64decode(cases[1]["blob_b64"]),
        "rank1/Ex/0": base64.b64decode(cases[4]["blob_b64"]),
        "meta/notes": b"written by the RPIO0002 writer at PR 21",
    }


def _written(tmp_path, payloads):
    path = tmp_path / "current.rpio"
    with SharedFileWriter(path) as writer:
        for name, payload in payloads.items():
            writer.reserve(name, len(payload))
            writer.write(name, payload)
    return path


class TestGoldenV2Container:
    def test_is_an_rpio0002_file(self):
        data = _GOLDEN.read_bytes()
        assert data[:8] == data[-8:] == b"RPIO0002"

    def test_reads_verified(self):
        expected = _golden_payloads()
        with SharedFileReader(_GOLDEN) as reader:
            assert reader.names() == sorted(expected)
            for name, payload in expected.items():
                assert reader.read(name, verify=True) == payload
                assert reader.entries[name].crc32c == crc32c(payload)
            assert reader.entries["rank1/Ex/0"].overflowed
            assert not reader.entries["meta/notes"].overflowed

    def test_blocks_inside_still_decode(self):
        cases = json.loads(_BLOCKS.read_text())["cases"]
        with SharedFileReader(_GOLDEN) as reader:
            block = CompressedBlock.from_bytes(reader.read("rank0/density/0"))
        expected = np.frombuffer(
            base64.b64decode(cases[0]["recon_b64"]), dtype=cases[0]["dtype"]
        ).reshape(cases[0]["shape"])
        assert np.array_equal(SZCompressor().decompress(block), expected)


class TestV3Container:
    def test_writer_emits_rpio0003_with_a_deflated_footer(self, tmp_path):
        payloads = {f"rank{r}/f/{b}": bytes([r, b]) * 40
                    for r in range(8) for b in range(16)}
        data = _written(tmp_path, payloads).read_bytes()
        assert data[:8] == data[-8:] == b"RPIO0003"
        length, crc, _ = struct.unpack(_TAIL, data[-20:])
        footer = data[-20 - length : -20]
        assert crc32c(footer) == crc
        index = json.loads(zlib.decompress(footer))
        assert sorted(index) == sorted(payloads)
        # 128 entries of ~100 B of JSON each: deflate takes most of it.
        assert length < len(json.dumps(index)) // 3

    def test_round_trip(self, tmp_path):
        payloads = _golden_payloads()
        with SharedFileReader(_written(tmp_path, payloads)) as reader:
            assert {n: reader.read(n) for n in reader.names()} == payloads

    def test_footer_that_does_not_inflate_is_named(self, tmp_path):
        path = _written(tmp_path, {"a": b"hello"})
        data = path.read_bytes()
        length, _, magic = struct.unpack(_TAIL, data[-20:])
        junk = b"\x78\x01" + b"j" * (length - 2)
        path.write_bytes(
            data[: -20 - length]
            + junk
            + struct.pack(_TAIL, length, crc32c(junk), magic)
        )
        with pytest.raises(ValueError, match="footer is not a valid index"):
            SharedFileReader(path)

    def test_mixed_magics_rejected(self, tmp_path):
        path = _written(tmp_path, {"a": b"hello"})
        data = path.read_bytes()
        path.write_bytes(b"RPIO0002" + data[8:])
        with pytest.raises(ValueError, match="not a shared container"):
            SharedFileReader(path)


def _read_all(path):
    with SharedFileReader(path) as reader:
        return {n: reader.read(n, verify=True) for n in reader.names()}


@pytest.mark.parametrize("fix_crc", [False, True], ids=["as-is", "crc-fixed"])
@pytest.mark.parametrize("version", ["RPIO0002", "RPIO0003"])
def test_footer_mutation_fuzz(tmp_path, version, fix_crc):
    """Single-byte damage anywhere in the footer or the tail record:
    the container either refuses to open or read (``ValueError``) or
    hands back bytes — never ``zlib.error``, ``TypeError``,
    ``KeyError``, ``OSError`` or ``MemoryError``.  With the footer CRC
    left as written, damage to the footer is always refused; recomputing
    it (``crc-fixed``) lets the damage reach the inflate and JSON layers."""
    payloads = _golden_payloads()
    source = _GOLDEN if version == "RPIO0002" else _written(tmp_path, payloads)
    data = source.read_bytes()
    assert data[-8:] == version.encode()
    length, _, magic = struct.unpack(_TAIL, data[-20:])
    start = len(data) - 20 - length
    path = tmp_path / "damaged.rpio"
    rng = np.random.default_rng(length)
    opened = 0
    for pos in range(start, len(data)):
        for value in {0x00, 0xFF, data[pos] ^ 0x01, int(rng.integers(256))}:
            if value == data[pos]:
                continue
            damaged = bytearray(data)
            damaged[pos] = value
            if fix_crc and pos < len(data) - 20:
                footer = bytes(damaged[start : len(data) - 20])
                damaged[-20:] = struct.pack(
                    _TAIL, length, crc32c(footer), magic
                )
            path.write_bytes(bytes(damaged))
            try:
                got = _read_all(path)
            except ValueError:
                continue
            opened += 1
            assert all(isinstance(v, bytes) for v in got.values())
            if not fix_crc:
                assert got == payloads
    # Damage that leaves everything readable exists only where the CRC
    # was recomputed over it (a renamed dataset, a flipped flag).
    assert (opened > 0) == (fix_crc and version == "RPIO0002")
    path.write_bytes(data)
    assert _read_all(path) == payloads
