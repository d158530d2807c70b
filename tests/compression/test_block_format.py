"""Block format v4 (the one written) beside v1-v3 (read-only): golden
blobs of every older version decode bit-exactly and re-serialise as v4,
v4 round-trips field for field, and no damaged blob of any version
surfaces anything but a ``ValueError``."""

import base64
import dataclasses
import json
import signal
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    CompressedBlock,
    SZCompressor,
    available_backends,
    build_codebook,
    codebook_from_bytes,
    lossless_compress,
)
from repro.durability.checksum import crc32c

_DATA_DIR = Path(__file__).parent / "data"
_BACKENDS = ("numpy", "pure", "deflate", "zlib")


def _golden_cases():
    """``(id, blob, expected array, shared codebook or None)`` for every
    golden blob: the single v1 and v2 blocks and each written v3 shape."""
    cases = []
    for version in ("v1", "v2"):
        doc = json.loads(
            (_DATA_DIR / f"block_{version}_golden.json").read_text()
        )
        cases.append(dict(doc, name=version, dtype="float64"))
    doc = json.loads((_DATA_DIR / "block_v3_golden.json").read_text())
    cases += [dict(c, name=f"v3-{c['name']}") for c in doc["cases"]]
    out = []
    for case in cases:
        shared = case.get("shared_codebook_b64")
        out.append(
            pytest.param(
                base64.b64decode(case["blob_b64"]),
                np.frombuffer(
                    base64.b64decode(case["recon_b64"]), dtype=case["dtype"]
                ).reshape(case["shape"]),
                shared and codebook_from_bytes(base64.b64decode(shared)),
                id=case["name"],
            )
        )
    return out


_GOLDEN = _golden_cases()


class TestGoldenBlobs:
    def test_every_written_v3_shape_has_a_blob(self):
        ids = {p.id for p in _GOLDEN}
        assert {"v1", "v2"} <= ids
        for codec in ("huffman-native", "huffman-shared", "deflate", "zlib"):
            for dtype in ("f32", "f64"):
                assert f"v3-{codec}-{dtype}" in ids

    @pytest.mark.parametrize("blob, expected, shared", _GOLDEN)
    def test_decodes_bit_exactly_under_every_backend(
        self, blob, expected, shared
    ):
        assert blob[4] in (1, 2, 3)
        block = CompressedBlock.from_bytes(blob)
        for name in available_backends():
            recon = SZCompressor(backend=name).decompress(
                block, shared_codebook=shared
            )
            assert recon.dtype == expected.dtype, name
            assert np.array_equal(recon, expected), name

    @pytest.mark.parametrize("blob, expected, shared", _GOLDEN)
    def test_reserialises_as_v4_with_the_same_content(
        self, blob, expected, shared
    ):
        old = CompressedBlock.from_bytes(blob)
        rewritten = old.to_bytes()
        assert rewritten[:5] == b"RSZ1\x04"
        assert len(rewritten) < len(blob)
        new = CompressedBlock.from_bytes(rewritten)
        assert new == old
        recon = SZCompressor().decompress(new, shared_codebook=shared)
        assert np.array_equal(recon, expected)


def _field(rng, shape, dtype, kind):
    if kind == "constant":
        return np.full(shape, 2.5, dtype=dtype)
    base = rng.normal(size=shape)
    if base.ndim:
        base = np.cumsum(base, axis=-1)
    if kind == "spiky" and base.size:
        base.flat[:: max(1, base.size // 7)] += 1e4  # outliers
    return base.astype(dtype)


_SHAPES = st.sampled_from(
    [(0,), (1,), (3, 0, 2), (1, 1, 1)]
    + [(300,), (17, 23), (5, 9, 11), (2, 70, 64)]
)


@given(
    shape=_SHAPES,
    dtype=st.sampled_from([np.float32, np.float64]),
    kind=st.sampled_from(["smooth", "spiky", "constant"]),
    chunk_size=st.sampled_from([1, 7, 256, 65536]),
    backend=st.sampled_from(_BACKENDS),
    shared_tree=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_v4_round_trip_property(
    shape, dtype, kind, chunk_size, backend, shared_tree, seed
):
    """``from_bytes(to_bytes(b)) == b`` field for field, and the error
    bound holds for every element, whatever wrote the block."""
    rng = np.random.default_rng(seed)
    values = _field(rng, shape, dtype, kind)
    bound = 0.05
    comp = SZCompressor(backend=backend, chunk_size=chunk_size)
    shared = None
    if shared_tree:
        hist = comp.histogram(_field(rng, (40, 40), dtype, "smooth"), bound)
        shared = build_codebook(
            hist,
            force_symbols=(comp.sentinel,),
            max_length=comp.backend.build_max_length,
        )
    block = comp.compress(values, bound, shared_codebook=shared)
    blob = block.to_bytes()
    assert blob[:5] == b"RSZ1\x04"
    parsed = CompressedBlock.from_bytes(blob, expected_crc32c=crc32c(blob))
    assert parsed == block
    assert parsed.to_bytes() == blob
    recon = SZCompressor().decompress(parsed, shared_codebook=shared)
    assert recon.shape == values.shape and recon.dtype == values.dtype
    error = np.abs(recon.astype(np.float64) - values.astype(np.float64))
    # float32 storage adds half an ulp of the value on top of the bound.
    slack = np.abs(values) * np.finfo(dtype).eps + bound * 1e-9
    assert np.all(error <= bound + slack)


class TestV4Layout:
    @pytest.fixture
    def block(self, rng):
        field = np.cumsum(rng.normal(size=(6, 40, 40)), axis=-1)
        return SZCompressor(chunk_size=64).compress(field, 0.01)

    def test_header_is_at_most_40_bytes_for_a_3d_block(self, rng):
        field = np.cumsum(rng.normal(size=(96, 96, 96)), axis=-1)
        block = SZCompressor().compress(field, 0.01)
        blob = block.to_bytes()
        assert (blob[5] >> 2) & 3 == 2  # a long index is deflated
        index_len = len(
            lossless_compress(
                np.diff(block.chunk_offsets).astype("<u2").tobytes()
            )
        )
        header = (
            len(blob)
            - len(block.payload)
            - len(block.codebook_blob)
            - index_len
        )
        assert header <= 40

    def test_delta_width_is_the_narrowest_that_fits(self, rng):
        field = np.cumsum(rng.normal(size=(70_000,)))
        widths = {}
        for chunk_size in (1, 256, 65536):
            blob = SZCompressor(chunk_size=chunk_size).compress(
                field, 0.01
            ).to_bytes()
            widths[chunk_size] = 1 << ((blob[5] >> 4) & 3)
        assert widths == {1: 1, 256: 2, 65536: 4}

    def test_bit_offsets_past_32_bits_serialise(self):
        """The absolute-uint32 index refused streams of 2**32 bits."""
        offsets = (0, 2**31, 2**32 + 5, 2**34)
        block = CompressedBlock(
            payload=b"p",
            shape=(1024,),
            dtype=np.dtype(np.float64),
            error_bound=0.5,
            radius=128,
            nbits=2**34 + 9,
            num_outliers=0,
            codebook_blob=b"",
            used_shared_tree=True,
            chunk_size=256,
            chunk_offsets=offsets,
        )
        blob = block.to_bytes()
        assert (blob[5] >> 4) & 3 == 3  # one delta needs 64 bits
        parsed = CompressedBlock.from_bytes(blob)
        assert parsed == block and parsed.chunk_offsets == offsets

    def test_index_that_is_not_one_offset_per_chunk_is_refused(self, block):
        for bad in (
            block.chunk_offsets[:-1],
            (1,) + block.chunk_offsets[1:],
            block.chunk_offsets[:2][::-1] + block.chunk_offsets[2:],
        ):
            block.chunk_offsets = bad
            with pytest.raises(ValueError, match="chunk index"):
                block.to_bytes()

    def test_serialised_once_and_dropped_on_assignment(self, block):
        first = block.to_bytes()
        assert block.to_bytes() is first
        assert block.compressed_nbytes == len(first)
        assert block.compression_ratio == block.original_nbytes / len(first)
        block.error_bound = 0.02
        second = block.to_bytes()
        assert second is not first and second != first

    def test_trailing_bytes_rejected(self, block):
        with pytest.raises(ValueError, match="3 trailing bytes"):
            CompressedBlock.from_bytes(block.to_bytes() + b"xyz")

    def test_unknown_flag_bits_rejected(self, block):
        blob = bytearray(block.to_bytes())
        for flags in (blob[5] | 0x40, blob[5] | 0x80, blob[5] | 0x0C):
            bad = bytes(blob[:5]) + bytes([flags]) + bytes(blob[6:])
            with pytest.raises(ValueError, match="chunk index flags"):
                CompressedBlock.from_bytes(bad)

    @pytest.fixture
    def with_index(self, block, monkeypatch):
        """``block``'s blob written around a hand-made index section."""

        def build(state, index, width_code=1):
            monkeypatch.setattr(
                CompressedBlock,
                "_index_section",
                lambda self: (state, width_code, index),
            )
            return dataclasses.replace(block).to_bytes()

        return build

    def test_index_that_does_not_inflate_is_named(self, with_index):
        bad = with_index(2, b"\x78\x01garbage")
        with pytest.raises(ValueError, match="chunk index does not inflate"):
            CompressedBlock.from_bytes(bad)

    def test_index_of_the_wrong_length_is_named(self, block, with_index):
        deltas = np.diff(block.chunk_offsets).astype("<u2").tobytes()
        assert CompressedBlock.from_bytes(with_index(1, deltas)) == block
        for state, index, width_code in (
            (1, deltas[:-2], 1),
            (2, lossless_compress(deltas + b"\x00\x00"), 1),
            # The same deltas read at another width are too few.
            (1, deltas, 2),
        ):
            bad = with_index(state, index, width_code)
            with pytest.raises(ValueError, match="chunk index holds"):
                CompressedBlock.from_bytes(bad)


class _Hang(Exception):
    pass


@contextmanager
def _deadline(seconds):
    def on_alarm(signum, frame):
        raise _Hang(f"decode still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _mutations(blob, rng):
    """Single-byte damage at every position ahead of the payload's bulk
    and at a sample inside it, then truncation and appended garbage."""
    dense = min(len(blob), 160)
    positions = list(range(dense)) + rng.integers(
        dense, len(blob), size=24
    ).tolist()
    for pos in positions:
        old = blob[pos]
        for value in {0x00, 0x7F, 0x80, 0xFF, old ^ 0x01, old ^ 0x10}:
            if value != blob[pos]:
                yield blob[:pos] + bytes([value]) + blob[pos + 1 :]
    for cut in rng.integers(0, len(blob), size=12).tolist():
        yield blob[:cut]
    yield blob + b"\x00"
    yield blob + bytes(rng.integers(0, 256, size=9, dtype=np.uint8))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # damaged bounds
@pytest.mark.parametrize("rewrite_as_v4", [False, True], ids=["old", "v4"])
@pytest.mark.parametrize("blob, expected, shared", _GOLDEN)
def test_byte_mutation_fuzz(blob, expected, shared, rewrite_as_v4):
    """Without a CRC a flipped bit in, say, the error bound cannot be
    told from the truth, so the outcomes allowed here are: an array of
    the declared shape, or a ``ValueError``.  With the compression-time
    CRC every mutation is a ``ValueError``.  Never ``struct.error``,
    ``zlib.error``, ``IndexError``, ``OverflowError``, ``MemoryError``
    or a hang."""
    if rewrite_as_v4:
        blob = CompressedBlock.from_bytes(blob).to_bytes()
    stamp = crc32c(blob)
    comp = SZCompressor()
    rng = np.random.default_rng(len(blob))
    decoded = 0
    for damaged in _mutations(blob, rng):
        with pytest.raises(ValueError, match="checksum"):
            CompressedBlock.from_bytes(damaged, expected_crc32c=stamp)
        try:
            with _deadline(20.0):
                block = CompressedBlock.from_bytes(damaged)
                recon = comp.decompress(block, shared_codebook=shared)
        except ValueError:
            continue
        decoded += 1
        assert recon.shape == block.shape and recon.dtype == block.dtype
    # Appended garbage is the one mutation a v1-v3 reader lets through.
    assert decoded >= (0 if rewrite_as_v4 else 2)
    recon = comp.decompress(
        CompressedBlock.from_bytes(blob, expected_crc32c=stamp),
        shared_codebook=shared,
    )
    assert np.array_equal(recon, expected)
