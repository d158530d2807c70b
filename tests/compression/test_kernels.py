"""Codec kernel backends: cross-backend equivalence, the chunked block
format versions, and the silent-corruption fixes that shipped with them."""

import base64
import json
import struct
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
    decode,
    encode,
    get_backend,
    prequantize,
    resolve_backend,
)
from repro.compression.kernels import (
    DEFAULT_CHUNK_SIZE,
    NumpyBackend,
    PureBackend,
)

_DATA_DIR = Path(__file__).parent / "data"


def _skewed_symbols(rng, n_symbols, count):
    probs = 1.0 / np.arange(1, n_symbols + 1)
    probs /= probs.sum()
    return rng.choice(n_symbols, size=count, p=probs).astype(np.uint16)


def _smooth_field(rng, shape=(16, 16, 16), scale=100.0):
    base = rng.normal(0, 1, size=shape)
    for axis in range(len(shape)):
        base = np.cumsum(base, axis=axis)
    return (base * scale / max(1.0, np.abs(base).max())).astype(np.float64)


def _huffman_backends():
    """Backends sharing the chunked canonical-Huffman bit format."""
    from repro.compression.kernels import FORMAT_HUFFMAN

    return tuple(
        name
        for name in available_backends()
        if get_backend(name).format_id == FORMAT_HUFFMAN
    )


class TestBackendRegistry:
    def test_available(self):
        assert available_backends() == ("deflate", "numpy", "pure", "zlib")

    def test_get_backend_instances(self):
        assert isinstance(get_backend("pure"), PureBackend)
        assert isinstance(get_backend("numpy"), NumpyBackend)
        assert get_backend("numpy") is get_backend("numpy")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown codec backend"):
            get_backend("cuda")

    def test_resolve_default_is_numpy(self):
        assert resolve_backend().name == "numpy"

    def test_environment_does_not_steer_the_default(self, monkeypatch):
        """What bytes a compressor writes is its caller's choice, never
        the process environment's (the retired variable is ignored)."""
        monkeypatch.setenv("REPRO_CODEC_BACKEND", "pure")
        assert resolve_backend(None).name == "numpy"
        assert SZCompressor().backend.name == "numpy"

    def test_explicit_name_is_honoured(self):
        assert resolve_backend("pure").name == "pure"
        assert SZCompressor(backend="pure").backend.name == "pure"

    def test_instance_passes_through(self):
        backend = PureBackend()
        assert resolve_backend(backend) is backend

    def test_compressor_validates_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            SZCompressor(chunk_size=0)


class TestChunkedEncode:
    def test_offsets_index_the_stream(self, rng):
        symbols = _skewed_symbols(rng, 50, 3000)
        book = build_codebook(np.bincount(symbols, minlength=50))
        stream = get_backend("numpy").encode(symbols, book, chunk_size=128)
        # Stream bytes identical to the unchunked encoder.
        data, nbits = encode(symbols, book)
        assert stream.data == data and stream.nbits == nbits
        # Offsets are the cumulative code lengths at chunk starts.
        lens = book.lengths[symbols].astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(lens)))[::128][:24]
        assert np.array_equal(
            stream.chunk_offsets.astype(np.int64), starts
        )

    def test_empty_stream(self):
        book = build_codebook(np.ones(4))
        stream = get_backend("numpy").encode(
            np.zeros(0, dtype=np.uint16), book
        )
        assert stream.nbits == 0 and stream.num_chunks == 0


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("chunk_size", [1, 3, 64, 256, 5000])
    def test_decoders_agree(self, rng, chunk_size):
        symbols = _skewed_symbols(rng, 120, 4000)
        book = build_codebook(
            np.bincount(symbols, minlength=120), max_length=12
        )
        stream = get_backend("pure").encode(symbols, book, chunk_size)
        results = {
            name: get_backend(name).decode(
                stream.data,
                stream.nbits,
                symbols.size,
                book,
                stream.chunk_size,
                stream.chunk_offsets,
            )
            for name in _huffman_backends()
        }
        for name, out in results.items():
            assert np.array_equal(out, symbols), name

    def test_blocks_bit_identical_across_backends(self, rng):
        field = _smooth_field(rng)
        blobs = {
            name: SZCompressor(backend=name).compress(field, 0.05).to_bytes()
            for name in available_backends()
        }
        assert blobs["pure"] == blobs["numpy"]

    def test_cross_backend_decompress(self, rng):
        field = _smooth_field(rng)
        block = SZCompressor(backend="pure").compress(field, 0.05)
        recon = SZCompressor(backend="numpy").decompress(block)
        assert np.max(np.abs(field - recon)) <= 0.05 * (1 + 1e-9)

    def test_deep_codebook_falls_back(self, rng):
        # Fibonacci weights force codes deeper than the numpy backend's
        # 16-bit window; it must fall back to the reference walk.
        freqs = [1, 1]
        while len(freqs) < 24:
            freqs.append(freqs[-1] + freqs[-2])
        book = build_codebook(np.array(freqs, dtype=np.int64))
        assert book.max_length > NumpyBackend.decode_max_length
        probs = np.array(freqs) / np.sum(freqs)
        symbols = rng.choice(24, size=2000, p=probs).astype(np.uint16)
        stream = get_backend("numpy").encode(symbols, book, 256)
        out = get_backend("numpy").decode(
            stream.data,
            stream.nbits,
            2000,
            book,
            256,
            stream.chunk_offsets,
        )
        assert np.array_equal(out, symbols)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_symbols=st.integers(min_value=2, max_value=257),
    count=st.integers(min_value=0, max_value=2000),
    chunk_size=st.sampled_from([1, 7, 64, 256, 1024]),
)
@settings(max_examples=60, deadline=None)
def test_backend_equivalence_property(seed, n_symbols, count, chunk_size):
    """pure and numpy agree bit-for-bit on random codebooks and streams."""
    rng = np.random.default_rng(seed)
    symbols = _skewed_symbols(rng, n_symbols, count)
    hist = np.bincount(symbols, minlength=n_symbols)
    book = build_codebook(hist, force_symbols=(0,), max_length=12)
    stream = get_backend("pure").encode(symbols, book, chunk_size)
    pure = get_backend("pure").decode(
        stream.data, stream.nbits, count, book, chunk_size,
        stream.chunk_offsets,
    )
    vec = get_backend("numpy").decode(
        stream.data, stream.nbits, count, book, chunk_size,
        stream.chunk_offsets,
    )
    assert np.array_equal(pure, vec)
    assert np.array_equal(pure, symbols)


class TestCorruptionDetection:
    @pytest.fixture
    def stream(self, rng):
        symbols = _skewed_symbols(rng, 30, 2000)
        book = build_codebook(
            np.bincount(symbols, minlength=30), max_length=10
        )
        return symbols, book, get_backend("pure").encode(symbols, book, 256)

    @pytest.mark.parametrize("name", ["pure", "numpy"])
    def test_truncated_data_rejected(self, stream, name):
        symbols, book, enc = stream
        with pytest.raises(ValueError):
            get_backend(name).decode(
                enc.data[: len(enc.data) // 4],
                enc.nbits,
                symbols.size,
                book,
                256,
                enc.chunk_offsets,
            )

    @pytest.mark.parametrize("name", ["pure", "numpy"])
    def test_wrong_chunk_count_rejected(self, stream, name):
        symbols, book, enc = stream
        with pytest.raises(ValueError, match="chunk offsets"):
            get_backend(name).decode(
                enc.data,
                enc.nbits,
                symbols.size,
                book,
                256,
                enc.chunk_offsets[:-1],
            )

    def test_shifted_offsets_rejected(self, stream):
        symbols, book, enc = stream
        bad = enc.chunk_offsets.astype(np.int64) + 3
        bad[0] = 0
        with pytest.raises(ValueError):
            get_backend("numpy").decode(
                enc.data, enc.nbits, symbols.size, book, 256, bad
            )

    @pytest.mark.parametrize("name", ["pure", "numpy"])
    def test_empty_codebook_with_count_rejected(self, name):
        # Regression: the canonical walk crashed with IndexError on an
        # all-zero-length codebook instead of reporting corruption.
        book = build_codebook(np.zeros(8, dtype=np.int64))
        assert book.max_length == 0
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            get_backend(name).decode(b"\x00\x00", 9, 5, book, 0, None)

    def test_plain_decode_empty_codebook(self):
        book = build_codebook(np.zeros(8, dtype=np.int64))
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            decode(b"\x00\x00", 9, 5, book)


class TestBlockFormatVersions:
    def test_round_trip_preserves_chunk_index(self, rng):
        field = _smooth_field(rng)
        block = SZCompressor(chunk_size=64).compress(field, 0.1)
        restored = CompressedBlock.from_bytes(block.to_bytes())
        assert restored.chunk_size == 64
        assert restored.chunk_offsets == block.chunk_offsets
        recon = SZCompressor().decompress(restored)
        assert np.max(np.abs(field - recon)) <= 0.1 * (1 + 1e-9)

    def test_current_blob_version_byte(self, rng):
        blob = SZCompressor().compress(_smooth_field(rng), 0.1).to_bytes()
        assert blob[:4] == b"RSZ1" and blob[4] == 4

    def test_block_without_index_serialises_as_v4(self, rng):
        field = _smooth_field(rng)
        block = SZCompressor().compress(field, 0.1)
        indexed = len(block.to_bytes())
        block.chunk_size = 0
        block.chunk_offsets = None
        blob = block.to_bytes()  # the assignments dropped the cached blob
        assert blob[4] == 4 and len(blob) < indexed
        restored = CompressedBlock.from_bytes(blob)
        assert restored == block and restored.chunk_offsets is None
        # Index-less blocks decode through the reference path everywhere.
        for name in available_backends():
            recon = SZCompressor(backend=name).decompress(restored)
            assert np.max(np.abs(field - recon)) <= 0.1 * (1 + 1e-9)

    def test_golden_v1_blob_still_decompresses(self):
        """A block written by the pre-kernels codec must keep decoding."""
        golden = json.loads(
            (_DATA_DIR / "block_v1_golden.json").read_text()
        )
        blob = base64.b64decode(golden["blob_b64"])
        expected = np.frombuffer(
            base64.b64decode(golden["recon_b64"]), dtype=np.float64
        ).reshape(golden["shape"])
        block = CompressedBlock.from_bytes(blob)
        assert block.chunk_offsets is None
        for name in available_backends():
            recon = SZCompressor(backend=name).decompress(block)
            assert np.array_equal(recon, expected), name


class TestFromBytesValidation:
    @pytest.fixture
    def blob(self, rng):
        return SZCompressor().compress(_smooth_field(rng), 0.1).to_bytes()

    @pytest.fixture
    def v3_blob(self):
        """The fixed-width layouts are read-only: take one off the shelf."""
        golden = json.loads((_DATA_DIR / "block_v3_golden.json").read_text())
        return base64.b64decode(golden["cases"][0]["blob_b64"])

    def test_truncated_header_named(self):
        with pytest.raises(ValueError, match="header"):
            CompressedBlock.from_bytes(b"RSZ1\x02")

    def test_truncated_payload_named(self, blob):
        with pytest.raises(
            ValueError, match="truncated compressed block.*payload"
        ):
            CompressedBlock.from_bytes(blob[:-20])

    def test_truncated_dims_named(self, v3_blob):
        head = struct.calcsize("<4sBBBdIQQQI")
        with pytest.raises(ValueError, match="shape dims"):
            CompressedBlock.from_bytes(v3_blob[: head + 4])

    def test_truncated_chunk_offsets_named(self, v3_blob):
        head = struct.calcsize("<4sBBBdIQQQI")
        # header + dims(3) + flags + codec info(2) + chunk header +
        # first offset only
        with pytest.raises(ValueError, match="chunk offsets"):
            CompressedBlock.from_bytes(v3_blob[: head + 24 + 1 + 2 + 8 + 4])

    def test_truncated_v4_sections_named(self, blob):
        for cut, what in (
            (10, "header"),
            (20, "header field"),
            (40, "chunk index"),
        ):
            with pytest.raises(ValueError, match=f"truncated.*{what}"):
                CompressedBlock.from_bytes(blob[:cut])

    def test_garbage_rejected_with_value_error(self):
        # Arbitrary garbage must never surface a raw struct.error.
        with pytest.raises(ValueError):
            CompressedBlock.from_bytes(b"\x01\x02\x03")

    def test_unknown_version_rejected(self, blob):
        bad = blob[:4] + b"\x09" + blob[5:]
        with pytest.raises(ValueError, match="version"):
            CompressedBlock.from_bytes(bad)

    def test_unknown_dtype_rejected(self, v3_blob):
        # v4 packs the dtype into one flag bit; only v1-v3 can name a
        # dtype that does not exist.
        bad = v3_blob[:5] + b"\x07" + v3_blob[6:]
        with pytest.raises(ValueError, match="dtype"):
            CompressedBlock.from_bytes(bad)

    def test_any_truncation_raises_value_error(self, blob):
        for cut in range(0, len(blob) - 1, 7):
            with pytest.raises(ValueError):
                CompressedBlock.from_bytes(blob[:cut])


class TestOverflowGuard:
    def test_huge_value_tiny_bound_rejected(self):
        values = np.array([1e30, 0.0])
        with pytest.raises(ValueError, match="overflow"):
            prequantize(values, 1e-6)

    def test_non_finite_rejected(self):
        # Named for what it is (no bound fixes a NaN), not as overflow:
        # tests/compression/test_quantizer.py pins count and index.
        with pytest.raises(ValueError, match="1 non-finite"):
            prequantize(np.array([np.inf]), 0.1)
        with pytest.raises(ValueError, match="1 non-finite"):
            prequantize(np.array([np.nan]), 0.1)

    def test_compressor_surfaces_the_error(self):
        field = np.full((8, 8), 1e300)
        with pytest.raises(ValueError, match="overflow"):
            SZCompressor().compress(field, 1e-12)

    def test_large_but_representable_ok(self):
        values = np.array([2.0**62, -(2.0**62)])
        grid = prequantize(values, 0.5)
        assert np.array_equal(grid, np.array([2**62, -(2**62)]))
