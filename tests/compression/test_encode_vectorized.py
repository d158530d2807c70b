"""The vectorized encode path, canonical-codebook serialization, and the
multi-codec registry.

Covers the PR-9 fixes: bounded-slab encoding (peak-memory regression),
validated codebook deserialization (truncation/corruption), estimator
agreement with the real encoder (``nbits == sum(lengths[symbols])``
including escape/sentinel accounting), the dense-table/canonical-walk
decode crossover at code lengths 12 and 13, and cross-backend behaviour
on adversarial inputs (all-outlier, single symbol, empty, constant).
"""

import base64
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    CODEBOOK_KIND_RAW,
    CODEBOOK_KIND_RLE,
    CompressedBlock,
    SZCompressor,
    available_backends,
    build_codebook,
    codebook_blob_kind,
    codebook_from_bytes,
    codebook_to_bytes,
    decode,
    encode,
    estimate_encoded_bits,
    get_backend,
    pack_bits,
    unpack_bits,
)
from repro.compression import huffman
from repro.compression.kernels import FORMAT_HUFFMAN
from repro.compression.kernels.base import DEFAULT_CHUNK_SIZE
from repro.compression.kernels.pure import encode_reference
from repro.durability.checksum import crc32c

_DATA_DIR = Path(__file__).parent / "data"


def _skewed_symbols(rng, n_symbols, count):
    probs = 1.0 / np.arange(1, n_symbols + 1)
    probs /= probs.sum()
    return rng.choice(n_symbols, size=count, p=probs).astype(np.uint16)


def _book_with_max_length(target_len):
    """A codebook whose deepest code has exactly ``target_len`` bits
    (Fibonacci frequencies grow tree depth one level per symbol)."""
    freqs = [1, 1]
    while True:
        book = build_codebook(np.array(freqs, dtype=np.int64))
        if book.max_length == target_len:
            return book
        if book.max_length > target_len:
            raise AssertionError("overshot the target depth")
        freqs.append(freqs[-1] + freqs[-2])


class TestEncodeBitIdentical:
    def test_matches_reference_across_slab_boundaries(self, rng):
        symbols = _skewed_symbols(rng, 90, 7000)
        book = build_codebook(np.bincount(symbols, minlength=90))
        ref_data, ref_bits = encode_reference(symbols, book)
        for slab in (64, 1000, 4096, 1 << 18):
            data, nbits, _ = huffman.encode_with_offsets(
                symbols, book, chunk_size=0, slab=slab
            )
            assert (data, nbits) == (ref_data, ref_bits), slab

    def test_uncoded_symbol_same_error_both_paths(self):
        book = build_codebook(np.array([5, 0, 5]))
        bad = np.array([0, 1, 2], dtype=np.uint16)
        with pytest.raises(ValueError, match="symbol 1 has no code"):
            encode(bad, book)
        with pytest.raises(ValueError, match="symbol 1 has no code"):
            encode_reference(bad, book)

    def test_single_symbol_stream(self):
        book = build_codebook(np.array([3, 2]))
        data, nbits = encode(np.array([1], dtype=np.uint16), book)
        assert nbits == 1 and len(data) == 1
        assert np.array_equal(
            decode(data, nbits, 1, book), np.array([1], dtype=np.uint16)
        )

    def test_empty_stream(self):
        book = build_codebook(np.array([3, 2]))
        assert encode(np.zeros(0, dtype=np.uint16), book) == (b"", 0)

    def test_deep_book_falls_back_to_reference(self):
        # Books deeper than the 25-bit placement window can't take the
        # vectorized path; the fallback must stay bit-identical.
        book = _book_with_max_length(26)
        rng = np.random.default_rng(5)
        present = np.flatnonzero(book.lengths > 0)
        symbols = rng.choice(present, size=500).astype(np.uint16)
        ref = encode_reference(symbols, book)
        data, nbits, offsets = huffman.encode_with_offsets(
            symbols, book, chunk_size=64
        )
        assert (data, nbits) == ref
        lens = book.lengths[symbols].astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(lens)))
        assert np.array_equal(
            offsets.astype(np.int64), starts[::64][: offsets.size]
        )


class TestEncodeMemoryBound:
    def test_peak_memory_stays_bounded_on_64mib_stream(self):
        """Regression for the dense (n, max_len) bit-matrix encoder: a
        64 MiB symbol stream must encode within a small multiple of the
        input size, not ~10-15x of it."""
        n = 32 * 1024 * 1024  # uint16 -> 64 MiB
        rng = np.random.default_rng(11)
        symbols = rng.choice(
            np.arange(16), size=n, p=np.arange(16, 0, -1) / 136.0
        ).astype(np.uint16)
        book = build_codebook(np.bincount(symbols, minlength=16))
        tracemalloc.start()
        stream = get_backend("numpy").encode(
            symbols, book, chunk_size=DEFAULT_CHUNK_SIZE
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Output buffer + offsets + a few slab-sized temporaries.  The
        # old encoder's shifts/valid/bits matrices alone were
        # ~10x symbols.nbytes (int64 broadcast over max_len columns).
        assert stream.nbits > 0
        assert peak < 3 * symbols.nbytes, (
            f"peak {peak / 2**20:.0f} MiB for a "
            f"{symbols.nbytes / 2**20:.0f} MiB input"
        )


class TestPackBits:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_random_widths(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 500))
        widths = rng.integers(0, 26, size=n)
        values = rng.integers(0, 1 << 25, size=n) & (
            (1 << np.maximum(widths, 1)) - 1
        )
        values[widths == 0] = 0
        data, nbits = pack_bits(values, widths, slab=97)
        assert nbits == int(widths.sum())
        assert np.array_equal(unpack_bits(data, widths), values)

    def test_too_wide_rejected(self):
        with pytest.raises(ValueError, match="widths up to 25"):
            pack_bits(np.array([1]), np.array([26]))
        with pytest.raises(ValueError, match="widths up to 25"):
            unpack_bits(b"\x00\x00\x00\x00", np.array([26]))

    def test_truncated_stream_rejected(self):
        with pytest.raises(ValueError, match="cannot hold"):
            unpack_bits(b"\x00", np.array([10, 10]))


class TestCodebookSerialization:
    def _typical_book(self):
        hist = (
            np.exp(-0.5 * ((np.arange(257) - 128) / 3.0) ** 2) * 1e6
        ).astype(np.int64)
        return build_codebook(hist, force_symbols=(256,), max_length=12)

    def test_rle_much_smaller_on_typical_books(self):
        book = self._typical_book()
        rle = codebook_to_bytes(book, kind=CODEBOOK_KIND_RLE)
        raw = codebook_to_bytes(book, kind=CODEBOOK_KIND_RAW)
        assert len(rle) < len(raw) / 2
        assert codebook_blob_kind(codebook_to_bytes(book)) == (
            CODEBOOK_KIND_RLE
        )

    def test_both_kinds_roundtrip(self):
        book = self._typical_book()
        for kind in (CODEBOOK_KIND_RAW, CODEBOOK_KIND_RLE):
            restored = codebook_from_bytes(codebook_to_bytes(book, kind))
            assert np.array_equal(restored.lengths, book.lengths)
            assert np.array_equal(restored.codes, book.codes)

    def test_adaptive_picks_smaller(self):
        # A book whose lengths alternate has no runs to exploit.
        jagged = build_codebook(
            np.array([1 << (i % 7) for i in range(64)], dtype=np.int64)
        )
        auto = codebook_to_bytes(jagged)
        rle = codebook_to_bytes(jagged, kind=CODEBOOK_KIND_RLE)
        raw = codebook_to_bytes(jagged, kind=CODEBOOK_KIND_RAW)
        assert len(auto) == min(len(rle), len(raw))

    def test_adaptive_tie_goes_to_rle(self):
        # One run over 11 symbols: 12 + 3 bytes either way.
        lengths = np.full(11, 4, dtype=np.uint8)
        book = huffman.Codebook(
            lengths=lengths, codes=huffman._canonical_codes(lengths)
        )
        rle = codebook_to_bytes(book, kind=CODEBOOK_KIND_RLE)
        assert len(rle) == len(codebook_to_bytes(book, kind=CODEBOOK_KIND_RAW))
        assert codebook_to_bytes(book) == rle

    def test_long_run_split_across_uint16(self):
        lengths = np.zeros(200_000, dtype=np.uint8)
        lengths[0] = 1
        lengths[1] = 1
        book = huffman.Codebook(
            lengths=lengths, codes=huffman._canonical_codes(lengths)
        )
        blob = codebook_to_bytes(book, kind=CODEBOOK_KIND_RLE)
        restored = codebook_from_bytes(blob)
        assert np.array_equal(restored.lengths, lengths)


class TestCodebookCorruption:
    """`codebook_from_bytes` used to trust the declared symbol count; a
    truncated blob silently produced a shorter lengths array."""

    def test_truncated_raw_blob_named(self):
        book = build_codebook(np.arange(1, 40))
        blob = codebook_to_bytes(book, kind=CODEBOOK_KIND_RAW)
        with pytest.raises(ValueError, match="truncated codebook blob"):
            codebook_from_bytes(blob[:-5])

    def test_oversized_raw_blob_named(self):
        book = build_codebook(np.arange(1, 40))
        blob = codebook_to_bytes(book, kind=CODEBOOK_KIND_RAW)
        with pytest.raises(ValueError, match="truncated codebook blob"):
            codebook_from_bytes(blob + b"\x00\x00")

    def test_tiny_blob_named(self):
        with pytest.raises(ValueError, match="codebook header"):
            codebook_from_bytes(b"\x02")

    def test_truncated_rle_blob_named(self):
        book = build_codebook(np.arange(1, 40))
        blob = codebook_to_bytes(book, kind=CODEBOOK_KIND_RLE)
        for cut in range(4, len(blob) - 1, 3):
            with pytest.raises(ValueError, match="codebook blob"):
                codebook_from_bytes(blob[:cut])

    def test_rle_run_sum_mismatch_named(self):
        book = build_codebook(np.arange(1, 10))
        blob = bytearray(codebook_to_bytes(book, kind=CODEBOOK_KIND_RLE))
        # Inflate the declared symbol count past the run coverage.
        declared = struct.unpack_from("<I", blob, 4)[0]
        struct.pack_into("<I", blob, 4, declared + 7)
        with pytest.raises(ValueError, match="runs cover"):
            codebook_from_bytes(bytes(blob))

    def test_zero_symbols_rejected(self):
        with pytest.raises(ValueError, match="zero symbols"):
            codebook_from_bytes(struct.pack("<I", 0))
        with pytest.raises(ValueError, match="zero symbols"):
            codebook_from_bytes(b"RCB2" + struct.pack("<II", 0, 0))

    def test_kraft_violation_rejected(self):
        # Five length-1 codes cannot coexist in any prefix code.
        blob = struct.pack("<I", 5) + bytes([1, 1, 1, 1, 1])
        with pytest.raises(ValueError, match="Kraft"):
            codebook_from_bytes(blob)

    def test_absurd_rle_length_rejected(self):
        blob = (
            b"RCB2"
            + struct.pack("<II", 2, 2)
            + struct.pack("<BH", 200, 1)
            + struct.pack("<BH", 200, 1)
        )
        with pytest.raises(ValueError, match="exceeds 63"):
            codebook_from_bytes(blob)

    def test_corrupt_blob_inside_block_surfaces_named_error(self, rng):
        field = np.cumsum(rng.normal(size=(12, 12)), axis=0)
        block = SZCompressor().compress(field, 0.05)
        block.codebook_blob = block.codebook_blob[:-3]
        with pytest.raises(ValueError, match="codebook blob"):
            SZCompressor().decompress(block)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_symbols=st.integers(min_value=2, max_value=300),
    count=st.integers(min_value=0, max_value=3000),
)
@settings(max_examples=60, deadline=None)
def test_nbits_matches_length_sum_property(seed, n_symbols, count):
    """The encoder's declared nbits must equal sum(lengths[symbols]) —
    and the estimator must agree exactly on the stream's histogram."""
    rng = np.random.default_rng(seed)
    symbols = _skewed_symbols(rng, n_symbols, count)
    hist = np.bincount(symbols, minlength=n_symbols)
    book = build_codebook(hist, max_length=16)
    data, nbits = encode(symbols, book)
    assert nbits == int(book.lengths[symbols].astype(np.int64).sum())
    est_bits, escapes = estimate_encoded_bits(hist, book)
    assert (est_bits, escapes) == (nbits, 0)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_estimator_accounts_for_sentinel_rerouting(seed):
    """Escapes rerouted to the sentinel pay the sentinel's code length;
    the estimator with ``sentinel=`` must match the real encoder."""
    rng = np.random.default_rng(seed)
    sentinel = 8
    # A book trained without symbols 5..7 so they escape.
    train = np.zeros(9, dtype=np.int64)
    train[:5] = rng.integers(1, 100, size=5)
    book = build_codebook(train, force_symbols=(sentinel,))
    symbols = rng.integers(0, 9, size=500).astype(np.uint16)
    hist = np.bincount(symbols, minlength=9)
    bits_plain, escapes = estimate_encoded_bits(hist, book)
    bits_sent, escapes_sent = estimate_encoded_bits(
        hist, book, sentinel=sentinel
    )
    assert escapes_sent == escapes
    # What encode actually emits once escapes are rerouted to sentinel:
    rerouted = symbols.copy()
    rerouted[book.lengths[rerouted] == 0] = sentinel
    _, nbits = encode(rerouted, book)
    assert bits_sent == nbits
    if escapes:
        assert bits_plain < bits_sent


class TestDecodeCrossover:
    """Round-trips pinned at the dense-table/canonical-walk boundary."""

    @pytest.mark.parametrize("depth", [12, 13])
    def test_roundtrip_at_depth(self, depth, rng):
        book = _book_with_max_length(depth)
        assert (depth <= huffman.TABLE_DECODE_MAX_LEN) == (depth == 12)
        present = np.flatnonzero(book.lengths > 0)
        probs = 2.0 ** -book.lengths[present].astype(np.float64)
        probs /= probs.sum()
        symbols = rng.choice(present, size=4000, p=probs).astype(np.uint16)
        data, nbits = encode(symbols, book)
        assert np.array_equal(decode(data, nbits, symbols.size, book), symbols)
        # The numpy backend handles both depths (window limit is 16).
        stream = get_backend("numpy").encode(symbols, book, 256)
        out = get_backend("numpy").decode(
            stream.data, stream.nbits, symbols.size, book, 256,
            stream.chunk_offsets,
        )
        assert np.array_equal(out, symbols)

    @pytest.mark.parametrize("depth", [12, 13])
    def test_corrupt_stream_rejected_at_depth(self, depth):
        book = _book_with_max_length(depth)
        present = np.flatnonzero(book.lengths > 0)
        symbols = np.repeat(present[-3:], 50).astype(np.uint16)
        data, nbits = encode(symbols, book)
        with pytest.raises(ValueError):
            decode(data, nbits + 40, symbols.size + 5, book)


class TestAdversarialCrossBackend:
    """Every backend must round-trip the pathological block shapes."""

    def _roundtrip(self, field, bound, backend):
        comp = SZCompressor(backend=backend)
        block = comp.compress(field, bound)
        # Serialize through bytes to exercise the block header too.
        restored = CompressedBlock.from_bytes(
            block.to_bytes(), expected_crc32c=crc32c(block.to_bytes())
        )
        recon = comp.decompress(restored)
        assert np.max(np.abs(recon - field), initial=0.0) <= bound * (
            1 + 1e-9
        )
        return block

    @pytest.mark.parametrize("backend", ["pure", "numpy", "deflate", "zlib"])
    def test_all_outlier_block(self, backend, rng):
        # Huge spread + tiny bound: every delta overflows the radius.
        field = rng.normal(0, 1e6, size=(12, 12)) * 1e3
        block = self._roundtrip(field, 0.5, backend)
        assert block.num_outliers > 0.9 * field.size

    @pytest.mark.parametrize("backend", ["pure", "numpy", "deflate", "zlib"])
    def test_constant_field(self, backend):
        field = np.full((16, 16), 3.25)
        self._roundtrip(field, 0.01, backend)

    @pytest.mark.parametrize("backend", ["pure", "numpy", "deflate", "zlib"])
    def test_single_value(self, backend):
        self._roundtrip(np.array([[42.0]]), 0.1, backend)

    @pytest.mark.parametrize("backend", ["pure", "numpy", "deflate", "zlib"])
    def test_empty_field(self, backend):
        self._roundtrip(np.zeros((0,), dtype=np.float64), 0.1, backend)

    def test_huffman_backends_bit_identical_on_adversarial(self, rng):
        fields = [
            np.full((16, 16), 3.25),
            np.array([[42.0]]),
            np.zeros((0,), dtype=np.float64),
            rng.normal(0, 1e6, size=(12, 12)) * 1e3,
        ]
        for field in fields:
            blobs = [
                SZCompressor(backend=name).compress(field, 0.5).to_bytes()
                for name in ("pure", "numpy")
            ]
            assert blobs[0] == blobs[1]

    def test_every_backend_decodes_every_backends_blocks(self, rng):
        field = np.cumsum(rng.normal(size=(14, 14)), axis=0)
        for writer in available_backends():
            blob = SZCompressor(backend=writer).compress(field, 0.05).to_bytes()
            block = CompressedBlock.from_bytes(blob)
            for reader in available_backends():
                recon = SZCompressor(backend=reader).decompress(block)
                assert np.max(np.abs(recon - field)) <= 0.05 * (
                    1 + 1e-9
                ), (writer, reader)


class TestGoldenV2Blob:
    def test_golden_v2_blob_still_decompresses(self):
        """A block written by the pre-v3 (PR 4-8) codec must keep
        decoding bit-exactly on every backend."""
        golden = json.loads(
            (_DATA_DIR / "block_v2_golden.json").read_text()
        )
        blob = base64.b64decode(golden["blob_b64"])
        assert blob[4] == 2  # genuinely a v2 fixture
        expected = np.frombuffer(
            base64.b64decode(golden["recon_b64"]), dtype=np.float64
        ).reshape(golden["shape"])
        block = CompressedBlock.from_bytes(blob)
        assert block.codec == FORMAT_HUFFMAN
        assert block.chunk_offsets is not None
        for name in available_backends():
            recon = SZCompressor(backend=name).decompress(block)
            assert np.array_equal(recon, expected), name
