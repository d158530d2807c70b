"""The decode path against the naive oracles of ``oracles.py``.

* Every Huffman decoder (``numpy`` on both walks, ``pure``,
  ``huffman.decode``) returns the naive bit-by-bit decoder's symbols, on
  the golden blocks of every format version and on random streams.
* The in-place inverse transforms (``decode_codes``,
  ``lorenzo_inverse(out=)``, ``dequantize``) match their straightforward
  forms bit for bit, in values and dtype.
* ``codebook_from_bytes`` checks the Kraft inequality exactly, and
  ``decompress`` names an outlier position outside the block.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import NyxModel
from repro.compression import (
    CompressedBlock,
    SZCompressor,
    build_codebook,
    codebook_from_bytes,
    codebook_to_bytes,
    compress_field_blocks,
    decode_codes,
    dequantize,
    get_backend,
    huffman,
    lorenzo_inverse,
    lossless_compress,
    lossless_decompress,
)
from repro.compression.kernels import FORMAT_HUFFMAN, vectorized
from repro.compression.quantizer import QuantizedDeltas
from tests.compression import oracles

_DATA_DIR = Path(__file__).parent / "data"


def _golden_blobs():
    """``{name: (blob, shared codebook blob or None)}`` of every golden
    block of format v1-v3."""
    cases = {}
    for version in ("v1", "v2"):
        doc = json.loads(
            (_DATA_DIR / f"block_{version}_golden.json").read_text()
        )
        cases[version] = (base64.b64decode(doc["blob_b64"]), None)
    doc = json.loads((_DATA_DIR / "block_v3_golden.json").read_text())
    for case in doc["cases"]:
        shared = case.get("shared_codebook_b64")
        cases[f"v3-{case['name']}"] = (
            base64.b64decode(case["blob_b64"]),
            shared and base64.b64decode(shared),
        )
    return cases


_GOLDEN = _golden_blobs()
_V4_FIELDS = ("baryon_density", "temperature", "velocity_x")
_V4_BLOCKS = 6


@functools.lru_cache(maxsize=None)
def _v4_blobs():
    """v4 blocks as the encoder writes them today: the first 64 KiB Nyx
    blocks of the fields ``block_v4_digests.json`` pins (seed 23,
    iteration 12)."""
    app = NyxModel(seed=23, partition_shape=(64,) * 3)
    blobs = {}
    for name in _V4_FIELDS:
        blocks = compress_field_blocks(
            SZCompressor(),
            name,
            app.generate_field(name, 0, 12),
            app.field(name).error_bound,
            1 << 16,
        )
        for i, (_, blob, _) in enumerate(blocks[:_V4_BLOCKS]):
            blobs[f"v4-{name}-{i}"] = (blob, None)
    return blobs


def _all_decoders(data, nbits, count, book, chunk_size, offsets):
    """``{decoder name: symbols}`` of every Huffman decoder."""
    out = {
        "pure": get_backend("pure").decode(
            data, nbits, count, book, chunk_size, offsets
        ),
        "reference": huffman.decode(data, nbits, count, book),
    }
    if offsets is not None:
        saved = vectorized.DOUBLING_MAX_BITS
        try:
            for walk, limit in (("doubling", 1 << 62), ("lockstep", -1)):
                vectorized.DOUBLING_MAX_BITS = limit
                out[walk] = get_backend("numpy").decode(
                    data, nbits, count, book, chunk_size, offsets
                )
        finally:
            vectorized.DOUBLING_MAX_BITS = saved
    return out


@pytest.mark.parametrize(
    "name",
    [
        *_GOLDEN,
        *(
            f"v4-{field}-{i}"
            for field in _V4_FIELDS
            for i in range(_V4_BLOCKS)
        ),
    ],
)
def test_golden_blocks_decode_as_the_naive_decoder_does(name):
    blob, shared = _GOLDEN[name] if name in _GOLDEN else _v4_blobs()[name]
    block = CompressedBlock.from_bytes(blob)
    if block.codec != FORMAT_HUFFMAN:
        pytest.skip("self-coding stream format")
    book_blob = shared if block.used_shared_tree else block.codebook_blob
    book = codebook_from_bytes(book_blob)
    lengths = oracles.naive_codebook_lengths(book_blob)
    assert book.lengths.tolist() == lengths
    assert book.codes.tolist() == oracles.canonical_codes(lengths)

    count = math.prod(block.shape)
    data = lossless_decompress(block.payload)[: (block.nbits + 7) // 8]
    expected = oracles.naive_decode(data, block.nbits, count, lengths)
    offsets = (
        None
        if block.chunk_offsets is None
        else np.asarray(block.chunk_offsets, dtype=np.int64)
    )
    decoded = _all_decoders(
        data, block.nbits, count, book, block.chunk_size, offsets
    )
    if name.startswith("v4"):
        assert set(decoded) == {"pure", "reference", "doubling", "lockstep"}
    for decoder, symbols in decoded.items():
        assert symbols.dtype == np.uint16, decoder
        assert symbols.tolist() == expected, decoder


def _random_book(rng, n_symbols, depth):
    """A book over ``n_symbols`` with some symbols uncoded, no code
    longer than ``depth``; at least one symbol is coded."""
    weights = rng.geometric(0.3, size=n_symbols) ** 2
    weights[rng.random(n_symbols) < 0.3] = 0
    room = 1 << depth
    present = np.flatnonzero(weights)
    if present.size > room:
        weights[present[room:]] = 0
    if not weights.any():
        weights[int(rng.integers(n_symbols))] = 1
    return build_codebook(weights, max_length=depth)


def _stream(rng, book, count, chunk_size):
    coded = np.flatnonzero(book.lengths)
    symbols = rng.choice(coded, size=count).astype(np.uint16)
    return symbols, get_backend("numpy").encode(symbols, book, chunk_size)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_symbols=st.integers(1, 257),
    depth=st.integers(1, 16),
    chunk_size=st.sampled_from([1, 7, 256]),
    count=st.integers(1, 1500),
)
@settings(max_examples=80, deadline=None)
def test_random_streams_decode_as_the_naive_decoder_does(
    seed, n_symbols, depth, chunk_size, count
):
    rng = np.random.default_rng(seed)
    book = _random_book(rng, n_symbols, depth)
    assert book.max_length <= 16
    symbols, stream = _stream(rng, book, count, chunk_size)
    lengths = book.lengths.tolist()
    expected = oracles.naive_decode(stream.data, stream.nbits, count, lengths)
    assert expected == symbols.tolist()
    decoded = _all_decoders(
        stream.data, stream.nbits, count, book, chunk_size,
        stream.chunk_offsets,
    )
    for decoder, out in decoded.items():
        assert out.tolist() == expected, decoder


@given(
    seed=st.integers(0, 2**32 - 1),
    n_symbols=st.integers(1, 257),
    depth=st.integers(1, 16),
    drop=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_dense_tables_match_the_per_symbol_loop(seed, n_symbols, depth, drop):
    """Complete books, and books with up to three codes dropped (Kraft
    sum below 1: the table's tail matches no code)."""
    rng = np.random.default_rng(seed)
    lengths = _random_book(rng, n_symbols, depth).lengths.copy()
    coded = np.flatnonzero(lengths)
    if coded.size > drop:
        lengths[rng.choice(coded, size=drop, replace=False)] = 0
    book = codebook_from_bytes(
        codebook_to_bytes(huffman.Codebook(lengths, lengths.astype(np.uint64)))
    )
    symbols, widths = huffman.dense_decode_tables(book)
    expected = oracles.dense_tables(lengths.tolist())
    _assert_bitwise(symbols, expected[0])
    _assert_bitwise(widths, expected[1])


@pytest.mark.parametrize("side", ["at", "past"])
def test_streams_around_the_walk_threshold(side):
    """The largest stream the doubling walk takes and the smallest one
    the lockstep walk takes, both against the naive decoder."""
    rng = np.random.default_rng(41)
    book = _random_book(rng, 40, 12)
    symbols, _ = _stream(rng, book, 60_000, 256)
    bits = np.cumsum(book.lengths[symbols].astype(np.int64))
    fits = int(np.searchsorted(bits, vectorized.DOUBLING_MAX_BITS, "right"))
    count = fits if side == "at" else fits + 1
    stream = get_backend("numpy").encode(symbols[:count], book, 256)
    assert (stream.nbits <= vectorized.DOUBLING_MAX_BITS) == (side == "at")
    expected = oracles.naive_decode(
        stream.data, stream.nbits, count, book.lengths.tolist()
    )
    out = get_backend("numpy").decode(
        stream.data, stream.nbits, count, book, 256, stream.chunk_offsets
    )
    assert out.tolist() == expected == symbols[:count].tolist()


#: Trailing dims for 1-D to 4-D blocks: rows narrower and wider than
#: the 512 elements from which ``lorenzo_inverse`` adds row by row.
_TRAILING = ((), (5,), (600,), (3, 4), (2, 300), (2, 3, 4), (2, 2, 150))


def _shapes():
    for lead in (1, 2, 3, 64, 65, 300):
        for rest in _TRAILING:
            yield (lead, *rest)


def _restore(codes, radius, positions, values, bound, dtype):
    """The in-place inverse pipeline ``SZCompressor.decompress`` runs."""
    quantized = QuantizedDeltas(codes, radius, positions, values)
    grid = decode_codes(quantized)
    assert lorenzo_inverse(grid, out=grid) is grid
    return dequantize(grid, bound).astype(dtype, copy=False)


def _restore_oracle(codes, radius, positions, values, bound, dtype):
    grid = oracles.lorenzo_inverse(
        oracles.decode_codes(codes, radius, positions, values)
    )
    return oracles.dequantize(grid, bound, dtype)


def _assert_bitwise(got, expected):
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", list(_shapes()), ids=str)
def test_in_place_inverse_matches_the_oracle(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    radius = 128
    codes = rng.integers(0, 2 * radius + 1, size=shape).astype(np.uint16)
    size = codes.size
    # Outliers at the first and the last value, plus a few between.
    positions = np.unique(
        np.concatenate([[0, size - 1], rng.integers(0, size, size // 50)])
    ).astype(np.int64)
    codes.reshape(-1)[positions] = 2 * radius
    values = rng.integers(-(10**6), 10**6, positions.size)
    args = (codes, radius, positions, values, 1e-3, dtype)
    _assert_bitwise(_restore(*args), _restore_oracle(*args))


def test_in_place_inverse_wraps_like_the_oracle():
    """Outliers near 2^62 overflow int64 in the cumulative sums; the
    in-place sums must wrap exactly where the fresh ones do."""
    shape = (3, 24, 40)
    codes = np.full(shape, 128, dtype=np.uint16)
    positions = np.arange(0, codes.size, 97, dtype=np.int64)
    codes.reshape(-1)[positions] = 256
    values = np.full(positions.size, 2**62 - 7, dtype=np.int64)
    # Every delta is >= 0, so a negative sum can only be a wrap.
    assert (
        oracles.lorenzo_inverse(
            oracles.decode_codes(codes, 128, positions, values)
        ).min()
        < 0
    )
    args = (codes, 128, positions, values, 0.5, np.float64)
    _assert_bitwise(_restore(*args), _restore_oracle(*args))


@pytest.mark.parametrize(
    "shape", [(65, 3, 600), (2, 700), (0, 600), (3, 0), (0,)], ids=str
)
@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_lorenzo_inverse_without_out_keeps_cumsums_dtype(dtype, shape):
    rng = np.random.default_rng(5)
    deltas = rng.integers(0, 50, size=shape).astype(dtype)
    before = deltas.copy()
    got = lorenzo_inverse(deltas)
    _assert_bitwise(got, oracles.lorenzo_inverse(deltas))
    assert np.array_equal(deltas, before)


class TestKraftIsExact:
    """A float sum with a tolerance let lengths 1..40 plus two more 40s
    (Kraft sum 1 + 2^-40) through, and the last symbol got a 41-bit
    code under a declared length of 40."""

    @staticmethod
    def _blobs(lengths):
        lengths = np.array(lengths, dtype=np.uint8)
        book = huffman.Codebook(
            lengths=lengths, codes=np.zeros(lengths.size, dtype=np.uint64)
        )
        return {
            kind: codebook_to_bytes(book, kind)
            for kind in (huffman.CODEBOOK_KIND_RAW, huffman.CODEBOOK_KIND_RLE)
        }

    @pytest.mark.parametrize(
        "lengths",
        [
            [*range(1, 41), 40, 40],  # 1 + 2^-40
            [*range(1, 64), 63, 63],  # 1 + 2^-63
            [1, 1, 1],
        ],
        ids=["plus-2^-40", "plus-2^-63", "three-halves"],
    )
    def test_over_subscribed_books_are_refused(self, lengths):
        for kind, blob in self._blobs(lengths).items():
            with pytest.raises(ValueError, match="Kraft"):
                codebook_from_bytes(blob)
            with pytest.raises(ValueError, match="Kraft"):
                oracles.naive_codebook_lengths(blob)

    @pytest.mark.parametrize(
        "lengths",
        [[*range(1, 64), 63], [*range(1, 41), 40], [1, 1], [1], [0, 3, 0]],
        ids=["sum-1-depth-63", "sum-1-depth-40", "two-halves", "half",
             "eighth"],
    )
    def test_books_within_kraft_are_accepted(self, lengths):
        expected = oracles.canonical_codes(lengths)
        assert all(
            code < 2**length for code, length in zip(expected, lengths)
        )
        for kind, blob in self._blobs(lengths).items():
            book = codebook_from_bytes(blob)
            assert book.lengths.tolist() == lengths, kind
            assert book.codes.tolist() == expected, kind


class TestOutlierPositions:
    """``decompress`` used to trust the outlier positions: -1 decoded
    silently (the last value took the outlier), ``count`` raised a bare
    ``IndexError``."""

    @pytest.fixture(scope="class")
    def block(self):
        rng = np.random.default_rng(8)
        field = np.cumsum(rng.normal(size=(4, 16, 16)), axis=2)
        field[0, 0, 0] += 500.0
        field[1, 7, 3] -= 800.0
        field[-1, -1, -1] += 900.0
        block = SZCompressor().compress(field, 0.01)
        assert block.num_outliers >= 3
        return block

    @staticmethod
    def _with_position(block, index, position):
        body = bytearray(lossless_decompress(block.payload))
        offset = (block.nbits + 7) // 8 + 8 * index
        struct.pack_into("<q", body, offset, position)
        moved = CompressedBlock.from_bytes(block.to_bytes())
        moved.payload = lossless_compress(bytes(body))
        return moved

    @pytest.mark.parametrize("position", [-1, -(2**40), "count", "count+5"])
    def test_position_outside_the_block_is_named(self, block, position):
        count = math.prod(block.shape)
        if isinstance(position, str):
            position = count + (5 if position.endswith("+5") else 0)
        bad = self._with_position(block, 1, position)
        with pytest.raises(ValueError, match="outlier position"):
            SZCompressor().decompress(bad)

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_first_and_last_valid_positions_decode(self, block, where):
        count = math.prod(block.shape)
        position = 0 if where == "first" else count - 1
        index = 0 if where == "first" else block.num_outliers - 1
        moved = self._with_position(block, index, position)
        body = lossless_decompress(moved.payload)
        encoded_len = (block.nbits + 7) // 8
        positions, values = np.frombuffer(
            body, np.int64, 2 * block.num_outliers, encoded_len
        ).reshape(2, -1)
        codes = get_backend("numpy").decode(
            body[:encoded_len], block.nbits, count,
            codebook_from_bytes(block.codebook_blob), block.chunk_size,
            np.asarray(block.chunk_offsets, dtype=np.int64),
        ).reshape(block.shape)
        expected = _restore_oracle(
            codes, block.radius, positions, values, block.error_bound,
            block.dtype,
        )
        _assert_bitwise(SZCompressor().decompress(moved), expected)
