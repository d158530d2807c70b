"""Equivalence of the two Huffman decode paths (table vs canonical walk)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import build_codebook, decode, encode
from repro.compression.huffman import (
    TABLE_DECODE_MAX_LEN,
    _decode_table,
)


def _skewed_symbols(rng, n_symbols, count):
    probs = 1.0 / np.arange(1, n_symbols + 1)
    probs /= probs.sum()
    return rng.choice(n_symbols, size=count, p=probs).astype(np.uint16)


class TestDecoderPaths:
    def test_shallow_book_uses_table(self, rng):
        symbols = _skewed_symbols(rng, 40, 5000)
        hist = np.bincount(symbols, minlength=40)
        book = build_codebook(hist, max_length=TABLE_DECODE_MAX_LEN)
        assert book.max_length <= TABLE_DECODE_MAX_LEN
        data, nbits = encode(symbols, book)
        assert np.array_equal(
            decode(data, nbits, symbols.size, book), symbols
        )

    def test_paths_agree(self, rng):
        symbols = _skewed_symbols(rng, 100, 8000)
        hist = np.bincount(symbols, minlength=100)
        book = build_codebook(hist, max_length=10)
        data, nbits = encode(symbols, book)
        via_table = _decode_table(data, nbits, symbols.size, book)
        via_dispatch = decode(data, nbits, symbols.size, book)
        assert np.array_equal(via_table, via_dispatch)
        assert np.array_equal(via_table, symbols)

    def test_table_detects_truncation(self, rng):
        symbols = _skewed_symbols(rng, 20, 500)
        hist = np.bincount(symbols, minlength=20)
        book = build_codebook(hist, max_length=8)
        data, nbits = encode(symbols, book)
        with pytest.raises(ValueError):
            decode(data[: len(data) // 4], nbits, symbols.size, book)

    def test_table_detects_bit_count_mismatch(self, rng):
        symbols = _skewed_symbols(rng, 20, 500)
        hist = np.bincount(symbols, minlength=20)
        book = build_codebook(hist, max_length=8)
        data, nbits = encode(symbols, book)
        with pytest.raises(ValueError, match="decoded"):
            decode(data, nbits + 3, symbols.size, book)

    def test_single_symbol_book_table_path(self):
        book = build_codebook(np.array([0, 9, 0]))
        symbols = np.full(64, 1, dtype=np.uint16)
        data, nbits = encode(symbols, book)
        assert nbits == 64
        assert np.array_equal(decode(data, nbits, 64, book), symbols)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_symbols=st.integers(min_value=2, max_value=64),
    limit=st.integers(min_value=7, max_value=TABLE_DECODE_MAX_LEN),
)
@settings(max_examples=40, deadline=None)
def test_limited_books_always_round_trip(seed, n_symbols, limit):
    if 2**limit < n_symbols:
        return
    rng = np.random.default_rng(seed)
    symbols = _skewed_symbols(rng, n_symbols, 400)
    hist = np.bincount(symbols, minlength=n_symbols)
    book = build_codebook(hist, max_length=limit)
    data, nbits = encode(symbols, book)
    assert np.array_equal(decode(data, nbits, 400, book), symbols)
