"""Byte-mutation fuzzing of standalone codebook blobs.

Every single-byte flip, every truncation and a few extensions of
run-length (``RCB2``) and raw blobs — from real Nyx and WarpX blocks and
from random books — has exactly two allowed outcomes: the ``Codebook``
the naive parser of ``oracles.py`` reads from the same bytes, or a
``ValueError``.  Anything else (``IndexError``, ``OverflowError``,
``struct.error``, ...) propagates and fails the test.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import NyxModel, WarpXModel
from repro.compression import (
    SZCompressor,
    build_codebook,
    codebook_from_bytes,
    codebook_to_bytes,
    huffman,
)
from tests.compression import oracles

_KINDS = {"rle": huffman.CODEBOOK_KIND_RLE, "raw": huffman.CODEBOOK_KIND_RAW}
#: XOR masks of a single-byte flip: the low bit, the high bit, all bits.
_FLIPS = (0x01, 0x80, 0xFF)
_EXTENSIONS = (b"\x00", b"\x01", b"\xff", b"\x01\x00\x00", b"\x00" * 7)


def _outcome(blob: bytes):
    """``("ok", lengths, codes)`` or ``("error",)`` for the parser, with
    anything but a ``ValueError`` left to propagate."""
    try:
        book = codebook_from_bytes(blob)
    except ValueError:
        return ("error",)
    assert book.lengths.dtype == np.uint8
    assert book.codes.dtype == np.uint64
    return ("ok", book.lengths.tolist(), book.codes.tolist())


def _oracle(blob: bytes):
    try:
        lengths = oracles.naive_codebook_lengths(blob)
    except ValueError:
        return ("error",)
    return ("ok", lengths, oracles.canonical_codes(lengths))


def _mutations(blob: bytes):
    for index in range(len(blob)):
        for mask in _FLIPS:
            flipped = bytearray(blob)
            flipped[index] ^= mask
            yield bytes(flipped)
    for cut in range(len(blob)):
        yield blob[:cut]
    for tail in _EXTENSIONS:
        yield blob + tail


def _check_all_mutations(blob: bytes) -> set[str]:
    assert _outcome(blob) == _oracle(blob) != ("error",)
    verdicts = set()
    for mutated in _mutations(blob):
        got = _outcome(mutated)
        assert got == _oracle(mutated), mutated
        verdicts.add(got[0])
    return verdicts


@functools.lru_cache(maxsize=None)
def _real_books():
    """The native codebooks of a few real 64 KiB blocks."""
    compressor = SZCompressor()
    books = {}
    nyx = NyxModel(seed=23, partition_shape=(32,) * 3)
    for name in ("baryon_density", "temperature", "velocity_x"):
        field = nyx.generate_field(name, 0, 12)
        block = compressor.compress(field[:8], nyx.field(name).error_bound)
        books[f"nyx-{name}"] = codebook_from_bytes(block.codebook_blob)
    warpx = WarpXModel(seed=23, partition_shape=(32,) * 3)
    for name in ("Ex", "By"):
        field = warpx.generate_field(name, 0, 12)
        block = compressor.compress(field[:8], warpx.field(name).error_bound)
        books[f"warpx-{name}"] = codebook_from_bytes(block.codebook_blob)
    return books


_REAL = ("nyx-baryon_density", "nyx-temperature", "nyx-velocity_x",
         "warpx-Ex", "warpx-By")


@pytest.mark.parametrize("kind", list(_KINDS))
@pytest.mark.parametrize("source", _REAL)
def test_real_block_codebooks_survive_every_mutation(source, kind):
    blob = codebook_to_bytes(_real_books()[source], _KINDS[kind])
    assert (blob[:4] == b"RCB2") == (kind == "rle")
    # Some flips keep a valid book (a length swapped for another that
    # still satisfies Kraft), most are refused.
    assert _check_all_mutations(blob) == {"ok", "error"}


@given(
    seed=st.integers(0, 2**32 - 1),
    n_symbols=st.integers(1, 40),
    depth=st.integers(1, 16),
    kind=st.sampled_from(sorted(_KINDS)),
)
@settings(max_examples=30, deadline=None)
def test_random_codebooks_survive_every_mutation(seed, n_symbols, depth, kind):
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 50, size=n_symbols) ** 2
    present = np.flatnonzero(weights)
    weights[present[1 << depth :]] = 0
    if not weights.any():
        weights[0] = 1
    book = build_codebook(weights, max_length=depth)
    _check_all_mutations(codebook_to_bytes(book, _KINDS[kind]))


def test_real_books_are_checked_as_runs():
    """The run-length blobs the fuzz starts from are what the encoder
    writes: a handful of runs, and the sentinel always coded."""
    for name, book in _real_books().items():
        blob = codebook_to_bytes(book)
        assert blob[:4] == b"RCB2", name
        assert book.lengths[2 * SZCompressor().radius] > 0, name
