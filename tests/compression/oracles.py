"""Deliberately naive reference implementations of the decode path.

They share no code with ``repro.compression``: the Huffman oracle
builds code *strings* from the lengths by the textbook canonical rule
and walks the stream one bit at a time through a dict, and the codebook
oracle parses both blob layouts with plain Python and an exact
``Fraction`` Kraft sum.  The transform oracles are the straightforward
forms of the inverse pipeline (a fresh ``np.cumsum`` per axis, an
``astype`` before every arithmetic step) that the in-place versions in
``repro.compression`` must match bit for bit.
"""

from __future__ import annotations

import struct
from fractions import Fraction

import numpy as np


def canonical_code_strings(lengths) -> dict[str, int]:
    """``{code string: symbol}`` for a length vector: symbols sorted by
    (length, symbol), each code the previous one plus one, shifted left
    whenever the length grows."""
    coded = sorted(
        (int(length), symbol)
        for symbol, length in enumerate(lengths)
        if length
    )
    table = {}
    code = 0
    previous = coded[0][0] if coded else 0
    for length, symbol in coded:
        code <<= length - previous
        previous = length
        table[format(code, f"0{length}b")] = symbol
        code += 1
    return table


def canonical_codes(lengths) -> list[int]:
    """Per-symbol canonical code values (0 for uncoded symbols)."""
    codes = [0] * len(lengths)
    for text, symbol in canonical_code_strings(lengths).items():
        codes[symbol] = int(text, 2)
    return codes


def dense_tables(lengths) -> tuple[np.ndarray, np.ndarray]:
    """The ``2^max_length``-entry prefix tables, one code at a time:
    every entry a code prefixes holds its symbol and its length."""
    depth = max(lengths)
    symbols = np.zeros(1 << depth, dtype=np.uint16)
    widths = np.zeros(1 << depth, dtype=np.uint8)
    for text, symbol in canonical_code_strings(lengths).items():
        span = 1 << (depth - len(text))
        base = int(text, 2) * span
        symbols[base : base + span] = symbol
        widths[base : base + span] = len(text)
    return symbols, widths


def naive_decode(data: bytes, nbits: int, count: int, lengths) -> list:
    """Read ``count`` symbols from the first ``nbits`` bits of ``data``,
    one bit at a time; raises ``ValueError`` on a stream that does not
    decode to exactly ``count`` symbols in exactly ``nbits`` bits."""
    table = canonical_code_strings(lengths)
    longest = max((len(code) for code in table), default=0)
    bits = "".join(format(byte, "08b") for byte in data)[:nbits]
    if len(bits) < nbits:
        raise ValueError("stream shorter than its declared bits")
    out = []
    word = ""
    for bit in bits:
        word += bit
        if word in table:
            out.append(table[word])
            word = ""
        elif len(word) > longest:
            raise ValueError("bits that match no code")
    if word or len(out) != count:
        raise ValueError("declared bits do not hold the declared symbols")
    return out


def naive_codebook_lengths(blob: bytes) -> list[int]:
    """The per-symbol code lengths a codebook blob declares, under the
    rules of ``docs/formats.md``; ``ValueError`` for any blob a reader
    must refuse."""
    if len(blob) < 4:
        raise ValueError("no header")
    if blob[:4] == b"RCB2":
        if len(blob) < 12:
            raise ValueError("no run-length header")
        num_symbols, num_runs = struct.unpack("<II", blob[4:12])
        if len(blob) != 12 + 3 * num_runs:
            raise ValueError("runs do not fill the blob")
        runs = [
            struct.unpack("<BH", blob[i : i + 3])
            for i in range(12, len(blob), 3)
        ]
        if sum(count for _, count in runs) != num_symbols:
            raise ValueError("runs do not cover the symbols")
        lengths = [length for length, count in runs for _ in range(count)]
    else:
        (num_symbols,) = struct.unpack("<I", blob[:4])
        if len(blob) - 4 != num_symbols:
            raise ValueError("length bytes do not match the count")
        lengths = list(blob[4:])
    if num_symbols == 0:
        raise ValueError("no symbols")
    if max(lengths) > 63:
        raise ValueError("code longer than 63 bits")
    if sum(Fraction(1, 2**length) for length in lengths if length) > 1:
        raise ValueError("Kraft inequality violated")
    return lengths


def decode_codes(codes: np.ndarray, radius: int, positions, values):
    """Quantization codes back to Lorenzo deltas, outliers reinserted."""
    deltas = codes.reshape(-1).astype(np.int64) - radius
    deltas[positions] = values
    return deltas.reshape(codes.shape)


def lorenzo_inverse(deltas: np.ndarray) -> np.ndarray:
    """A fresh cumulative sum along every axis, last axis first."""
    values = deltas
    for axis in reversed(range(deltas.ndim)):
        values = np.cumsum(values, axis=axis)
    return values


def dequantize(grid: np.ndarray, error_bound: float, dtype) -> np.ndarray:
    """Grid indices to floats in float64, then cast to ``dtype``."""
    return (grid.astype(np.float64) * (2.0 * error_bound)).astype(dtype)
