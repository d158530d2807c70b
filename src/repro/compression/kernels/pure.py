"""Reference backend: the per-symbol Python encode/decode loops.

This is the behavioural baseline the vectorized backend is tested
against — bit-for-bit identical output on every valid stream, the same
``ValueError`` on every corrupt one.  It ignores the chunk index (the
stream is one contiguous bit sequence) apart from sanity-checking it,
and its encoder is the per-symbol bit-accumulator loop the slab
encoder's speedup is benchmarked against (``codec.encode.*``).
"""

from __future__ import annotations

import numpy as np

from .. import huffman
from .base import (
    DEFAULT_CHUNK_SIZE,
    CodecBackend,
    EncodedStream,
    expected_num_chunks,
)

__all__ = [
    "PureBackend",
    "encode_reference",
    "offsets_reference",
    "decode_walk",
]


class PureBackend(CodecBackend):
    """Sequential canonical/table codec (no numpy in the hot loops)."""

    name = "pure"

    def encode(
        self,
        symbols: np.ndarray,
        codebook: huffman.Codebook | None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> EncodedStream:
        if codebook is None:
            raise ValueError(
                f"backend {self.name!r} encodes against a codebook"
            )
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        flat = symbols.reshape(-1)
        data, nbits = encode_reference(flat, codebook)
        offsets = offsets_reference(flat, codebook, chunk_size)
        return EncodedStream(
            data=data,
            nbits=nbits,
            chunk_size=chunk_size,
            chunk_offsets=offsets,
        )

    def decode(
        self,
        data: bytes,
        nbits: int,
        count: int,
        codebook: huffman.Codebook | None,
        chunk_size: int = 0,
        chunk_offsets: np.ndarray | None = None,
    ) -> np.ndarray:
        if codebook is None:
            raise ValueError(
                f"backend {self.name!r} decodes against a codebook"
            )
        if chunk_offsets is not None:
            expected_num_chunks(count, chunk_size, chunk_offsets)
        return huffman.decode(data, nbits, count, codebook)


def encode_reference(
    symbols: np.ndarray, codebook: huffman.Codebook
) -> tuple[bytes, int]:
    """Per-symbol Python reference encoder.

    Bit-for-bit identical to :func:`repro.compression.huffman.encode` on
    every valid input and the same ``ValueError`` on uncoded symbols — the
    behavioural baseline the vectorized slab encoder is tested (and
    benchmarked) against.
    """
    flat = np.asarray(symbols).reshape(-1)
    if flat.size == 0:
        return b"", 0
    lengths = codebook.lengths.tolist()
    codes = codebook.codes.tolist()
    buf = bytearray()
    acc = 0
    acc_bits = 0
    nbits = 0
    for s in flat.tolist():
        length = lengths[s]
        if length == 0:
            raise ValueError(f"symbol {int(s)} has no code in this codebook")
        acc = (acc << length) | codes[s]
        acc_bits += length
        nbits += length
        while acc_bits >= 8:
            acc_bits -= 8
            buf.append((acc >> acc_bits) & 0xFF)
        acc &= (1 << acc_bits) - 1
    if acc_bits:
        buf.append((acc << (8 - acc_bits)) & 0xFF)
    return bytes(buf), nbits


def offsets_reference(
    flat: np.ndarray, codebook: huffman.Codebook, chunk_size: int
) -> np.ndarray:
    """Chunk start bits via a bounded cumulative walk (fallback path)."""
    if not chunk_size:
        return np.zeros(0, dtype=np.uint64)
    num_chunks = -(-flat.size // chunk_size)
    offsets = np.zeros(num_chunks, dtype=np.uint64)
    bit = 0
    lens = codebook.lengths
    for c in range(num_chunks):
        offsets[c] = bit
        piece = flat[c * chunk_size : (c + 1) * chunk_size]
        bit += int(lens[piece].astype(np.int64).sum())
    return offsets


def decode_walk(
    data: bytes, nbits: int, count: int, codebook: huffman.Codebook
) -> np.ndarray:
    """Canonical-walk decoder for books deeper than the dense table
    (what :func:`repro.compression.huffman.decode` falls back to)."""
    first_code, order = _canonical_decode_tables(codebook)
    max_len = codebook.max_length
    out = np.empty(count, dtype=np.uint16)
    # Integer bit buffer: consume bytes on demand, peel one code at a time.
    buffer = 0
    buffered = 0
    pos = 0  # next byte
    consumed_bits = 0
    for i in range(count):
        # Ensure enough bits for the longest possible code.
        while buffered < max_len and pos < len(data):
            buffer = (buffer << 8) | data[pos]
            pos += 1
            buffered += 8
        length = 1
        # Canonical walk: find the shortest length whose range contains
        # the leading bits.
        while True:
            prefix = (buffer >> (buffered - length)) & ((1 << length) - 1)
            fc = first_code[length]
            if fc is not None and prefix < fc[1]:
                symbol = order[fc[0] + (prefix - fc[2])]
                break
            length += 1
            if length > max_len:
                raise ValueError("corrupt Huffman stream")
        buffered -= length
        buffer &= (1 << buffered) - 1
        consumed_bits += length
        out[i] = symbol
    if consumed_bits != nbits:
        raise ValueError(
            f"decoded {consumed_bits} bits but stream declared {nbits}"
        )
    return out


def _canonical_decode_tables(codebook: huffman.Codebook):
    """Per-length (start_index, limit_code, first_code) decode tables.

    ``first_code[L]`` is ``None`` when no code of length ``L`` exists;
    otherwise ``(start_index, limit, first)`` where codes ``first..limit-1``
    of length ``L`` map to ``order[start_index + (code - first)]``.
    """
    lengths = codebook.lengths
    order = sorted(
        (int(s) for s in np.flatnonzero(lengths > 0)),
        key=lambda s: (int(lengths[s]), s),
    )
    order_arr = np.array(order, dtype=np.uint16) if order else np.zeros(
        0, dtype=np.uint16
    )
    max_len = codebook.max_length
    first_code: list[tuple[int, int, int] | None] = [None] * (max_len + 1)
    idx = 0
    code = 0
    prev_len = 0
    while idx < len(order):
        length = int(lengths[order[idx]])
        code <<= length - prev_len
        start_idx = idx
        first = code
        while idx < len(order) and int(lengths[order[idx]]) == length:
            idx += 1
            code += 1
        first_code[length] = (start_idx, code, first)
        prev_len = length
    return first_code, order_arr
