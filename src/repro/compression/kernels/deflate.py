"""Deflate-style backend: distance-1 LZ77 run tokens + canonical Huffman.

Quantization-code streams from smooth fields are dominated by *runs* of
the zero-delta symbol.  This backend factors those runs out before
entropy coding, deflate-style: the stream becomes literal tokens (one
per symbol) interleaved with match tokens (*copy the previous symbol*
``n`` *times*, i.e. LZ77 restricted to distance 1 — the only distance
worth having on a unit-stride delta stream), then the token stream is
canonical-Huffman coded with a per-block book embedded in the stream.
Match lengths are bucketed exactly like deflate's length codes: a small
token alphabet of geometric buckets, each followed by plain extra bits.

On long-run fields this lands *below* the per-symbol entropy bound that
caps the plain Huffman backends; on run-free fields it degrades to plain
Huffman plus a few header bytes.  The stream (format ``RLZ1``) is
self-contained — no external codebook, so shared-tree scheduling does
not apply — and rides in the block payload under
``format_id = FORMAT_DEFLATE``.

Everything is vectorized: run detection via ``np.diff``, bucket lookup
via ``searchsorted``, token coding through the slab Huffman encoder, and
decode through the chunk-parallel numpy backend plus a windowed
extra-bits gather.  Only multi-piece matches (runs past ~66 k symbols)
touch a Python loop.
"""

from __future__ import annotations

import struct

import numpy as np

from .. import huffman
from .base import (
    CodecBackend,
    EncodedStream,
    FORMAT_DEFLATE,
)
from .vectorized import NumpyBackend

__all__ = ["DeflateBackend"]

_MAGIC = b"RLZ1"
_HEADER_FMT = "<4sIIIII"  # magic, tokens, token bits, extra bits,
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)  # book len, num chunks
_TOKEN_CHUNK = 256

#: A match replaces at least this many symbols (1 literal + match >= 3).
_MIN_RUN = 4

#: Match-length buckets, deflate-style: ``_LEN_BASE[b]`` is bucket ``b``'s
#: smallest plain length; ``_LEN_EXTRA[b]`` plain extra bits follow the
#: token to pick the exact length.  Last bucket spans up to 66562.
_LEN_BASE = np.array(
    [3, 4, 5, 6, 7, 8, 9, 10,
     11, 15, 19, 27, 35, 51, 67, 99, 131, 195, 259, 387, 515, 771, 1027],
    dtype=np.int64,
)
_LEN_EXTRA = np.array(
    [0, 0, 0, 0, 0, 0, 0, 0,
     2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 16],
    dtype=np.int64,
)
_NUM_LEN_TOKENS = int(_LEN_BASE.size)
_MAX_MATCH = int(_LEN_BASE[-1] + (1 << _LEN_EXTRA[-1]) - 1)


def _tokenize(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Turn a symbol stream into (tokens, extra values, num_literals).

    ``tokens[i] < S`` is a literal; ``tokens[i] = S + b`` a match in
    length bucket ``b`` whose exact length is ``_LEN_BASE[b] +
    extras[i]``.  ``extras`` is aligned with ``tokens`` (0 for literals).
    """
    n = flat.size
    num_symbols = int(flat.max()) + 1
    change = np.flatnonzero(np.diff(flat.astype(np.int64)) != 0) + 1
    run_starts = np.concatenate(([0], change))
    run_lens = np.diff(np.concatenate((run_starts, [n])))

    big = run_lens >= _MIN_RUN
    big_starts = run_starts[big]
    big_lens = run_lens[big]

    # Literals: every symbol not covered by a match — i.e. everything
    # except positions 1.. of each big run.
    covered_delta = np.zeros(n + 1, dtype=np.int64)
    np.add.at(covered_delta, big_starts + 1, 1)
    np.add.at(covered_delta, big_starts + big_lens, -1)
    keep = np.cumsum(covered_delta[:-1]) == 0
    lit_pos = np.flatnonzero(keep)
    lit_tok = flat[lit_pos].astype(np.int64)

    # Matches: one piece per big run in the overwhelmingly common case.
    single = big_lens - 1 <= _MAX_MATCH
    match_pos_list = [big_starts[single] + 1]
    match_len_list = [big_lens[single] - 1]
    for start, run in zip(
        big_starts[~single].tolist(), big_lens[~single].tolist()
    ):
        rem = run - 1
        anchor = start + 1
        while rem:
            piece = min(rem, _MAX_MATCH)
            if 0 < rem - piece < _LEN_BASE[0]:
                piece = rem - int(_LEN_BASE[0])
            match_pos_list.append(np.array([anchor], dtype=np.int64))
            match_len_list.append(np.array([piece], dtype=np.int64))
            anchor += piece
            rem -= piece
    match_pos = np.concatenate(match_pos_list)
    match_len = np.concatenate(match_len_list)
    bucket = np.searchsorted(_LEN_BASE, match_len, side="right") - 1
    match_tok = num_symbols + bucket
    match_extra = match_len - _LEN_BASE[bucket]

    # Interleave literals and matches back into stream order.  Every
    # match anchor position is covered, so positions are all distinct.
    order = np.argsort(
        np.concatenate((lit_pos, match_pos)), kind="stable"
    )
    tokens = np.concatenate((lit_tok, match_tok))[order]
    extras = np.concatenate(
        (np.zeros(lit_tok.size, dtype=np.int64), match_extra)
    )[order]
    return tokens, extras, num_symbols


class DeflateBackend(CodecBackend):
    """Run-collapsing LZ77+Huffman codec with an embedded token book."""

    name = "deflate"
    format_id = FORMAT_DEFLATE
    uses_codebook = False
    # Token alphabets stay small (symbols + 23 length buckets), so the
    # embedded book is length-limited for the numpy decoder too.
    #: Measured on the Nyx-like bench fields: runs collapse the token
    #: count well below the symbol count, landing bits/symbol under the
    #: per-symbol entropy bound.
    ratio_entropy_factor = 0.85
    fixed_overhead_bytes = 104  # block header + RLZ1 header + RCB2 book
    throughput_factor = 0.8  # tokenize + token coding vs plain Huffman
    builds_tree = True  # per-block token tree

    def encode(
        self,
        symbols: np.ndarray,
        codebook: huffman.Codebook | None = None,
        chunk_size: int = 0,
    ) -> EncodedStream:
        # ``codebook``/``chunk_size`` are part of the backend contract but
        # unused: the stream embeds its own token book and chunk index.
        flat = np.ascontiguousarray(symbols).reshape(-1)
        if flat.size == 0:
            stream = _MAGIC + struct.pack("<IIIII", 0, 0, 0, 0, 0)
            return EncodedStream(
                data=stream,
                nbits=8 * len(stream),
                chunk_size=0,
                chunk_offsets=np.zeros(0, dtype=np.uint64),
            )
        if np.any(flat < 0):
            raise ValueError("deflate backend encodes unsigned symbols")
        tokens, extras, num_symbols = _tokenize(flat)
        num_tokens = int(tokens.size)
        if num_symbols + _NUM_LEN_TOKENS > np.iinfo(np.uint16).max + 1:
            raise ValueError(
                f"deflate backend supports symbol alphabets up to "
                f"{np.iinfo(np.uint16).max + 1 - _NUM_LEN_TOKENS}, "
                f"got {num_symbols}"
            )
        hist = np.bincount(
            tokens, minlength=num_symbols + _NUM_LEN_TOKENS
        )
        max_length = (
            huffman.TABLE_DECODE_MAX_LEN
            if hist.size <= 1 << huffman.TABLE_DECODE_MAX_LEN
            else NumpyBackend.decode_max_length
        )
        book = huffman.build_codebook(hist, max_length=max_length)
        book_blob = huffman.codebook_to_bytes(book)
        token_bytes, token_nbits, offsets = huffman.encode_with_offsets(
            tokens, book, _TOKEN_CHUNK
        )
        match = tokens >= num_symbols
        widths = np.where(
            match, _LEN_EXTRA[np.where(match, tokens - num_symbols, 0)], 0
        )
        extra_bytes, extra_nbits = huffman.pack_bits(
            extras[widths > 0], widths[widths > 0]
        )
        stream = (
            struct.pack(
                _HEADER_FMT,
                _MAGIC,
                num_tokens,
                token_nbits,
                extra_nbits,
                len(book_blob),
                offsets.size,
            )
            + book_blob
            + offsets.astype(np.uint32).tobytes()
            + token_bytes
            + extra_bytes
        )
        return EncodedStream(
            data=stream,
            nbits=8 * len(stream),
            chunk_size=0,
            chunk_offsets=np.zeros(0, dtype=np.uint64),
        )

    def decode(
        self,
        data: bytes,
        nbits: int,
        count: int,
        codebook: huffman.Codebook | None = None,
        chunk_size: int = 0,
        chunk_offsets: np.ndarray | None = None,
    ) -> np.ndarray:
        if len(data) < _HEADER_SIZE:
            raise ValueError(
                f"truncated deflate stream: {len(data)} bytes cannot "
                "hold the header"
            )
        (
            magic,
            num_tokens,
            token_nbits,
            extra_nbits,
            book_len,
            num_chunks,
        ) = struct.unpack(_HEADER_FMT, data[:_HEADER_SIZE])
        if magic != _MAGIC:
            raise ValueError("corrupt deflate stream: bad magic")
        if num_tokens == 0:
            if count != 0:
                raise ValueError(
                    "corrupt deflate stream: no tokens but "
                    f"{count} symbols are declared"
                )
            return np.zeros(0, dtype=np.uint16)

        def take(offset: int, nbytes: int, what: str) -> bytes:
            if len(data) < offset + nbytes:
                raise ValueError(
                    f"truncated deflate stream: {what} needs bytes "
                    f"{offset}..{offset + nbytes} but the stream has "
                    f"only {len(data)}"
                )
            return data[offset : offset + nbytes]

        offset = _HEADER_SIZE
        book = huffman.codebook_from_bytes(
            take(offset, book_len, "token codebook")
        )
        offset += book_len
        offsets = np.frombuffer(
            take(offset, 4 * num_chunks, "token chunk offsets"),
            dtype=np.uint32,
        ).astype(np.int64)
        offset += 4 * num_chunks
        token_bytes = take(
            offset, (token_nbits + 7) // 8, "token bits"
        )
        offset += (token_nbits + 7) // 8
        extra_bytes = take(
            offset, (extra_nbits + 7) // 8, "match extra bits"
        )

        num_symbols = book.num_symbols - _NUM_LEN_TOKENS
        if num_symbols < 1:
            raise ValueError(
                "corrupt deflate stream: token codebook smaller than "
                "the length-token alphabet"
            )
        tokens = (
            NumpyBackend()
            .decode(
                token_bytes,
                token_nbits,
                num_tokens,
                book,
                _TOKEN_CHUNK,
                offsets,
            )
            .astype(np.int64)
        )
        literal = tokens < num_symbols
        # Decoded tokens never exceed the book, so match buckets are in
        # range by construction; clamp literals' negatives for indexing.
        buckets = np.where(literal, 0, tokens - num_symbols)
        widths = np.where(literal, 0, _LEN_EXTRA[buckets])
        extras = np.zeros(tokens.size, dtype=np.int64)
        has_extra = widths > 0
        picked = huffman.unpack_bits(extra_bytes, widths[has_extra])
        if int(widths[has_extra].sum()) != extra_nbits:
            raise ValueError(
                "corrupt deflate stream: extra bits disagree with the "
                "decoded match tokens"
            )
        extras[has_extra] = picked

        # A match copies the nearest preceding literal's value.
        src = np.where(literal, np.arange(tokens.size), -1)
        np.maximum.accumulate(src, out=src)
        if int(src[0]) < 0:
            raise ValueError(
                "corrupt deflate stream: match token with no preceding "
                "literal"
            )
        counts = np.where(literal, 1, _LEN_BASE[buckets] + extras)
        total = int(counts.sum())
        if total != count:
            raise ValueError(
                f"corrupt deflate stream: tokens expand to {total} "
                f"symbols but {count} are declared"
            )
        values = tokens[src]
        return np.repeat(values, counts).astype(np.uint16)
