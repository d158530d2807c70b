"""Numpy-vectorized batch Huffman codec.

Encoding comes from the slab encoder in :mod:`repro.compression.huffman`
(inherited through :meth:`CodecBackend.encode` → ``encode_chunked``).
Each slab skips the symbol whose canonical code word is all zero bits —
it only advances the bit cursor — and handles the rest with uint8
length and uint32 code gathers, one cumulative sum for their start bits
and the chunk offsets, and one ``np.bincount`` that ORs their code bits
into a preallocated buffer.  Working memory is bounded by the slab size
no matter how long the stream is, and the output is bit-identical to the
``pure`` backend's per-symbol loop.

The per-symbol decode loop is inherently sequential *within* a bit
stream: a symbol's start position is only known once the previous symbol's
length is.  The chunk index recorded at encode time breaks exactly that
dependency — every chunk's start bit is in the v2 block header — and the
decoder iterates one step function from every chunk start at once::

    next(p) = p + len(code starting at bit p)     for p < nbits
            = OVERFLOW (= nbits + 1, absorbing)   if that runs past
              nbits, if no code starts at p, or if p >= nbits

Two walks iterate it; which one runs depends only on the stream's
declared bit length (:data:`DOUBLING_MAX_BITS`):

* **Lockstep** (long streams).  Step ``i`` decodes symbol ``i`` of
  *every* chunk with dense-table gathers: ``chunk_size`` Python-level
  steps of ~10 numpy calls over ``num_chunks``-wide arrays.  Cost is
  O(symbols) element-ops, but the interpreter cost is fixed at
  ``chunk_size`` steps, so it only pays off when there are hundreds of
  chunks to spread it over.
* **Pointer doubling** (short streams — every 64 KiB data-plane block).
  ``next`` is tabulated once for *every bit position* of the stream —
  one gather of code lengths by prefix, plus the position, clamped to
  the overflow — and squared three times to ``next^8``.  Each chunk then
  walks its anchors (every 8th symbol) with ``next^8``, and the seven
  symbol starts after each anchor come from ``next``, ``next^2`` and
  ``next^4`` in three doubling fills; all symbols are read with one
  gather.  O(nbits · log 8) element-ops for the squarings, O(symbols)
  for the fills, and ``chunk_size / 8`` small anchor steps.

Both end with the same check — the position after each chunk's last
symbol must be the next chunk's recorded start (``nbits`` for the final
chunk) — and, iterating the identical ``next``, return the same symbols
and reject the same streams.  The absorbing overflow position is what
makes a too-short declared ``nbits`` observable: a cursor clamped to
``nbits`` itself would sit on a *legal* end and pass that check.

Cost, per 64 KiB Nyx block (~13 kbit, 32 chunks; seed 23, 2-core
host): the doubling walk takes ~255 µs where the seven squarings that
filled all 256 positions of a chunk took ~350 µs.  About a third of it
builds the per-position tables (``prefix`` and ``next``), a quarter is
the three squarings, a sixth the 31 anchor steps, and most of the rest
the two final gathers that read the symbols.

Bit windows are read through a precomputed 24-bit sliding-word array
(``w24[i]`` holds bytes ``i..i+2`` big-endian), so fetching the next
``max_length`` bits at any bit position is a single gather plus a shift —
no ``np.unpackbits`` blow-up of the whole stream into one byte per bit.
This caps the fast path at 16-bit codes (24 window bits minus up to 7
alignment bits); deeper codebooks — which the SZ layer never produces,
its books are length-limited to 12 — fall back to the reference walk.
"""

from __future__ import annotations

import numpy as np

from .. import huffman
from .base import CodecBackend, expected_num_chunks

__all__ = ["NumpyBackend", "DOUBLING_MAX_BITS"]

_WINDOW_BITS = 24

#: Streams declaring at most this many bits decode by pointer doubling,
#: longer ones by the lockstep walk.  Doubling does O(nbits) element-ops
#: per squaring plus ``chunk_size / 8`` small anchor steps, against the
#: lockstep's fixed ``chunk_size`` interpreter steps, so it wins while
#: the stream is short and loses once there are enough chunks to
#: amortize those steps.  Measured on the 2-core host at the default
#: chunk size, median ms lockstep vs doubling, at 4.4 bits/symbol:
#: 13 kbit 3.0 vs 0.31; 25 kbit 3.0 vs 1.0; 60 kbit 3.0 vs 2.5; 100 kbit
#: 3.2 vs 4.3; 130 kbit 3.4 vs 6.9; 250 kbit 4.2 vs 13.1 (at 2.1
#: bits/symbol: 66 kbit 3.2 vs 1.3; 111 kbit 3.9 vs 6.5).  The curves
#: cross between 60 and 100 kbit there, below the constant, which keeps
#: every 64 KiB float64 block (8 192 symbols at the 12-bit build limit:
#: <= 98 304 bits) on the doubling walk; a Nyx block (~13 kbit) is far
#: below the crossing either way.
DOUBLING_MAX_BITS = 1 << 17

#: The doubling walk squares ``next`` this many times (to ``next^8``)
#: and walks each chunk from anchor to anchor with the last power.  A
#: squaring is a gather over every bit position of the stream, an anchor
#: step one over the chunk starts.  On a 64 KiB Nyx block (~13 kbit,
#: 32 chunks of 256 symbols) three squarings and 31 anchor steps take
#: ~20 % less time than the seven squarings that fill all 256 positions;
#: four squarings and 15 steps time the same as three but keep one more
#: stream-sized table alive, which costs page faults in a restore.
_ANCHOR_LEVELS = 3


def _walk_lockstep(
    w24: np.ndarray,
    symbols_table: np.ndarray,
    advance: np.ndarray,
    depth: int,
    nbits: int,
    starts: np.ndarray,
    chunk_size: int,
    last_count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance every chunk one symbol per step; returns the
    ``(num_chunks, chunk_size)`` symbol matrix and each chunk's position
    after its last symbol."""
    out = np.zeros((starts.size, chunk_size), dtype=np.uint16)
    base_shift = _WINDOW_BITS - depth
    mask = (1 << depth) - 1
    overflow = nbits + 1
    # No per-step validity checks: a corrupt chunk's cursor lands on the
    # absorbing overflow position and the caller's end-of-walk
    # comparison rejects the stream.  ``overflow >> 3`` is still inside
    # ``w24``, so every gather stays in bounds without branching.
    pos = starts.copy()
    active = pos
    for step in range(chunk_size):
        if step == last_count:
            # Only the (possibly short) final chunk goes idle early;
            # freeze it by shrinking the working view once.
            active = pos[:-1]
        prefix = (w24[active >> 3] >> (base_shift - (active & 7))) & mask
        out[: active.size, step] = symbols_table[prefix]
        np.minimum(active + advance[prefix], overflow, out=active)
    return out, pos


def _walk_doubling(
    w24: np.ndarray,
    symbols_table: np.ndarray,
    advance: np.ndarray,
    depth: int,
    nbits: int,
    starts: np.ndarray,
    chunk_size: int,
    last_count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Same contract as :func:`_walk_lockstep`: tabulate ``next`` for
    every bit position, square it up to ``next^8``, walk each chunk's
    anchors (every 8th symbol) with that, and fill the symbols between
    anchors with the lower powers."""
    overflow = nbits + 1
    # prefix[p] = the ``depth`` bits starting at bit p, for every
    # p <= overflow: each sliding word serves its byte's eight
    # alignments, and ``w24`` has one entry more than the stream has
    # bytes.
    shifts = (_WINDOW_BITS - depth) - np.arange(8, dtype=np.intp)
    prefix = (w24[:, None] >> shifts).reshape(-1)[: overflow + 1]
    prefix &= (1 << depth) - 1

    # next(p) = p + the length at p: one gather and two in-place
    # passes.  From ``nbits`` on, every position is the overflow.
    step = advance.take(prefix)
    step += np.arange(step.size, dtype=np.intp)
    np.minimum(step, overflow, out=step)
    step[nbits:] = overflow

    # jumps[k] = next^(2^k).  Every index below is a position the
    # tables produced, so ``mode="clip"`` never clips: it only lets
    # ``take`` write into ``out`` unbuffered.
    levels = min(_ANCHOR_LEVELS, int(chunk_size - 1).bit_length())
    spacing = 1 << levels
    anchors_per_chunk = -(-chunk_size // spacing)
    jumps = [step]
    for _ in range(levels - (anchors_per_chunk == 1)):
        jumps.append(jumps[-1].take(jumps[-1]))

    # pos[j, a, c] = the start of symbol ``a * spacing + j`` of chunk c.
    pos = np.empty((spacing, anchors_per_chunk, starts.size), dtype=np.intp)
    anchors = pos[0]
    anchors[0] = starts
    for a in range(1, anchors_per_chunk):
        jumps[levels].take(anchors[a - 1], out=anchors[a], mode="clip")
    for k, jump in enumerate(jumps[:levels]):
        width = 1 << k
        jump.take(pos[:width], out=pos[width : 2 * width], mode="clip")

    last = chunk_size - 1
    final = step.take(pos[last % spacing, last // spacing])
    last = last_count - 1  # the final chunk may be short
    final[-1] = step[pos[last % spacing, last // spacing, -1]]
    symbols = symbols_table.take(prefix.take(pos)).transpose(2, 1, 0)
    return symbols.reshape(starts.size, -1)[:, :chunk_size], final


class NumpyBackend(CodecBackend):
    """Chunk-parallel dense-table decoder."""

    name = "numpy"
    decode_max_length = _WINDOW_BITS - 8  # 16: window minus bit alignment

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
        if count == 0:
            return np.zeros(0, dtype=np.uint16)
        depth = codebook.max_length
        if depth == 0:
            raise ValueError(
                "corrupt Huffman stream: codebook has no codes but "
                f"{count} symbols are declared"
            )
        if chunk_offsets is None or depth > self.decode_max_length:
            # v1 blobs carry no chunk index; pathological codebooks
            # exceed the 24-bit window.  Both take the reference path.
            return huffman.decode(data, nbits, count, codebook)
        num_chunks = expected_num_chunks(count, chunk_size, chunk_offsets)
        if 8 * len(data) < nbits:
            raise ValueError(
                f"corrupt Huffman stream: {len(data)} bytes cannot hold "
                f"the declared {nbits} bits"
            )

        starts = np.asarray(chunk_offsets, dtype=np.int64)
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = nbits
        if (starts > ends).any():
            raise ValueError(
                "corrupt Huffman stream: chunk offsets not increasing"
            )

        symbols_table, lengths_table = huffman.dense_decode_tables(codebook)
        # A prefix no code starts with (table length 0) advances straight
        # to the overflow position, like a code that runs past ``nbits``.
        advance = np.where(
            lengths_table, lengths_table.astype(np.intp), nbits + 1
        )

        # w24[i] = bytes i..i+2, big-endian; 3 zero bytes of padding keep
        # the windows of the final bit positions in bounds.
        padded = np.frombuffer(bytes(data) + bytes(3), np.uint8)
        padded = padded.astype(np.intp)
        w24 = padded[:-2] << 16
        w24 |= padded[1:-1] << 8
        w24 |= padded[2:]

        walk = _walk_doubling if nbits <= DOUBLING_MAX_BITS else _walk_lockstep
        out, final = walk(
            w24,
            symbols_table,
            advance,
            depth,
            nbits,
            starts,
            chunk_size,
            count - (num_chunks - 1) * chunk_size,
        )
        if int(final.max()) > nbits:
            raise ValueError(
                "corrupt Huffman stream: a chunk runs past the declared "
                f"{nbits} bits or reaches bits that match no code"
            )
        if (final != ends).any():
            raise ValueError(
                "corrupt Huffman stream: decoded bits disagree with the "
                "declared chunk offsets"
            )
        return out.reshape(-1)[:count]
