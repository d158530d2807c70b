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
  ``next`` is tabulated once for *every bit position* of the stream,
  then a ``(num_chunks, chunk_size)`` position matrix is filled from the
  chunk starts in ``log2(chunk_size)`` rounds — ``pos[:, w:2w] =
  J[pos[:, :w]]; J = J[J]`` with ``J = next^w`` — and all symbols are
  read with one gather.  About 30 numpy calls in total regardless of the
  chunk count, at O(nbits · log chunk_size) element-ops.

Both end with the same check — the position after each chunk's last
symbol must be the next chunk's recorded start (``nbits`` for the final
chunk) — and, iterating the identical ``next``, return the same symbols
and reject the same streams.  The absorbing overflow position is what
makes a too-short declared ``nbits`` observable: a cursor clamped to
``nbits`` itself would sit on a *legal* end and pass that check.

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
#: longer ones by the lockstep walk.  Doubling does O(nbits · log chunk)
#: element-ops against the lockstep's fixed ``chunk_size`` interpreter
#: steps, so it wins while the stream is short and loses once there are
#: enough chunks to amortize those steps.  Measured at the default chunk
#: size, median ms lockstep vs doubling, at 4.4 bits/symbol: 25 kbit
#: 2.5 vs 0.6; 60 kbit 2.5 vs 1.3; 100 kbit 2.7 vs 2.0; 130 kbit 2.7 vs
#: 2.5; 160 kbit 3.1 vs 3.0; 250 kbit 3.3 vs 4.6; 2.7 Mbit 12.5 vs 119
#: (at 1.9 bits/symbol: 130 kbit 3.4 vs 2.6; 250 kbit 4.7 vs 5.2;
#: 2.7 Mbit 30 vs 116).  The curves cross between 130 and 160 kbit and
#: are within 1.3x of each other from 100 to 250 kbit, so the constant
#: sits at the near edge of the crossover.  Every 64 KiB float64 block
#: (8 192 symbols at the 12-bit build limit: <= 98 304 bits) is below it.
DOUBLING_MAX_BITS = 1 << 17


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
    """Same contract as :func:`_walk_lockstep`, in O(log chunk_size)
    numpy calls: tabulate ``next`` for every bit position, then square
    it while filling the position matrix."""
    overflow = nbits + 1
    # prefix[p] = the ``depth`` bits starting at bit p, for every p: each
    # sliding word serves its byte's eight alignments.  ``w24`` has one
    # entry more than the stream has bytes, so this covers ``overflow``.
    shifts = (_WINDOW_BITS - depth) - np.arange(8, dtype=np.uint32)
    prefix = ((w24[:, None] >> shifts) & ((1 << depth) - 1)).reshape(-1)

    step = np.full(nbits + 2, overflow, dtype=np.intp)
    hop = step[:nbits]
    np.add(np.arange(nbits), advance.take(prefix[:nbits]), out=hop)
    np.minimum(hop, overflow, out=hop)

    pos = np.empty((starts.size, chunk_size), dtype=np.intp)
    pos[:, 0] = starts
    jump = step  # next^width
    width = 1
    while width < chunk_size:
        fill = min(width, chunk_size - width)
        pos[:, width : width + fill] = jump.take(pos[:, :fill])
        width *= 2
        if width < chunk_size:
            jump = jump.take(jump)

    final = step.take(pos[:, -1])
    final[-1] = step[pos[-1, last_count - 1]]  # the final chunk may be short
    return symbols_table.take(prefix.take(pos)), final


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

        starts = chunk_offsets.astype(np.int64)
        ends = np.concatenate(
            [starts[1:], np.array([nbits], dtype=np.int64)]
        )
        if np.any(starts > ends):
            raise ValueError(
                "corrupt Huffman stream: chunk offsets not increasing"
            )

        symbols_table, lengths_table = huffman.dense_decode_tables(codebook)
        # A prefix no code starts with (table length 0) advances straight
        # to the overflow position, like a code that runs past ``nbits``.
        advance = lengths_table.astype(np.int64)
        advance[advance == 0] = nbits + 1

        # w24[i] = bytes i..i+2, big-endian; 3 zero bytes of padding keep
        # the windows of the final bit positions in bounds.
        raw = np.frombuffer(data, dtype=np.uint8)
        padded = np.concatenate(
            [raw, np.zeros(3, dtype=np.uint8)]
        ).astype(np.uint32)
        w24 = (padded[:-2] << 8 | padded[1:-1]) << 8 | padded[2:]

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
        if not np.array_equal(final, ends):
            raise ValueError(
                "corrupt Huffman stream: decoded bits disagree with the "
                "declared chunk offsets"
            )
        return out.reshape(-1)[:count]
