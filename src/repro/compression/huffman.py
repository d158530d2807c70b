"""Canonical Huffman coding over the quantization-code alphabet.

Encoding is vectorized with numpy and runs in bounded slabs, one pass
per slab.  The symbol owning the all-zero code word (the most frequent
one: 94 % of a smooth WarpX block) needs no bits written, so a slab
gathers uint8 lengths and uint32 code words only for the other symbols,
takes their start bits from a cumulative sum over those symbols alone,
and ORs their code bits into a preallocated output buffer with a single
``np.bincount`` pass (:func:`_place_bits`).  Chunk offsets come from the
same cumulative sum.  Working memory is a few arrays of ``ENCODE_SLAB``
elements regardless of stream length.
The bit-identical per-symbol reference loops (encoder, chunk offsets,
canonical-walk decoder) sit beside the ``pure`` kernel in
:mod:`repro.compression.kernels.pure`.

:func:`decode` reads shallow books through a dense prefix table, one
symbol per step; the chunk-parallel batch decoder lives in
:mod:`repro.compression.kernels.vectorized`.

Codebooks are canonical, so they serialize as just the per-symbol code
*lengths* — by default in a compact run-length form
(:data:`CODEBOOK_KIND_RLE`); the flat legacy layout
(:data:`CODEBOOK_KIND_RAW`) still reads.  A quantization book is a
handful of ``(length, count)`` runs — a 257-symbol Nyx book codes about
eight symbols — so the run-length form is parsed run by run: the Kraft
inequality is checked exactly, in integers, on the runs, and canonical
codes go to the coded runs alone.  The dense decode tables are two
``np.repeat`` calls, because canonical codes in (length, symbol) order
tile the table contiguously from entry 0.  Canonical books are also
what makes the shared-tree comparison in Figure 6 meaningful: two
iterations with similar quantization-code histograms yield nearly
identical length vectors, hence nearly identical bit costs.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Codebook",
    "build_codebook",
    "encode",
    "encode_with_offsets",
    "pack_bits",
    "unpack_bits",
    "decode",
    "dense_decode_tables",
    "codebook_to_bytes",
    "codebook_from_bytes",
    "codebook_blob_kind",
    "estimate_encoded_bits",
    "TABLE_DECODE_MAX_LEN",
    "ENCODE_SLAB",
    "CODEBOOK_KIND_RAW",
    "CODEBOOK_KIND_RLE",
]


@dataclass(frozen=True)
class Codebook:
    """A canonical Huffman codebook for symbols ``0..num_symbols-1``.

    ``lengths[s] == 0`` means symbol ``s`` has no code (it never occurred
    in the training histogram); encoders must reroute such symbols (the SZ
    layer converts them to outliers before encoding).
    """

    lengths: np.ndarray  # uint8, per-symbol code length (0 = uncoded)
    codes: np.ndarray  # uint64, canonical code values (MSB-first)

    @property
    def num_symbols(self) -> int:
        return int(self.lengths.size)

    @cached_property
    def max_length(self) -> int:
        return int(self.lengths.max(initial=0))

    def can_encode(self, symbols: np.ndarray) -> np.ndarray:
        """Boolean mask of symbols this codebook has codes for."""
        return self.lengths[symbols] > 0

    @cached_property
    def _encode_tables(self) -> tuple[np.ndarray, int, int]:
        # ``(uint32 codes, zero symbol, its length)``: the coded symbol
        # whose code word is all zero bits — in a canonical book the
        # first in (length, symbol) order — needs no bits placed.  -1
        # when there is none.
        zero = np.flatnonzero((self.codes == 0) & (self.lengths > 0))
        if not zero.size:
            return self.codes.astype(np.uint32), -1, 0
        symbol = int(zero[0])
        return self.codes.astype(np.uint32), symbol, int(self.lengths[symbol])

    @cached_property
    def _dense_tables(self) -> tuple[np.ndarray, np.ndarray]:
        # Built on first decode and kept for the book's lifetime: a
        # shared tree decodes hundreds of blocks against one Codebook.
        # Every decoder gets the same arrays, hence read-only.
        tables = _build_dense_tables(self)
        for table in tables:
            table.flags.writeable = False
        return tables


def build_codebook(
    frequencies: np.ndarray,
    force_symbols: tuple[int, ...] = (),
    max_length: int | None = None,
) -> Codebook:
    """Build a canonical codebook from a symbol histogram.

    Args:
        frequencies: occurrence counts per symbol (any integer dtype).
        force_symbols: symbols guaranteed a code even with zero observed
            frequency — the SZ layer forces the outlier sentinel so a
            shared tree can always escape unseen values.
        max_length: optional bound on code length.  When the natural
            Huffman tree is deeper (pathological skew), lengths are
            recomputed with the package-merge algorithm, which yields the
            optimal code under the constraint.  Bounds the decoder's
            table depth at a (usually negligible) ratio cost.
    """
    freqs = np.asarray(frequencies, dtype=np.int64).copy()
    if freqs.ndim != 1:
        raise ValueError("frequencies must be one-dimensional")
    for symbol in force_symbols:
        if freqs[symbol] == 0:
            freqs[symbol] = 1

    present = np.flatnonzero(freqs > 0)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    if present.size == 1:
        lengths[present[0]] = 1
    elif present.size > 1:
        natural = _code_lengths(freqs[present])
        if max_length is not None and int(natural.max()) > max_length:
            if 2**max_length < present.size:
                raise ValueError(
                    f"max_length {max_length} cannot encode "
                    f"{present.size} symbols"
                )
            natural = _package_merge(freqs[present], max_length)
        lengths[present] = natural
    codes = _canonical_codes(lengths)
    return Codebook(lengths=lengths, codes=codes)


def _package_merge(freqs: np.ndarray, max_length: int) -> np.ndarray:
    """Optimal length-limited code lengths (package-merge, Larmore-
    Hirschberg 1990).

    Works on the ``n`` present symbols; returns one length per symbol,
    each in ``1..max_length``, satisfying Kraft equality.
    """
    n = freqs.size
    order = np.argsort(freqs, kind="stable")
    sorted_freqs = freqs[order].astype(np.int64)

    # Items are (weight, coverage): coverage[i] counts how many times
    # sorted symbol i participates.  Each of the max_length packaging
    # rounds merges the previous round's packages with fresh leaves and
    # pairs them up; a symbol's final code length equals how many of the
    # cheapest 2(n-1) items of the last round's merged list cover it.
    level: list[tuple[int, np.ndarray]] = []
    merged: list[tuple[int, np.ndarray]] = []
    for _ in range(max_length):
        leaves = [
            (int(sorted_freqs[i]), _unit(n, i)) for i in range(n)
        ]
        merged = sorted(level + leaves, key=lambda item: item[0])
        level = [
            (
                merged[2 * i][0] + merged[2 * i + 1][0],
                merged[2 * i][1] + merged[2 * i + 1][1],
            )
            for i in range(len(merged) // 2)
        ]
    chosen = np.zeros(n, dtype=np.int64)
    for _, coverage in merged[: 2 * (n - 1)]:
        chosen += coverage

    lengths = np.zeros(n, dtype=np.uint8)
    lengths[order] = chosen.astype(np.uint8)
    return lengths


def _unit(n: int, index: int) -> np.ndarray:
    unit = np.zeros(n, dtype=np.int64)
    unit[index] = 1
    return unit


def _code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Huffman code lengths for strictly positive frequencies."""
    # Heap items: (frequency, tiebreak, node_id).  Internal nodes are
    # appended after the leaves; parent[] lets us read depths afterwards.
    n = freqs.size
    parent = [-1] * (2 * n - 1)
    heap = [(int(freqs[i]), i, i) for i in range(n)]
    heapq.heapify(heap)
    next_id = n
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        parent[a] = next_id
        parent[b] = next_id
        heapq.heappush(heap, (fa + fb, next_id, next_id))
        next_id += 1
    depths = np.zeros(n, dtype=np.uint8)
    for leaf in range(n):
        d = 0
        node = leaf
        while parent[node] != -1:
            node = parent[node]
            d += 1
        depths[leaf] = d
    return depths


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical code words for a length vector, the deflate way: the
    first code of each length is ``(first[L-1] + count[L-1]) << 1``,
    and a length's symbols take consecutive codes in symbol order."""
    codes = np.zeros(lengths.size, dtype=np.uint64)
    coded = np.flatnonzero(lengths)
    if not coded.size:
        return codes
    lens = lengths[coded].astype(np.intp)
    count = np.bincount(lens)
    count[0] = 0
    first = [0]
    for n in count[:-1].tolist():
        first.append((first[-1] + n) << 1)
    # A symbol's rank among the coded symbols sorted by (length, symbol),
    # minus the number of shorter codes, is its offset within its length.
    order = np.argsort(lens, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    shorter = np.cumsum(count) - count
    codes[coded] = np.array(first, dtype=np.uint64)[lens] + (
        rank - shorter[lens]
    ).astype(np.uint64)
    return codes


#: Symbols per encoding slab.  Bounds the encoder's transient working
#: memory to a few ``ENCODE_SLAB``-element arrays (~16 MB) no matter how
#: long the symbol stream is.
ENCODE_SLAB = 1 << 18

#: Widest value the 32-bit placement window can hold: the value's bits
#: plus up to 7 alignment bits must fit in 4 bytes.
_PACK_MAX_WIDTH = 25


def _place_bits(
    values: np.ndarray,
    widths: np.ndarray,
    starts: np.ndarray,
    out: np.ndarray,
) -> None:
    """OR each value's ``width`` low bits into ``out`` (a uint8 buffer),
    MSB-first at absolute bit position ``starts`` (ascending int64).

    Every value is left-aligned inside a 4-byte window beginning at its
    start byte and the whole windows are summed per start byte with a
    single ``np.bincount`` pass.  Bits of distinct values never overlap,
    so the per-byte-position sums equal the bitwise OR, every sum stays
    below 2**32, and float64 accumulation is exact (windows carry at
    most 25 significant bits).  The summed windows are then split into
    their four big-endian byte lanes and ORed into ``out`` — the lane
    split costs O(output bytes), not O(values).
    """
    if values.size == 0:
        return
    # Accumulate only over the byte span this call actually touches —
    # bincount's result length must track the call, not the whole output
    # buffer, or encoding a large stream allocates a stream-sized float64
    # array per call.
    byte0 = starts >> 3
    lo = int(byte0[0])
    span = int(byte0[-1]) - lo + 4
    shift = 32 - (starts & 7) - widths
    window = values.astype(np.int64) << shift
    byte0 -= lo
    acc = np.bincount(byte0, weights=window, minlength=span)
    lanes = acc.astype(">u4").view(np.uint8).reshape(-1, 4)
    # The final value's window may poke past the buffer; those trailing
    # lane bytes are zero by construction, so clamping is lossless.
    hi = min(lo + span, out.size)
    for lane in range(4):
        n_lane = hi - lo - lane
        if n_lane <= 0:
            break
        target = out[lo + lane : hi]
        np.bitwise_or(target, lanes[:n_lane, lane], out=target)


def pack_bits(
    values: np.ndarray, widths: np.ndarray, slab: int = ENCODE_SLAB
) -> tuple[bytes, int]:
    """Pack ``values[i]`` into ``widths[i]`` bits, MSB-first.

    The bit-placement primitive behind :func:`encode` (where the values
    are canonical code words) and the deflate backend's extra-bits
    section.  Zero-width entries contribute nothing.  Widths are capped
    at 25 bits (the 32-bit placement window minus byte alignment).
    """
    values = np.asarray(values).reshape(-1)
    widths = np.asarray(widths, dtype=np.int64).reshape(-1)
    if values.size != widths.size:
        raise ValueError("values and widths must have the same size")
    if widths.size and int(widths.max()) > _PACK_MAX_WIDTH:
        raise ValueError(
            f"pack_bits supports widths up to {_PACK_MAX_WIDTH}, "
            f"got {int(widths.max())}"
        )
    nbits = int(widths.sum())
    out = np.zeros((nbits + 7) // 8, dtype=np.uint8)
    bit_cursor = 0
    for lo in range(0, widths.size, slab):
        w = widths[lo : lo + slab]
        starts = bit_cursor + np.concatenate(
            ([0], np.cumsum(w[:-1]))
        )
        _place_bits(values[lo : lo + slab], w, starts, out)
        bit_cursor += int(w.sum())
    return out.tobytes(), nbits


def unpack_bits(data: bytes, widths: np.ndarray) -> np.ndarray:
    """Invert :func:`pack_bits`: read ``widths[i]`` bits per value.

    Fully vectorized through a 32-bit sliding-window gather; used by the
    deflate backend to read match-length extra bits.
    """
    widths = np.asarray(widths, dtype=np.int64).reshape(-1)
    if widths.size == 0:
        return np.zeros(0, dtype=np.int64)
    if int(widths.max()) > _PACK_MAX_WIDTH:
        raise ValueError(
            f"unpack_bits supports widths up to {_PACK_MAX_WIDTH}, "
            f"got {int(widths.max())}"
        )
    nbits = int(widths.sum())
    if 8 * len(data) < nbits:
        raise ValueError(
            f"corrupt bit stream: {len(data)} bytes cannot hold the "
            f"declared {nbits} bits"
        )
    starts = np.concatenate(([0], np.cumsum(widths[:-1])))
    raw = np.frombuffer(data, dtype=np.uint8)
    padded = np.concatenate([raw, np.zeros(4, dtype=np.uint8)]).astype(
        np.uint64
    )
    w32 = (
        (padded[:-3] << np.uint64(24))
        | (padded[1:-2] << np.uint64(16))
        | (padded[2:-1] << np.uint64(8))
        | padded[3:]
    )
    shift = (32 - widths - (starts & 7)).astype(np.uint64)
    mask = (np.uint64(1) << widths.astype(np.uint64)) - np.uint64(1)
    picked = (w32[starts >> 3] >> shift) & mask
    return picked.astype(np.int64)


def encode(symbols: np.ndarray, codebook: Codebook) -> tuple[bytes, int]:
    """Encode a symbol array; returns (packed bytes, exact bit count).

    Every symbol must have a code (see :meth:`Codebook.can_encode`).
    Vectorized and slab-bounded: peak transient memory is a few
    ``ENCODE_SLAB``-element arrays plus the output buffer, independent of
    the stream length.
    """
    data, nbits, _ = encode_with_offsets(symbols, codebook, chunk_size=0)
    return data, nbits


def encode_with_offsets(
    symbols: np.ndarray,
    codebook: Codebook,
    chunk_size: int,
    slab: int = ENCODE_SLAB,
) -> tuple[bytes, int, np.ndarray]:
    """Encode and (for ``chunk_size > 0``) record per-chunk bit offsets.

    Returns ``(data, nbits, chunk_offsets)`` where ``chunk_offsets[c]``
    is the start bit of symbol ``c * chunk_size`` — the index the
    chunk-parallel decoder needs.  With ``chunk_size == 0`` the offsets
    array is empty.  The stream is identical either way.

    One pass per slab, touching only the symbols whose code word has a
    set bit.  A canonical book gives the all-zero code word to its first
    shortest code, of length ``z`` — in practice the most frequent
    symbol (94 % of a smooth WarpX block, two thirds of a Nyx one) —
    which adds ``z`` bits and nothing to place.  Every other symbol at
    slab index ``i`` starts ``z * i`` bits plus the extra bits (length
    minus ``z``) of the placed symbols before it into the slab: one
    cumulative sum over the placed symbols alone.  The output buffer is
    sized by the longest code and trimmed, so no histogram pass is
    needed to size it.
    """
    flat = np.ascontiguousarray(symbols).reshape(-1)
    if chunk_size:
        # Slabs aligned to chunk boundaries make every chunk start fall
        # inside exactly one slab.
        slab = max(chunk_size, slab - slab % chunk_size)
    if flat.size == 0:
        return b"", 0, np.zeros(0, dtype=np.uint64)
    if codebook.max_length > _PACK_MAX_WIDTH:
        # Pathologically deep book (never produced by the SZ layer, whose
        # books are length-limited): take the reference path.
        from .kernels import pure  # kernels import this module

        data, nbits = pure.encode_reference(flat, codebook)
        return data, nbits, pure.offsets_reference(flat, codebook, chunk_size)
    if flat.dtype.kind != "u" and int(flat.min()) < 0:
        raise ValueError(
            f"symbol {int(flat[flat < 0][0])} has no code in this codebook"
        )
    lengths = codebook.lengths
    if codebook.max_length == 0:
        raise _uncoded(flat[:1], lengths)
    codes, zero_symbol, zero_len = codebook._encode_tables

    out = np.zeros((flat.size * codebook.max_length + 7) // 8, dtype=np.uint8)
    num_chunks = -(-flat.size // chunk_size) if chunk_size else 0
    offsets = np.zeros(num_chunks, dtype=np.uint64)

    bit_cursor = 0
    for lo in range(0, flat.size, slab):
        chunk = flat[lo : lo + slab]
        placed = np.flatnonzero(chunk != zero_symbol)
        picked = chunk[placed]
        try:
            lens = lengths.take(picked)
        except IndexError:
            raise _uncoded(picked, lengths) from None
        if not lens.all():
            raise _uncoded(picked, lengths)
        # extra[k]: bits the placed symbols before placed[k] add beyond
        # the ``zero_len`` every symbol costs.
        extra = np.zeros(placed.size + 1, dtype=np.int64)
        np.cumsum(np.subtract(lens, zero_len, dtype=np.int16), out=extra[1:])
        if chunk_size:
            first = np.arange(0, chunk.size, chunk_size)
            bits = extra[np.searchsorted(placed, first)]
            bits += zero_len * first + bit_cursor
            offsets[lo // chunk_size : lo // chunk_size + first.size] = bits
        starts = extra[:-1]
        starts += zero_len * placed + bit_cursor
        _place_bits(codes.take(picked), lens, starts, out)
        bit_cursor += int(extra[-1]) + zero_len * chunk.size
    return out[: (bit_cursor + 7) // 8].tobytes(), bit_cursor, offsets


def _uncoded(symbols: np.ndarray, lengths: np.ndarray) -> ValueError:
    """The error for the first of ``symbols`` ``lengths`` has no code for."""
    known = symbols < lengths.size
    bad = ~known
    bad[known] = lengths[symbols[known]] == 0
    symbol = int(symbols[np.flatnonzero(bad)[0]])
    return ValueError(f"symbol {symbol} has no code in this codebook")


#: Codes at or below this depth decode through a dense lookup table
#: (2^depth entries) instead of the canonical walk — one array access per
#: symbol instead of one per candidate length.
TABLE_DECODE_MAX_LEN = 12


def decode(
    data: bytes, nbits: int, count: int, codebook: Codebook
) -> np.ndarray:
    """Decode ``count`` symbols from a packed bit stream.

    Shallow codebooks (max length <= 12, the common case for quantization
    codes — and guaranteed under ``build_codebook(max_length=...)``) use
    a dense prefix table; deeper books fall back to the canonical walk.
    """
    if count == 0:
        return np.zeros(0, dtype=np.uint16)
    if codebook.max_length == 0:
        # An all-zero-length codebook encodes nothing; a stream that
        # declares symbols against it is corrupt, not an index error.
        raise ValueError(
            "corrupt Huffman stream: codebook has no codes but "
            f"{count} symbols are declared"
        )
    if codebook.max_length <= TABLE_DECODE_MAX_LEN:
        return _decode_table(data, nbits, count, codebook)
    from .kernels.pure import decode_walk  # kernels import this module

    return decode_walk(data, nbits, count, codebook)


def dense_decode_tables(
    codebook: Codebook,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense prefix tables ``(symbols, lengths)`` of ``2^max_length``
    entries: entry ``p`` is the symbol whose code prefixes ``p`` and its
    code length (0 = no code starts with ``p``; the stream is corrupt).
    Shared by the scalar fast path below and the vectorized kernel
    backend (:mod:`repro.compression.kernels.vectorized`).  Built once
    per :class:`Codebook` instance and cached on it; the returned arrays
    are read-only."""
    return codebook._dense_tables


def _build_dense_tables(
    codebook: Codebook,
) -> tuple[np.ndarray, np.ndarray]:
    # In (length, symbol) order a canonical book's codes tile the table
    # contiguously from 0: code ``c`` of length ``L`` owns the
    # ``2^(depth - L)`` entries from ``c << (depth - L)``, where the
    # previous code's entries end.  So each table is one ``np.repeat``
    # of the coded symbols (or their lengths) in that order, and the
    # rest of it (an incomplete book's unused prefixes) stays 0.
    depth = codebook.max_length
    coded = np.flatnonzero(codebook.lengths)
    lens = codebook.lengths[coded]
    order = np.argsort(lens, kind="stable")
    lens = lens[order]
    spans = np.left_shift(1, depth - lens.astype(np.intp))
    filled = int(spans.sum())
    symbols_table = np.zeros(1 << depth, dtype=np.uint16)
    lengths_table = np.zeros(1 << depth, dtype=np.uint8)
    symbols_table[:filled] = np.repeat(coded[order], spans)
    lengths_table[:filled] = np.repeat(lens, spans)
    return symbols_table, lengths_table


def _decode_table(
    data: bytes, nbits: int, count: int, codebook: Codebook
) -> np.ndarray:
    """Dense-table decoder for shallow codebooks."""
    depth = codebook.max_length
    size = 1 << depth
    symbols_table, lengths_table = dense_decode_tables(codebook)
    sym_list = symbols_table.tolist()
    len_list = lengths_table.tolist()

    out = np.empty(count, dtype=np.uint16)
    buffer = 0
    buffered = 0
    pos = 0
    consumed = 0
    mask = size - 1
    n = len(data)
    for i in range(count):
        while buffered < depth and pos < n:
            buffer = (buffer << 8) | data[pos]
            pos += 1
            buffered += 8
        if buffered >= depth:
            prefix = (buffer >> (buffered - depth)) & mask
        else:
            prefix = (buffer << (depth - buffered)) & mask
        length = len_list[prefix]
        if length == 0 or length > buffered:
            raise ValueError("corrupt Huffman stream")
        out[i] = sym_list[prefix]
        buffered -= length
        buffer &= (1 << buffered) - 1
        consumed += length
    if consumed != nbits:
        raise ValueError(
            f"decoded {consumed} bits but stream declared {nbits}"
        )
    return out


#: Codebook blob layouts: the flat legacy form (count + one length byte
#: per symbol) and the compact run-length form new blocks write.
CODEBOOK_KIND_RAW = 0
CODEBOOK_KIND_RLE = 1

_RLE_MAGIC = b"RCB2"
#: One run: (code length uint8, run length uint16), packed.
_RLE_RUN = np.dtype([("value", np.uint8), ("count", "<u2")])


def _kraft_check(length_counts: list[tuple[int, int]]) -> None:
    """Reject ``(code length, number of codes)`` pairs no prefix code
    can realize, or whose codes would not fit the 64-bit code words.

    Exact, in integers: a length-``L`` code takes ``2^(63 - L)`` of the
    ``2^63`` units a complete book fills.  A float sum needs a
    tolerance, and a book over-subscribed by less than it (``2^-40``)
    would get a last code one bit longer than its declared length."""
    total = 0
    for length, count in length_counts:
        if length > 63:
            raise ValueError(
                "corrupt codebook blob: code length exceeds 63 bits"
            )
        total += count << (63 - length)
    if total > 1 << 63:
        raise ValueError(
            "corrupt codebook blob: code lengths violate the Kraft "
            "inequality"
        )


def codebook_blob_kind(blob: bytes) -> int:
    """Which serialized layout a codebook blob uses (by its magic)."""
    return (
        CODEBOOK_KIND_RLE if blob[:4] == _RLE_MAGIC else CODEBOOK_KIND_RAW
    )


def codebook_to_bytes(codebook: Codebook, kind: int | None = None) -> bytes:
    """Serialize a canonical codebook (just the length vector).

    ``CODEBOOK_KIND_RLE`` stores the lengths as (value, run) pairs — a
    handful of bytes for the near-geometric quantization-code books
    (long zero runs for unused symbols) instead of one byte per symbol.
    ``CODEBOOK_KIND_RAW`` is the flat legacy layout.  The default
    (``kind=None``) writes whichever is smaller; both layouts are
    self-describing on read (:func:`codebook_blob_kind`).
    """
    if kind not in (None, CODEBOOK_KIND_RAW, CODEBOOK_KIND_RLE):
        raise ValueError(f"unknown codebook kind {kind}")
    lengths = codebook.lengths
    n = lengths.size
    if kind != CODEBOOK_KIND_RAW:
        if n:
            change = np.flatnonzero(np.diff(lengths)) + 1
            starts = np.concatenate(([0], change))
            run_lens = np.diff(np.concatenate((starts, [n])))
            values = lengths[starts]
        else:
            run_lens = np.zeros(0, dtype=np.int64)
            values = np.zeros(0, dtype=np.uint8)
        if kind is None:
            # Both sizes are known before either layout is built: a run
            # longer than the uint16 count field is split below.
            num_runs = int(np.sum(-(-run_lens // 0xFFFF)))
            if 12 + _RLE_RUN.itemsize * num_runs > 4 + n:
                kind = CODEBOOK_KIND_RAW
    if kind == CODEBOOK_KIND_RAW:
        header = np.uint32(codebook.num_symbols).tobytes()
        return header + lengths.tobytes()
    runs = np.empty(0, dtype=_RLE_RUN)
    pieces = []
    for value, run in zip(values.tolist(), run_lens.tolist()):
        while run > 0:
            piece = min(run, 0xFFFF)
            pieces.append((value, piece))
            run -= piece
    if pieces:
        runs = np.array(pieces, dtype=_RLE_RUN)
    return (
        _RLE_MAGIC
        + struct.pack("<II", n, runs.size)
        + runs.tobytes()
    )


def codebook_from_bytes(blob: bytes) -> Codebook:
    """Deserialize a codebook from either serialized layout.

    The run-length form is self-describing (magic ``RCB2``); anything
    else parses as the flat legacy layout.  Every declared size is
    validated against the actual blob length — a truncated blob raises a
    named ``ValueError`` instead of silently yielding a shorter lengths
    vector (which would decode downstream blocks into garbage).
    """
    if len(blob) < 4:
        raise ValueError(
            f"truncated codebook blob: {len(blob)} bytes cannot hold a "
            "codebook header"
        )
    if blob[:4] == _RLE_MAGIC:
        return _codebook_from_rle(blob)
    (num,) = struct.unpack_from("<I", blob)
    got = len(blob) - 4
    if got != num:
        raise ValueError(
            f"truncated codebook blob: declares {num} symbols but "
            f"carries {got} length bytes"
        )
    if num == 0:
        raise ValueError("corrupt codebook blob: zero symbols declared")
    lengths = np.frombuffer(blob, dtype=np.uint8, offset=4).copy()
    counts = np.bincount(lengths).tolist()
    _kraft_check(
        [(length, n) for length, n in enumerate(counts) if length and n]
    )
    return Codebook(lengths=lengths, codes=_canonical_codes(lengths))


def _codebook_from_rle(blob: bytes) -> Codebook:
    """Parse the run-length layout on its runs alone: a quantization
    book is a handful of ``(length, count)`` runs, most of them the
    uncoded zeros around the band, so the Kraft check and the
    canonical codes go run by run rather than symbol by symbol."""
    if len(blob) < 12:
        raise ValueError(
            f"truncated codebook blob: {len(blob)} bytes cannot hold a "
            "run-length header"
        )
    num_symbols, num_runs = struct.unpack_from("<II", blob, 4)
    want = 12 + _RLE_RUN.itemsize * num_runs
    if len(blob) != want:
        raise ValueError(
            f"truncated codebook blob: declares {num_runs} runs "
            f"({want} bytes) but the blob has {len(blob)}"
        )
    if num_symbols == 0:
        raise ValueError("corrupt codebook blob: zero symbols declared")
    # (length, first symbol, count) of every coded run, in symbol order.
    coded = []
    covered = 0
    runs = struct.iter_unpack("<BH", memoryview(blob)[12:])
    for length, count in runs:
        if length and count:
            coded.append((length, covered, count))
        covered += count
    if covered != num_symbols:
        raise ValueError(
            f"corrupt codebook blob: runs cover {covered} symbols but "
            f"{num_symbols} are declared"
        )
    _kraft_check([(length, count) for length, _, count in coded])
    lengths = np.zeros(num_symbols, dtype=np.uint8)
    codes = np.zeros(num_symbols, dtype=np.uint64)
    # Canonical codes: in (length, symbol) order each code is the
    # previous one plus one, shifted left by the step in length.  Most
    # coded runs are one symbol long: a scalar store skips the arange.
    code = previous = 0
    for length, first, count in sorted(coded, key=lambda run: run[0]):
        code <<= length - previous
        previous = length
        lengths[first : first + count] = length
        if count == 1:
            codes[first] = code
        else:
            codes[first : first + count] = np.arange(
                count, dtype=np.uint64
            ) + np.uint64(code)
        code += count
    return Codebook(lengths=lengths, codes=codes)


def estimate_encoded_bits(
    histogram: np.ndarray,
    codebook: Codebook,
    sentinel: int | None = None,
) -> tuple[int, int]:
    """Bit cost of coding ``histogram`` with ``codebook``.

    Returns ``(bits, escapes)`` where ``escapes`` counts occurrences of
    symbols the codebook cannot encode.  At the SZ layer those become
    outliers: each is *rerouted to the sentinel symbol* (paying the
    sentinel's code length in the Huffman stream) and additionally pays
    the outlier-channel cost.  Pass ``sentinel`` to include the rerouted
    code bits in ``bits`` — without it the estimate drifts low by
    ``escapes * lengths[sentinel]`` exactly as ``encode`` would observe.
    Used by the ratio model and the shared-tree degradation analysis
    (Figure 6).
    """
    hist = np.asarray(histogram, dtype=np.int64)
    coded = codebook.lengths.astype(np.int64)
    n = min(hist.size, coded.size)
    bits = int(np.sum(hist[:n] * coded[:n]))
    escapes = int(np.sum(hist[:n][coded[:n] == 0]))
    if hist.size > n:
        escapes += int(hist[n:].sum())
    if sentinel is not None and escapes:
        bits += escapes * int(coded[sentinel])
    return bits, escapes
