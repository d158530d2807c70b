"""Backend contract for the codec kernels.

A backend turns quantization-code symbol streams into a packed byte
stream and back.  The two Huffman backends share one bit format and
differ only in implementation — ``pure`` is the per-symbol reference
loop, ``numpy`` the slab-encode / chunk-parallel-decode vectorized path
— while the ``deflate`` and ``zlib`` backends define their own
self-contained stream formats (each stream format has a
:attr:`CodecBackend.format_id`; the block header records which one a
block's payload uses, so any compressor can decode any block).

To make batch Huffman decoding possible at all, the encoder splits the
symbol stream into fixed-size chunks and records each chunk's start
*bit* offset; the offsets ride in the block's chunk index
(``docs/formats.md``).  A chunk boundary never splits a code word, so
each chunk is independently decodable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .. import huffman

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "FORMAT_HUFFMAN",
    "FORMAT_DEFLATE",
    "FORMAT_ZLIB",
    "KNOWN_FORMATS",
    "EncodedStream",
    "CodecBackend",
    "encode_chunked",
    "num_chunks",
    "expected_num_chunks",
]

#: Symbols per chunk.  The numpy decoder's lockstep walk takes one
#: Python-level step per symbol *of a chunk* whatever the chunk count, so
#: 256 is only "few steps" for streams wide enough to spread them over
#: hundreds of chunks; short streams (a 64 KiB block is 32 chunks) decode
#: by pointer doubling in log2(256) = 8 rounds instead.  The per-chunk
#: cost — one uint16 delta in the block's index, about a byte once long
#: indexes are deflated — is at most 0.0625 bits/symbol.
DEFAULT_CHUNK_SIZE = 256

#: Stream-format identifiers recorded in the v3+ block header.  Backends
#: sharing a format id produce interchangeable (bit-identical) streams.
FORMAT_HUFFMAN = 0  # chunked canonical-Huffman bits (pure/numpy)
FORMAT_DEFLATE = 1  # LZ77 run tokens + embedded Huffman book (RLZ1)
FORMAT_ZLIB = 2  # raw symbol bytes through zlib (RZL1)
KNOWN_FORMATS = (FORMAT_HUFFMAN, FORMAT_DEFLATE, FORMAT_ZLIB)


@dataclass(frozen=True)
class EncodedStream:
    """A packed symbol stream plus the chunk index (when the format has
    one — the non-Huffman formats are self-contained and carry empty
    chunk metadata)."""

    data: bytes
    nbits: int
    chunk_size: int
    #: uint64 start bit of each chunk; ``chunk_offsets[0] == 0``.
    chunk_offsets: np.ndarray

    @property
    def num_chunks(self) -> int:
        return int(self.chunk_offsets.size)


def encode_chunked(
    symbols: np.ndarray,
    codebook: huffman.Codebook,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> EncodedStream:
    """Encode ``symbols`` and record per-chunk bit offsets.

    The bit stream is identical to :func:`repro.compression.huffman.encode`
    output — chunking only adds the offset index, never padding.  Both
    the stream and the offsets come out of the slab encoder, so working
    memory stays bounded regardless of the symbol count.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    data, nbits, offsets = huffman.encode_with_offsets(
        symbols.reshape(-1), codebook, chunk_size
    )
    return EncodedStream(
        data=data, nbits=nbits, chunk_size=chunk_size, chunk_offsets=offsets
    )


def num_chunks(count: int, chunk_size: int) -> int:
    """Chunks in a ``count``-symbol stream (chunk size 0: unchunked)."""
    return -(-count // chunk_size) if chunk_size else 0


def expected_num_chunks(
    count: int, chunk_size: int, chunk_offsets: np.ndarray
) -> int:
    """Validate a chunk index against the declared symbol count."""
    if chunk_size < 1:
        raise ValueError("corrupt Huffman stream: chunk size must be >= 1")
    want = num_chunks(count, chunk_size)
    if chunk_offsets.size != want:
        raise ValueError(
            f"corrupt Huffman stream: {chunk_offsets.size} chunk offsets "
            f"for {count} symbols at chunk size {chunk_size} "
            f"(expected {want})"
        )
    if want and int(chunk_offsets[0]) != 0:
        raise ValueError(
            "corrupt Huffman stream: first chunk offset must be 0"
        )
    return want


class CodecBackend(abc.ABC):
    """One lossless-coding implementation for quantization-code streams.

    Beyond encode/decode, a backend declares the inputs the RatioModel
    needs (:attr:`ratio_entropy_factor`, :attr:`fixed_overhead_bytes`)
    to price each backend's genuinely different ratio.
    """

    #: Registry key and telemetry label.
    name: str = "abstract"
    #: Stream format this backend reads and writes (block header field).
    format_id: int = FORMAT_HUFFMAN
    #: Whether blocks need an external canonical codebook (native blob or
    #: shared tree).  Formats that embed their own entropy coding
    #: (deflate) or none (zlib) set this False and skip tree building.
    uses_codebook: bool = True
    #: Deepest code length the backend's fast decode path handles; deeper
    #: codebooks fall back to the reference canonical walk.
    decode_max_length: int = 64
    #: Code-length limit handed to ``build_codebook`` so blocks written
    #: with this backend always decode on every backend's fast path.
    build_max_length: int = huffman.TABLE_DECODE_MAX_LEN
    #: RatioModel: predicted code bits per symbol ≈ entropy × this factor
    #: (coding inefficiency; deflate usually lands *below* entropy on
    #: smooth fields because runs collapse).
    ratio_entropy_factor: float = 1.03
    #: Per-block serialization overhead beyond the coded symbols and the
    #: chunk index (the v4 header, embedded books), for the RatioModel.
    fixed_overhead_bytes: int = 40

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
        return encode_chunked(symbols, codebook, chunk_size)

    @abc.abstractmethod
    def decode(
        self,
        data: bytes,
        nbits: int,
        count: int,
        codebook: huffman.Codebook | None,
        chunk_size: int = 0,
        chunk_offsets: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode ``count`` symbols; chunk metadata may be absent (v1)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CodecBackend {self.name}>"
