"""Zlib-only fast-path backend.

No per-block Huffman tree at all: quantization codes are cast to their
narrowest byte width and handed to zlib level 1 (which brings its own
static-ish deflate coding).  Compression skips histogramming, tree
construction, and codebook serialization entirely — the cheapest encode
in the registry, at a modest ratio cost versus a tuned canonical book.
The stream (format ``RZL1``) is self-contained and rides in the v3
block payload under ``format_id = FORMAT_ZLIB``.

Note the SZ layer's outer lossless pass (also zlib) sees this stream as
incompressible and stores it essentially as-is, so the double wrap costs
bytes only in the per-pass headers.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .. import huffman
from .base import CodecBackend, EncodedStream, FORMAT_ZLIB

__all__ = ["ZlibBackend"]

_MAGIC = b"RZL1"
_HEADER_FMT = "<4sBQ"  # magic, byte width, symbol count
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)


class ZlibBackend(CodecBackend):
    """Tree-free codec: narrowed symbol bytes through zlib level 1."""

    name = "zlib"
    format_id = FORMAT_ZLIB
    uses_codebook = False
    #: zlib's fixed-ish coding is looser than a tuned canonical book.
    ratio_entropy_factor = 1.15
    fixed_overhead_bytes = 32  # block header + RZL1 header + zlib wrapper

    def encode(
        self,
        symbols: np.ndarray,
        codebook: huffman.Codebook | None = None,
        chunk_size: int = 0,
    ) -> EncodedStream:
        flat = np.ascontiguousarray(symbols).reshape(-1)
        if flat.size and np.any(flat < 0):
            raise ValueError("zlib backend encodes unsigned symbols")
        width = 1 if (flat.size == 0 or int(flat.max()) < 256) else 2
        raw = flat.astype(np.uint8 if width == 1 else np.dtype("<u2"))
        stream = (
            struct.pack(_HEADER_FMT, _MAGIC, width, flat.size)
            + zlib.compress(raw.tobytes(), 1)
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
                f"truncated zlib stream: {len(data)} bytes cannot hold "
                "the header"
            )
        magic, width, declared = struct.unpack(
            _HEADER_FMT, data[:_HEADER_SIZE]
        )
        if magic != _MAGIC:
            raise ValueError("corrupt zlib stream: bad magic")
        if width not in (1, 2):
            raise ValueError(
                f"corrupt zlib stream: unsupported symbol width {width}"
            )
        if declared != count:
            raise ValueError(
                f"corrupt zlib stream: {declared} symbols stored but "
                f"{count} are declared by the block"
            )
        try:
            raw = zlib.decompress(data[_HEADER_SIZE:])
        except zlib.error as exc:
            raise ValueError(
                f"corrupt zlib stream: inflate failed ({exc})"
            ) from None
        if len(raw) != width * count:
            raise ValueError(
                f"corrupt zlib stream: {len(raw)} payload bytes for "
                f"{count} symbols of width {width}"
            )
        dtype = np.uint8 if width == 1 else np.dtype("<u2")
        return np.frombuffer(raw, dtype=dtype).astype(np.uint16)
