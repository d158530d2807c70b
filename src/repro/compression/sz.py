"""SZ-style prediction-based error-bounded lossy compressor (facade).

Pipeline (Section 2.2, in the vectorizable cuSZ formulation):

1. prequantize values onto the ``2 * eb`` grid (absolute error bound);
2. first-order Lorenzo transform on the grid integers;
3. map deltas to a bounded quantization-code alphabet, overflow and
   shared-tree-unseen symbols routed to the outlier channel;
4. canonical Huffman coding — with a per-block ("native") tree or a
   caller-supplied shared tree (Section 4.3);
5. zlib lossless pass over the Huffman stream and outlier arrays.

Blocks round-trip exactly within the error bound; :class:`CompressedBlock`
serializes to bytes for the shared-file container.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..durability.checksum import crc32c
from ..telemetry import NULL_TRACER, NullTracer
from . import huffman
from .kernels import (
    CodecBackend,
    backend_for_format,
    resolve_backend,
)
from .kernels.base import (
    DEFAULT_CHUNK_SIZE,
    FORMAT_HUFFMAN,
    KNOWN_FORMATS,
)
from .lossless import lossless_compress, lossless_decompress
from .predictors import lorenzo_forward, lorenzo_inverse
from .quantizer import (
    DEFAULT_RADIUS,
    QuantizedDeltas,
    decode_codes,
    dequantize,
    encode_codes,
    prequantize,
)

__all__ = ["CompressedBlock", "SZCompressor", "DEFAULT_RADIUS"]

_MAGIC = b"RSZ1"
_HEADER_FMT = "<4sBBBdIQQQI"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_DTYPES = {0: np.float32, 1: np.float64}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}

#: ``codebook_kind`` for blocks whose codec embeds its own entropy
#: coding (or none) — there is no external codebook blob to describe.
CODEBOOK_KIND_NONE = 255
_KNOWN_KINDS = (
    huffman.CODEBOOK_KIND_RAW,
    huffman.CODEBOOK_KIND_RLE,
    CODEBOOK_KIND_NONE,
)


def _infer_codebook_kind(codebook_blob: bytes) -> int:
    """Codebook kind for pre-v3 blocks (and directly-built ones)."""
    if not codebook_blob:
        return CODEBOOK_KIND_NONE
    return huffman.codebook_blob_kind(codebook_blob)


@dataclass
class CompressedBlock:
    """One compressed data block plus everything needed to restore it."""

    payload: bytes  # zlib(huffman bytes + outlier arrays)
    shape: tuple[int, ...]
    dtype: np.dtype
    error_bound: float
    radius: int
    nbits: int
    num_outliers: int
    codebook_blob: bytes  # empty when a shared tree was used
    used_shared_tree: bool
    #: Chunk index (None for v1 blocks, which predate chunking): the
    #: Huffman stream is split into ``chunk_size``-symbol chunks and
    #: ``chunk_offsets[c]`` is chunk ``c``'s start bit — what lets the
    #: vectorized backend decode all chunks at once.  Self-contained
    #: stream formats (deflate/zlib) carry an empty index.
    chunk_size: int = 0
    chunk_offsets: tuple[int, ...] | None = None
    #: Stream format of the payload's coded section (v3 header field);
    #: any compressor decodes it via ``backend_for_format``.
    codec: int = FORMAT_HUFFMAN
    #: Serialized layout of ``codebook_blob`` (``CODEBOOK_KIND_*``;
    #: ``None`` infers it from the blob itself).
    codebook_kind: int | None = None

    def __post_init__(self) -> None:
        if self.codebook_kind is None:
            self.codebook_kind = _infer_codebook_kind(self.codebook_blob)

    @property
    def original_nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize

    @property
    def compressed_nbytes(self) -> int:
        return len(self.to_bytes())

    @property
    def compression_ratio(self) -> float:
        compressed = self.compressed_nbytes
        return self.original_nbytes / compressed if compressed else 1.0

    def to_bytes(self) -> bytes:
        """Serialize for storage in the shared-file container.

        Current blocks serialize as format v3 (codec + codebook-kind
        fields, then the chunk index); a plain-Huffman block without a
        chunk index (``chunk_offsets is None``) falls back to the v1
        layout, byte-identical to what pre-chunking versions wrote.
        """
        dtype_code = _DTYPE_CODES[self.dtype]
        version = (
            1
            if self.chunk_offsets is None and self.codec == FORMAT_HUFFMAN
            else 3
        )
        header = struct.pack(
            _HEADER_FMT,
            _MAGIC,
            version,
            dtype_code,
            len(self.shape),
            self.error_bound,
            self.radius,
            self.nbits,
            self.num_outliers,
            len(self.payload),
            len(self.codebook_blob),
        )
        dims = struct.pack(f"<{len(self.shape)}Q", *self.shape)
        flags = struct.pack("<B", 1 if self.used_shared_tree else 0)
        if version == 1:
            return header + dims + flags + self.codebook_blob + self.payload
        offsets = self.chunk_offsets or ()
        if offsets and self.nbits >= 2**32:
            raise ValueError(
                "block too large: chunk offsets are stored as uint32 "
                f"bit positions but the stream has {self.nbits} bits"
            )
        codec_info = struct.pack("<BB", self.codec, self.codebook_kind)
        chunks = struct.pack(
            "<II", self.chunk_size, len(offsets)
        ) + np.asarray(offsets, dtype=np.uint32).tobytes()
        return (
            header
            + dims
            + flags
            + codec_info
            + chunks
            + self.codebook_blob
            + self.payload
        )

    def checksum(self) -> int:
        """CRC32C of the serialized block — computed at compression
        time by the snapshot writer, carried through the write path, and
        handed back to :meth:`from_bytes` on load for end-to-end
        integrity."""
        return crc32c(self.to_bytes())

    @classmethod
    def from_bytes(
        cls, blob: bytes, expected_crc32c: int | None = None
    ) -> "CompressedBlock":
        if expected_crc32c is not None:
            actual = crc32c(blob)
            if actual != expected_crc32c:
                raise ValueError(
                    f"compressed block failed its end-to-end checksum "
                    f"(declared {expected_crc32c:#010x} at compression "
                    f"time, read {actual:#010x})"
                )

        def take(offset: int, nbytes: int, what: str) -> bytes:
            if len(blob) < offset + nbytes:
                raise ValueError(
                    f"truncated compressed block: {what} needs bytes "
                    f"{offset}..{offset + nbytes} but the blob has only "
                    f"{len(blob)}"
                )
            return blob[offset : offset + nbytes]

        (
            magic,
            version,
            dtype_code,
            ndim,
            error_bound,
            radius,
            nbits,
            num_outliers,
            payload_len,
            codebook_len,
        ) = struct.unpack(_HEADER_FMT, take(0, _HEADER_SIZE, "header"))
        if magic != _MAGIC:
            raise ValueError("not a compressed block")
        if version not in (1, 2, 3):
            raise ValueError(
                f"not a compressed block: unknown format version {version}"
            )
        if dtype_code not in _DTYPES:
            raise ValueError(
                f"corrupt compressed block: unknown dtype code {dtype_code}"
            )
        offset = _HEADER_SIZE
        shape = struct.unpack(
            f"<{ndim}Q", take(offset, 8 * ndim, "shape dims")
        )
        offset += 8 * ndim
        (shared_flag,) = struct.unpack("<B", take(offset, 1, "flags"))
        offset += 1
        codec = FORMAT_HUFFMAN
        codebook_kind: int | None = None  # pre-v3: infer from the blob
        if version == 3:
            codec, codebook_kind = struct.unpack(
                "<BB", take(offset, 2, "codec info")
            )
            offset += 2
            if codec not in KNOWN_FORMATS:
                known = ", ".join(str(f) for f in KNOWN_FORMATS)
                raise ValueError(
                    f"corrupt compressed block: unknown codec format "
                    f"{codec} (known: {known})"
                )
            if codebook_kind not in _KNOWN_KINDS:
                raise ValueError(
                    f"corrupt compressed block: unknown codebook kind "
                    f"{codebook_kind}"
                )
        chunk_size = 0
        chunk_offsets: tuple[int, ...] | None = None
        if version >= 2:
            chunk_size, num_chunks = struct.unpack(
                "<II", take(offset, 8, "chunk header")
            )
            offset += 8
            chunk_offsets = tuple(
                np.frombuffer(
                    take(offset, 4 * num_chunks, "chunk offsets"),
                    dtype=np.uint32,
                ).tolist()
            )
            offset += 4 * num_chunks
        codebook_blob = take(offset, codebook_len, "codebook blob")
        offset += codebook_len
        payload = take(offset, payload_len, "payload")
        return cls(
            payload=payload,
            shape=tuple(int(d) for d in shape),
            dtype=np.dtype(_DTYPES[dtype_code]),
            error_bound=error_bound,
            radius=radius,
            nbits=nbits,
            num_outliers=num_outliers,
            codebook_blob=codebook_blob,
            used_shared_tree=bool(shared_flag),
            chunk_size=chunk_size,
            chunk_offsets=chunk_offsets,
            codec=codec,
            codebook_kind=codebook_kind,
        )


class SZCompressor:
    """Error-bounded lossy compressor with optional shared Huffman tree.

    ``backend`` selects the codec kernel — ``"pure"``/``"numpy"`` (one
    shared canonical-Huffman bit format, bit-identical blocks),
    ``"deflate"`` (run-collapsing LZ77+Huffman), or ``"zlib"`` (tree-free
    fast path); ``None`` is the ``numpy`` default.  Every block records
    its stream format, so blocks decode under any configured backend.
    """

    def __init__(
        self,
        radius: int = DEFAULT_RADIUS,
        tracer: NullTracer = NULL_TRACER,
        backend: str | CodecBackend | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if radius < 1:
            raise ValueError("radius must be at least 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.radius = radius
        self.tracer = tracer
        self.backend = resolve_backend(backend)
        self.chunk_size = chunk_size

    @property
    def sentinel(self) -> int:
        """The outlier-escape symbol; always present in any codebook."""
        return 2 * self.radius

    def quantize(
        self, values: np.ndarray, error_bound: float
    ) -> QuantizedDeltas:
        """Stages 1-3: grid quantization, Lorenzo, code mapping."""
        grid = prequantize(values, error_bound)
        deltas = lorenzo_forward(grid)
        return encode_codes(deltas, self.radius)

    def histogram(
        self, values: np.ndarray, error_bound: float
    ) -> np.ndarray:
        """Quantization-code histogram (the shared-tree training input)."""
        quantized = self.quantize(values, error_bound)
        return np.bincount(
            quantized.codes.reshape(-1), minlength=2 * self.radius + 1
        )

    def resolve_bound(
        self, values: np.ndarray, error_bound: float, mode: str = "abs"
    ) -> float:
        """Turn a bound specification into an absolute bound.

        ``"abs"`` uses ``error_bound`` directly; ``"rel"`` (SZ's
        value-range-relative mode) multiplies it by the block's value
        range, so ``1e-3`` means "0.1 % of the range".
        """
        if mode == "abs":
            return error_bound
        if mode == "rel":
            value_range = (
                float(np.ptp(values)) if values.size else 0.0
            )
            # Constant (zero-range) data needs a floor that keeps the
            # grid indices within int64: a few ulps of the magnitude.
            magnitude = float(np.abs(values).max()) if values.size else 1.0
            floor = max(magnitude, 1.0) * np.finfo(np.float64).eps
            return max(error_bound * value_range, floor)
        raise ValueError(f"unknown error-bound mode {mode!r}")

    def compress(
        self,
        values: np.ndarray,
        error_bound: float,
        shared_codebook: huffman.Codebook | None = None,
        mode: str = "abs",
    ) -> CompressedBlock:
        """Compress one block within ``error_bound``.

        ``mode="abs"`` (default) treats the bound as absolute;
        ``mode="rel"`` as a fraction of the block's value range.
        """
        if values.dtype not in (np.float32, np.float64):
            raise TypeError(
                f"unsupported dtype {values.dtype}; use float32/float64"
            )
        error_bound = self.resolve_bound(values, error_bound, mode)
        with self.tracer.timed("codec.quantize", nbytes=values.nbytes):
            quantized = self.quantize(values, error_bound)
        codes = quantized.codes.reshape(-1)
        outlier_positions = quantized.outlier_positions
        outlier_values = quantized.outlier_values

        if not self.backend.uses_codebook:
            # Self-contained formats (deflate embeds its own token book;
            # zlib has none): no tree work, and a shared tree — whose
            # whole point is skipping per-block codebooks — does not
            # apply, so a passed one is ignored.
            codebook = None
            codebook_blob = b""
            used_shared = False
        elif shared_codebook is None:
            hist = np.bincount(codes, minlength=2 * self.radius + 1)
            # Length-limited codes keep the decoder on its dense-table
            # fast path at a negligible (<0.1 %) ratio cost.
            codebook = huffman.build_codebook(
                hist,
                force_symbols=(self.sentinel,),
                max_length=self.backend.build_max_length,
            )
            codebook_blob = huffman.codebook_to_bytes(codebook)
            used_shared = False
        else:
            codebook = shared_codebook
            codebook_blob = b""
            used_shared = True
            # Symbols the shared tree has no code for become outliers
            # (Section 4.3: "outliers ... allow us to include values that
            # defy coding by this shared Huffman tree").
            uncodable = ~codebook.can_encode(codes)
            uncodable[outlier_positions] = False  # already sentinel-coded
            if np.any(uncodable):
                extra = np.flatnonzero(uncodable)
                extra_values = codes[extra].astype(np.int64) - self.radius
                codes = codes.copy()
                codes[extra] = self.sentinel
                outlier_positions = np.concatenate(
                    [outlier_positions, extra]
                )
                outlier_values = np.concatenate(
                    [outlier_values, extra_values]
                )
                order = np.argsort(outlier_positions)
                outlier_positions = outlier_positions[order]
                outlier_values = outlier_values[order]

        with self.tracer.timed(
            "codec.encode",
            shared_tree=used_shared,
            backend=self.backend.name,
        ):
            stream = self.backend.encode(
                codes, codebook, chunk_size=self.chunk_size
            )
        body = (
            stream.data
            + outlier_positions.astype(np.int64).tobytes()
            + outlier_values.astype(np.int64).tobytes()
        )
        with self.tracer.timed("codec.lossless", nbytes=len(body)):
            payload = lossless_compress(body)
        return CompressedBlock(
            payload=payload,
            shape=values.shape,
            dtype=values.dtype,
            error_bound=error_bound,
            radius=self.radius,
            nbits=stream.nbits,
            num_outliers=int(outlier_positions.size),
            codebook_blob=codebook_blob,
            used_shared_tree=used_shared,
            chunk_size=stream.chunk_size,
            chunk_offsets=tuple(stream.chunk_offsets.tolist()),
            codec=self.backend.format_id,
        )

    def decompress(
        self,
        block: CompressedBlock,
        shared_codebook: huffman.Codebook | None = None,
    ) -> np.ndarray:
        """Restore a block; needs the shared codebook if one was used.

        The block header records which stream format the payload uses,
        so any compressor decodes any block: the configured backend is
        used when it speaks the block's format, otherwise the preferred
        decoder for that format is looked up in the registry.
        """
        backend = (
            self.backend
            if self.backend.format_id == block.codec
            else backend_for_format(block.codec)
        )
        if not backend.uses_codebook:
            codebook = None
        elif block.used_shared_tree:
            if shared_codebook is None:
                raise ValueError(
                    "block was compressed with a shared tree; pass it"
                )
            codebook = shared_codebook
        else:
            codebook = huffman.codebook_from_bytes(block.codebook_blob)

        body = lossless_decompress(block.payload)
        count = int(np.prod(block.shape, dtype=np.int64))
        encoded_len = (block.nbits + 7) // 8
        encoded = body[:encoded_len]
        rest = body[encoded_len:]
        outlier_positions = np.frombuffer(
            rest[: 8 * block.num_outliers], dtype=np.int64
        )
        outlier_values = np.frombuffer(
            rest[8 * block.num_outliers : 16 * block.num_outliers],
            dtype=np.int64,
        )
        chunk_offsets = (
            None
            if block.chunk_offsets is None
            else np.asarray(block.chunk_offsets, dtype=np.int64)
        )
        with self.tracer.timed(
            "codec.decode",
            backend=backend.name,
            nbytes=encoded_len,
            chunked=chunk_offsets is not None,
        ):
            codes = backend.decode(
                encoded,
                block.nbits,
                count,
                codebook,
                block.chunk_size,
                chunk_offsets,
            )
        quantized = QuantizedDeltas(
            codes=codes.reshape(block.shape),
            radius=block.radius,
            outlier_positions=outlier_positions,
            outlier_values=outlier_values,
        )
        deltas = decode_codes(quantized)
        grid = lorenzo_inverse(deltas)
        return dequantize(grid, block.error_bound).astype(block.dtype)
