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

import math
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
    num_chunks,
)
from .lossless import lossless_compress, lossless_decompress
from .predictors import lorenzo_forward, lorenzo_inverse
from .quantizer import (
    DEFAULT_RADIUS,
    QuantizedDeltas,
    check_radius,
    decode_codes,
    dequantize,
    encode_codes,
    prequantize,
)

__all__ = ["CompressedBlock", "SZCompressor", "DEFAULT_RADIUS"]

_MAGIC = b"RSZ1"
_DTYPES = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
#: v1-v3 (read-only) fixed header.
_HEADER_FMT = "<4sBBBdIQQQI"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
#: v4 fixed header: magic, version, flags, ndim, codec, codebook kind,
#: error bound.  Every size that follows is a LEB128 varint.
_V4_FMT = "<4sBBBBBd"
_V4_SIZE = struct.calcsize(_V4_FMT)
#: v4 flags: bit 0 dtype, bit 1 shared tree, bits 2-3 chunk-index state,
#: bits 4-5 log2 of the delta width in bytes, bits 6-7 zero.
_INDEX_NONE, _INDEX_RAW, _INDEX_DEFLATED = 0, 1, 2
_DELTA_DTYPES = tuple(np.dtype(f"<u{1 << code}") for code in range(4))

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


def _varint(value: int) -> bytes:
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    return bytes(out) + bytes([value])


def _read_varints(blob: bytes, offset: int, n: int) -> tuple[list[int], int]:
    """``n`` varints starting at ``offset``, and where they end."""
    values = []
    try:
        for _ in range(n):
            byte = blob[offset]
            offset += 1
            value = byte & 0x7F
            shift = 7
            while byte > 0x7F:
                if shift > 63:
                    raise IndexError
                byte = blob[offset]
                offset += 1
                value |= (byte & 0x7F) << shift
                shift += 7
            values.append(value)
    except IndexError:
        raise ValueError(
            "truncated compressed block: the header field at byte "
            f"{offset} runs past the blob or past 64 bits"
        ) from None
    return values, offset


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
    #: Stream format of the payload's coded section (v3+ header field);
    #: any compressor decodes it via ``backend_for_format``.
    codec: int = FORMAT_HUFFMAN
    #: Serialized layout of ``codebook_blob`` (``CODEBOOK_KIND_*``;
    #: ``None`` infers it from the blob itself).
    codebook_kind: int | None = None

    def __post_init__(self) -> None:
        if self.codebook_kind is None:
            self.codebook_kind = _infer_codebook_kind(self.codebook_blob)

    def __setattr__(self, name: str, value: object) -> None:
        # Fields are assignable, so an assignment drops the cached blob.
        self.__dict__.pop("_blob", None)
        super().__setattr__(name, value)

    @property
    def original_nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize

    @property
    def compressed_nbytes(self) -> int:
        return len(self.to_bytes())

    @property
    def compression_ratio(self) -> float:
        compressed = self.compressed_nbytes
        return self.original_nbytes / compressed if compressed else 1.0

    def _index_section(self) -> tuple[int, int, bytes]:
        """``(state, width code, bytes)`` of the v4 chunk index: deltas
        between consecutive chunk starts in the narrowest unsigned width
        that holds the largest, deflated when that comes out smaller."""
        if self.chunk_offsets is None:
            return _INDEX_NONE, 0, b""
        offsets = np.asarray(self.chunk_offsets, dtype=np.int64)
        deltas = offsets[1:] - offsets[:-1]
        want = num_chunks(math.prod(self.shape), self.chunk_size)
        if (
            offsets.size != want
            or (want and offsets[0] != 0)
            or (deltas.size and deltas.min() < 0)
        ):
            raise ValueError(
                f"chunk index must be {want} ascending bit offsets from "
                f"0 (chunk size {self.chunk_size}), got {offsets.size}"
            )
        widest = int(deltas.max(initial=0)).bit_length()
        width_code = (widest > 8) + (widest > 16) + (widest > 32)
        raw = deltas.astype(_DELTA_DTYPES[width_code]).tobytes()
        packed = lossless_compress(raw)
        if len(packed) < len(raw):
            return _INDEX_DEFLATED, width_code, packed
        return _INDEX_RAW, width_code, raw

    def to_bytes(self) -> bytes:
        """Serialize as format v4 (``docs/formats.md``), the one layout
        written — also for a block parsed from an older one.  Built once
        and cached on the instance until a field is assigned."""
        cached = self.__dict__.get("_blob")
        if cached is not None:
            return cached
        state, width_code, index = self._index_section()
        header = struct.pack(
            _V4_FMT,
            _MAGIC,
            4,
            _DTYPE_CODES[self.dtype]
            | self.used_shared_tree << 1
            | state << 2
            | width_code << 4,
            len(self.shape),
            self.codec,
            self.codebook_kind,
            self.error_bound,
        )
        sizes = [
            self.radius,
            self.chunk_size,
            self.nbits,
            self.num_outliers,
            len(self.payload),
            len(self.codebook_blob),
            *self.shape,
        ]
        if state != _INDEX_NONE:
            sizes.append(len(index))
        sections = (index, self.codebook_blob, self.payload)
        blob = b"".join([header, *map(_varint, sizes), *sections])
        self.__dict__["_blob"] = blob
        return blob

    @classmethod
    def from_bytes(
        cls, blob: bytes, expected_crc32c: int | None = None
    ) -> "CompressedBlock":
        """Parse any format version (v1-v3 read-only, v4 written)."""
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

        codec = FORMAT_HUFFMAN
        chunk_size = 0
        chunk_offsets: tuple[int, ...] | None = None
        v4 = blob[:5] == _MAGIC + b"\x04"
        if v4:
            _, _, flags, ndim, codec, codebook_kind, error_bound = (
                struct.unpack(_V4_FMT, take(0, _V4_SIZE, "header"))
            )
            dtype_code, shared_flag = flags & 1, flags & 2
            state = flags >> 2 & 3
            if flags >> 6 or state > _INDEX_DEFLATED:
                raise ValueError(
                    "corrupt compressed block: unknown chunk index flags "
                    f"{flags:#04x}"
                )
            sizes, offset = _read_varints(
                blob, _V4_SIZE, 6 + ndim + (state != _INDEX_NONE)
            )
            radius, chunk_size, nbits, num_outliers = sizes[:4]
            payload_len, codebook_len, *shape = sizes[4 : 6 + ndim]
            if state != _INDEX_NONE:
                index = take(offset, sizes[-1], "chunk index")
                offset += sizes[-1]
                chunk_offsets = _index_from_bytes(
                    index,
                    state == _INDEX_DEFLATED,
                    _DELTA_DTYPES[flags >> 4 & 3],
                    num_chunks(math.prod(shape), chunk_size),
                )
        else:
            codebook_kind = None  # pre-v3: inferred from the blob below
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
                    "not a compressed block: unknown format version "
                    f"{version}"
                )
            if dtype_code not in _DTYPES:
                raise ValueError(
                    "corrupt compressed block: unknown dtype code "
                    f"{dtype_code}"
                )
            offset = _HEADER_SIZE
            shape = struct.unpack(
                f"<{ndim}Q", take(offset, 8 * ndim, "shape dims")
            )
            offset += 8 * ndim
            (shared_flag,) = struct.unpack("<B", take(offset, 1, "flags"))
            offset += 1
            if version == 3:
                codec, codebook_kind = struct.unpack(
                    "<BB", take(offset, 2, "codec info")
                )
                offset += 2
            if version >= 2:
                chunk_size, stored = struct.unpack(
                    "<II", take(offset, 8, "chunk header")
                )
                offset += 8
                chunk_offsets = tuple(
                    np.frombuffer(
                        take(offset, 4 * stored, "chunk offsets"),
                        dtype=np.uint32,
                    ).tolist()
                )
                offset += 4 * stored
        if codec not in KNOWN_FORMATS:
            known = ", ".join(str(f) for f in KNOWN_FORMATS)
            raise ValueError(
                f"corrupt compressed block: unknown codec format "
                f"{codec} (known: {known})"
            )
        if codebook_kind is not None and codebook_kind not in _KNOWN_KINDS:
            raise ValueError(
                f"corrupt compressed block: unknown codebook kind "
                f"{codebook_kind}"
            )
        codebook_blob = take(offset, codebook_len, "codebook blob")
        offset += codebook_len
        payload = take(offset, payload_len, "payload")
        trailing = len(blob) - offset - payload_len
        if v4 and trailing:
            raise ValueError(
                f"corrupt compressed block: {trailing} trailing bytes "
                "after the payload"
            )
        if codebook_kind is None:
            codebook_kind = _infer_codebook_kind(codebook_blob)
        # Every field is parsed and checked: fill them in directly, not
        # through ``__init__``, whose assignments would each go through
        # the cache-dropping ``__setattr__``.
        block = cls.__new__(cls)
        vars(block).update(
            payload=payload,
            shape=tuple(shape),
            dtype=_DTYPES[dtype_code],
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
        return block


def _index_from_bytes(
    index: bytes, deflated: bool, delta_dtype: np.dtype, chunks: int
) -> tuple[int, ...]:
    """Absolute chunk start bits from a v4 index section."""
    if deflated:
        try:
            index = lossless_decompress(index)
        except ValueError as exc:
            raise ValueError(
                f"corrupt compressed block: chunk index does not inflate "
                f"({exc})"
            ) from exc
    want = max(chunks - 1, 0) * delta_dtype.itemsize
    if len(index) != want:
        raise ValueError(
            f"corrupt compressed block: chunk index holds {len(index)} "
            f"bytes, {chunks} chunks need {want}"
        )
    # One cumsum turns the deltas back into the decoder's int64 starts.
    starts = np.cumsum(np.frombuffer(index, delta_dtype), dtype=np.int64)
    return (0, *starts.tolist()) if chunks else ()


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
        check_radius(radius)
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
        body = stream.data
        if outlier_positions.size:
            body = b"".join(
                (
                    body,
                    outlier_positions.astype(np.int64).tobytes(),
                    outlier_values.astype(np.int64).tobytes(),
                )
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
        decoder for that format comes from the format → decoder table.
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
        count = math.prod(block.shape)
        encoded_len = (block.nbits + 7) // 8
        num_outliers = block.num_outliers
        if (
            len(body) != encoded_len + 16 * num_outliers
            or num_outliers > count
            or (block.codec == FORMAT_HUFFMAN and count > block.nbits)
        ):
            # Before anything count-sized is allocated: a Huffman symbol
            # takes at least one bit, an outlier one symbol.
            raise ValueError(
                f"corrupt compressed block: {len(body)} payload bytes "
                f"cannot hold {count} symbols in {block.nbits} bits plus "
                f"{num_outliers} outliers"
            )
        outlier_positions, outlier_values = np.frombuffer(
            body, np.int64, 2 * num_outliers, encoded_len
        ).reshape(2, -1)
        if num_outliers and not (
            0 <= outlier_positions.min() and outlier_positions.max() < count
        ):
            raise ValueError(
                "corrupt compressed block: an outlier position lies "
                f"outside the block's {count} values"
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
                body[:encoded_len],
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
        # One int64 buffer from the code mapping through the inverse
        # Lorenzo; one multiply to the floats, cast only for float32.
        grid = decode_codes(quantized)
        lorenzo_inverse(grid, out=grid)
        return dequantize(grid, block.error_bound).astype(
            block.dtype, copy=False
        )
