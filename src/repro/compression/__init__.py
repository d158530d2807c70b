"""Error-bounded lossy compression substrate (SZ-style) with the paper's
three runtime designs: fine-grained blocking, the compressed data buffer,
and the shared Huffman tree."""

from .blocking import (
    BlockSpec,
    compress_field_blocks,
    plan_blocks,
    reassemble_field,
    slice_field,
)
from .buffer import BufferedBlock, CompressedDataBuffer, WriteUnit
from .huffman import (
    CODEBOOK_KIND_RAW,
    CODEBOOK_KIND_RLE,
    Codebook,
    build_codebook,
    codebook_blob_kind,
    codebook_from_bytes,
    codebook_to_bytes,
    decode,
    encode,
    estimate_encoded_bits,
    pack_bits,
    unpack_bits,
)
from .kernels import (
    DEFAULT_CHUNK_SIZE,
    FORMAT_DEFLATE,
    FORMAT_HUFFMAN,
    FORMAT_ZLIB,
    CodecBackend,
    EncodedStream,
    available_backends,
    backend_for_format,
    get_backend,
    resolve_backend,
)
from .kernels.pure import encode_reference
from .lossless import lossless_compress, lossless_decompress
from .metrics import bit_rate, compression_ratio, max_abs_error, nrmse, psnr
from .predictors import lorenzo_forward, lorenzo_inverse
from .quantizer import (
    DEFAULT_RADIUS,
    QuantizedDeltas,
    decode_codes,
    dequantize,
    encode_codes,
    prequantize,
)
from .ratio_model import (
    OUTLIER_BITS,
    CompressionThroughputModel,
    RatioEstimate,
    RatioModel,
)
from .shared_tree import SharedTreeManager, degradation_ratio
from .sz import CompressedBlock, SZCompressor

__all__ = [
    "BlockSpec",
    "plan_blocks",
    "slice_field",
    "reassemble_field",
    "compress_field_blocks",
    "BufferedBlock",
    "CompressedDataBuffer",
    "WriteUnit",
    "Codebook",
    "build_codebook",
    "codebook_to_bytes",
    "codebook_from_bytes",
    "codebook_blob_kind",
    "CODEBOOK_KIND_RAW",
    "CODEBOOK_KIND_RLE",
    "encode",
    "encode_reference",
    "decode",
    "estimate_encoded_bits",
    "pack_bits",
    "unpack_bits",
    "lossless_compress",
    "lossless_decompress",
    "compression_ratio",
    "bit_rate",
    "psnr",
    "max_abs_error",
    "nrmse",
    "lorenzo_forward",
    "lorenzo_inverse",
    "DEFAULT_RADIUS",
    "QuantizedDeltas",
    "prequantize",
    "dequantize",
    "encode_codes",
    "decode_codes",
    "SharedTreeManager",
    "degradation_ratio",
    "DEFAULT_CHUNK_SIZE",
    "FORMAT_HUFFMAN",
    "FORMAT_DEFLATE",
    "FORMAT_ZLIB",
    "CodecBackend",
    "EncodedStream",
    "available_backends",
    "backend_for_format",
    "get_backend",
    "resolve_backend",
    "CompressedBlock",
    "SZCompressor",
    "RatioModel",
    "RatioEstimate",
    "CompressionThroughputModel",
    "OUTLIER_BITS",
]
