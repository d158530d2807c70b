"""Codec micro-benchmarks: real throughput of the compression substrate.

Not a paper figure — these measure this machine's actual throughput for
each stage of the pipeline (the numbers the throughput models abstract):
integer Lorenzo, Huffman encode/decode, full SZ-style compress/decompress
(native and shared tree), and the ZFP-style codec.  pytest-benchmark's
timing table is the output.

The ``@bench_case`` entries (group ``codec``) additionally register the
Huffman decode/encode hot paths and a full SZ round trip with ``repro
bench``, one case per kernel backend, so CI can gate the pure/numpy
speedups as ratios within one run::

    PYTHONPATH=src python -m repro bench run --filter codec --quick
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import NyxModel
from repro.bench import bench_case
from repro.compression import (
    SZCompressor,
    ZFPCompressor,
    available_backends,
    build_codebook,
    decode,
    encode,
    get_backend,
    lorenzo_forward,
    prequantize,
)

_SHAPE = (48, 48, 48)  # ~0.9 MB float64


@pytest.fixture(scope="module")
def field():
    app = NyxModel(seed=61, partition_shape=_SHAPE)
    return app.generate_field("temperature", 0, 5)


@pytest.fixture(scope="module")
def error_bound():
    return NyxModel(seed=61).field("temperature").error_bound


def test_micro_lorenzo_forward(benchmark, field, error_bound):
    grid = prequantize(field, error_bound)
    result = benchmark(lorenzo_forward, grid)
    assert result.shape == field.shape


def test_micro_prequantize(benchmark, field, error_bound):
    result = benchmark(prequantize, field, error_bound)
    assert result.dtype == np.int64


def test_micro_huffman_encode(benchmark, field, error_bound):
    compressor = SZCompressor()
    quantized = compressor.quantize(field, error_bound)
    codes = quantized.codes.reshape(-1)
    hist = np.bincount(codes, minlength=2 * compressor.radius + 1)
    book = build_codebook(hist, force_symbols=(compressor.sentinel,))
    data, nbits = benchmark(encode, codes, book)
    assert nbits > 0


def test_micro_huffman_decode(benchmark, field, error_bound):
    compressor = SZCompressor()
    quantized = compressor.quantize(field, error_bound)
    codes = quantized.codes.reshape(-1)
    hist = np.bincount(codes, minlength=2 * compressor.radius + 1)
    book = build_codebook(hist, force_symbols=(compressor.sentinel,))
    data, nbits = encode(codes, book)
    result = benchmark.pedantic(
        decode, args=(data, nbits, codes.size, book), rounds=2, iterations=1
    )
    assert np.array_equal(result, codes)


def test_micro_sz_compress_native_tree(benchmark, field, error_bound):
    compressor = SZCompressor()
    block = benchmark(compressor.compress, field, error_bound)
    assert block.compression_ratio > 1.0
    benchmark.extra_info["ratio"] = block.compression_ratio


def test_micro_sz_compress_shared_tree(benchmark, field, error_bound):
    compressor = SZCompressor()
    hist = compressor.histogram(field, error_bound)
    shared = build_codebook(hist, force_symbols=(compressor.sentinel,))
    block = benchmark(
        compressor.compress, field, error_bound, shared
    )
    assert block.used_shared_tree


def test_micro_sz_decompress(benchmark, field, error_bound):
    compressor = SZCompressor()
    block = compressor.compress(field, error_bound)
    result = benchmark.pedantic(
        compressor.decompress, args=(block,), rounds=2, iterations=1
    )
    assert result.shape == field.shape


def test_micro_zfp_compress(benchmark, field):
    codec = ZFPCompressor(8)
    stream = benchmark(codec.compress, field)
    assert stream.compression_ratio > 6.0


def test_micro_zfp_decompress(benchmark, field):
    codec = ZFPCompressor(8)
    stream = codec.compress(field)
    result = benchmark(codec.decompress, stream)
    assert result.shape == field.shape


# --- repro.bench registrations (group "codec") -------------------------
#
# Setup (field synthesis, quantization, encoding) is cached per edge so
# the registered bodies time only the operation under test; the harness's
# warmup pass pays the one-time setup cost.

_PREPARED: dict[tuple[int, ...], tuple] = {}

#: What the data plane decodes per task: one 64 KiB block of a 64^3
#: float64 field (a 2 x 64 x 64 slab: 8 192 symbols, 32 chunks).  The
#: edge-48/64 streams have >= 432 chunks and never show what a stream
#: this short costs.
_BLOCK_SHAPE = (2, 64, 64)


def _prepared_stream(edge: int | tuple[int, ...]):
    """(codes, codebook, encoded stream) for a Nyx temperature block of
    the given cube edge (or explicit shape)."""
    shape = (edge,) * 3 if isinstance(edge, int) else edge
    if shape not in _PREPARED:
        app = NyxModel(seed=61, partition_shape=shape)
        data = app.generate_field("temperature", 0, 5)
        bound = app.field("temperature").error_bound
        compressor = SZCompressor()
        quantized = compressor.quantize(data, bound)
        codes = quantized.codes.reshape(-1)
        hist = np.bincount(codes, minlength=2 * compressor.radius + 1)
        book = build_codebook(
            hist,
            force_symbols=(compressor.sentinel,),
            max_length=compressor.backend.build_max_length,
        )
        stream = compressor.backend.encode(
            codes, book, chunk_size=compressor.chunk_size
        )
        _PREPARED[shape] = (codes, book, stream, data, bound)
    return _PREPARED[shape]


def _decode_with(backend_name: str, edge: int | tuple[int, ...]) -> None:
    codes, book, stream, _, _ = _prepared_stream(edge)
    out = get_backend(backend_name).decode(
        stream.data,
        stream.nbits,
        codes.size,
        book,
        stream.chunk_size,
        stream.chunk_offsets,
    )
    assert out.size == codes.size


@bench_case(
    "codec.huffman_decode_pure",
    group="codec",
    params={"edge": 64},
    quick={"edge": 48},
    warmup=1,
    repeats=3,
    timeout_s=120.0,
)
def bench_decode_pure(edge=64):
    _decode_with("pure", edge)


@bench_case(
    "codec.huffman_decode_numpy",
    group="codec",
    params={"edge": 64},
    quick={"edge": 48},
    warmup=1,
    repeats=3,
    timeout_s=120.0,
)
def bench_decode_numpy(edge=64):
    _decode_with("numpy", edge)


# One data-plane block per call, repeated so a sample is milliseconds,
# not the timer's resolution.  The CI gate divides the pure case by the
# numpy case of the same run.
_BLOCK_DECODES = 50


@bench_case(
    "codec.huffman_decode_pure_64k",
    group="codec",
    quick=True,
    warmup=1,
    repeats=5,
    timeout_s=60.0,
)
def bench_decode_pure_64k():
    for _ in range(_BLOCK_DECODES):
        _decode_with("pure", _BLOCK_SHAPE)


@bench_case(
    "codec.huffman_decode_numpy_64k",
    group="codec",
    quick=True,
    warmup=1,
    repeats=5,
    timeout_s=60.0,
)
def bench_decode_numpy_64k():
    for _ in range(_BLOCK_DECODES):
        _decode_with("numpy", _BLOCK_SHAPE)


def _encode_with(backend_name: str, edge: int) -> None:
    codes, book, _, _, _ = _prepared_stream(edge)
    backend = get_backend(backend_name)
    stream = backend.encode(
        codes, book if backend.uses_codebook else None
    )
    assert stream.nbits > 0


def _sz_roundtrip(backend_name: str, edge: int) -> None:
    _, _, _, data, bound = _prepared_stream(edge)
    compressor = SZCompressor(backend=backend_name)
    block = compressor.compress(data, bound)
    recon = compressor.decompress(block)
    assert recon.shape == data.shape
    assert np.max(np.abs(recon - data)) <= bound * (1 + 1e-9)


def _register_per_backend(name, body, *, edge, quick_edge, timeout_s):
    """One ``name.format(backend)`` case per registered backend."""

    def register(backend_name: str) -> None:
        @bench_case(
            name.format(backend_name),
            group="codec",
            params={"edge": edge},
            quick={"edge": quick_edge},
            warmup=1,
            repeats=3,
            timeout_s=timeout_s,
        )
        def _case(edge=edge):
            body(backend_name, edge)

    for backend_name in available_backends():
        register(backend_name)


# Encode: the pure case is the reference the CI speedup gate divides by;
# deflate/zlib track the self-coding formats' throughput alongside the
# Huffman kernels.
_register_per_backend(
    "codec.encode.{}", _encode_with, edge=64, quick_edge=48, timeout_s=240.0
)
# A timed compress -> decompress under every backend, each checking the
# error bound on what it decoded.
_register_per_backend(
    "codec.sz_roundtrip_{}", _sz_roundtrip, edge=48, quick_edge=32,
    timeout_s=120.0,
)
