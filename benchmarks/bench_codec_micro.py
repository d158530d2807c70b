"""Codec micro-benchmarks: real throughput of the compression substrate.

Not a paper figure — these measure this machine's actual throughput for
each stage of the pipeline (the numbers the throughput models abstract):
integer Lorenzo, Huffman encode/decode per kernel backend, full SZ-style
compress/decompress (native and shared tree, and a round trip under
every backend), and the ZFP-style codec.  pytest-benchmark's timing
table is the output.

CI divides the pure case of a kernel by its numpy case, both medians
read from one run's JSON::

    PYTHONPATH=src python -m pytest benchmarks/bench_codec_micro.py \\
        --benchmark-only --benchmark-json=BENCH_quick.json
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.apps import NyxModel
from repro.compression import (
    SZCompressor,
    ZFPCompressor,
    available_backends,
    build_codebook,
    get_backend,
    lorenzo_forward,
    prequantize,
)

_EDGE = 48  # ~0.9 MB float64

#: What the data plane decodes per task: one 64 KiB block of a 64^3
#: float64 field (a 2 x 64 x 64 slab: 8 192 symbols, 32 chunks).  The
#: edge-48 stream has >= 432 chunks and never shows what a stream this
#: short costs.
_BLOCK_SHAPE = (2, 64, 64)

# One data-plane block per call, repeated so a sample is milliseconds,
# not the timer's resolution.
_BLOCK_DECODES = 50


@functools.lru_cache(maxsize=None)
def _prepared_stream(shape: tuple[int, ...]):
    """(codes, codebook, encoded stream, field, bound) for a Nyx
    temperature block of the given shape."""
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
    return codes, book, stream, data, bound


@pytest.fixture(scope="module")
def field():
    return _prepared_stream((_EDGE,) * 3)[3]


@pytest.fixture(scope="module")
def error_bound():
    return _prepared_stream((_EDGE,) * 3)[4]


def test_micro_lorenzo_forward(benchmark, field, error_bound):
    grid = prequantize(field, error_bound)
    result = benchmark(lorenzo_forward, grid)
    assert result.shape == field.shape


def test_micro_prequantize(benchmark, field, error_bound):
    result = benchmark(prequantize, field, error_bound)
    assert result.dtype == np.int64


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


def _decode_with(backend_name: str, shape: tuple[int, ...]) -> None:
    codes, book, stream, _, _ = _prepared_stream(shape)
    out = get_backend(backend_name).decode(
        stream.data,
        stream.nbits,
        codes.size,
        book,
        stream.chunk_size,
        stream.chunk_offsets,
    )
    assert out.size == codes.size


@pytest.mark.parametrize("backend", ["pure", "numpy"])
def test_huffman_decode(benchmark, backend):
    benchmark.pedantic(
        _decode_with,
        args=(backend, (_EDGE,) * 3),
        rounds=3,
        warmup_rounds=1,
        iterations=1,
    )


@pytest.mark.parametrize("backend", ["pure", "numpy"])
def test_huffman_decode_64k(benchmark, backend):
    def decode_blocks():
        for _ in range(_BLOCK_DECODES):
            _decode_with(backend, _BLOCK_SHAPE)

    benchmark.pedantic(
        decode_blocks, rounds=5, warmup_rounds=1, iterations=1
    )


def _encode_with(backend_name: str) -> None:
    codes, book, _, _, _ = _prepared_stream((_EDGE,) * 3)
    backend = get_backend(backend_name)
    stream = backend.encode(
        codes, book if backend.uses_codebook else None
    )
    assert stream.nbits > 0


# The pure case is the reference the CI speedup gate divides by;
# deflate/zlib track the self-coding formats' throughput alongside the
# Huffman kernels.
@pytest.mark.parametrize("backend", available_backends())
def test_encode(benchmark, backend):
    benchmark.pedantic(
        _encode_with, args=(backend,), rounds=3, warmup_rounds=1,
        iterations=1,
    )


def _sz_roundtrip(backend_name: str) -> None:
    _, _, _, data, bound = _prepared_stream((32, 32, 32))
    compressor = SZCompressor(backend=backend_name)
    block = compressor.compress(data, bound)
    recon = compressor.decompress(block)
    assert recon.shape == data.shape
    assert np.max(np.abs(recon - data)) <= bound * (1 + 1e-9)


# A timed compress -> decompress under every backend, each checking the
# error bound on what it decoded.
@pytest.mark.parametrize("backend", available_backends())
def test_sz_roundtrip(benchmark, backend):
    benchmark.pedantic(
        _sz_roundtrip, args=(backend,), rounds=3, warmup_rounds=1,
        iterations=1,
    )
