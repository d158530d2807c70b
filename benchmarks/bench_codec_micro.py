"""Codec micro-benchmarks: real throughput of the compression substrate.

Not a paper figure — these measure this machine's actual throughput for
each stage of the pipeline (the numbers the throughput models abstract):
integer Lorenzo, Huffman encode/decode per kernel backend, full SZ-style
compress/decompress (native and shared tree, and a round trip under
every backend).  pytest-benchmark's timing table is the output.

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
    CompressedBlock,
    SZCompressor,
    available_backends,
    build_codebook,
    compress_field_blocks,
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


@functools.lru_cache(maxsize=None)
def _restore_block() -> bytes:
    """One 64 KiB block as ``restore_nyx`` reads it: the first block of
    rank 0's baryon density at iteration 1 of a seed-23, 64^3 Nyx dump."""
    app = NyxModel(seed=23, partition_shape=(64,) * 3)
    name = "baryon_density"
    (_, blob, _), *_ = compress_field_blocks(
        SZCompressor(),
        name,
        app.generate_field(name, 0, 1),
        app.field(name).error_bound,
        1 << 16,
    )
    return blob


def test_sz_decompress_64k(benchmark):
    """The whole per-block restore path (``from_bytes`` + ``decompress``)
    the 64 KiB decode cases time the Huffman walk of.  Reported beside
    them, not gated: there is no reference loop to divide by."""
    blob = _restore_block()
    compressor = SZCompressor()

    def restore_blocks():
        for _ in range(_BLOCK_DECODES):
            compressor.decompress(CompressedBlock.from_bytes(blob))

    benchmark.pedantic(
        restore_blocks, rounds=5, warmup_rounds=1, iterations=1
    )


#: A WarpX-like stream: 256 k symbols, ~90 % of them the zero-delta code,
#: the rest a narrow spread around it (plus a few outlier sentinels).
_SKEWED_SYMBOLS = 1 << 18


@functools.lru_cache(maxsize=None)
def _skewed_stream():
    rng = np.random.default_rng(67)
    radius = SZCompressor().radius
    codes = np.full(_SKEWED_SYMBOLS, radius, dtype=np.uint16)
    rest = rng.random(_SKEWED_SYMBOLS) >= 0.9
    spread = np.rint(rng.laplace(0, 3, size=int(rest.sum()))).astype(int)
    codes[rest] = np.clip(radius + spread, 0, 2 * radius)
    book = build_codebook(
        np.bincount(codes, minlength=2 * radius + 1),
        force_symbols=(2 * radius,),
        max_length=SZCompressor().backend.build_max_length,
    )
    return codes, book


def _encode_with(backend_name: str, stream: str) -> None:
    if stream == "skewed":
        codes, book = _skewed_stream()
    else:
        codes, book, _, _, _ = _prepared_stream((_EDGE,) * 3)
    backend = get_backend(backend_name)
    encoded = backend.encode(
        codes, book if backend.uses_codebook else None
    )
    assert encoded.nbits > 0


# The pure cases are the references the CI speedup gates divide by;
# deflate/zlib track the self-coding formats' throughput alongside the
# Huffman kernels.  ``skewed-*`` is the WarpX-like stream for the two
# Huffman kernels.
@pytest.mark.parametrize(
    "backend,stream",
    [(name, "nyx") for name in available_backends()]
    + [(name, "skewed") for name in ("pure", "numpy")],
    ids=[*available_backends(), "skewed-pure", "skewed-numpy"],
)
def test_encode(benchmark, backend, stream):
    benchmark.pedantic(
        _encode_with, args=(backend, stream), rounds=3, warmup_rounds=1,
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
