"""Codec kernel backends (the encode/decode hot path).

Four interchangeable implementations behind one contract:

* ``pure`` — per-symbol reference loops (``pure.encode_reference`` /
  ``huffman.decode``), the behavioural baseline;
* ``numpy`` — slab-vectorized encode + chunk-parallel dense-table decode
  (the default), enabled by the per-chunk bit offsets the v2+ block
  format records;
* ``deflate`` — distance-1 LZ77 run tokens + embedded canonical-Huffman
  book (own stream format, no external codebook, no shared tree);
* ``zlib`` — narrowed symbol bytes through zlib level 1 (no tree work at
  all, the fastest encode).

``pure`` and ``numpy`` share one bit format and produce bit-identical
streams; ``deflate`` and ``zlib`` define their own self-contained
formats, recorded per block via :data:`FORMAT_DEFLATE` /
:data:`FORMAT_ZLIB` in the block header so any compressor instance decodes
any block (:func:`backend_for_format`).

Selection: an explicit ``SZCompressor(backend=...)`` argument, else
``numpy``.  The four are a closed set: the lookups below read two
constant tables, name → backend and format → decoder.
"""

from __future__ import annotations

from .base import (
    DEFAULT_CHUNK_SIZE,
    FORMAT_DEFLATE,
    FORMAT_HUFFMAN,
    FORMAT_ZLIB,
    KNOWN_FORMATS,
    CodecBackend,
    EncodedStream,
    encode_chunked,
)
from .deflate import DeflateBackend
from .pure import PureBackend
from .vectorized import NumpyBackend
from .zlibfast import ZlibBackend

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "FORMAT_HUFFMAN",
    "FORMAT_DEFLATE",
    "FORMAT_ZLIB",
    "KNOWN_FORMATS",
    "CodecBackend",
    "EncodedStream",
    "encode_chunked",
    "PureBackend",
    "NumpyBackend",
    "DeflateBackend",
    "ZlibBackend",
    "DEFAULT_BACKEND",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "backend_for_format",
]

DEFAULT_BACKEND = "numpy"

#: Every backend by name, sorted; the backends are stateless, so one
#: shared instance each serves every caller.
_BACKENDS: dict[str, CodecBackend] = {
    "deflate": DeflateBackend(),
    "numpy": NumpyBackend(),
    "pure": PureBackend(),
    "zlib": ZlibBackend(),
}

#: The decoder per stream format (any same-format backend works —
#: formats are backend-independent — so this names the fastest).
_FORMAT_DECODERS: dict[int, CodecBackend] = {
    FORMAT_HUFFMAN: _BACKENDS["numpy"],
    FORMAT_DEFLATE: _BACKENDS["deflate"],
    FORMAT_ZLIB: _BACKENDS["zlib"],
}


def available_backends() -> tuple[str, ...]:
    """Backend names, sorted."""
    return tuple(_BACKENDS)


def get_backend(name: str) -> CodecBackend:
    """The (shared, stateless) backend instance named ``name``."""
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise ValueError(
            f"unknown codec backend {name!r} (available: {known})"
        ) from None


def resolve_backend(
    backend: str | CodecBackend | None = None,
) -> CodecBackend:
    """Resolve a backend spec: an instance, a backend name, or None
    for the ``numpy`` default."""
    if isinstance(backend, CodecBackend):
        return backend
    return get_backend(DEFAULT_BACKEND if backend is None else backend)


def backend_for_format(format_id: int) -> CodecBackend:
    """The preferred decoder for a block's recorded stream format."""
    try:
        return _FORMAT_DECODERS[format_id]
    except KeyError:
        known = ", ".join(str(f) for f in sorted(_FORMAT_DECODERS))
        raise ValueError(
            f"corrupt compressed block: unknown codec format "
            f"{format_id} (known: {known})"
        ) from None
