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
``numpy``.
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
    "register_backend",
    "resolve_backend",
    "backend_for_format",
]

DEFAULT_BACKEND = "numpy"

_BACKEND_TYPES: dict[str, type[CodecBackend]] = {}
_INSTANCES: dict[str, CodecBackend] = {}

#: Preferred decoder per stream format (any same-format backend works —
#: formats are backend-independent — so the fastest is registered here).
_FORMAT_DEFAULTS: dict[int, str] = {}


def register_backend(
    backend_type: type[CodecBackend], format_default: bool = False
) -> type[CodecBackend]:
    """Register a backend class under its ``name``.

    ``format_default`` marks it the preferred decoder for its
    ``format_id`` (what :func:`backend_for_format` returns).
    """
    name = backend_type.name
    existing = _BACKEND_TYPES.get(name)
    if existing is not None and existing is not backend_type:
        raise ValueError(
            f"codec backend name {name!r} is already registered "
            f"by {existing.__name__}"
        )
    _BACKEND_TYPES[name] = backend_type
    if format_default or backend_type.format_id not in _FORMAT_DEFAULTS:
        _FORMAT_DEFAULTS[backend_type.format_id] = name
    return backend_type


register_backend(PureBackend)
register_backend(NumpyBackend, format_default=True)
register_backend(DeflateBackend, format_default=True)
register_backend(ZlibBackend, format_default=True)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKEND_TYPES))


def get_backend(name: str) -> CodecBackend:
    """The (shared, stateless) backend instance registered as ``name``."""
    try:
        backend_type = _BACKEND_TYPES[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise ValueError(
            f"unknown codec backend {name!r} (available: {known})"
        ) from None
    if name not in _INSTANCES:
        _INSTANCES[name] = backend_type()
    return _INSTANCES[name]


def resolve_backend(
    backend: str | CodecBackend | None = None,
) -> CodecBackend:
    """Resolve a backend spec: an instance, a registered name, or None
    for the ``numpy`` default."""
    if isinstance(backend, CodecBackend):
        return backend
    return get_backend(DEFAULT_BACKEND if backend is None else backend)


def backend_for_format(format_id: int) -> CodecBackend:
    """The preferred decoder for a block's recorded stream format."""
    try:
        return get_backend(_FORMAT_DEFAULTS[format_id])
    except KeyError:
        known = ", ".join(str(f) for f in sorted(_FORMAT_DEFAULTS))
        raise ValueError(
            f"corrupt compressed block: unknown codec format "
            f"{format_id} (known: {known})"
        ) from None
