"""Final lossless stage (SZ applies a general-purpose lossless pass last).

zlib stands in for SZ3's zstd stage: it removes the residual redundancy the
Huffman stage leaves (long zero runs in the packed stream, the outlier
arrays).  Level 1 is used — the stage exists for ratio fidelity, not to
dominate runtime.
"""

from __future__ import annotations

import zlib

__all__ = ["lossless_compress", "lossless_decompress"]

_LEVEL = 1


def lossless_compress(payload: bytes) -> bytes:
    """Apply the final lossless stage to an encoded payload."""
    return zlib.compress(payload, _LEVEL)


def lossless_decompress(payload: bytes) -> bytes:
    """Invert :func:`lossless_compress`; a damaged stream is a
    ``ValueError``, like every other corrupt-input report of the codec."""
    try:
        return zlib.decompress(payload)
    except zlib.error as exc:
        raise ValueError(f"corrupt lossless stream: {exc}") from exc
