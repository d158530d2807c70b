"""Lorenzo prediction on prequantized integers (the cuSZ "dual-quant" form).

Classic SZ predicts each value from previously *decoded* neighbours, which
serializes the scan.  The GPU formulation used by cuSZ — from the same
research group as this paper — first quantizes every value onto the
error-bound grid ("prequantization"), then applies the first-order Lorenzo
transform *to the resulting integers*.  Integer Lorenzo is exactly
invertible, so the error bound established by prequantization survives the
round trip, and both directions vectorize:

* forward:  one flat ``np.subtract`` per axis (a zero prepended, in
  effect), ping-ponging between two preallocated buffers;
* inverse:  repeated ``np.cumsum`` along each axis, in reverse order.

The transform concentrates smooth fields' integer values near zero, which
is what makes the subsequent Huffman stage effective.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lorenzo_forward", "lorenzo_inverse"]


def lorenzo_forward(quantized: np.ndarray) -> np.ndarray:
    """First-order Lorenzo deltas of an integer array (any rank >= 1)."""
    if quantized.ndim < 1:
        raise ValueError("lorenzo_forward requires at least rank 1")
    source = np.ascontiguousarray(quantized)
    if not source.size:
        return source.copy()
    # Along axis k, element i minus element i - stride(k) is one
    # subtraction over the whole flat array; it is wrong only on the
    # leading slab of the axis (which has no predecessor there), and
    # that slab keeps its values — the difference against an implicit
    # zero slab.  Each axis writes into the other of two buffers.
    buffers = [np.empty_like(source)]
    if source.ndim > 1:
        buffers.append(np.empty_like(source))
    stride = source.size
    for axis in range(source.ndim):
        stride //= source.shape[axis]
        target = buffers[axis % 2]
        flat_in, flat_out = source.reshape(-1), target.reshape(-1)
        np.subtract(flat_in[stride:], flat_in[:-stride], out=flat_out[stride:])
        head = (slice(None),) * axis + (0,)
        target[head] = source[head]
        source = target
    return source


def lorenzo_inverse(deltas: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`lorenzo_forward`."""
    if deltas.ndim < 1:
        raise ValueError("lorenzo_inverse requires at least rank 1")
    values = deltas
    for axis in reversed(range(deltas.ndim)):
        values = np.cumsum(values, axis=axis)
    return values
