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
* inverse:  a cumulative sum along each axis, in reverse order, in one
  buffer: ``np.cumsum`` along narrow rows, one vectorized add per row
  along an axis whose rows are wide.

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


#: Rows of at least this many elements accumulate as one vectorized add
#: per row (``np.cumsum`` runs its inner loop *along* the axis, paying a
#: call per row position: 92 us for the 2-long leading axis of a
#: ``(2, 64, 64)`` block against 3 us for one row add).
_ROW_ADD_MIN = 512


def lorenzo_inverse(
    deltas: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact inverse of :func:`lorenzo_forward`: a cumulative sum along
    every axis, last axis first.

    ``out`` (optional, ``deltas`` itself allowed) receives the result in
    place; without it the result is a new array of ``np.cumsum``'s
    dtype.
    """
    if deltas.ndim < 1:
        raise ValueError("lorenzo_inverse requires at least rank 1")
    values = np.cumsum(deltas, axis=-1, out=out)
    row = deltas.shape[-1]  # elements in one row of the current axis
    for axis in reversed(range(deltas.ndim - 1)):
        if row >= _ROW_ADD_MIN:
            head = (slice(None),) * axis
            for i in range(1, deltas.shape[axis]):
                current = values[head + (i,)]
                np.add(current, values[head + (i - 1,)], out=current)
        else:
            np.cumsum(values, axis=axis, out=values)
        row *= deltas.shape[axis]
    return values
