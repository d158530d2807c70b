"""Error-bounded prequantization and quantization-code mapping.

Two responsibilities, mirroring the predictor/quantizer split of SZ:

1. **Prequantization** maps floats onto the absolute-error-bound grid:
   ``q = round(x / (2 * eb))`` so that ``|x - 2 * eb * q| <= eb``.
2. **Code mapping** clips Lorenzo deltas into a fixed alphabet of
   ``2 * radius`` quantization codes centred on zero; deltas outside the
   radius become *outliers* stored verbatim (Section 4.3 relies on this
   outlier channel to make a shared Huffman tree safe: any value the
   shared tree cannot code is simply routed to the outlier list).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantizedDeltas", "prequantize", "dequantize", "encode_codes", "decode_codes"]

#: Default half-width of the quantization-code alphabet.  256 symbols keep
#: Huffman code words short and decode tables small.
DEFAULT_RADIUS = 128

#: First grid magnitude the int64 cast cannot hold (2**63 - 1 is not
#: float64-representable; the nearest exact power is 2**63).
_GRID_LIMIT = float(2**63)

#: Widest alphabet whose outlier sentinel ``2 * radius`` fits the uint16
#: code array.
MAX_RADIUS = 2**15 - 1


@dataclass
class QuantizedDeltas:
    """Lorenzo deltas split into in-range codes and outliers.

    Attributes:
        codes: uint16 array, same shape as the input; in-range deltas are
            stored as ``delta + radius``; outlier positions hold the
            sentinel code ``2 * radius``.
        radius: alphabet half-width used for the mapping.
        outlier_positions: flat indices of out-of-range deltas.
        outlier_values: their original int64 delta values.
    """

    codes: np.ndarray
    radius: int
    outlier_positions: np.ndarray
    outlier_values: np.ndarray

    @property
    def num_symbols(self) -> int:
        """Alphabet size including the outlier sentinel."""
        return 2 * self.radius + 1

    @property
    def outlier_fraction(self) -> float:
        if self.codes.size == 0:
            return 0.0
        return self.outlier_positions.size / self.codes.size


def prequantize(values: np.ndarray, error_bound: float) -> np.ndarray:
    """Snap ``values`` to the ``2 * error_bound`` grid, returning int64.

    Guarantees ``|values - dequantize(result)| <= error_bound`` (up to
    float rounding of the reconstruction itself).
    """
    if error_bound <= 0:
        raise ValueError("error_bound must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.divide(values, 2.0 * error_bound)
    np.rint(grid, out=grid)
    # int64 wraps silently on cast, turning a huge value / tiny bound
    # into garbage that violates the error bound without any error.  One
    # min and one max decide it: a NaN propagates into both, an infinity
    # or an out-of-range value lands in one of them.
    if grid.size and not (
        -_GRID_LIMIT < grid.min() and grid.max() < _GRID_LIMIT
    ):
        _raise_off_grid(values, grid, error_bound)
    return grid.astype(np.int64)


def _raise_off_grid(
    values: np.ndarray, grid: np.ndarray, error_bound: float
) -> None:
    """Name what keeps ``values`` off the int64 grid."""
    bad = ~np.isfinite(grid) | (np.abs(grid) >= _GRID_LIMIT)
    flat = np.asarray(values).reshape(-1)
    nonfinite = np.flatnonzero(~np.isfinite(flat))
    if nonfinite.size:
        # No bound fixes a NaN or an infinity: say what is wrong
        # with the field, not with the bound.
        first = int(nonfinite[0])
        raise ValueError(
            f"field has {nonfinite.size} non-finite value(s) (first: "
            f"{flat[first]!r} at flat index {first}); an error bound "
            "is only defined for finite data"
        )
    worst = flat[int(np.flatnonzero(bad.reshape(-1))[0])]
    raise ValueError(
        f"value {worst!r} overflows the int64 quantization grid at "
        f"error bound {error_bound:g}; use a larger bound or scale "
        "the data"
    )


def dequantize(quantized: np.ndarray, error_bound: float) -> np.ndarray:
    """Reconstruct floats from grid indices (float64, one pass)."""
    return np.multiply(quantized, 2.0 * error_bound, dtype=np.float64)


def check_radius(radius: int) -> None:
    """Codes and the ``2 * radius`` sentinel must fit uint16."""
    if not 1 <= radius <= MAX_RADIUS:
        raise ValueError(
            f"radius must be in 1..{MAX_RADIUS} so the outlier sentinel "
            f"2 * radius fits a uint16 code, got {radius}"
        )


def encode_codes(
    deltas: np.ndarray, radius: int = DEFAULT_RADIUS
) -> QuantizedDeltas:
    """Map integer deltas to the bounded code alphabet, extracting outliers."""
    check_radius(radius)
    flat = deltas.reshape(-1)
    # The alphabet covers deltas in [-radius, radius): code 0 encodes
    # exactly -radius (|delta| < radius would wrongly route it to the
    # outlier channel and leave code 0 of the 2*radius+1 alphabet unused).
    if not flat.size or (flat.min() >= -radius and flat.max() < radius):
        # No outlier: every delta + radius fits uint16, so a wrapping
        # cast followed by a wrapping add lands on the same code.
        codes = flat.astype(np.uint16)
        codes += radius
        positions = np.zeros(0, dtype=np.intp)
    else:
        in_range = (flat >= -radius) & (flat < radius)
        codes = np.empty(flat.shape, dtype=np.uint16)
        codes[in_range] = (flat[in_range] + radius).astype(np.uint16)
        codes[~in_range] = 2 * radius  # outlier sentinel
        positions = np.flatnonzero(~in_range)
    return QuantizedDeltas(
        codes=codes.reshape(deltas.shape),
        radius=radius,
        outlier_positions=positions,
        outlier_values=flat[positions],
    )


def decode_codes(quantized: QuantizedDeltas) -> np.ndarray:
    """Invert :func:`encode_codes`, reinserting outliers: a new
    C-ordered int64 array, ``codes - radius`` in one pass."""
    deltas = np.subtract(
        quantized.codes, quantized.radius, dtype=np.int64, order="C"
    )
    if quantized.outlier_positions.size:
        deltas.reshape(-1)[quantized.outlier_positions] = (
            quantized.outlier_values
        )
    return deltas
