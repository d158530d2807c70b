"""SZ compressor variants: radius sweep, stage invariants, and the
error bound as a property over every backend, shape, dtype and bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    CompressedBlock,
    SZCompressor,
    available_backends,
    max_abs_error,
)


def _field(rng, shape=(14, 14, 14)):
    return np.cumsum(rng.normal(size=shape), axis=0)


class TestRadiusVariants:
    @pytest.mark.parametrize("radius", [4, 32, 128, 512])
    def test_round_trip_any_radius(self, rng, radius):
        compressor = SZCompressor(radius=radius)
        field = _field(rng)
        block = compressor.compress(field, 0.05)
        recon = compressor.decompress(block)
        assert max_abs_error(field, recon) <= 0.05 * (1 + 1e-9)

    def test_small_radius_forces_outliers(self, rng):
        tiny = SZCompressor(radius=2)
        field = _field(rng) * 100
        block = tiny.compress(field, 0.01)
        assert block.num_outliers > 0
        recon = tiny.decompress(block)
        assert max_abs_error(field, recon) <= 0.01 * (1 + 1e-9)

    def test_sentinel_position(self):
        assert SZCompressor(radius=7).sentinel == 14

    def test_larger_radius_fewer_outliers(self, rng):
        field = _field(rng) * 50
        small = SZCompressor(radius=8).compress(field, 0.01)
        large = SZCompressor(radius=256).compress(field, 0.01)
        assert large.num_outliers <= small.num_outliers


class TestStageInvariants:
    def test_histogram_sums_to_size(self, rng):
        compressor = SZCompressor()
        field = _field(rng)
        hist = compressor.histogram(field, 0.1)
        assert int(hist.sum()) == field.size
        assert hist.size == 2 * compressor.radius + 1

    def test_quantize_codes_within_alphabet(self, rng):
        compressor = SZCompressor(radius=16)
        quantized = compressor.quantize(_field(rng), 0.05)
        assert quantized.codes.max() <= 2 * 16
        assert quantized.codes.min() >= 0

    def test_smoother_data_more_concentrated_histogram(self, rng):
        compressor = SZCompressor()
        smooth = _field(rng)
        # Uncorrelated data at the same per-point scale as the smooth
        # field's local increments, scaled up 20x so its Lorenzo deltas
        # spread over many codes while staying in-alphabet.
        eb = smooth.std() * 1e-3
        rough = rng.normal(size=(14, 14, 14)) * (20 * eb)
        h_smooth = compressor.histogram(smooth, eb)
        h_rough = compressor.histogram(rough, eb)

        def entropy(h):
            p = h[h > 0] / h.sum()
            return float(-(p * np.log2(p)).sum())

        assert entropy(h_smooth) < entropy(h_rough)

    def test_nbits_matches_payload_bound(self, rng):
        compressor = SZCompressor()
        block = compressor.compress(_field(rng), 0.05)
        # Huffman bytes inside the payload can't exceed the zlib input.
        assert (block.nbits + 7) // 8 >= 1


#: Largest |value| drawn: float32's half-ulp below it (3.05e-5) stays
#: inside the absolute slack ``test_sz.py`` allows float32.
_AMPLITUDE = 1000.0
#: Small enough that the per-symbol ``pure`` backend keeps up.
_MAX_EDGE = {1: 200, 2: 14, 3: 6}


@st.composite
def _fields(draw):
    """1-3-D float32/float64: smooth, noisy with outliers, or constant."""
    ndim = draw(st.integers(min_value=1, max_value=3))
    shape = tuple(
        draw(st.integers(min_value=1, max_value=_MAX_EDGE[ndim]))
        for _ in range(ndim)
    )
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    kind = draw(st.sampled_from(["smooth", "noisy", "constant"]))
    amplitude = draw(st.floats(min_value=1e-3, max_value=_AMPLITUDE))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "constant":
        field = np.full(shape, draw(st.floats(-_AMPLITUDE, _AMPLITUDE)))
    else:
        field = rng.normal(size=shape)
        if kind == "smooth":
            for axis in range(ndim):
                field = np.cumsum(field, axis=axis)
        else:
            field[rng.random(shape) < 0.05] *= 1e3
        field *= amplitude / max(np.abs(field).max(), 1e-300)
    return field.astype(dtype)


@given(field=_fields(), exponent=st.floats(min_value=-6.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_round_trip_random_bounds(field, exponent):
    """Every element is within the bound on every backend, through the
    block's stored bytes."""
    bound = 10.0**exponent
    if field.dtype == np.float32:
        # float32 reconstruction adds one ulp-scale rounding on top of eb.
        tolerance = bound * (1 + 1e-5) + 1e-4
    else:
        tolerance = bound * (1 + 1e-9)
    for backend in available_backends():
        compressor = SZCompressor(backend=backend)
        stored = compressor.compress(field, bound).to_bytes()
        recon = compressor.decompress(CompressedBlock.from_bytes(stored))
        assert recon.shape == field.shape and recon.dtype == field.dtype
        assert max_abs_error(field, recon) <= tolerance, backend
