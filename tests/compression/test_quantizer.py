"""Tests for prequantization and code mapping with outliers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    decode_codes,
    dequantize,
    encode_codes,
    prequantize,
)


class TestPrequantize:
    def test_error_bound_respected(self, rng):
        values = rng.normal(0, 100, size=1000)
        eb = 0.5
        recon = dequantize(prequantize(values, eb), eb)
        assert np.max(np.abs(values - recon)) <= eb + 1e-12

    def test_tiny_error_bound(self, rng):
        values = rng.normal(0, 1, size=100)
        eb = 1e-6
        recon = dequantize(prequantize(values, eb), eb)
        assert np.max(np.abs(values - recon)) <= eb * (1 + 1e-9)

    def test_zero_error_bound_rejected(self):
        with pytest.raises(ValueError):
            prequantize(np.zeros(3), 0.0)

    def test_negative_error_bound_rejected(self):
        with pytest.raises(ValueError):
            prequantize(np.zeros(3), -1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_is_named_as_such(self, bad, dtype):
        """No bound fixes a NaN: the error must say the field is
        non-finite (how many, where), not suggest a larger bound."""
        from repro.compression import SZCompressor

        values = np.linspace(0.0, 1.0, 64, dtype=dtype).reshape(4, 16)
        values[1, 3] = bad
        values[2, 0] = bad
        for call in (prequantize, SZCompressor().compress):
            with pytest.raises(ValueError) as exc:
                call(values, 0.1)
            message = str(exc.value)
            assert "2 non-finite value(s)" in message
            assert "flat index 19" in message
            assert "larger bound" not in message

    def test_preserves_shape(self, rng):
        values = rng.normal(size=(4, 5, 6))
        assert prequantize(values, 0.1).shape == (4, 5, 6)

    def test_integer_grid(self):
        values = np.array([0.0, 1.0, 2.0, -1.0])
        grid = prequantize(values, 0.5)  # grid spacing 1.0
        assert np.array_equal(grid, np.array([0, 1, 2, -1]))


class TestCodeMapping:
    def test_round_trip_no_outliers(self, rng):
        deltas = rng.integers(-100, 100, size=(10, 10)).astype(np.int64)
        q = encode_codes(deltas, radius=128)
        assert q.outlier_positions.size == 0
        assert np.array_equal(decode_codes(q), deltas)

    def test_round_trip_with_outliers(self, rng):
        deltas = rng.integers(-100, 100, size=50).astype(np.int64)
        deltas[7] = 10_000
        deltas[21] = -99_999
        q = encode_codes(deltas, radius=128)
        assert q.outlier_positions.size == 2
        assert np.array_equal(decode_codes(q), deltas)

    def test_boundary_values(self):
        radius = 8
        deltas = np.array([-radius, -radius + 1, 0, radius - 1, radius])
        q = encode_codes(deltas, radius=radius)
        # The alphabet covers [-radius, radius): -radius is code 0, only
        # +radius overflows into the outlier channel.
        assert set(q.outlier_positions.tolist()) == {4}
        assert q.codes[0] == 0
        assert np.array_equal(decode_codes(q), deltas)

    def test_minus_radius_uses_code_zero_not_outlier(self):
        # Regression: symmetric data routed delta == -radius to the
        # outlier channel, leaving code 0 unused and inflating outlier
        # counts.
        radius = 16
        deltas = np.full(100, -radius, dtype=np.int64)
        q = encode_codes(deltas, radius=radius)
        assert q.outlier_positions.size == 0
        assert np.all(q.codes == 0)
        assert np.array_equal(decode_codes(q), deltas)

    def test_sentinel_code(self):
        radius = 8
        deltas = np.array([10_000], dtype=np.int64)
        q = encode_codes(deltas, radius=radius)
        assert q.codes[0] == 2 * radius

    def test_outlier_fraction(self):
        deltas = np.array([0, 0, 10_000, 0], dtype=np.int64)
        q = encode_codes(deltas, radius=8)
        assert q.outlier_fraction == pytest.approx(0.25)

    def test_empty(self):
        q = encode_codes(np.zeros(0, dtype=np.int64))
        assert q.outlier_fraction == 0.0
        assert decode_codes(q).size == 0

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            encode_codes(np.zeros(1, dtype=np.int64), radius=0)

    def test_num_symbols(self):
        q = encode_codes(np.zeros(1, dtype=np.int64), radius=128)
        assert q.num_symbols == 257


@given(
    st.lists(
        st.integers(min_value=-(2**40), max_value=2**40),
        min_size=0,
        max_size=200,
    ),
    st.integers(min_value=1, max_value=300),
)
@settings(max_examples=80, deadline=None)
def test_code_mapping_round_trip_property(deltas_list, radius):
    deltas = np.array(deltas_list, dtype=np.int64)
    q = encode_codes(deltas, radius=radius)
    assert np.array_equal(decode_codes(q), deltas)
    assert q.codes.max(initial=0) <= 2 * radius
