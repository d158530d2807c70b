"""CRC32C: known vectors, chaining, combination, the gather kernel."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import checksum as cs
from repro.durability.checksum import crc32c, crc32c_combine, crc32c_hex


def reference(data, value=0):
    """The bytewise oracle, in ``crc32c``'s finalized domain."""
    return cs._bytewise(bytes(data), value ^ 0xFFFFFFFF) ^ 0xFFFFFFFF


def random_bytes(rng, length):
    return rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()


class TestVectors:
    """The standard Castagnoli check values (RFC 3720 / iSCSI)."""

    def test_check_string(self):
        assert crc32c(b"123456789") == 0xE3069283

    def test_zeros(self):
        assert crc32c(bytes(32)) == 0x8A9136AA

    def test_ones(self):
        assert crc32c(b"\xff" * 32) == 0x62A8AB43

    def test_incrementing(self):
        assert crc32c(bytes(range(32))) == 0x46DD794E

    def test_decrementing(self):
        assert crc32c(bytes(range(31, -1, -1))) == 0x113FDB5C

    def test_empty(self):
        assert crc32c(b"") == 0

    def test_hex_form(self):
        assert crc32c_hex(b"123456789") == "e3069283"


class TestChaining:
    def test_running_value_matches_one_shot(self, rng):
        data = random_bytes(rng, 10_000)
        split = 3_333
        running = crc32c(data[split:], crc32c(data[:split]))
        assert running == crc32c(data)

    def test_byte_at_a_time(self, rng):
        data = random_bytes(rng, 100)
        state = 0
        for i in range(len(data)):
            state = crc32c(data[i : i + 1], state)
        assert state == crc32c(data)

    def test_memoryview_and_ndarray_inputs(self, rng):
        arr = rng.integers(0, 256, size=512, dtype=np.uint8)
        blob = arr.tobytes()
        assert crc32c(memoryview(blob)) == crc32c(blob)
        assert crc32c(arr) == crc32c(blob)

    @pytest.mark.parametrize("length", [48, 4_096])
    def test_buffer_kinds(self, length, rng):
        """Both sides of the crossover accept every bytes-like kind."""
        blob = random_bytes(rng, length)
        expected = reference(blob)
        assert crc32c(bytearray(blob)) == expected
        readonly = memoryview(blob)
        assert readonly.readonly
        assert crc32c(readonly) == expected
        for dtype in (np.uint16, np.float32, np.float64):
            wide = np.frombuffer(blob, dtype=dtype)
            assert crc32c(wide) == expected
            assert crc32c(wide.reshape(2, -1)) == expected

    @pytest.mark.parametrize("length", [40, 5_000])
    def test_non_contiguous_views(self, length, rng):
        arr = rng.integers(0, 256, size=2 * length, dtype=np.uint8)
        # A strided byte view is checksummed over its logical bytes ...
        assert crc32c(arr[::2]) == reference(arr[::2].tobytes())
        # ... a strided multi-byte view cannot be cast to bytes.
        with pytest.raises(TypeError):
            crc32c(arr.view(np.uint16)[::2])

    def test_input_is_not_modified(self, rng):
        """The running value is folded into a copy of the first bytes."""
        data = bytearray(random_bytes(rng, 1_000))
        before = bytes(data)
        crc32c(data, 0xDEADBEEF)
        assert bytes(data) == before


class TestVectorizedKernel:
    """The numpy gather path must agree with the bytewise reference."""

    @pytest.mark.parametrize(
        "length",
        [0, 1, 8191, 8192, 24575, 24576, 24577, 28672, 98321],
    )
    def test_matches_bytewise(self, length, rng):
        data = random_bytes(rng, length)
        assert crc32c(data) == reference(data)

    def test_matches_bytewise_with_seed(self, rng):
        data = random_bytes(rng, 24_581)
        seed = crc32c(b"prefix")
        assert crc32c(data, seed) == reference(data, seed)

    def test_random_lengths_property(self, rng):
        for _ in range(20):
            data = random_bytes(rng, int(rng.integers(0, 98_304)))
            assert crc32c(data) == reference(data)

    def test_every_short_length(self, rng):
        """Every ragged first chunk, with and without a second chunk."""
        value = int(rng.integers(1, 2**32))
        data = random_bytes(rng, 2 * cs._L + 8)
        for length in range(len(data) + 1):
            piece = data[:length]
            assert crc32c(piece) == reference(piece), length
            assert crc32c(piece, value) == reference(piece, value), length

    @pytest.mark.parametrize(
        "length",
        sorted(
            {k * cs._L + d for k in (3, 4, 7, 8, 33, 64) for d in (-1, 0, 1)}
            | {cs._GATHER_MIN + d for d in (-1, 0, 1)}
            # A slab boundary, and a tail on each side of the crossover.
            | {cs._SLAB + d for d in (-1, 0, 1)}
            | {cs._SLAB + cs._GATHER_MIN + d for d in (-1, 0)}
            | {2 * cs._SLAB + 3}
        ),
    )
    def test_boundary_lengths(self, length, rng):
        data = random_bytes(rng, length)
        value = int(rng.integers(1, 2**32))
        assert crc32c(data) == reference(data)
        assert crc32c(data, value) == reference(data, value)

    def test_peak_memory_is_independent_of_input_size(self):
        """Regression for an unslabbed gather: 2 B of index and 4 B of
        gathered word per input byte would be ~400 MiB here."""
        data = memoryview(bytes(64 << 20))
        half = data[: 32 << 20]
        tracemalloc.start()
        whole = crc32c(data)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 8 << 20, f"peak {peak / 2**20:.1f} MiB"
        assert whole == crc32c_combine(crc32c(half), crc32c(half), 32 << 20)

    def test_table_construction_is_cheap(self):
        """The tables are built at import; every process pays for them."""
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            position = cs._position_table()
            advance = cs._advance_tables(len(cs._ADVANCE))
            best = min(best, time.perf_counter() - start)
        assert best < 0.010, f"{best * 1e3:.1f} ms"
        assert np.array_equal(position, cs._W)
        assert np.array_equal(advance[-1], cs._ADVANCE[-1])


class TestCombine:
    def test_combine_equals_concatenation(self, rng):
        for _ in range(20):
            a = random_bytes(rng, int(rng.integers(0, 2_000)))
            b = random_bytes(rng, int(rng.integers(0, 2_000)))
            assert crc32c_combine(crc32c(a), crc32c(b), len(b)) == crc32c(
                a + b
            )

    def test_combine_zero_length(self):
        assert crc32c_combine(0x12345678, crc32c(b""), 0) == 0x12345678

    def test_combine_associates_with_three_parts(self, rng):
        parts = [random_bytes(rng, 500) for _ in range(3)]
        total = crc32c(parts[0])
        for part in parts[1:]:
            total = crc32c_combine(total, crc32c(part), len(part))
        assert total == crc32c(b"".join(parts))

    @given(
        data=st.binary(max_size=3 * cs._L),
        cut=st.integers(min_value=0, max_value=3 * cs._L),
    )
    @settings(max_examples=200, deadline=None)
    def test_split_chain_combine_agree(self, data, cut):
        """Any split, empty parts included: one shot == chained == combined."""
        a, b = data[:cut], data[cut:]
        whole = crc32c(data)
        assert whole == reference(data)
        assert crc32c(b, crc32c(a)) == whole
        assert crc32c_combine(crc32c(a), crc32c(b), len(b)) == whole

    def test_many_distinct_lengths_stay_fast(self, rng):
        """Write units combine with every block's own length; the operator
        cache used to thrash on them (1.7 ms per uncached length)."""
        lengths = rng.integers(1, 1 << 40, size=500).tolist()
        start = time.perf_counter()
        for length in lengths:
            crc32c_combine(0x12345678, 0x9ABCDEF0, length)
        assert time.perf_counter() - start < 0.25  # ~10 us each

    def test_combine_length_range(self):
        with pytest.raises(ValueError):
            crc32c_combine(1, 2, -1)
        with pytest.raises(ValueError):
            crc32c_combine(1, 2, 1 << 64)
        # Advancing a zero register over any run of zeros leaves zero.
        assert crc32c_combine(0, 7, (1 << 64) - 1) == 7
