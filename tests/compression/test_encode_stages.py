"""The one-pass encode stages against the loops they replaced.

The oracles below are the straightforward forms the compressor used to
run: Lorenzo by repeated ``np.diff(prepend=)``, code mapping by boolean
masks, canonical codes by a sorted per-symbol loop.  The fast stages
must match them value for value (and the slab Huffman encoder must
match the per-symbol ``pure`` reference in bytes, ``nbits`` and chunk
offsets) on every input, the edges included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.compression import (
    SZCompressor,
    build_codebook,
    encode,
    get_backend,
    huffman,
    lorenzo_forward,
    prequantize,
)
from repro.compression.kernels.pure import encode_reference, offsets_reference
from repro.compression.quantizer import MAX_RADIUS, encode_codes


def lorenzo_diff(quantized):
    deltas = quantized
    for axis in range(quantized.ndim):
        shape = list(deltas.shape)
        shape[axis] = 1
        deltas = np.diff(
            deltas, axis=axis, prepend=np.zeros(shape, dtype=deltas.dtype)
        )
    return deltas


def encode_codes_masked(deltas, radius):
    flat = deltas.reshape(-1)
    in_range = (flat >= -radius) & (flat < radius)
    codes = np.empty(flat.shape, dtype=np.uint16)
    codes[in_range] = (flat[in_range] + radius).astype(np.uint16)
    codes[~in_range] = 2 * radius
    positions = np.flatnonzero(~in_range)
    return codes.reshape(deltas.shape), positions, flat[positions].copy()


def canonical_codes_loop(lengths):
    codes = np.zeros(lengths.size, dtype=np.uint64)
    order = sorted(
        (int(s) for s in np.flatnonzero(lengths > 0)),
        key=lambda s: (int(lengths[s]), s),
    )
    code = 0
    prev_len = 0
    for symbol in order:
        length = int(lengths[symbol])
        code <<= length - prev_len
        codes[symbol] = code
        code += 1
        prev_len = length
    return codes


@given(
    values=arrays(
        dtype=np.int64,
        shape=array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=7),
        elements=st.integers(min_value=-(2**40), max_value=2**40),
    )
)
@settings(max_examples=120, deadline=None)
def test_lorenzo_matches_diff_oracle(values):
    before = values.copy()
    deltas = lorenzo_forward(values)
    expected = lorenzo_diff(values)
    assert deltas.dtype == expected.dtype
    assert np.array_equal(deltas, expected)
    assert np.array_equal(values, before)  # input untouched


def test_lorenzo_on_strided_view():
    grid = np.arange(6 * 7 * 8, dtype=np.int64).reshape(6, 7, 8) ** 2
    view = grid[::2, 1:, ::3]
    assert np.array_equal(lorenzo_forward(view), lorenzo_diff(view))


@st.composite
def _deltas_and_radius(draw):
    radius = draw(st.sampled_from([1, 2, 8, 128, 1000, MAX_RADIUS]))
    edges = [-radius - 1, -radius, -radius + 1, 0, radius - 1, radius]
    elements = st.one_of(
        st.sampled_from(edges),
        st.integers(min_value=-radius, max_value=radius - 1),
        st.integers(min_value=-(2**62), max_value=2**62),
    )
    values = draw(st.lists(elements, min_size=0, max_size=300))
    return np.array(values, dtype=np.int64), radius


@given(case=_deltas_and_radius(), in_range_only=st.booleans())
@settings(max_examples=150, deadline=None)
def test_encode_codes_matches_mask_oracle(case, in_range_only):
    deltas, radius = case
    if in_range_only:
        # The fast path: every delta inside [-radius, radius).
        deltas = np.clip(deltas, -radius, radius - 1)
    q = encode_codes(deltas, radius)
    codes, positions, values = encode_codes_masked(deltas, radius)
    assert q.codes.dtype == np.uint16
    assert np.array_equal(q.codes, codes)
    assert q.outlier_positions.dtype == positions.dtype
    assert np.array_equal(q.outlier_positions, positions)
    assert q.outlier_values.dtype == values.dtype
    assert np.array_equal(q.outlier_values, values)


@pytest.mark.parametrize("radius", [1, 8, MAX_RADIUS])
def test_encode_codes_radius_edges(radius):
    deltas = np.array([[-radius, radius - 1], [radius, -radius - 1]])
    q = encode_codes(deltas, radius)
    assert q.codes.tolist() == [[0, 2 * radius - 1], [2 * radius] * 2]
    assert q.outlier_positions.tolist() == [2, 3]
    assert q.outlier_values.tolist() == [radius, -radius - 1]


class TestPrequantizeErrors:
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_named(self, bad, dtype):
        values = np.array([1.0, 2.0, bad, 3.0, bad], dtype=dtype)
        with pytest.raises(
            ValueError,
            match=r"2 non-finite value\(s\) \(first: .* at flat index 2\)",
        ):
            prequantize(values, 0.5)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_two_to_the_63_overflows(self, sign):
        values = np.array([0.0, sign * 2.0**63, 5.0])
        with pytest.raises(
            ValueError, match="overflows the int64 quantization grid"
        ):
            prequantize(values, 0.5)

    def test_just_inside_the_grid_passes(self):
        values = np.array([-(2.0**62), 2.0**62])
        assert prequantize(values, 0.5).tolist() == [-(2**62), 2**62]

    @given(seed=st.integers(0, 2**16), scale=st.sampled_from([1e-3, 1.0, 1e6]))
    @settings(max_examples=40, deadline=None)
    def test_matches_rint_cast(self, seed, scale):
        rng = np.random.default_rng(seed)
        for dtype in (np.float32, np.float64):
            values = (rng.normal(size=(5, 7)) * scale).astype(dtype)
            expected = np.rint(values / (2.0 * 0.01)).astype(np.int64)
            assert np.array_equal(prequantize(values, 0.01), expected)

    def test_empty(self):
        out = prequantize(np.zeros((0, 3)), 0.1)
        assert out.shape == (0, 3) and out.dtype == np.int64


class TestRadiusBound:
    """A radius whose sentinel ``2 * radius`` overflows the uint16 code
    array is refused by name at both entry points."""

    @pytest.mark.parametrize("radius", [0, MAX_RADIUS + 1, 2**16])
    def test_compressor_rejects(self, radius):
        with pytest.raises(ValueError, match="radius must be in 1..32767"):
            SZCompressor(radius=radius)

    @pytest.mark.parametrize("radius", [0, MAX_RADIUS + 1, 2**16])
    def test_encode_codes_rejects(self, radius):
        with pytest.raises(ValueError, match="radius must be in 1..32767"):
            encode_codes(np.zeros(4, dtype=np.int64), radius)

    def test_widest_radius_round_trips(self, rng):
        field = np.cumsum(rng.normal(size=(6, 6)), axis=0) * 1e5
        field[2, 3] = 1e12  # one delta beyond any radius
        compressor = SZCompressor(radius=MAX_RADIUS)
        block = compressor.compress(field, 0.5)
        assert block.num_outliers >= 1
        recon = compressor.decompress(block)
        assert np.max(np.abs(recon - field)) <= 0.5 * (1 + 1e-9)


def _kraft_lengths(rng, n_symbols, max_len, drop):
    """A Kraft-valid length vector: an optimal limited-depth code, with
    some coded symbols then dropped (an incomplete code stays valid)."""
    freqs = rng.integers(0, 1000, size=n_symbols)
    freqs *= rng.random(n_symbols) < 0.8
    if not freqs.any():
        freqs[rng.integers(n_symbols)] = 1
    present = int(np.count_nonzero(freqs))
    max_len = max(max_len, int(np.ceil(np.log2(max(present, 2)))))
    lengths = build_codebook(freqs, max_length=max_len).lengths.copy()
    if drop:
        coded = np.flatnonzero(lengths)
        lengths[rng.choice(coded, size=coded.size // 3, replace=False)] = 0
    return lengths


@given(
    seed=st.integers(0, 2**16),
    n_symbols=st.integers(1, 257),
    max_len=st.integers(1, 12),
    drop=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_canonical_codes_match_loop(seed, n_symbols, max_len, drop):
    lengths = _kraft_lengths(
        np.random.default_rng(seed), n_symbols, max_len, drop
    )
    codes = huffman._canonical_codes(lengths)
    assert codes.dtype == np.uint64
    assert np.array_equal(codes, canonical_codes_loop(lengths))


def _book(lengths):
    return huffman.Codebook(
        lengths=lengths, codes=huffman._canonical_codes(lengths)
    )


def _zero_code_symbol(book):
    return int(np.flatnonzero((book.codes == 0) & (book.lengths > 0))[0])


@st.composite
def _books_and_streams(draw):
    """``(book, stream)`` pairs over the shapes the slab encoder must get
    right: optimal books, books whose all-zero code word belongs to a
    rare symbol, one-symbol books and depth-12 books."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["optimal", "rare-zero", "one", "deep"]))
    count = draw(st.integers(0, 1500))
    if kind == "one":
        lengths = np.zeros(int(rng.integers(1, 300)), dtype=np.uint8)
        lengths[rng.integers(lengths.size)] = 1
    elif kind == "deep":
        freqs = 2.0 ** -np.arange(int(rng.integers(14, 40)))
        lengths = build_codebook(
            (freqs * 2**45).astype(np.int64), max_length=12
        ).lengths.copy()
        assert lengths.max() == 12
    else:
        lengths = _kraft_lengths(rng, int(rng.integers(2, 258)), 12, False)
    book = _book(lengths)
    coded = np.flatnonzero(book.lengths)
    probs = rng.random(coded.size) ** 4 + 1e-3
    if kind == "rare-zero":
        probs[coded == _zero_code_symbol(book)] = 1e-4
    elif kind == "optimal":
        probs = 2.0 ** -book.lengths[coded].astype(np.float64)
    probs /= probs.sum()
    stream = rng.choice(coded, size=count, p=probs).astype(np.uint16)
    return book, stream


@given(
    case=_books_and_streams(),
    chunk_size=st.sampled_from([1, 7, 256]),
    slab=st.sampled_from([1, 64, 1000, huffman.ENCODE_SLAB]),
)
@settings(max_examples=150, deadline=None)
def test_slab_encoder_matches_reference(case, chunk_size, slab):
    book, stream = case
    data, nbits, offsets = huffman.encode_with_offsets(
        stream, book, chunk_size, slab=slab
    )
    ref_data, ref_bits = encode_reference(stream, book)
    assert (data, nbits) == (ref_data, ref_bits)
    assert offsets.dtype == np.uint64
    assert np.array_equal(
        offsets, offsets_reference(stream, book, chunk_size)
    )


def test_rare_symbol_owning_the_zero_code_word():
    # Equal lengths: symbol 0 owns code 00 however rare it is.
    book = _book(np.full(4, 2, dtype=np.uint8))
    stream = np.array([3] * 50 + [0] + [2] * 30 + [0, 1], dtype=np.uint16)
    assert _zero_code_symbol(book) == 0
    for chunk_size in (1, 7, 256):
        data, nbits, offsets = huffman.encode_with_offsets(
            stream, book, chunk_size, slab=chunk_size * 3
        )
        assert (data, nbits) == encode_reference(stream, book)
        assert np.array_equal(
            offsets, offsets_reference(stream, book, chunk_size)
        )


class TestUncodedSymbol:
    """The first symbol without a code is named the same way by the
    slab path, the deep-book fallback and the reference loop."""

    def _stream(self, book, bad):
        coded = np.flatnonzero(book.lengths)
        stream = np.resize(coded, 700).astype(np.uint16)
        stream[[450, 600]] = bad
        return stream

    def test_every_path_same_error(self):
        lengths = _kraft_lengths(np.random.default_rng(3), 40, 12, True)
        bad = int(np.flatnonzero(lengths == 0)[0])
        book = _book(lengths)
        stream = self._stream(book, bad)
        match = f"symbol {bad} has no code in this codebook"
        for name in ("numpy", "pure"):
            with pytest.raises(ValueError, match=match):
                get_backend(name).encode(stream, book, 7)
        with pytest.raises(ValueError, match=match):
            encode(stream, book)
        with pytest.raises(ValueError, match=match):
            huffman.encode_with_offsets(stream, book, 7, slab=64)
        with pytest.raises(ValueError, match=match):
            encode_reference(stream, book)

    def test_deep_book_fallback_same_error(self):
        freqs = [1, 1]
        while len(freqs) < 28:
            freqs.append(freqs[-1] + freqs[-2])
        lengths = build_codebook(np.array(freqs + [0])).lengths
        assert lengths.max() > 25 and lengths[-1] == 0
        book = _book(lengths)
        stream = self._stream(book, lengths.size - 1)
        match = f"symbol {lengths.size - 1} has no code in this codebook"
        with pytest.raises(ValueError, match=match):
            huffman.encode_with_offsets(stream, book, 7)
        with pytest.raises(ValueError, match=match):
            encode_reference(stream, book)

    def test_symbol_past_the_alphabet(self):
        book = _book(np.array([1, 2, 2], dtype=np.uint8))
        stream = np.array([0, 1, 2, 9, 0], dtype=np.uint16)
        with pytest.raises(ValueError, match="symbol 9 has no code"):
            huffman.encode_with_offsets(stream, book, 2)

    def test_negative_symbol(self):
        book = _book(np.array([1, 2, 2], dtype=np.uint8))
        stream = np.array([0, 1, -3, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="symbol -3 has no code"):
            huffman.encode_with_offsets(stream, book, 2)

    def test_book_without_codes(self):
        book = _book(np.zeros(5, dtype=np.uint8))
        with pytest.raises(ValueError, match="symbol 4 has no code"):
            huffman.encode_with_offsets(
                np.array([4, 0], dtype=np.uint16), book, 2
            )
