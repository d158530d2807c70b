"""The numpy decoder's two walks (pointer doubling for short streams,
lockstep for long ones): same symbols, same rejections, and the same
raise-vs-decode verdict as the ``pure`` reference."""

import base64
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compression import (
    CompressedBlock,
    SZCompressor,
    build_codebook,
    get_backend,
    huffman,
)
from repro.compression.kernels import DEFAULT_CHUNK_SIZE, vectorized
from repro.compression.kernels.pure import decode_walk

_DATA_DIR = Path(__file__).parent / "data"
_PATHS = ("doubling", "lockstep")
_FORCE = {"doubling": 1 << 62, "lockstep": -1}


@contextmanager
def _forced(path):
    """Route every numpy decode through one walk, whatever the size."""
    saved = vectorized.DOUBLING_MAX_BITS
    vectorized.DOUBLING_MAX_BITS = _FORCE[path]
    try:
        yield
    finally:
        vectorized.DOUBLING_MAX_BITS = saved


def _numpy_decode(path, data, nbits, count, book, chunk_size, offsets):
    with _forced(path):
        return get_backend("numpy").decode(
            data, nbits, count, book, chunk_size, offsets
        )


def _outcome(decode, *args):
    """``("ok", symbols)`` or ``("error", message)``; anything but a
    ``ValueError`` propagates and fails the test."""
    try:
        return "ok", decode(*args)
    except ValueError as exc:
        return "error", str(exc)


def _fibonacci_book(n_symbols, limit, sentinel):
    """A book as deep as ``limit`` allows: Fibonacci weights give the
    most skewed tree, ``max_length`` then caps it."""
    freqs = [1, 1]
    while len(freqs) < n_symbols:
        freqs.append(freqs[-1] + freqs[-2])
    hist = np.array(freqs[:n_symbols], dtype=np.int64)
    force = ()
    if sentinel:
        # A coded symbol that never occurs, like the SZ outlier
        # sentinel of a block without outliers.
        hist = np.append(hist, 0)
        force = (n_symbols,)
    return build_codebook(hist, force_symbols=force, max_length=limit), hist


def _draw_symbols(rng, hist, count):
    # Half by weight (short codes), half uniform (the deep ones too).
    occurring = np.flatnonzero(hist > 0)
    probs = hist[occurring] / hist[occurring].sum()
    by_weight = rng.choice(occurring, size=count, p=probs)
    uniform = rng.choice(occurring, size=count)
    return np.where(rng.random(count) < 0.5, by_weight, uniform).astype(
        np.uint16
    )


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_symbols=st.integers(min_value=1, max_value=24),
    limit=st.integers(min_value=1, max_value=16),
    sentinel=st.booleans(),
    chunk_size=st.sampled_from([1, 3, 100, 256]),
    shape=st.sampled_from(
        ["one", "chunk-1", "chunk", "chunk+1", "multiple", "ragged"]
    ),
)
@settings(max_examples=120, deadline=None)
def test_all_decoders_agree(
    seed, n_symbols, limit, sentinel, chunk_size, shape
):
    """doubling == lockstep == pure == huffman.decode == the canonical
    walk on random books of depth 1-16 (single-symbol book and forced sentinel included) at every
    chunk-boundary shape."""
    assume(2**limit >= n_symbols + sentinel)
    rng = np.random.default_rng(seed)
    count = {
        "one": 1,
        "chunk-1": max(1, chunk_size - 1),
        "chunk": chunk_size,
        "chunk+1": chunk_size + 1,
        "multiple": 3 * chunk_size,
        "ragged": 2 * chunk_size + int(rng.integers(1, chunk_size + 1)),
    }[shape]
    book, hist = _fibonacci_book(n_symbols, limit, sentinel)
    assert book.max_length <= 16
    symbols = _draw_symbols(rng, hist, count)
    stream = get_backend("numpy").encode(symbols, book, chunk_size)
    args = (
        stream.data, stream.nbits, count, book, chunk_size,
        stream.chunk_offsets,
    )
    results = {
        "doubling": _numpy_decode("doubling", *args),
        "lockstep": _numpy_decode("lockstep", *args),
        "pure": get_backend("pure").decode(*args),
        "reference": huffman.decode(stream.data, stream.nbits, count, book),
        "walk": decode_walk(stream.data, stream.nbits, count, book),
    }
    for name, out in results.items():
        assert out.dtype == np.uint16, name
        assert out.shape == (count,), name
        assert np.array_equal(out, symbols), name


@pytest.fixture
def walks(monkeypatch):
    """The walks ``NumpyBackend.decode`` dispatched to, in call order."""
    calls = []
    for path in _PATHS:
        real = getattr(vectorized, f"_walk_{path}")

        def spy(*args, _path=path, _real=real):
            calls.append(_path)
            return _real(*args)

        monkeypatch.setattr(vectorized, f"_walk_{path}", spy)
    return calls


def _mid_entropy_stream(rng, count, chunk_size=DEFAULT_CHUNK_SIZE):
    probs = 1.0 / np.arange(1, 41)
    probs /= probs.sum()
    symbols = rng.choice(40, size=count, p=probs).astype(np.uint16)
    book = build_codebook(np.bincount(symbols, minlength=40), max_length=12)
    return symbols, book, get_backend("numpy").encode(
        symbols, book, chunk_size
    )


class TestPathSelection:
    def test_selected_by_declared_bits_alone(self, rng, walks):
        """Streams straddling the constant take different walks and
        decode the same; nothing but ``nbits`` decides."""
        symbols, book, whole = _mid_entropy_stream(rng, 40_000)
        lengths = book.lengths[symbols].astype(np.int64)
        fits = int(
            np.searchsorted(
                np.cumsum(lengths), vectorized.DOUBLING_MAX_BITS, "right"
            )
        )
        assert whole.nbits > vectorized.DOUBLING_MAX_BITS
        for count, expected in ((fits, "doubling"), (fits + 1, "lockstep")):
            stream = get_backend("numpy").encode(
                symbols[:count], book, DEFAULT_CHUNK_SIZE
            )
            assert (
                stream.nbits <= vectorized.DOUBLING_MAX_BITS
            ) == (expected == "doubling")
            out = get_backend("numpy").decode(
                stream.data, stream.nbits, count, book,
                DEFAULT_CHUNK_SIZE, stream.chunk_offsets,
            )
            assert np.array_equal(out, symbols[:count])
            assert walks.pop() == expected
        assert not walks

    def test_data_plane_block_is_always_short(self):
        """A 64 KiB float64 block under the 12-bit build limit cannot
        declare more bits than the constant, however badly it codes."""
        worst_case = (65536 // 8) * huffman.TABLE_DECODE_MAX_LEN
        assert worst_case <= vectorized.DOUBLING_MAX_BITS

    def test_v1_block_takes_the_reference_walk(self, rng, walks):
        symbols, book, stream = _mid_entropy_stream(rng, 2000)
        out = get_backend("numpy").decode(
            stream.data, stream.nbits, symbols.size, book, 0, None
        )
        assert np.array_equal(out, symbols)
        assert not walks

    def test_deep_book_takes_the_reference_walk(self, rng, walks):
        book, hist = _fibonacci_book(24, None, False)
        assert book.max_length > 16
        symbols = _draw_symbols(rng, hist, 1500)
        stream = get_backend("numpy").encode(symbols, book, 256)
        out = get_backend("numpy").decode(
            stream.data, stream.nbits, symbols.size, book, 256,
            stream.chunk_offsets,
        )
        assert np.array_equal(out, symbols)
        assert not walks

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_golden_blocks_decode_unchanged_on_both_walks(self, version):
        golden = json.loads(
            (_DATA_DIR / f"block_{version}_golden.json").read_text()
        )
        block = CompressedBlock.from_bytes(
            base64.b64decode(golden["blob_b64"])
        )
        expected = np.frombuffer(
            base64.b64decode(golden["recon_b64"]), dtype=np.float64
        ).reshape(golden["shape"])
        for path in _PATHS:
            with _forced(path):
                recon = SZCompressor(backend="numpy").decompress(block)
            assert np.array_equal(recon, expected), path

    def test_current_blocks_round_trip_on_both_walks(self, rng):
        field = np.cumsum(rng.normal(size=(24, 24, 24)), axis=0)
        blob = SZCompressor().compress(field, 0.01).to_bytes()
        assert blob[4] == 4
        recons = []
        for path in _PATHS:
            with _forced(path):
                recons.append(
                    SZCompressor().decompress(
                        CompressedBlock.from_bytes(blob)
                    )
                )
        assert np.array_equal(*recons)
        assert np.max(np.abs(recons[0] - field)) <= 0.01 * (1 + 1e-9)


class TestTruncatedBitCount:
    """Regression: the lockstep clamped every cursor to ``nbits``, so a
    final chunk that needed bits past a too-short declared end stuck on
    that (legal) end, decoded the zero padding and passed the offset
    check — wrong symbols, no error."""

    # 1 000 symbols decode by doubling, 40 000 (~175 kbit) by lockstep.
    @pytest.mark.parametrize("count", [1000, 40_000])
    @pytest.mark.parametrize("cut", [0, 1, 5, 17, 40])
    def test_numpy_raises_exactly_where_pure_does(self, rng, count, cut):
        symbols, book, stream = _mid_entropy_stream(rng, count)
        assert (stream.nbits <= vectorized.DOUBLING_MAX_BITS) == (
            count == 1000
        )
        args = (
            stream.data, stream.nbits - cut, count, book,
            stream.chunk_size, stream.chunk_offsets,
        )
        pure = _outcome(get_backend("pure").decode, *args)
        vec = _outcome(get_backend("numpy").decode, *args)
        assert vec[0] == pure[0] == ("error" if cut else "ok")
        if not cut:
            assert np.array_equal(vec[1], symbols)

    @pytest.mark.parametrize("path", _PATHS)
    @pytest.mark.parametrize("cut", [1, 5, 17, 40])
    def test_both_walks_name_the_overrun(self, rng, path, cut):
        symbols, book, stream = _mid_entropy_stream(rng, 1000)
        with pytest.raises(ValueError, match="runs past the declared"):
            _numpy_decode(
                path, stream.data, stream.nbits - cut, symbols.size,
                book, stream.chunk_size, stream.chunk_offsets,
            )

    @pytest.mark.parametrize("path", _PATHS)
    def test_stall_on_a_legal_end_is_rejected(self, path):
        """A chunk that reaches its recorded end early and finds bits no
        code starts with must not sit there and pass the offset check."""
        # Single-symbol book: "0" is the only code, "1" matches nothing.
        book = build_codebook(np.array([5]))
        data = bytes([0b00001000])
        # Declares 6 symbols in 4 bits: four real ones, then the 1 bit.
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            _numpy_decode(
                path, data, 4, 6, book, 6, np.zeros(1, dtype=np.uint64)
            )
        with pytest.raises(ValueError):
            get_backend("pure").decode(
                data, 4, 6, book, 6, np.zeros(1, dtype=np.uint64)
            )


class TestMutations:
    """Whatever is damaged, the two walks reach the same verdict: both
    raise ``ValueError`` or both return the same symbols — and symbols
    numpy accepts are the ones ``pure`` decodes."""

    @pytest.fixture(scope="class")
    def base(self):
        rng = np.random.default_rng(77)
        symbols, book, stream = _mid_entropy_stream(rng, 700, 64)
        return symbols, book, stream

    def _check(self, base, data, nbits, offsets, compare_pure=True):
        symbols, book, stream = base
        args = (data, nbits, symbols.size, book, stream.chunk_size, offsets)
        doubling = _outcome(_numpy_decode, "doubling", *args)
        lockstep = _outcome(_numpy_decode, "lockstep", *args)
        assert doubling[0] == lockstep[0], (doubling, lockstep)
        if doubling[0] == "ok":
            assert doubling[1].dtype == lockstep[1].dtype == np.uint16
            assert np.array_equal(doubling[1], lockstep[1])
            if compare_pure:
                pure = get_backend("pure").decode(*args)
                assert np.array_equal(doubling[1], pure)
        return doubling[0]

    def test_bit_flips(self, base):
        _, _, stream = base
        raw = bytearray(stream.data)
        verdicts = set()
        for bit in range(0, 8 * len(raw), 3):
            raw[bit >> 3] ^= 0x80 >> (bit & 7)
            verdicts.add(
                self._check(
                    base, bytes(raw), stream.nbits, stream.chunk_offsets
                )
            )
            raw[bit >> 3] ^= 0x80 >> (bit & 7)
        # Same-length code swaps survive, length changes do not.
        assert verdicts == {"ok", "error"}

    def test_byte_mutations(self, base):
        _, _, stream = base
        rng = np.random.default_rng(3)
        for index in rng.choice(len(stream.data), size=120, replace=False):
            raw = bytearray(stream.data)
            raw[index] = int(rng.integers(0, 256))
            self._check(base, bytes(raw), stream.nbits, stream.chunk_offsets)

    def test_truncated_and_padded_data(self, base):
        _, _, stream = base
        for cut in (1, 2, 7, len(stream.data) // 2, len(stream.data)):
            assert (
                self._check(
                    base, stream.data[:-cut], stream.nbits,
                    stream.chunk_offsets,
                )
                == "error"
            )
        assert (
            self._check(
                base, stream.data + b"\xff\xff", stream.nbits,
                stream.chunk_offsets,
            )
            == "ok"
        )

    def test_declared_bits(self, base):
        _, _, stream = base
        for delta in (-200, -64, -9, -8, -7, -1, 1, 7, 8, 9, 64):
            assert (
                self._check(
                    base,
                    stream.data + b"\x00" * 8,
                    stream.nbits + delta,
                    stream.chunk_offsets,
                )
                == "error"
            ), delta

    def test_chunk_offsets(self, base):
        _, _, stream = base
        offsets = stream.chunk_offsets.astype(np.int64)
        for index in range(1, offsets.size):
            for delta in (-9, -1, 1, 9, 1 << 20):
                bad = offsets.copy()
                bad[index] += delta
                # pure ignores the index, so only the walks are compared.
                assert (
                    self._check(
                        base, stream.data, stream.nbits, bad,
                        compare_pure=False,
                    )
                    == "error"
                ), (index, delta)
        swapped = offsets.copy()
        swapped[[2, 3]] = swapped[[3, 2]]
        assert (
            self._check(
                base, stream.data, stream.nbits, swapped, compare_pure=False
            )
            == "error"
        )


class TestDenseTableCache:
    def test_built_once_per_codebook(self, rng, monkeypatch):
        symbols, book, stream = _mid_entropy_stream(rng, 3000)
        builds = []
        real = huffman._build_dense_tables

        def counting(codebook):
            builds.append(codebook)
            return real(codebook)

        monkeypatch.setattr(huffman, "_build_dense_tables", counting)
        args = (
            stream.data, stream.nbits, symbols.size, book,
            stream.chunk_size, stream.chunk_offsets,
        )
        for _ in range(2):
            assert np.array_equal(get_backend("numpy").decode(*args), symbols)
        assert np.array_equal(get_backend("pure").decode(*args), symbols)
        assert builds == [book]
        # Another Codebook instance pays for its own table.
        other = build_codebook(np.bincount(symbols, minlength=40))
        huffman.dense_decode_tables(other)
        assert builds == [book, other]

    def test_cached_tables_are_read_only(self, rng):
        _, book, _ = _mid_entropy_stream(rng, 500)
        tables = huffman.dense_decode_tables(book)
        assert tables is huffman.dense_decode_tables(book)
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1
