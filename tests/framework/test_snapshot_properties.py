"""Property-based tests for the snapshot API."""

import json
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.compression import max_abs_error
from repro.framework import load_snapshot, save_snapshot


@st.composite
def field_sets(draw):
    num_fields = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    fields = {}
    for i in range(num_fields):
        ndim = draw(st.integers(min_value=1, max_value=3))
        shape = tuple(
            draw(st.integers(min_value=1, max_value=12))
            for _ in range(ndim)
        )
        dtype = draw(st.sampled_from([np.float64, np.float32]))
        data = np.cumsum(
            rng.normal(size=shape).astype(dtype), axis=0
        )
        fields[f"field{i}"] = data
    bound = draw(
        st.floats(min_value=1e-4, max_value=1.0, allow_nan=False)
    )
    return fields, bound


@given(spec=field_sets())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_snapshot_round_trip_property(spec, tmp_path_factory):
    fields, bound = spec
    target = tmp_path_factory.mktemp("snap") / "snapshot"
    save_snapshot(
        target,
        fields,
        error_bounds=bound,
        block_bytes=1024,
    )
    restored = load_snapshot(target)
    assert set(restored) == set(fields)
    for name, original in fields.items():
        assert restored[name].shape == original.shape
        assert restored[name].dtype == original.dtype
        tolerance = bound * (1 + 1e-9)
        if original.dtype == np.float32:
            tolerance += float(np.abs(original).max()) * 1e-6
        assert max_abs_error(original, restored[name]) <= tolerance


# --- The snapshot reader under damage ------------------------------------
#
# Whatever the bytes, ``verify_snapshot`` reports instead of raising, and
# ``load_snapshot`` either restores the very arrays the intact file holds
# or raises ``ValueError``; the two accept exactly the same files.

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
FIELD_ENTRIES = st.fixed_dictionaries(
    {},
    optional={
        "shape": JSON_VALUES | st.lists(st.integers(-1, 20), max_size=3),
        "dtype": JSON_VALUES | st.sampled_from(["float32", "float64"]),
        "num_blocks": JSON_VALUES | st.integers(0, 5),
        "error_bound": JSON_VALUES | st.floats(),
        "block_crc32c": JSON_VALUES
        | st.lists(st.integers(0, 2**32 - 1), max_size=5),
    },
)
MANIFESTS = JSON_VALUES | st.dictionaries(
    st.sampled_from(["rho", "energy", "ghost"]),
    FIELD_ENTRIES | JSON_VALUES,
    max_size=3,
)


def _damaged_snapshot_agrees(target, pristine):
    from repro.durability import verify_snapshot

    report = verify_snapshot(target)
    try:
        restored = load_snapshot(target)
    except ValueError:
        restored = None
    assert report.ok == (restored is not None), report.format()
    for name, array in (restored or {}).items():
        assert np.array_equal(array, pristine[name][: len(array)])


@pytest.fixture(scope="module")
def small_snapshots(tmp_path_factory):
    """Snapshots with and without a shared codebook, and the arrays
    each restores intact."""
    from repro.compression import SZCompressor, build_codebook

    rng = np.random.default_rng(8)
    fields = {
        "rho": np.cumsum(rng.normal(size=(8, 6, 6)), axis=0),
        "energy": np.cumsum(rng.normal(size=(64,)).astype(np.float32)),
    }
    compressor = SZCompressor()
    shared = build_codebook(
        compressor.histogram(fields["rho"], 0.05),
        force_symbols=(compressor.sentinel,),
    )
    root = tmp_path_factory.mktemp("pristine")
    snapshots = {}
    for codebook in (None, shared):
        target = root / f"shared-{codebook is not None}"
        save_snapshot(
            target, fields, error_bounds=0.05, block_bytes=512,
            shared_codebook=codebook,
        )
        snapshots[target.name] = (target, load_snapshot(target))
    return snapshots


@given(manifest=MANIFESTS)
@example(manifest=["rho", "energy"])
@example(manifest={"rho": 3})
@settings(max_examples=100, deadline=None)
def test_any_manifest_is_refused_or_restores(
    manifest, small_snapshots, tmp_path_factory
):
    from repro.io import SharedFileReader, SharedFileWriter

    source, pristine = small_snapshots["shared-False"]
    target = tmp_path_factory.getbasetemp() / "manifest.rpio"
    with SharedFileReader(source) as reader, SharedFileWriter(
        target
    ) as writer:
        for name in reader.names():
            payload = reader.read(name)
            if name == "__manifest__":
                payload = json.dumps(manifest).encode()
            writer.write_unreserved(name, payload)
    _damaged_snapshot_agrees(target, pristine)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_any_flipped_byte_is_refused_or_restores(
    data, small_snapshots, tmp_path_factory
):
    key = data.draw(st.sampled_from(sorted(small_snapshots)))
    source, pristine = small_snapshots[key]
    target = tmp_path_factory.getbasetemp() / f"flipped-{key}"
    shutil.copyfile(source, target)
    blob = bytearray(target.read_bytes())
    offset = data.draw(st.integers(0, len(blob) - 1))
    blob[offset] ^= data.draw(st.integers(1, 255))
    target.write_bytes(bytes(blob))
    _damaged_snapshot_agrees(target, pristine)
