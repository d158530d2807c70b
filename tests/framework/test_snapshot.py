"""Tests for the high-level snapshot save/load API."""

import numpy as np
import pytest

from repro.compression import SZCompressor, build_codebook, max_abs_error
from repro.framework import load_snapshot, save_snapshot


def _fields(rng):
    return {
        "rho": np.cumsum(rng.normal(size=(24, 24, 24)), axis=0),
        "temperature": np.cumsum(rng.normal(size=(20, 16)), axis=0),
        "energy": np.cumsum(rng.normal(size=(500,))),
    }


class TestSaveLoad:
    def test_round_trip_respects_bounds(self, tmp_path, rng):
        fields = _fields(rng)
        path = tmp_path / "snap.rpio"
        save_snapshot(path, fields, error_bounds=0.01, block_bytes=32_768)
        out = load_snapshot(path)
        assert set(out) == set(fields)
        for name in fields:
            assert out[name].shape == fields[name].shape
            assert max_abs_error(fields[name], out[name]) <= 0.01 * (
                1 + 1e-9
            )

    def test_per_field_bounds(self, tmp_path, rng):
        fields = _fields(rng)
        bounds = {"rho": 0.5, "temperature": 0.001, "energy": 0.1}
        path = tmp_path / "snap.rpio"
        save_snapshot(path, fields, error_bounds=bounds)
        out = load_snapshot(path)
        for name, bound in bounds.items():
            assert max_abs_error(fields[name], out[name]) <= bound * (
                1 + 1e-9
            )

    def test_stats(self, tmp_path, rng):
        fields = _fields(rng)
        stats = save_snapshot(
            tmp_path / "s.rpio", fields, error_bounds=0.01
        )
        assert stats.raw_bytes == sum(f.nbytes for f in fields.values())
        assert stats.compressed_bytes < stats.raw_bytes
        assert stats.compression_ratio > 1.0
        assert stats.num_blocks >= len(fields)

    @pytest.mark.parametrize("block_bytes", [2048, 32_768, 262_144])
    def test_v4_priced_reservations_overflow_nothing(
        self, tmp_path, rng, block_bytes
    ):
        """Blocks and predictions both shrank with format v4; the
        reservations still cover every block, as they did before it
        (0 overflows of 27 / 5 / 3 blocks at these sizes)."""
        for bound in (0.01, 0.5):
            stats = save_snapshot(
                tmp_path / f"s{bound}.rpio",
                _fields(rng),
                error_bounds=bound,
                block_bytes=block_bytes,
            )
            assert stats.overflow_blocks == 0

    def test_shared_codebook_embedded(self, tmp_path, rng):
        fields = {"rho": np.cumsum(rng.normal(size=(16, 16, 16)), axis=0)}
        compressor = SZCompressor()
        hist = compressor.histogram(fields["rho"], 0.01)
        shared = build_codebook(hist, force_symbols=(compressor.sentinel,))
        path = tmp_path / "s.rpio"
        stats = save_snapshot(
            path, fields, error_bounds=0.01, shared_codebook=shared
        )
        assert stats.overflow_blocks == 0
        # Loading needs no writer state: codebook travels in the file.
        out = load_snapshot(path)
        assert max_abs_error(fields["rho"], out["rho"]) <= 0.01 * (
            1 + 1e-9
        )

    def test_sync_io_path(self, tmp_path, rng):
        """One path writes a snapshot: there is no synchronous switch."""
        with pytest.raises(TypeError, match="async_io"):
            save_snapshot(
                tmp_path / "s.rpio", _fields(rng), error_bounds=0.01,
                async_io=False,
            )

    def test_fine_blocks_reassemble(self, tmp_path, rng):
        fields = {"rho": np.cumsum(rng.normal(size=(32, 8, 8)), axis=0)}
        path = tmp_path / "s.rpio"
        stats = save_snapshot(
            path, fields, error_bounds=0.05, block_bytes=2048
        )
        assert stats.num_blocks >= 8
        out = load_snapshot(path)
        assert max_abs_error(fields["rho"], out["rho"]) <= 0.05 * (
            1 + 1e-9
        )

    def test_float32_round_trip(self, tmp_path, rng):
        fields = {
            "v": np.cumsum(
                rng.normal(size=(16, 16)).astype(np.float32), axis=0
            )
        }
        path = tmp_path / "s.rpio"
        save_snapshot(path, fields, error_bounds=0.01)
        out = load_snapshot(path)
        assert out["v"].dtype == np.float32


class TestValidation:
    def test_empty_fields_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no fields"):
            save_snapshot(tmp_path / "s", {}, error_bounds=0.1)

    def test_missing_bound_rejected(self, tmp_path, rng):
        with pytest.raises(ValueError, match="missing error bounds"):
            save_snapshot(
                tmp_path / "s",
                {"a": rng.normal(size=4)},
                error_bounds={"b": 0.1},
            )

    def test_nonpositive_bound_rejected(self, tmp_path, rng):
        with pytest.raises(ValueError, match="positive"):
            save_snapshot(
                tmp_path / "s",
                {"a": rng.normal(size=4)},
                error_bounds=0.0,
            )

    def test_integer_field_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_snapshot(
                tmp_path / "s",
                {"a": np.arange(10)},
                error_bounds=0.1,
            )

    def test_load_non_snapshot_rejected(self, tmp_path, rng):
        from repro.io import SharedFileWriter

        path = tmp_path / "plain.rpio"
        with SharedFileWriter(path) as writer:
            writer.write_unreserved("something", b"data")
        with pytest.raises(ValueError, match="manifest"):
            load_snapshot(path)

    def test_directory_rejected_by_name(self, tmp_path):
        """A directory (a subfiled snapshot of earlier releases) is not
        a snapshot container."""
        with pytest.raises(ValueError, match="not a shared container"):
            load_snapshot(tmp_path)
