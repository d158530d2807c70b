"""Ratio-model prediction accuracy across application regimes.

The framework's offset reservations and scheduling both hinge on the
pre-compression size estimate (Section 4.4); these tests pin down its
accuracy envelope on each application's characteristic data, and the
safety margin that keeps overflow 'rare'.
"""

import numpy as np
import pytest

from repro.apps import HaccModel, NyxModel, WarpXModel
from repro.compression import RatioModel, SZCompressor


def _accuracy(app, field_name, iteration=5, shape=None):
    compressor = SZCompressor()
    model = RatioModel(compressor, sample_limit=16384)
    data = app.generate_field(field_name, 0, iteration, shape=shape)
    data = np.ascontiguousarray(data)
    bound = app.field(field_name).error_bound
    predicted = model.predict(data, bound).compressed_nbytes
    actual = compressor.compress(data, bound).compressed_nbytes
    return predicted, actual


class TestPredictionAccuracy:
    @pytest.mark.parametrize(
        "field_name", ["temperature", "baryon_density", "velocity_x"]
    )
    def test_nyx_within_2x(self, field_name):
        app = NyxModel(seed=81, partition_shape=(24, 24, 24))
        predicted, actual = _accuracy(app, field_name)
        assert actual / 2 <= predicted <= actual * 2

    def test_reservation_covers_actual_on_most_fields(self):
        """With the 1.10 safety factor, predictions should cover the
        actual size for the clear majority of blocks (overflow 'rare')."""
        app = NyxModel(seed=81, partition_shape=(24, 24, 24))
        covered = 0
        total = 0
        for field_name in [f.name for f in app.fields[:6]]:
            predicted, actual = _accuracy(app, field_name)
            total += 1
            if predicted >= actual:
                covered += 1
        assert covered >= total - 1

    def test_warpx_prediction(self):
        app = WarpXModel(seed=81, partition_shape=(12, 12, 96))
        predicted, actual = _accuracy(app, "Ex")
        assert actual / 3 <= predicted <= actual * 3

    def test_hacc_prediction(self):
        app = HaccModel(seed=81, partition_shape=(2**14,))
        predicted, actual = _accuracy(app, "vx")
        assert actual / 2 <= predicted <= actual * 2

    def test_sampling_consistency(self, rng):
        """Strided sampling must track the full-data estimate."""
        compressor = SZCompressor()
        field = np.cumsum(
            np.cumsum(rng.normal(size=(48, 32, 32)), axis=0), axis=1
        )
        full = RatioModel(compressor, sample_limit=10**9).predict(
            field, 0.05
        )
        sampled = RatioModel(compressor, sample_limit=4096).predict(
            field, 0.05
        )
        assert sampled.ratio == pytest.approx(full.ratio, rel=0.5)

    def test_prediction_monotone_in_bound(self):
        app = NyxModel(seed=81, partition_shape=(20, 20, 20))
        compressor = SZCompressor()
        model = RatioModel(compressor)
        data = np.ascontiguousarray(
            app.generate_field("temperature", 0, 5)
        )
        loose = model.predict(data, 1e4).compressed_nbytes
        tight = model.predict(data, 1e1).compressed_nbytes
        assert loose < tight


class TestV4OverheadPricing:
    """The model charges what ``to_bytes`` writes around the payload: the
    v4 header, the codebook and the delta-coded chunk index."""

    @pytest.mark.parametrize(
        "app_cls, field_name, edge, block_bytes",
        [
            (NyxModel, "baryon_density", 64, 65536),  # 32 chunks, raw
            (WarpXModel, "Ex", 96, 8388608),  # 3 456 chunks, deflated
        ],
        ids=["nyx-64KiB", "warpx-7MB"],
    )
    def test_bench_shapes_within_25_percent(
        self, app_cls, field_name, edge, block_bytes
    ):
        from repro.compression import plan_blocks, slice_field

        app = app_cls(seed=23, partition_shape=(edge,) * 3)
        data = app.generate_field(field_name, 0, 12)
        plan = plan_blocks(field_name, data.shape, data.itemsize, block_bytes)
        values = np.ascontiguousarray(slice_field(data, plan[0]))
        bound = app.field(field_name).error_bound
        compressor = SZCompressor()
        block = compressor.compress(values, bound)
        wrote = len(block.to_bytes()) - len(block.payload)
        # predicted = payload * safety_factor + overhead: two safety
        # factors separate the overhead from the payload term.
        once, twice = (
            RatioModel(compressor, safety_factor=factor)
            .predict(values, bound)
            .compressed_nbytes
            for factor in (1.0, 2.0)
        )
        predicted = 2 * once - twice
        assert abs(predicted - wrote) <= 0.25 * wrote, (predicted, wrote)
        # At most two bytes of index per chunk, whatever the block.
        chunks = -(-values.size // compressor.chunk_size)
        assert wrote - len(block.codebook_blob) <= 40 + 2 * chunks
