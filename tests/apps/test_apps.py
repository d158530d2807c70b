"""Tests for the Nyx-like and WarpX-like application models."""

import numpy as np
import pytest

from repro.apps import NyxModel, Stage, WarpXModel, generate_profile
from repro.compression import SZCompressor


@pytest.fixture
def nyx():
    return NyxModel(seed=1, partition_shape=(32, 32, 32))


@pytest.fixture
def warpx():
    return WarpXModel(seed=1, partition_shape=(16, 16, 128))


class TestProfiles:
    def test_profile_fits_iteration(self, nyx):
        profile = nyx.iteration_profile(0)
        assert profile.length > 0
        for obs in profile.main_obstacles + profile.background_obstacles:
            assert obs.start >= 0

    def test_obstacles_ordered_disjoint(self, nyx):
        for it in range(5):
            profile = nyx.iteration_profile(it)
            for obstacles in (
                profile.main_obstacles,
                profile.background_obstacles,
            ):
                for a, b in zip(obstacles, obstacles[1:]):
                    assert a.end <= b.start + 1e-9

    def test_consecutive_iterations_similar(self, nyx):
        p0 = nyx.iteration_profile(0)
        p1 = nyx.iteration_profile(1)
        assert p1.length == pytest.approx(p0.length, rel=0.1)
        assert len(p1.main_obstacles) == len(p0.main_obstacles)
        for a, b in zip(p0.main_obstacles, p1.main_obstacles):
            assert b.start == pytest.approx(a.start, abs=0.3 * p0.length)

    def test_deterministic_per_seed(self):
        a = NyxModel(seed=9).iteration_profile(3)
        b = NyxModel(seed=9).iteration_profile(3)
        assert a == b

    def test_main_thread_mostly_idle(self, nyx):
        profile = nyx.iteration_profile(0)
        assert profile.busy_fraction_main() < 0.6

    def test_generate_profile_validation(self, rng):
        with pytest.raises(ValueError):
            generate_profile(1.0, 2, 1.5, 2, 0.2, rng)


class TestStages:
    def test_stage_progression(self, nyx):
        stages = [nyx.stage_of(i, 30) for i in (0, 15, 29)]
        assert stages == [Stage.BEGINNING, Stage.MIDDLE, Stage.END]

    def test_ratio_spread_grows_with_stage(self, nyx):
        spreads = [nyx.max_ratio_difference(s) for s in Stage]
        assert spreads == sorted(spreads)
        assert spreads[-1] == 20.0

    def test_warpx_spread_more_moderate(self, warpx, nyx):
        assert warpx.max_ratio_difference(Stage.END) < nyx.max_ratio_difference(
            Stage.END
        )


class TestBlockRatios:
    def test_all_fields_covered(self, nyx):
        ratios = nyx.block_ratios(0, 5, blocks_per_field=8, node_size=4)
        assert set(ratios) == {f.name for f in nyx.fields}
        assert all(len(r) == 8 for r in ratios.values())

    def test_ratios_positive(self, nyx):
        ratios = nyx.block_ratios(2, 20, blocks_per_field=4, node_size=4)
        for values in ratios.values():
            assert np.all(values > 1.0)

    def test_nyx_average_near_16x(self, nyx):
        all_ratios = []
        for rank in range(4):
            ratios = nyx.block_ratios(
                rank, 2, blocks_per_field=8, node_size=4
            )
            all_ratios.extend(v for r in ratios.values() for v in r)
        mean = float(np.mean(all_ratios))
        assert 10.0 < mean < 25.0

    def test_warpx_average_near_274x(self, warpx):
        all_ratios = []
        for rank in range(4):
            ratios = warpx.block_ratios(
                rank, 2, blocks_per_field=4, node_size=4
            )
            all_ratios.extend(v for r in ratios.values() for v in r)
        mean = float(np.mean(all_ratios))
        assert 150.0 < mean < 450.0

    def test_end_stage_wider_spread_across_ranks(self, nyx):
        def spread(stage_iteration):
            per_rank = []
            for rank in range(8):
                ratios = nyx.block_ratios(
                    rank, stage_iteration, 4, node_size=8
                )
                per_rank.append(np.mean(ratios["baryon_density"]))
            return max(per_rank) / min(per_rank)

        assert spread(29) > spread(0)

    def test_consecutive_iterations_ratios_similar(self, nyx):
        r0 = nyx.block_ratios(0, 10, 8, node_size=4)
        r1 = nyx.block_ratios(0, 11, 8, node_size=4)
        m0 = np.mean(r0["temperature"])
        m1 = np.mean(r1["temperature"])
        assert abs(m1 - m0) / m0 < 0.2


class TestGeneratedData:
    def test_shapes_and_dtypes(self, nyx):
        field = nyx.generate_field("baryon_density", 0, 0)
        assert field.shape == (32, 32, 32)
        assert field.dtype == np.float64

    def test_density_positive(self, nyx):
        field = nyx.generate_field("dark_matter_density", 0, 0)
        assert np.all(field > 0)

    def test_temperature_magnitudes(self, nyx):
        field = nyx.generate_field("temperature", 0, 0)
        assert 1e2 < np.median(field) < 1e7

    def test_structure_grows_with_iteration(self, nyx):
        early = nyx.generate_field("baryon_density", 0, 0)
        late = nyx.generate_field("baryon_density", 0, 29)
        # Clustering concentrates mass: higher relative variance later.
        cv_early = early.std() / early.mean()
        cv_late = late.std() / late.mean()
        assert cv_late > cv_early

    def test_consecutive_iterations_correlated(self, nyx):
        a = nyx.generate_field("velocity_x", 0, 10)
        b = nyx.generate_field("velocity_x", 0, 11)
        corr = np.corrcoef(a.reshape(-1), b.reshape(-1))[0, 1]
        assert corr > 0.95

    def test_nyx_fields_compress_near_target(self, nyx):
        comp = SZCompressor()
        field = nyx.generate_field("velocity_x", 0, 5)
        block = comp.compress(field, nyx.field("velocity_x").error_bound)
        assert block.compression_ratio > 4.0

    def test_warpx_fields_compress_extremely(self, warpx):
        comp = SZCompressor()
        field = warpx.generate_field("Ex", 0, 5)
        block = comp.compress(field, warpx.field("Ex").error_bound)
        assert block.compression_ratio > 50.0

    def test_warpx_blob_moves(self, warpx):
        early = warpx.generate_field("rho", 0, 0)
        late = warpx.generate_field("rho", 0, 29)
        z_early = np.argmax(np.abs(early).sum(axis=(0, 1)))
        z_late = np.argmax(np.abs(late).sum(axis=(0, 1)))
        assert z_late > z_early

    def test_unknown_field_rejected(self, nyx):
        with pytest.raises(KeyError):
            nyx.generate_field("nope", 0, 0)

    def test_different_ranks_different_data(self, nyx):
        a = nyx.generate_field("baryon_density", 0, 0)
        b = nyx.generate_field("baryon_density", 1, 0)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("edge", range(2, 9))
    def test_nyx_fields_finite_on_small_partitions(self, edge):
        # Below edge 6 the smoothing leaves a std far under the noise's
        # mean; scaling an uncentered field overflowed exp() to inf/NaN.
        app = NyxModel(seed=23, partition_shape=(edge,) * 3)
        for iteration in (0, app.total_iterations - 1):
            for spec in app.fields:
                field = app.generate_field(spec.name, 0, iteration)
                assert np.isfinite(field).all(), (spec.name, iteration)
