"""Statistical tests for the Section 5.4.1 noise.

The two task-duration sigmas are :class:`NoiseModel`'s; the interval
jitter is :func:`repro.apps.jitter_profile`'s, which every application
model applies to its iteration profiles.
"""

import numpy as np
import pytest

from repro.apps import IterationProfile, jitter_profile
from repro.core import Interval
from repro.simulator import NoiseModel


def _profile():
    return IterationProfile(
        length=10.0,
        main_obstacles=(Interval(2.0, 3.0), Interval(5.0, 6.0)),
        background_obstacles=(Interval(4.0, 5.0),),
    )


def _jittered(seed, sigma_fraction=0.01, n=2000):
    rng = np.random.default_rng(seed)
    profile = _profile()
    return [jitter_profile(profile, rng, sigma_fraction) for _ in range(n)]


class TestSigmaCalibration:
    def _draws(self, fn, n=3000):
        return np.array([fn() for _ in range(n)])

    def test_compression_sigma(self):
        model = NoiseModel(seed=5)
        draws = self._draws(lambda: model.perturb_compression_time(2.0))
        assert draws.mean() == pytest.approx(2.0, rel=0.02)
        assert draws.std() == pytest.approx(0.05 * 2.0, rel=0.1)

    def test_io_sigma(self):
        model = NoiseModel(seed=5)
        draws = self._draws(lambda: model.perturb_io_time(4.0))
        assert draws.std() == pytest.approx(0.05 * 4.0, rel=0.1)

    def test_interval_sigma_scales_with_length(self):
        starts = np.array(
            [p.main_obstacles[0].start for p in _jittered(seed=5)]
        )
        # sigma = 0.01 * T_n = 0.1; clamping at the cursor trims little
        # for the first obstacle at t=2.
        assert starts.std() == pytest.approx(0.1, rel=0.15)
        assert starts.mean() == pytest.approx(2.0, abs=0.02)

    def test_length_noise(self):
        lengths = np.array([p.length for p in _jittered(seed=6)])
        assert lengths.mean() == pytest.approx(10.0, rel=0.01)
        assert lengths.std() == pytest.approx(0.1, rel=0.15)


class TestStructuralInvariants:
    def test_obstacle_count_preserved(self):
        for profile in _jittered(seed=7, sigma_fraction=0.05, n=200):
            assert len(profile.main_obstacles) == 2
            assert len(profile.background_obstacles) == 1

    def test_durations_never_collapse(self):
        # An extreme sigma still leaves every obstacle some duration.
        for profile in _jittered(seed=8, sigma_fraction=0.5, n=200):
            for obs in profile.main_obstacles:
                assert obs.duration > 0.0

    def test_task_count_matches_inputs(self):
        compression, io = NoiseModel(seed=9).perturb_dump(
            np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.5, 0.5])
        )
        assert len(compression) == 3
        assert len(io) == 4
