"""Tests for dump-duration noise and schedule replay."""

import numpy as np
import pytest

from repro.apps import IterationProfile, jitter_profile
from repro.core import ext_johnson_backfill, trace_schedule
from repro.simulator import (
    ZERO_NOISE,
    ActualDurations,
    NoiseModel,
    execute_schedule,
)
from repro.telemetry import Tracer, render_gantt
from tests.conftest import figure1_instance, planned_actuals


def _planned_spans(schedule):
    tracer = Tracer()
    trace_schedule(tracer, schedule)
    return tracer.recorder.spans


def _predicted(instance):
    return (
        np.array([j.compression_time for j in instance.jobs]),
        np.array([j.io_time for j in instance.jobs]),
    )


def _jittered_profile(instance, rng, sigma_fraction):
    """The instance's obstacles moved the way the application model
    moves an iteration's profile."""
    return jitter_profile(
        IterationProfile(
            instance.length,
            instance.main_obstacles,
            instance.background_obstacles,
        ),
        rng,
        sigma_fraction,
    )


def _noisy_actuals(instance, model, rng, sigma_fraction=0.01):
    """Jittered obstacles plus noisy task durations for one replay."""
    profile = _jittered_profile(instance, rng, sigma_fraction)
    compression, io = model.perturb_dump(*_predicted(instance))
    return ActualDurations(
        length=profile.length,
        main_obstacles=profile.main_obstacles,
        background_obstacles=profile.background_obstacles,
        compression_times=tuple(compression.tolist()),
        io_times=tuple(io.tolist()),
    )


class TestNoiseModel:
    def test_zero_noise_is_identity(self, figure1):
        compression_s, io_s = _predicted(figure1)
        compression, io = ZERO_NOISE.perturb_dump(compression_s, io_s)
        assert compression.tolist() == compression_s.tolist()
        assert io.tolist() == io_s.tolist()

    def test_noise_changes_values(self, figure1):
        compression_s, io_s = _predicted(figure1)
        compression, io = NoiseModel(seed=7).perturb_dump(
            compression_s, io_s
        )
        assert compression.tolist() != compression_s.tolist()
        assert io.tolist() != io_s.tolist()

    def test_perturbed_obstacles_stay_ordered(self, figure1):
        rng = np.random.default_rng(3)
        for _ in range(20):
            profile = _jittered_profile(figure1, rng, 0.2)
            for obs in (
                profile.main_obstacles, profile.background_obstacles
            ):
                for a, b in zip(obs, obs[1:]):
                    assert a.end <= b.start + 1e-9

    def test_durations_stay_positive(self):
        model = NoiseModel(seed=1, io_sigma_frac=3.0)  # absurd sigma
        for _ in range(100):
            assert model.perturb_io_time(1.0) > 0.0

    def test_determinism_per_seed(self, figure1):
        a = NoiseModel(seed=42).perturb_dump(*_predicted(figure1))
        b = NoiseModel(seed=42).perturb_dump(*_predicted(figure1))
        assert [v.tolist() for v in a] == [v.tolist() for v in b]


class TestReplay:
    def test_zero_noise_matches_plan(self, figure1):
        schedule = ext_johnson_backfill(figure1)
        result = execute_schedule(schedule, planned_actuals(figure1))
        for j, planned in schedule.compression.items():
            assert result.compression[j].start == pytest.approx(
                planned.start
            )
        for j, planned in schedule.io.items():
            assert result.io[j].start == pytest.approx(planned.start)
        assert result.overhead == pytest.approx(schedule.overhead)

    def test_late_obstacle_delays_compression(self, figure1):
        schedule = ext_johnson_backfill(figure1)
        actuals = planned_actuals(figure1)
        # Stretch the first main obstacle (Y1 planned [3,4] -> [3,6]).
        from repro.core import Interval

        stretched = (
            Interval(3.0, 6.0),
            actuals.main_obstacles[1].shifted(2.0),
        )
        actuals = type(actuals)(
            length=actuals.length,
            main_obstacles=stretched,
            background_obstacles=actuals.background_obstacles,
            compression_times=actuals.compression_times,
            io_times=actuals.io_times,
        )
        result = execute_schedule(schedule, actuals)
        # Job 1 was planned at [4, 6]; it must now start at >= 6.
        assert result.compression[1].start >= 6.0 - 1e-9

    def test_io_waits_for_actual_compression(self, figure1):
        schedule = ext_johnson_backfill(figure1)
        actuals = planned_actuals(figure1)
        slowed = tuple(c * 3.0 for c in actuals.compression_times)
        actuals = type(actuals)(
            length=actuals.length,
            main_obstacles=actuals.main_obstacles,
            background_obstacles=actuals.background_obstacles,
            compression_times=slowed,
            io_times=actuals.io_times,
        )
        result = execute_schedule(schedule, actuals)
        for j in result.io:
            assert (
                result.io[j].start >= result.compression[j].end - 1e-9
            )

    def test_overhead_nonnegative_under_noise(self, figure1):
        schedule = ext_johnson_backfill(figure1)
        model, rng = NoiseModel(seed=11), np.random.default_rng(11)
        for _ in range(30):
            actuals = _noisy_actuals(figure1, model, rng)
            result = execute_schedule(schedule, actuals)
            assert result.overhead >= 0.0
            assert result.relative_overhead >= 0.0

    def test_threads_never_overlap_themselves(self, figure1):
        schedule = ext_johnson_backfill(figure1)
        actuals = _noisy_actuals(
            figure1, NoiseModel(seed=13), np.random.default_rng(13), 0.05
        )
        result = execute_schedule(schedule, actuals)
        main = sorted(
            list(result.compression.values())
            + list(result.main_obstacles),
            key=lambda iv: iv.start,
        )
        for a, b in zip(main, main[1:]):
            assert a.end <= b.start + 1e-9


class TestTrace:
    def test_schedule_trace_counts(self, figure1):
        schedule = ext_johnson_backfill(figure1)
        spans = _planned_spans(schedule)
        assert len(spans) == 2 + 1 + 4 + 4  # Y, G, R, B

    def test_execution_trace_counts(self, figure1):
        schedule = ext_johnson_backfill(figure1)
        tracer = Tracer()
        execute_schedule(schedule, planned_actuals(figure1), tracer=tracer)
        assert len(tracer.recorder.spans) == 11

    def test_gantt_renders_both_threads(self, figure1):
        schedule = ext_johnson_backfill(figure1)
        text = render_gantt(_planned_spans(schedule))
        assert "main" in text
        assert "background" in text
        assert "R" in text and "B" in text and "Y" in text

    def test_gantt_is_pinned_byte_for_byte(self, figure1):
        # Captured from the simulator's own renderer before the span
        # path replaced it: the Figure 1 chart must not move.
        spans = _planned_spans(ext_johnson_backfill(figure1))
        assert render_gantt(spans, legend=False) == (
            "background |     BBBBBBBBBBBB      GGGGGGBBBBBBBBBBBBBBBBBB"
            "            BBBBBBBBBBBB |\n"
            "main       |RRRRRRRRRRRRRRRRRYYYYYYRRRRRRRRRRRRYYYYYYRRRRRR"
            "RRRRRRRRRRRR             |\n"
            "           |t=0.00                                         "
            "                  t=12.00|"
        )
        assert render_gantt(spans, width=40, legend=False) == (
            "background |   BBBBBB    GGGBBBBBBBBBB      BBBBBBB |\n"
            "main       |RRRRRRRRRYYYYRRRRRRYYYRRRRRRRRRR        |\n"
            "           |t=0.00                           t=12.00|"
        )

    def test_empty_trace(self):
        assert render_gantt([]) == "(no machine spans)"
