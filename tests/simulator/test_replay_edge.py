"""Edge cases in schedule replay."""

import pytest

from repro.core import (
    Interval,
    Job,
    ProblemInstance,
    ext_johnson_backfill,
    generation_list_schedule,
)
from repro.simulator import ActualDurations, ExecutionResult, execute_schedule
from tests.conftest import planned_actuals


class TestReplayEdges:
    def test_empty_schedule(self):
        inst = ProblemInstance(begin=0.0, end=5.0, jobs=())
        schedule = ext_johnson_backfill(inst)
        result = execute_schedule(schedule, planned_actuals(inst))
        assert result.io_makespan == 0.0
        assert result.overall_time == pytest.approx(5.0)

    def test_io_release_respected_in_replay(self):
        inst = ProblemInstance(
            begin=0.0,
            end=10.0,
            jobs=(Job(0, 0.0, 1.0, io_release=6.0),),
        )
        schedule = ext_johnson_backfill(inst)
        result = execute_schedule(schedule, planned_actuals(inst))
        assert result.io[0].start >= 6.0

    def test_shrunken_obstacles_pull_tasks_earlier(self):
        inst = ProblemInstance(
            begin=0.0,
            end=10.0,
            jobs=(Job(0, 2.0, 1.0),),
            main_obstacles=(Interval(0.0, 5.0),),
        )
        schedule = generation_list_schedule(inst)
        assert schedule.compression[0].start == pytest.approx(5.0)
        # Actual obstacle finished at 2.0 instead of 5.0; the replay lets
        # the queued compression start right after it.
        actuals = ActualDurations(
            length=10.0,
            main_obstacles=(Interval(0.0, 2.0),),
            background_obstacles=(),
            compression_times=(2.0,),
            io_times=(1.0,),
        )
        result = execute_schedule(schedule, actuals)
        assert result.compression[0].start == pytest.approx(2.0)

    def test_obstacle_count_mismatch_is_an_error(self):
        inst = ProblemInstance(
            begin=0.0,
            end=10.0,
            jobs=(Job(0, 1.0, 1.0),),
            main_obstacles=(Interval(1.0, 2.0),),
        )
        schedule = ext_johnson_backfill(inst)
        actuals = ActualDurations(
            length=10.0,
            main_obstacles=(),  # planned one, delivered none
            background_obstacles=(),
            compression_times=(1.0,),
            io_times=(1.0,),
        )
        with pytest.raises(IndexError):
            execute_schedule(schedule, actuals)

    def test_overall_time_includes_trailing_obstacle(self):
        inst = ProblemInstance(
            begin=0.0,
            end=4.0,
            jobs=(Job(0, 0.5, 0.5),),
            main_obstacles=(Interval(3.0, 4.0),),
        )
        schedule = ext_johnson_backfill(inst)
        actuals = ActualDurations(
            length=4.0,
            main_obstacles=(Interval(3.0, 6.0),),  # ran long
            background_obstacles=(),
            compression_times=(0.5,),
            io_times=(0.5,),
        )
        result = execute_schedule(schedule, actuals)
        assert result.overall_time >= 6.0

    def test_relative_overhead_zero_computation(self):
        inst = ProblemInstance(begin=0.0, end=0.0, jobs=())
        schedule = ext_johnson_backfill(inst)
        actuals = ActualDurations(
            length=0.0,
            main_obstacles=(),
            background_obstacles=(),
            compression_times=(),
            io_times=(),
        )
        result = execute_schedule(schedule, actuals)
        assert result.relative_overhead == 0.0

    def test_overflow_trace_glyph(self):
        from repro.telemetry import Tracer, render_gantt

        inst = ProblemInstance(
            begin=0.0, end=4.0, jobs=(Job(0, 1.0, 1.0),)
        )
        schedule = ext_johnson_backfill(inst)
        tracer = Tracer()
        execute_schedule(schedule, planned_actuals(inst), tracer=tracer)
        assert "O" not in render_gantt(tracer.recorder.spans, legend=False)
        # The Section 4.4 tail write, as the runtime emits it.
        tracer.span("write.overflow", "background", None, 5.0, 6.0)
        assert "O" in render_gantt(tracer.recorder.spans, legend=False)


class TestResultValue:
    """``ExecutionResult`` compares and prints by value, as a dataclass
    of its constructor arguments would."""

    def _replay(self):
        inst = ProblemInstance(
            begin=0.0, end=10.0, jobs=(Job(0, 1.0, 2.0), Job(1, 2.0, 1.0))
        )
        return execute_schedule(
            ext_johnson_backfill(inst), planned_actuals(inst)
        )

    def test_equal_replays_compare_equal(self):
        a, b = self._replay(), self._replay()
        assert a == b
        b.extra_io = (Interval(9.0, 9.5),)
        assert a != b

    def test_span_and_interval_forms_compare_equal(self):
        lazy = self._replay()
        built = ExecutionResult(
            begin=lazy.begin,
            computation_length=lazy.computation_length,
            compression=dict(lazy.compression),
            io=dict(lazy.io),
            main_obstacles=lazy.main_obstacles,
            background_obstacles=lazy.background_obstacles,
        )
        assert built == self._replay()
        assert built != lazy.spans(1)  # another type never compares equal

    def test_repr_shows_fields(self):
        text = repr(self._replay())
        assert text.startswith("ExecutionResult(begin=0.0, ")
        assert "io={0: Interval(" in text
        assert text.endswith("extra_io=())")
