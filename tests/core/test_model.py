"""Unit tests for the scheduling data model and validator."""

import pytest

from repro.core import (
    Interval,
    Job,
    ProblemInstance,
    Schedule,
    ScheduleError,
)


class TestInterval:
    def test_duration(self):
        assert Interval(1.0, 3.5).duration == 2.5

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_zero_length_allowed(self):
        assert Interval(1.0, 1.0).duration == 0.0

    def test_overlap_strict(self):
        assert Interval(0, 2).overlaps(Interval(1, 3))

    def test_touching_do_not_overlap(self):
        assert not Interval(0, 2).overlaps(Interval(2, 3))
        assert not Interval(2, 3).overlaps(Interval(0, 2))

    def test_disjoint(self):
        assert not Interval(0, 1).overlaps(Interval(5, 6))

    def test_shifted(self):
        assert Interval(1, 2).shifted(10) == Interval(11, 12)

    def test_contains_point(self):
        iv = Interval(1.0, 2.0)
        assert iv.contains_point(1.0)
        assert iv.contains_point(1.5)
        assert iv.contains_point(2.0)
        assert not iv.contains_point(2.5)

    def test_ordering(self):
        assert Interval(0, 1) < Interval(1, 2)


class TestJob:
    def test_rejects_negative_durations(self):
        with pytest.raises(ValueError):
            Job(0, -1.0, 1.0)
        with pytest.raises(ValueError):
            Job(0, 1.0, -1.0)

    def test_zero_durations_allowed(self):
        job = Job(0, 0.0, 0.0)
        assert job.compression_time == 0.0

    def test_label_default(self):
        assert Job(0, 1.0, 1.0).label == ""


class TestProblemInstance:
    def test_length(self, figure1):
        assert figure1.length == 12.0

    def test_totals(self, figure1):
        assert figure1.total_compression_time() == pytest.approx(8.0)
        assert figure1.total_io_time() == pytest.approx(7.0)

    def test_rejects_end_before_begin(self):
        with pytest.raises(ValueError):
            ProblemInstance(begin=1.0, end=0.0, jobs=())

    def test_rejects_bad_job_indices(self):
        with pytest.raises(ValueError):
            ProblemInstance(begin=0.0, end=1.0, jobs=(Job(3, 1.0, 1.0),))

    def test_rejects_overlapping_obstacles(self):
        with pytest.raises(ValueError):
            ProblemInstance(
                begin=0.0,
                end=10.0,
                jobs=(),
                main_obstacles=(Interval(0, 5), Interval(4, 6)),
            )

    def test_obstacles_sorted(self):
        inst = ProblemInstance(
            begin=0.0,
            end=10.0,
            jobs=(),
            main_obstacles=(Interval(5, 6), Interval(1, 2)),
        )
        assert inst.main_obstacles[0].start == 1

    def test_with_jobs(self, figure1):
        smaller = figure1.with_jobs((Job(0, 1.0, 1.0),))
        assert smaller.num_jobs == 1
        assert figure1.num_jobs == 4  # original untouched


class TestScheduleValidation:
    def _schedule(self, inst, compression, io):
        return Schedule(instance=inst, compression=compression, io=io)

    def test_valid_minimal(self):
        inst = ProblemInstance(
            begin=0.0, end=10.0, jobs=(Job(0, 1.0, 2.0),)
        )
        sched = self._schedule(
            inst, {0: Interval(0, 1)}, {0: Interval(1, 3)}
        )
        sched.validate()
        assert sched.is_valid()

    def test_missing_job_rejected(self, figure1):
        sched = self._schedule(figure1, {}, {})
        with pytest.raises(ScheduleError):
            sched.validate()

    def test_duration_mismatch_rejected(self):
        inst = ProblemInstance(
            begin=0.0, end=10.0, jobs=(Job(0, 1.0, 2.0),)
        )
        sched = self._schedule(
            inst, {0: Interval(0, 2)}, {0: Interval(2, 4)}
        )
        with pytest.raises(ScheduleError, match="does not match duration"):
            sched.validate()

    def test_io_before_compression_rejected(self):
        inst = ProblemInstance(
            begin=0.0, end=10.0, jobs=(Job(0, 2.0, 1.0),)
        )
        sched = self._schedule(
            inst, {0: Interval(0, 2)}, {0: Interval(1, 2)}
        )
        with pytest.raises(ScheduleError, match="before"):
            sched.validate()

    def test_obstacle_overlap_rejected(self):
        inst = ProblemInstance(
            begin=0.0,
            end=10.0,
            jobs=(Job(0, 2.0, 1.0),),
            main_obstacles=(Interval(1, 2),),
        )
        sched = self._schedule(
            inst, {0: Interval(0.5, 2.5)}, {0: Interval(3, 4)}
        )
        with pytest.raises(ScheduleError, match="obstacle"):
            sched.validate()

    def test_task_overlap_rejected(self):
        inst = ProblemInstance(
            begin=0.0,
            end=10.0,
            jobs=(Job(0, 2.0, 1.0), Job(1, 2.0, 1.0)),
        )
        sched = self._schedule(
            inst,
            {0: Interval(0, 2), 1: Interval(1, 3)},
            {0: Interval(3, 4), 1: Interval(4, 5)},
        )
        with pytest.raises(ScheduleError, match="overlap"):
            sched.validate()

    def test_start_before_begin_rejected(self):
        inst = ProblemInstance(
            begin=5.0, end=10.0, jobs=(Job(0, 1.0, 1.0),)
        )
        sched = self._schedule(
            inst, {0: Interval(4, 5)}, {0: Interval(5, 6)}
        )
        with pytest.raises(ScheduleError, match="before iteration"):
            sched.validate()

    def test_back_to_back_tasks_valid(self):
        inst = ProblemInstance(
            begin=0.0,
            end=10.0,
            jobs=(Job(0, 2.0, 1.0), Job(1, 2.0, 1.0)),
        )
        sched = self._schedule(
            inst,
            {0: Interval(0, 2), 1: Interval(2, 4)},
            {0: Interval(2, 3), 1: Interval(4, 5)},
        )
        sched.validate()


class TestScheduleMetrics:
    def test_io_makespan_empty(self):
        inst = ProblemInstance(begin=0.0, end=10.0, jobs=())
        assert Schedule(instance=inst).io_makespan == 0.0

    def test_overall_never_below_length(self):
        inst = ProblemInstance(
            begin=0.0, end=10.0, jobs=(Job(0, 1.0, 1.0),)
        )
        sched = Schedule(
            instance=inst,
            compression={0: Interval(0, 1)},
            io={0: Interval(1, 2)},
        )
        assert sched.io_makespan == 2.0
        assert sched.overall_time == 10.0
        assert sched.overhead == 0.0

    def test_overhead_counts_spill(self):
        inst = ProblemInstance(
            begin=0.0, end=3.0, jobs=(Job(0, 2.0, 2.0),)
        )
        sched = Schedule(
            instance=inst,
            compression={0: Interval(0, 2)},
            io={0: Interval(2, 4)},
        )
        assert sched.overhead == pytest.approx(1.0)

    def test_begin_offset_respected(self):
        inst = ProblemInstance(
            begin=100.0, end=110.0, jobs=(Job(0, 1.0, 1.0),)
        )
        sched = Schedule(
            instance=inst,
            compression={0: Interval(100, 101)},
            io={0: Interval(101, 102)},
        )
        assert sched.io_makespan == pytest.approx(2.0)


class TestScheduleSpans:
    """Solvers hand a schedule float spans; ``Interval``s are built when
    read, and an edit to them is what the spans report afterwards."""

    def _instance(self):
        return ProblemInstance(
            begin=0.0, end=10.0, jobs=(Job(0, 1.0, 2.0), Job(1, 2.0, 1.0))
        )

    def test_spans_and_intervals_agree(self):
        inst = self._instance()
        spans = (
            {0: (0.0, 1.0), 1: (1.0, 3.0)},
            {0: (1.0, 3.0), 1: (3.0, 4.0)},
        )
        lazy = Schedule.from_spans(inst, *spans, algorithm="x")
        assert lazy.io_makespan == 4.0
        assert lazy.spans(0) is spans[0]  # nothing built yet
        eager = Schedule(
            inst,
            compression={0: Interval(0.0, 1.0), 1: Interval(1.0, 3.0)},
            io={0: Interval(1.0, 3.0), 1: Interval(3.0, 4.0)},
            algorithm="x",
        )
        assert lazy == eager
        assert repr(lazy) == repr(eager)
        assert repr(lazy).startswith("Schedule(instance=ProblemInstance(")
        assert lazy.compression == eager.compression
        assert (lazy.spans(0), lazy.spans(1)) == spans
        lazy.validate()

    def test_edits_to_built_intervals_are_seen(self):
        lazy = Schedule.from_spans(
            self._instance(),
            {0: (0.0, 1.0), 1: (1.0, 3.0)},
            {0: (1.0, 3.0), 1: (3.0, 4.0)},
        )
        lazy.io[1] = Interval(5.0, 6.0)
        assert lazy.spans(1)[1] == (5.0, 6.0)
        assert lazy.io_makespan == 6.0
