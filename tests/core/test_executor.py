"""Tests for the order-to-schedule executor, including partial orders
and the io_release extension used by the I/O balancer."""

import pytest

from repro.core import (
    Interval,
    Job,
    ProblemInstance,
    Schedule,
    schedule_orders,
)


def _instance(jobs, main=(), background=(), end=100.0):
    return ProblemInstance(
        begin=0.0,
        end=end,
        jobs=tuple(jobs),
        main_obstacles=tuple(main),
        background_obstacles=tuple(background),
    )


class TestOrders:
    def test_full_permutation_required_by_default(self):
        inst = _instance([Job(0, 1, 1), Job(1, 1, 1)])
        with pytest.raises(ValueError, match="permutation"):
            schedule_orders(inst, [0], [0], backfill=False)

    def test_duplicate_indices_rejected(self):
        inst = _instance([Job(0, 1, 1), Job(1, 1, 1)])
        with pytest.raises(ValueError):
            schedule_orders(inst, [0, 0], [0, 1], backfill=False)

    def test_invalid_index_rejected(self):
        inst = _instance([Job(0, 1, 1)])
        with pytest.raises(ValueError, match="permutation"):
            schedule_orders(inst, [5], [5], backfill=False)

    def test_different_io_order_respected(self):
        jobs = [Job(0, 1.0, 5.0), Job(1, 1.0, 0.5)]
        inst = _instance(jobs)
        schedule = schedule_orders(inst, [0, 1], [1, 0], backfill=False)
        # Job 1's I/O goes first even though job 0 compressed first.
        assert schedule.io[1].start < schedule.io[0].start

    def test_algorithm_name_recorded(self):
        inst = _instance([Job(0, 1, 1)])
        schedule = schedule_orders(
            inst, [0], [0], backfill=True, algorithm="custom"
        )
        assert schedule.algorithm == "custom"


class TestIoRelease:
    def test_release_delays_io(self):
        inst = _instance([Job(0, 0.0, 1.0, io_release=7.0)])
        schedule = schedule_orders(inst, [0], [0], backfill=True)
        assert schedule.io[0].start >= 7.0
        schedule.validate()

    def test_release_interacts_with_obstacles(self):
        inst = _instance(
            [Job(0, 0.0, 1.0, io_release=3.0)],
            background=[Interval(3.0, 5.0)],
        )
        schedule = schedule_orders(inst, [0], [0], backfill=True)
        assert schedule.io[0].start >= 5.0

    def test_zero_release_is_inert(self):
        a = _instance([Job(0, 1.0, 1.0)])
        b = _instance([Job(0, 1.0, 1.0, io_release=0.0)])
        sa = schedule_orders(a, [0], [0], backfill=True)
        sb = schedule_orders(b, [0], [0], backfill=True)
        assert sa.io[0] == sb.io[0]

    def test_negative_release_rejected(self):
        with pytest.raises(ValueError):
            Job(0, 1.0, 1.0, io_release=-1.0)

    def test_validator_catches_release_violation(self):
        inst = _instance([Job(0, 0.0, 1.0, io_release=5.0)])
        schedule = Schedule(
            instance=inst,
            compression={0: Interval(0, 0)},
            io={0: Interval(1, 2)},  # before the release
        )
        assert not schedule.is_valid()

    def test_ilp_respects_release(self):
        from repro.core import ilp_schedule

        inst = _instance([Job(0, 0.0, 1.0, io_release=6.0)])
        result = ilp_schedule(inst, time_limit=10.0)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(7.0, abs=1e-4)


class TestBackfillSemantics:
    def test_backfill_never_moves_placed_tasks(self):
        # Place a long task, then a short one that backfills before it;
        # the long task's interval must be unchanged.
        inst = _instance(
            [Job(0, 3.0, 1.0), Job(1, 1.0, 1.0)],
            main=[Interval(1.0, 2.0)],
        )
        schedule = schedule_orders(inst, [0, 1], [0, 1], backfill=True)
        assert schedule.compression[0] == Interval(2.0, 5.0)
        assert schedule.compression[1] == Interval(0.0, 1.0)  # backfilled

    def test_no_backfill_is_fifo(self):
        inst = _instance(
            [Job(0, 3.0, 1.0), Job(1, 1.0, 1.0)],
            main=[Interval(1.0, 2.0)],
        )
        schedule = schedule_orders(inst, [0, 1], [0, 1], backfill=False)
        assert schedule.compression[1].start >= schedule.compression[0].end
