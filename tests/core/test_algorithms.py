"""Tests of the six scheduling heuristics, anchored on the paper's Figure 1."""

import pytest

from repro.core import (
    ALGORITHMS,
    Interval,
    Job,
    ProblemInstance,
    ext_johnson,
    ext_johnson_backfill,
    generation_list_schedule,
    generation_list_schedule_backfill,
    johnson_order,
    one_list_greedy,
    two_lists_greedy,
)
from tests.conftest import random_instance


class TestJohnsonOrder:
    def test_figure1_order(self, figure1):
        # M1 = {job0 (1<=2), job2 (2<=2)} sorted by c asc -> 0, 2.
        # M2 = {job1 (2>1), job3 (3>2)} sorted by c' desc -> 3, 1.
        # Paper's 1-based order: 1, 3, 4, 2.
        assert johnson_order(figure1) == [0, 2, 3, 1]

    def test_no_obstacles_johnson_is_optimal_small(self):
        # Classic Johnson example: optimal makespan reachable.
        jobs = (
            Job(0, 3.0, 2.0),
            Job(1, 1.0, 4.0),
            Job(2, 2.0, 3.0),
        )
        inst = ProblemInstance(begin=0.0, end=100.0, jobs=jobs)
        sched = ext_johnson(inst)
        sched.validate()
        # Johnson order: M1={1 (1<=4), 2 (2<=3)} -> [1, 2]; M2={0} -> [0].
        # Timeline: R1[0,1] R2[1,3] R0[3,6]; B1[1,5] B2[5,8] B0[8,10].
        assert sched.io_makespan == pytest.approx(10.0)

    def test_empty_jobs(self):
        assert johnson_order(ProblemInstance(0.0, 1.0, ())) == []


class TestFigure1Schedules:
    """Exact reproduction of Figures 1c and 1d."""

    def test_ext_johnson_matches_figure_1c(self, figure1):
        sched = ext_johnson(figure1)
        sched.validate()
        assert sched.compression[0] == Interval(0.0, 1.0)
        assert sched.compression[2] == Interval(1.0, 3.0)
        assert sched.compression[3] == Interval(7.0, 10.0)
        assert sched.compression[1] == Interval(10.0, 12.0)
        assert sched.io[0] == Interval(1.0, 3.0)
        assert sched.io[2] == Interval(5.0, 7.0)
        assert sched.io[3] == Interval(10.0, 12.0)
        assert sched.io[1] == Interval(12.0, 13.0)
        assert sched.io_makespan == pytest.approx(13.0)

    def test_ext_johnson_bf_matches_figure_1d(self, figure1):
        sched = ext_johnson_backfill(figure1)
        sched.validate()
        # Job 2 (paper job 2, index 1) backfills into the [4, 6] gap on the
        # main thread and the [7, 10] gap on the background thread.
        assert sched.compression[0] == Interval(0.0, 1.0)
        assert sched.compression[2] == Interval(1.0, 3.0)
        assert sched.compression[3] == Interval(7.0, 10.0)
        assert sched.compression[1] == Interval(4.0, 6.0)
        assert sched.io[1] == Interval(7.0, 8.0)
        assert sched.io[3] == Interval(10.0, 12.0)
        assert sched.io_makespan == pytest.approx(12.0)

    def test_bf_not_worse_than_plain_on_figure1(self, figure1):
        assert (
            ext_johnson_backfill(figure1).io_makespan
            <= ext_johnson(figure1).io_makespan
        )

    def test_m1_compression_starts_identical_with_and_without_bf(
        self, figure1
    ):
        # Paper remark: tasks in M1 are ordered by non-decreasing
        # compression time, so their compression start dates coincide
        # under ExtJohnson and ExtJohnson+BF.
        plain = ext_johnson(figure1)
        bf = ext_johnson_backfill(figure1)
        for idx in (0, 2):  # M1 jobs
            assert plain.compression[idx] == bf.compression[idx]


class TestGenerationListSchedule:
    def test_generation_order_used(self, figure1):
        sched = generation_list_schedule(figure1)
        sched.validate()
        # Jobs placed 0,1,2,3: R0[0,1] R1[1,3] R2[4,6] R3[7,10].
        assert sched.compression[0] == Interval(0.0, 1.0)
        assert sched.compression[1] == Interval(1.0, 3.0)
        assert sched.compression[2] == Interval(4.0, 6.0)
        assert sched.compression[3] == Interval(7.0, 10.0)

    def test_backfill_variant_validates(self, figure1):
        sched = generation_list_schedule_backfill(figure1)
        sched.validate()
        assert (
            sched.io_makespan
            <= generation_list_schedule(figure1).io_makespan
        )


class TestGreedy:
    def test_one_list_greedy_validates(self, figure1):
        sched = one_list_greedy(figure1)
        sched.validate()

    def test_two_lists_greedy_validates(self, figure1):
        sched = two_lists_greedy(figure1)
        sched.validate()

    def test_greedy_not_worse_than_generation_order(self, figure1):
        base = generation_list_schedule(figure1).io_makespan
        assert one_list_greedy(figure1).io_makespan <= base
        assert two_lists_greedy(figure1).io_makespan <= base

    def test_two_lists_explores_at_least_one_list(self, rng):
        # TwoListsGreedy's search space strictly contains OneListGreedy's
        # per-insertion choices; on random instances it should never be
        # more than marginally worse.
        for _ in range(10):
            inst = random_instance(rng, num_jobs=5)
            one = one_list_greedy(inst).io_makespan
            two = two_lists_greedy(inst).io_makespan
            assert two <= one + 1e-6 or two <= one * 1.05


class TestAllAlgorithms:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_single_job(self, name):
        inst = ProblemInstance(
            begin=0.0, end=10.0, jobs=(Job(0, 1.0, 2.0),)
        )
        sched = ALGORITHMS[name](inst)
        sched.validate()
        assert sched.io_makespan == pytest.approx(3.0)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_zero_jobs(self, name):
        inst = ProblemInstance(begin=0.0, end=10.0, jobs=())
        sched = ALGORITHMS[name](inst)
        assert sched.io_makespan == 0.0

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_random_instances_all_valid(self, name, rng):
        for _ in range(25):
            inst = random_instance(rng)
            sched = ALGORITHMS[name](inst)
            sched.validate()
            assert sched.algorithm == name

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_wall_of_obstacles(self, name):
        # Machine 1 fully busy until t=8; everything must queue after.
        inst = ProblemInstance(
            begin=0.0,
            end=10.0,
            jobs=(Job(0, 1.0, 1.0), Job(1, 1.0, 1.0)),
            main_obstacles=(Interval(0.0, 8.0),),
        )
        sched = ALGORITHMS[name](inst)
        sched.validate()
        assert all(iv.start >= 8.0 for iv in sched.compression.values())

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_nonzero_begin(self, name, rng):
        inst = random_instance(rng, num_jobs=4)
        shifted = ProblemInstance(
            begin=50.0,
            end=50.0 + inst.length,
            jobs=inst.jobs,
            main_obstacles=tuple(
                iv.shifted(50.0) for iv in inst.main_obstacles
            ),
            background_obstacles=tuple(
                iv.shifted(50.0) for iv in inst.background_obstacles
            ),
        )
        a = ALGORITHMS[name](inst)
        b = ALGORITHMS[name](shifted)
        b.validate()
        assert a.io_makespan == pytest.approx(b.io_makespan)


class TestRegistry:
    def test_lists_six_algorithms(self):
        from repro.core import list_algorithms

        assert len(list_algorithms()) == 6

    def test_get_unknown_raises(self):
        from repro.core import get_algorithm

        with pytest.raises(KeyError, match="unknown algorithm"):
            get_algorithm("nope")

    def test_default_is_adopted_algorithm(self):
        from repro.core import DEFAULT_ALGORITHM, get_algorithm

        assert DEFAULT_ALGORITHM == "ExtJohnson+BF"
        assert get_algorithm(DEFAULT_ALGORITHM) is ext_johnson_backfill
