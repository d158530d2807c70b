"""Brute-force oracle tests on tiny instances.

For up to four jobs, exhaustively trying every (compression order, I/O
order) pair under the no-backfill placement rule gives the optimal
makespan: semi-active schedules dominate (see ``core/bruteforce.py``),
so the oracle equals the ILP optimum.  It sandwiches everything else:
``lower_bound <= ILP optimum == oracle`` and every heuristic ``>= ILP``.
"""

import pytest

from repro.core import (
    ALGORITHMS,
    exhaustive_schedule,
    ilp_schedule,
    lower_bound,
)
from tests.conftest import random_instance


def brute_force_best(instance) -> float:
    """Optimal no-backfill list-schedule makespan over all order pairs."""
    return exhaustive_schedule(instance).io_makespan


@pytest.fixture
def small_instances(rng):
    return [
        random_instance(
            rng,
            num_jobs=int(rng.integers(2, 5)),
            num_main_obstacles=int(rng.integers(0, 3)),
            num_background_obstacles=int(rng.integers(0, 3)),
        )
        for _ in range(6)
    ]


class TestOracleSandwich:
    def test_heuristics_never_beat_ilp(self, small_instances):
        for inst in small_instances:
            result = ilp_schedule(inst, time_limit=15.0)
            if result.status != "optimal":
                continue
            for name, algo in ALGORITHMS.items():
                assert (
                    algo(inst).io_makespan >= result.objective - 1e-4
                ), name

    def test_ilp_never_beaten_by_oracle(self, small_instances):
        # The ILP may place tasks anywhere, yet earliest-fit placement
        # of the right orders loses nothing: where the ILP proves its
        # optimum, the exhaustive order search reaches it too.
        for inst in small_instances:
            result = ilp_schedule(inst, time_limit=15.0)
            if result.status != "optimal":
                continue
            oracle = brute_force_best(inst)
            assert abs(result.objective - oracle) <= 1e-4

    def test_lower_bound_below_oracle(self, small_instances):
        for inst in small_instances:
            assert lower_bound(inst) <= brute_force_best(inst) + 1e-6

    def test_two_lists_matches_oracle_often(self, small_instances):
        # TwoListsGreedy explores order pairs incrementally; on tiny
        # instances it should reach the oracle most of the time.
        hits = 0
        for inst in small_instances:
            oracle = brute_force_best(inst)
            achieved = ALGORITHMS["TwoListsGreedy"](inst).io_makespan
            assert achieved >= oracle - 1e-9
            if achieved <= oracle + 1e-6:
                hits += 1
        assert hits >= len(small_instances) // 2


class TestKnownOptima:
    def test_figure1_oracle_is_12(self, figure1):
        # With backfilling ExtJohnson+BF reaches 12.0; the no-backfill
        # oracle must also reach it (some order achieves the packing).
        assert brute_force_best(figure1) == pytest.approx(12.0)

    def test_two_job_pipeline_oracle(self):
        from repro.core import Job, ProblemInstance

        inst = ProblemInstance(
            begin=0.0,
            end=100.0,
            jobs=(Job(0, 5.0, 1.0), Job(1, 1.0, 5.0)),
        )
        assert brute_force_best(inst) == pytest.approx(7.0)
        result = ilp_schedule(inst, time_limit=10.0)
        assert result.objective == pytest.approx(7.0, abs=1e-4)


class TestExhaustiveApi:
    def test_same_order_restriction_never_better(self, rng):
        for _ in range(4):
            inst = random_instance(rng, num_jobs=3)
            both = exhaustive_schedule(inst).io_makespan
            shared = exhaustive_schedule(
                inst, same_order=True
            ).io_makespan
            assert both <= shared + 1e-9

    def test_result_validates(self, rng):
        inst = random_instance(rng, num_jobs=3)
        schedule = exhaustive_schedule(inst)
        schedule.validate()
        assert schedule.algorithm == "Exhaustive"

    def test_too_many_jobs_rejected(self, rng):
        inst = random_instance(rng, num_jobs=8)
        with pytest.raises(ValueError, match="limited"):
            exhaustive_schedule(inst)

    def test_zero_jobs(self):
        from repro.core import ProblemInstance

        inst = ProblemInstance(begin=0.0, end=1.0, jobs=())
        assert exhaustive_schedule(inst).io_makespan == 0.0
