"""Placement-kernel benchmarks: what one ``solve()`` costs the campaign.

The scheduler runs in situ, inside the gaps it fills, so its own cost is
overhead nothing can conceal.  These cases time the order-based solvers
alone, on the instances the other layers really build::

    PYTHONPATH=src python -m repro bench run --filter core.schedule --quick

* ``core.schedule.extjohnson_bf.{144,576}`` — the adopted scheduler on a
  64-rank Nyx campaign's own ``make_instance`` (144 jobs per rank), and on
  the same rank with blocks a quarter the size (576 jobs).  The CI gate
  holds the pair to <= 8x: a placement costs ``O(log n + runs probed)``,
  and a rescan of every placed task would make it 16x.
* ``core.schedule.one_list_greedy.32`` / ``two_lists_greedy.16`` — the
  insertion greedies on a Table 1 instance (truncated to 16 jobs for the
  ``O(K^4)`` one, the size the service workload sends).
* ``core.schedule.two_lists_greedy.16_reference`` — the same call through
  the test tree's oracle (linear-scan timeline, both machines re-placed
  and a ``Schedule`` built per ``(cpos, ipos)`` pair); exists for the CI
  ratio gate (kernel >= 2x) and needs the repository checkout.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.apps import Stage
from repro.bench import bench_case
from repro.core import ProblemInstance, solve

try:
    from .bench_table1_schedulers import table1_instance
except ImportError:  # standalone: python benchmarks/bench_core_schedule.py
    from bench_table1_schedulers import table1_instance

_SOLVES = 10  # per timed body: one ExtJohnson+BF solve is ~1 ms


@functools.lru_cache(maxsize=None)
def campaign_instance(num_jobs: int) -> ProblemInstance:
    """Rank 0's first dump of the 64-rank Nyx campaign ``perf/`` runs,
    with the block size divided so that it holds ``num_jobs`` jobs."""
    from repro.engines import CampaignSpec
    from repro.framework.orchestrator import CampaignRunner

    spec = CampaignSpec(
        app="nyx", nodes=16, ppn=4, iterations=2, solution="ours", seed=23
    )
    config = spec.resolved_config()
    config = dataclasses.replace(
        config, block_bytes=config.block_bytes * 144 // num_jobs
    )
    runner = CampaignRunner(
        spec.application(),
        spec.cluster_spec(),
        config,
        solution=spec.solution,
        seed=spec.seed,
    )
    runner.run_one(0)  # iteration 0 seeds the obstacle predictor
    runtime = runner.runtimes[0]
    plan = runtime.plan_dump(1)
    runtime.build_jobs(plan)
    instance = runtime.make_instance(plan)
    assert instance.num_jobs == num_jobs, instance.num_jobs
    return instance


@functools.lru_cache(maxsize=None)
def greedy_instance(num_jobs: int) -> ProblemInstance:
    instance = table1_instance(Stage.MIDDLE, seed=1)
    return instance.with_jobs(instance.jobs[:num_jobs])


def _extjohnson_bf(num_jobs: int) -> None:
    instance = campaign_instance(num_jobs)
    for _ in range(_SOLVES):
        solve(instance, "ExtJohnson+BF")


def _reference_two_lists_greedy(num_jobs: int) -> None:
    from tests.core.reference_scheduling import reference_two_lists_greedy

    reference_two_lists_greedy(greedy_instance(num_jobs))


def _register(suffix: str, body, num_jobs: int, repeats: int) -> None:
    @bench_case(
        f"core.schedule.{suffix}",
        group="scheduling",
        params={"num_jobs": num_jobs},
        quick=True,
        warmup=1,  # also builds and caches the instance
        repeats=repeats,
        timeout_s=120.0,
    )
    def _case(num_jobs=num_jobs):
        body(num_jobs)


# Each gate divides two cases with equal solve counts.
_register("extjohnson_bf.144", _extjohnson_bf, 144, 7)
_register("extjohnson_bf.576", _extjohnson_bf, 576, 7)
_register(
    "one_list_greedy.32",
    lambda n: solve(greedy_instance(n), "OneListGreedy"),
    32,
    5,
)
_register(
    "two_lists_greedy.16",
    lambda n: solve(greedy_instance(n), "TwoListsGreedy"),
    16,
    5,
)
_register(
    "two_lists_greedy.16_reference", _reference_two_lists_greedy, 16, 5
)


if __name__ == "__main__":
    from repro.bench.runner import standalone_main

    standalone_main(__name__)
