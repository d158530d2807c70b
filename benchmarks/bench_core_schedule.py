"""Placement-kernel benchmarks: what one ``solve()`` costs the campaign.

The scheduler runs in situ, inside the gaps it fills, so its own cost is
overhead nothing can conceal.  These cases time the order-based solvers
alone, on the instances the other layers really build::

    PYTHONPATH=src python -m pytest benchmarks/bench_core_schedule.py \\
        --benchmark-only --benchmark-json=BENCH_quick.json

* ``test_extjohnson_bf[144]``/``[576]`` — the adopted scheduler on a
  64-rank Nyx campaign's own ``make_instance`` (144 jobs per rank), and on
  the same rank with blocks a quarter the size (576 jobs).  The CI gate
  holds the pair to <= 8x: a placement costs ``O(log n + runs probed)``,
  and a rescan of every placed task would make it 16x.  The body clears
  the main thread's slot memo (``repro.core.executor``) before every
  solve, so each one times the placement kernel, not a memo hit.
* ``test_one_list_greedy`` / ``test_two_lists_greedy[kernel]`` — the
  insertion greedies on a Table 1 instance (truncated to 16 jobs for the
  ``O(K^4)`` one, the size the service workload sends).  Each attempt is
  placed only where it differs from the order it extends: from the
  base order's shared prefix up to where it merges back into the base's
  trajectory, or, for a TwoListsGreedy I/O attempt, until a lower bound
  proves it worse than the best so far.
* ``test_two_lists_greedy[reference]`` — the same call through
  the test tree's oracle (linear-scan timeline, both machines re-placed
  from ``begin`` and a ``Schedule`` built per ``(cpos, ipos)`` pair);
  exists for the CI ratio gate (kernel >= 20x, measured 40-65x) and
  needs the repository checkout.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.apps import Stage
from repro.core import ProblemInstance, executor, solve

from .bench_table1_schedulers import table1_instance

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
    instance = runtime.make_instance(runtime.plan_dump(1))
    assert instance.num_jobs == num_jobs, instance.num_jobs
    return instance


@functools.lru_cache(maxsize=None)
def greedy_instance(num_jobs: int) -> ProblemInstance:
    instance = table1_instance(Stage.MIDDLE, seed=1)
    return instance.with_jobs(instance.jobs[:num_jobs])


def _extjohnson_bf(num_jobs: int) -> None:
    instance = campaign_instance(num_jobs)
    for _ in range(_SOLVES):
        # Every compression of a campaign rank takes one time, so a
        # second solve would read the main thread's spans from the slot
        # memo: each solve here places both threads.
        executor._slot_sequence.cache_clear()
        solve(instance, "ExtJohnson+BF")


# Each gate divides two cases with equal solve counts.  Every warmup
# round also builds and caches its instance.
@pytest.mark.parametrize("num_jobs", [144, 576])
def test_extjohnson_bf(benchmark, num_jobs):
    benchmark.pedantic(
        _extjohnson_bf, args=(num_jobs,), rounds=7, warmup_rounds=1,
        iterations=1,
    )


def test_one_list_greedy(benchmark):
    benchmark.pedantic(
        lambda: solve(greedy_instance(32), "OneListGreedy"),
        rounds=5, warmup_rounds=1, iterations=1,
    )


def _reference_two_lists_greedy() -> None:
    from tests.core.reference_scheduling import reference_two_lists_greedy

    reference_two_lists_greedy(greedy_instance(16))


@pytest.mark.parametrize("impl", ["kernel", "reference"])
def test_two_lists_greedy(benchmark, impl):
    body = (
        _reference_two_lists_greedy
        if impl == "reference"
        else lambda: solve(greedy_instance(16), "TwoListsGreedy")
    )
    benchmark.pedantic(body, rounds=5, warmup_rounds=1, iterations=1)
