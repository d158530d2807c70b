"""Local-search scheduler: an anytime extension beyond the paper's six.

The paper's heuristics are one-shot constructions; the ILP is exact but
intractable.  This module fills the gap between them with a time-budgeted
hill climb over task orders (a natural "future work" point the Section
3.3 design invites):

* start from the best of ExtJohnson+BF's order and the generation order;
* neighbourhood: swap two positions or relocate one job in the shared
  order (evaluated with the same no-backfill greedy placement the
  insertion greedies use, so improvements carry the same semantics);
* first-improvement steps until the time budget or a full pass without
  improvement ("local optimum").

The result is never worse than its starting order and approaches the
greedies' quality at a fraction of TwoListsGreedy's cost for large m.
"""

from __future__ import annotations

import time

import numpy as np

from .executor import _Placer, schedule_orders
from .johnson import johnson_order
from .model import ProblemInstance, Schedule

__all__ = ["local_search_schedule"]


def local_search_schedule(
    instance: ProblemInstance,
    time_budget_s: float = 0.25,
    seed: int = 0,
    backfill: bool = True,
) -> Schedule:
    """Hill-climb task orders within ``time_budget_s`` seconds.

    Args:
        instance: the iteration's scheduling instance.
        time_budget_s: wall-clock budget; the search is anytime and
            returns its best-so-far when it expires.
        seed: neighbourhood sampling seed (deterministic given budget
            only in the no-improvement path; results always validate).
        backfill: placement rule used when *materializing* the final
            schedule (the search itself evaluates without backfilling,
            like the insertion greedies).
    """
    m = instance.num_jobs
    if m == 0:
        return Schedule(instance=instance, algorithm="LocalSearch")

    candidates = [
        johnson_order(instance.jobs),
        list(range(m)),
    ]
    evaluate = _Placer(instance).io_makespan
    best_order = min(candidates, key=evaluate)
    best_value = evaluate(best_order)

    rng = np.random.default_rng(seed)
    deadline = time.perf_counter() + time_budget_s
    stale_rounds = 0
    while time.perf_counter() < deadline and stale_rounds < 2 and m > 1:
        improved = False
        # One randomized pass over swap and relocate moves.
        for _ in range(2 * m):
            if time.perf_counter() >= deadline:
                break
            i, j = rng.integers(0, m, size=2)
            if i == j:
                continue
            candidate = list(best_order)
            if rng.random() < 0.5:
                candidate[i], candidate[j] = candidate[j], candidate[i]
            else:
                job = candidate.pop(int(i))
                candidate.insert(int(j), job)
            value = evaluate(candidate)
            if value < best_value - 1e-12:
                best_order = candidate
                best_value = value
                improved = True
        stale_rounds = 0 if improved else stale_rounds + 1

    return schedule_orders(
        instance,
        best_order,
        best_order,
        backfill=backfill,
        algorithm="LocalSearch",
    )
