"""Exhaustive list-schedule search for tiny instances.

For a handful of jobs, trying every (compression order, I/O order) pair
under the no-backfill placement rule is tractable — ``(m!)^2`` placements
— and yields the optimal makespan, the ILP's optimum.  Any feasible
schedule fixes one order per machine, and placing those orders at
earliest fit starts no task later than that schedule does:
``MachineTimeline.earliest_fit`` is monotone in the ready time, so by
induction along each order every ready time, and with it every start,
is no later.  Such semi-active schedules therefore dominate, and
``ILP optimum == exhaustive <= any heuristic`` (up to the ILP's grid
slack); tests use it as an oracle on small cases.
"""

from __future__ import annotations

import itertools

from .executor import schedule_orders
from .model import ProblemInstance, Schedule

__all__ = ["exhaustive_schedule"]

#: (m!)^2 grows brutally; 6 jobs = 518400 placements is already seconds.
MAX_JOBS = 6


def exhaustive_schedule(
    instance: ProblemInstance, same_order: bool = False
) -> Schedule:
    """The optimal no-backfill list schedule, by exhaustive search.

    Args:
        instance: at most ``6`` jobs (the search is ``(m!)^2``).
        same_order: restrict both task types to one shared order (the
            OneListGreedy search space) instead of independent orders
            (the TwoListsGreedy space).
    """
    if instance.num_jobs > MAX_JOBS:
        raise ValueError(
            f"exhaustive search is limited to {MAX_JOBS} jobs "
            f"(got {instance.num_jobs})"
        )
    indices = list(range(instance.num_jobs))
    best: Schedule | None = None
    for comp_order in itertools.permutations(indices):
        io_orders = (
            (comp_order,)
            if same_order
            else itertools.permutations(indices)
        )
        for io_order in io_orders:
            candidate = schedule_orders(
                instance,
                list(comp_order),
                list(io_order),
                backfill=False,
                algorithm="Exhaustive",
            )
            if best is None or candidate.io_makespan < best.io_makespan:
                best = candidate
    if best is None:  # zero jobs
        best = Schedule(instance=instance, algorithm="Exhaustive")
    return best
