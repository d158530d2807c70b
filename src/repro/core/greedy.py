"""Insertion-based greedy algorithms (Section 3.3.3).

Both algorithms build the task order incrementally.  Jobs are considered in
generation order; when job ``r+1`` arrives it is *tried at every position*
of the partial order, each attempt is evaluated by greedily re-scheduling
the whole partial instance, and the best attempt (smallest I/O makespan,
ties broken by last compression completion) is kept.  Unlike backfilling,
an insertion may delay previously ordered tasks — the evaluation re-derives
all start times from scratch.

* :func:`one_list_greedy` keeps a single order shared by compression and
  I/O tasks: ``O(K^2)`` attempts overall.
* :func:`two_lists_greedy` maintains independent orders for the two task
  types and tries all ``(r+1)^2`` position pairs: ``O(K^3)`` overall.

An attempt is evaluated on the executor's float-level core (no
``Schedule`` is built for it), and because the main thread never sees the
I/O order, ``two_lists_greedy`` places a compression candidate once for
all of its ``r+1`` I/O positions.
"""

from __future__ import annotations

from .executor import _Placer, schedule_orders
from .model import ProblemInstance, Schedule

__all__ = ["one_list_greedy", "two_lists_greedy"]

# Attempts are ranked by (I/O makespan, last compression end).  The
# secondary key keeps the main thread as free as possible for later
# insertions, which matters while the order is still partial.


def one_list_greedy(instance: ProblemInstance) -> Schedule:
    """Insertion greedy with one shared order for both task types."""
    placer = _Placer(instance)
    order: list[int] = []
    for job_index in range(instance.num_jobs):
        best_order: list[int] | None = None
        best_cost: tuple[float, float] | None = None
        for position in range(len(order) + 1):
            candidate = order[:position] + [job_index] + order[position:]
            main = placer.main(candidate)
            io = placer.background(candidate, placer.io_ready(main))
            cost = (placer.last_end(io), placer.last_end(main))
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_order = candidate
        assert best_order is not None
        order = best_order
    return schedule_orders(
        instance, order, order, backfill=False, algorithm="OneListGreedy"
    )


def two_lists_greedy(instance: ProblemInstance) -> Schedule:
    """Insertion greedy with independent compression and I/O orders."""
    placer = _Placer(instance)
    comp_order: list[int] = []
    io_order: list[int] = []
    for job_index in range(instance.num_jobs):
        best: tuple[list[int], list[int]] | None = None
        best_cost: tuple[float, float] | None = None
        for cpos in range(len(comp_order) + 1):
            comp_candidate = (
                comp_order[:cpos] + [job_index] + comp_order[cpos:]
            )
            # The main thread does not see the I/O order: one placement
            # per compression candidate serves every I/O position.
            main = placer.main(comp_candidate)
            ready = placer.io_ready(main)
            last_compression = placer.last_end(main)
            for ipos in range(len(io_order) + 1):
                io_candidate = (
                    io_order[:ipos] + [job_index] + io_order[ipos:]
                )
                io = placer.background(io_candidate, ready)
                cost = (placer.last_end(io), last_compression)
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best = (comp_candidate, io_candidate)
        assert best is not None
        comp_order, io_order = best
    return schedule_orders(
        instance,
        comp_order,
        io_order,
        backfill=False,
        algorithm="TwoListsGreedy",
    )
