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

An attempt is placed without backfilling, where a machine's whole state
after a prefix of its order is one float, its frontier.  So an attempt is
evaluated only where it differs from the order it extends (the *base*),
by three exact rules:

* **Shared prefixes.** The base's trajectory (each machine's frontier
  after each prefix) is placed once per step; an attempt at position
  ``p`` starts from the base's state ``p``.  The main thread never sees
  the I/O order, so ``two_lists_greedy`` places one main trajectory per
  step and one I/O trajectory per compression candidate, whose main
  ends fix every job's I/O ready time.
* **Merged trajectories.** Once an attempt's frontier equals the base's
  after the same job, the rest of the attempt is the base's: its final
  frontier and its main-thread ends are taken, not placed.  In
  ``one_list_greedy`` both machines' frontiers must match, as the I/O
  ready times follow the main thread.
* **Early abandon** (``two_lists_greedy``'s I/O attempts).  Each task
  still to place starts at or after the frontier, so ``frontier + the
  remaining I/O durations`` bounds the attempt's I/O makespan from below.
  Only durations ``> EPSILON`` count, as only those take time; an attempt
  is dropped when its bound is worse than the best so far by more than
  the rounding of that sum, so it was strictly worse.

The schedules, tie-breaks included (the first strictly best position
wins), are those of re-placing every attempt from ``begin``
(``tests/core/test_scheduling_differential.py``).
"""

from __future__ import annotations

from .executor import _Placer, schedule_orders
from .model import EPSILON, ProblemInstance, Schedule

__all__ = ["one_list_greedy", "two_lists_greedy"]

# Attempts are ranked by (I/O makespan, last compression end).  The
# secondary key keeps the main thread as free as possible for later
# insertions, which matters while the order is still partial.

# An abandon bound and an attempt's placed I/O end each round once per
# task: K ulps of the largest time, far below this relative slack.
_ABANDON_SLACK = 1e-9


def one_list_greedy(instance: ProblemInstance) -> Schedule:
    """Insertion greedy with one shared order for both task types."""
    placer = _Placer(instance)
    main_end, io_end = placer.frontier_end(0), placer.frontier_end(1)
    release, begin = placer.release, instance.begin
    order: list[int] = []
    for new in range(instance.num_jobs):
        # The base order's frontiers after each prefix, and each job's
        # I/O ready time in it.
        mains, ios, readies = [begin], [begin], []
        for job in order:
            main = main_end(job, mains[-1])
            readies.append(max(main, release[job]))
            mains.append(main)
            ios.append(io_end(job, max(readies[-1], ios[-1])))
        count = len(order)
        best_position, best_cost = 0, None
        for position in range(count + 1):
            main = main_end(new, mains[position])
            io = io_end(new, max(main, release[new], ios[position]))
            k = position
            while k < count and main != mains[k]:
                job = order[k]
                main = main_end(job, main)
                io = io_end(job, max(main, release[job], io))
                k += 1
            if k < count:
                # The main thread merged: the base's ends from here on.
                main = mains[count]
                while k < count and io != ios[k]:
                    io = io_end(order[k], max(readies[k], io))
                    k += 1
                if k < count:
                    io = ios[count]
            cost = (io - begin, main - begin)
            if best_cost is None or cost < best_cost:
                best_position, best_cost = position, cost
        order.insert(best_position, new)
    return schedule_orders(
        instance, order, order, backfill=False, algorithm="OneListGreedy"
    )


def two_lists_greedy(instance: ProblemInstance) -> Schedule:
    """Insertion greedy with independent compression and I/O orders."""
    placer = _Placer(instance)
    main_end, io_end = placer.frontier_end(0), placer.frontier_end(1)
    release, begin = placer.release, instance.begin
    io_time = [d if d > EPSILON else 0.0 for d in instance.io_time.tolist()]
    base_ready = [begin] * instance.num_jobs
    comp_order: list[int] = []
    io_order: list[int] = []
    for new in range(instance.num_jobs):
        count = len(comp_order)
        # The base compression order's frontiers, and each job's I/O
        # ready time in it.
        mains = [begin]
        for job in comp_order:
            mains.append(main_end(job, mains[-1]))
            base_ready[job] = max(mains[-1], release[job])
        # rest[k]: the I/O time io_order[k:] adds to any frontier.
        rest = [0.0] * (count + 1)
        for k in range(count - 1, -1, -1):
            rest[k] = rest[k + 1] + io_time[io_order[k]]
        best, best_cost, limit = (0, 0), None, float("inf")
        for cpos in range(count + 1):
            ready = base_ready.copy()
            main = main_end(new, mains[cpos])
            ready[new] = max(main, release[new])
            k = cpos
            while k < count and main != mains[k]:
                job = comp_order[k]
                main = main_end(job, main)
                ready[job] = max(main, release[job])
                k += 1
            if k < count:
                # Merged: every later job keeps its base ready time.
                main = mains[count]
            last_compression = main - begin
            ios = [begin]
            for job in io_order:
                ios.append(io_end(job, max(ready[job], ios[-1])))
            for ipos in range(count + 1):
                # Every attempt from here on places io_order[ipos:] and
                # the new job after ios[ipos].
                if ios[ipos] + io_time[new] + rest[ipos] > limit:
                    break
                io = io_end(new, max(ready[new], ios[ipos]))
                for k in range(ipos, count):
                    if io == ios[k]:
                        io = ios[count]
                        break
                    if io + rest[k] > limit:
                        io = None  # abandoned: strictly worse
                        break
                    job = io_order[k]
                    io = io_end(job, max(ready[job], io))
                if io is None:
                    continue
                cost = (io - begin, last_compression)
                if best_cost is None or cost < best_cost:
                    best, best_cost = (cpos, ipos), cost
                    limit = io + _ABANDON_SLACK * max(abs(io), abs(begin))
        comp_order.insert(best[0], new)
        io_order.insert(best[1], new)
    return schedule_orders(
        instance,
        comp_order,
        io_order,
        backfill=False,
        algorithm="TwoListsGreedy",
    )
