"""Test oracle: the schedulers as they ran on the linear-scan timeline.

``reference_schedule_orders`` is the pre-kernel ``schedule_orders`` (one
``Interval`` per placement through :class:`ReferenceTimeline`), the two
greedies are the pre-kernel loops that re-place *both* machines for every
``(cpos, ipos)`` pair and build a ``Schedule`` per attempt.
Johnson's rule is the pre-column sort over ``Job`` objects, so the
kernel's ``np.lexsort`` order is checked too.
"""

from __future__ import annotations

from repro.core import ProblemInstance, Schedule

from .reference_timeline import ReferenceTimeline


def reference_schedule_orders(
    instance: ProblemInstance,
    compression_order,
    io_order,
    backfill: bool,
    algorithm: str = "",
) -> Schedule:
    main = ReferenceTimeline(instance.begin, instance.main_obstacles)
    background = ReferenceTimeline(
        instance.begin, instance.background_obstacles
    )
    jobs = instance.jobs
    compression = {}
    for job_index in compression_order:
        compression[job_index] = main.place_earliest(
            jobs[job_index].compression_time, instance.begin, backfill
        )
    io = {}
    for job_index in io_order:
        ready = max(
            compression[job_index].end,
            instance.begin + jobs[job_index].io_release,
        )
        io[job_index] = background.place_earliest(
            jobs[job_index].io_time, ready, backfill
        )
    return Schedule(
        instance=instance, compression=compression, io=io, algorithm=algorithm
    )


def _attempt_cost(schedule: Schedule) -> tuple[float, float]:
    last_compression = (
        max(iv.end for iv in schedule.compression.values())
        - schedule.instance.begin
        if schedule.compression
        else 0.0
    )
    return (schedule.io_makespan, last_compression)


def reference_one_list_greedy(instance: ProblemInstance) -> Schedule:
    order: list[int] = []
    for job_index in range(instance.num_jobs):
        best_order = None
        best_cost = None
        for position in range(len(order) + 1):
            candidate = order[:position] + [job_index] + order[position:]
            cost = _attempt_cost(
                reference_schedule_orders(
                    instance, candidate, candidate, backfill=False
                )
            )
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_order = candidate
        order = best_order
    return reference_schedule_orders(
        instance, order, order, backfill=False, algorithm="OneListGreedy"
    )


def reference_two_lists_greedy(instance: ProblemInstance) -> Schedule:
    comp_order: list[int] = []
    io_order: list[int] = []
    for job_index in range(instance.num_jobs):
        best = None
        best_cost = None
        for cpos in range(len(comp_order) + 1):
            comp_candidate = (
                comp_order[:cpos] + [job_index] + comp_order[cpos:]
            )
            for ipos in range(len(io_order) + 1):
                io_candidate = (
                    io_order[:ipos] + [job_index] + io_order[ipos:]
                )
                cost = _attempt_cost(
                    reference_schedule_orders(
                        instance,
                        comp_candidate,
                        io_candidate,
                        backfill=False,
                    )
                )
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best = (comp_candidate, io_candidate)
        comp_order, io_order = best
    return reference_schedule_orders(
        instance,
        comp_order,
        io_order,
        backfill=False,
        algorithm="TwoListsGreedy",
    )


def _ordered(order_of, backfill: bool, algorithm: str):
    def run(instance: ProblemInstance) -> Schedule:
        order = order_of(instance)
        return reference_schedule_orders(
            instance, order, order, backfill=backfill, algorithm=algorithm
        )

    return run


def _generation(instance: ProblemInstance) -> list[int]:
    return list(range(instance.num_jobs))


def _johnson(instance: ProblemInstance) -> list[int]:
    """Johnson's rule as the pre-column sort over ``Job`` objects."""
    jobs = instance.jobs
    m1 = [j for j in jobs if j.compression_time <= j.io_time]
    m2 = [j for j in jobs if j.compression_time > j.io_time]
    m1.sort(key=lambda j: (j.compression_time, j.index))
    m2.sort(key=lambda j: (-j.io_time, j.index))
    return [j.index for j in m1 + m2]


#: The paper's six heuristics, by registry name, on the reference kernel.
REFERENCE_HEURISTICS = {
    "GenerationListSchedule": _ordered(
        _generation, False, "GenerationListSchedule"
    ),
    "GenerationListSchedule+BF": _ordered(
        _generation, True, "GenerationListSchedule+BF"
    ),
    "ExtJohnson": _ordered(_johnson, False, "ExtJohnson"),
    "ExtJohnson+BF": _ordered(_johnson, True, "ExtJohnson+BF"),
    "OneListGreedy": reference_one_list_greedy,
    "TwoListsGreedy": reference_two_lists_greedy,
}
