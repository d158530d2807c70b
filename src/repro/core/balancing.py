"""Intra-node I/O workload balancing (Section 3.4).

Compressed sizes — and therefore I/O times — vary across the processes of
a node because data compressibility varies across partitions, while raw
sizes (and compression times) do not.  The paper balances only the I/O
side, and only within a node (inter-node moves would pay communication
costs), using the previous iteration's per-process I/O totals as the guide:

    while the largest workload exceeds twice the smallest, reassign the
    *first* I/O task of the most-loaded process to run as the *last* I/O
    task of the least-loaded process.

This module implements that loop with two safeguards the paper leaves
implicit: a donor keeps at least one task, and a move that does not shrink
the max-min spread stops the loop (otherwise a single huge task could
bounce between two processes forever).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "IoTaskRef",
    "BalanceResult",
    "balance_io_workloads",
    "balance_io_moves",
]


@dataclass(frozen=True)
class IoTaskRef:
    """One I/O task eligible for reassignment.

    Attributes:
        owner: rank of the process whose data this task writes.
        job_index: the job index within the owner's instance.
        duration: predicted I/O time (from the previous iteration's
            compressed size and the I/O throughput model).
    """

    owner: int
    job_index: int
    duration: float


@dataclass
class BalanceResult:
    """Assignment produced by :func:`balance_io_workloads`."""

    assignments: list[list[IoTaskRef]]
    workloads_before: list[float]
    workloads_after: list[float]
    moves: int = 0

    @property
    def imbalance_before(self) -> float:
        return _imbalance(self.workloads_before)

    @property
    def imbalance_after(self) -> float:
        return _imbalance(self.workloads_after)


#: ``(process, position)``: a task by the queue it started in.
_Task = tuple[int, int]


def _imbalance(workloads: list[float]) -> float:
    """Max/min workload ratio (inf when some process has zero work)."""
    lo = min(workloads)
    hi = max(workloads)
    if lo <= 0.0:
        return float("inf") if hi > 0.0 else 1.0
    return hi / lo


def balance_io_workloads(
    tasks_per_process: list[list[IoTaskRef]],
    threshold: float = 2.0,
) -> BalanceResult:
    """Redistribute I/O tasks within a node.

    Args:
        tasks_per_process: for each process of the node, its I/O tasks in
            execution order (typically from the previous iteration).
        threshold: the loop runs while ``max > threshold * min`` (the paper
            uses 2).

    Returns:
        The new per-process task lists.  Moved tasks keep their ``owner``
        field so the runtime knows whose buffer to write from.
    """
    given, received, before, after, moves = _balance_durations(
        [[t.duration for t in tasks] for tasks in tasks_per_process],
        threshold,
    )
    return BalanceResult(
        assignments=[
            tasks[given[p]:]
            + [tasks_per_process[q][i] for q, i in received[p]]
            for p, tasks in enumerate(tasks_per_process)
        ],
        workloads_before=before,
        workloads_after=after,
        moves=moves,
    )


def balance_io_moves(
    durations: list[list[float]], threshold: float = 2.0
) -> list[tuple[set[int], list[tuple[int, int]]]]:
    """The :func:`balance_io_workloads` verdict on plain durations.

    ``durations[p]`` lists process ``p``'s I/O task times in execution
    order.  Returns, per process, the indices of its own tasks another
    process now writes, and the ``(process, index)`` tasks it writes for
    others in arrival order.  A task handed back to its owner counts as
    neither: the owner simply keeps it.
    """
    given, received, *_ = _balance_durations(durations, threshold)
    moves = []
    for p, got in enumerate(received):
        back = {i for q, i in got if q == p}
        moves.append(
            (set(range(given[p])) - back, [t for t in got if t[0] != p])
        )
    return moves


def _balance_durations(
    durations: list[list[float]], threshold: float
) -> tuple[list[int], list[deque[_Task]], list[float], list[float], int]:
    """The balancing loop on each process's task durations, in order.

    Returns, per process, how many of its own tasks it gave away (always
    a prefix: a donor gives up the head of its queue, and its own tasks
    queue ahead of any it received) and the ``(process, task)`` pairs it
    holds from other queues, in arrival order; then the workloads before
    and after, and the move count.  Only moved tasks cost per-task work.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must exceed 1.0")

    n = len(durations)
    before = [sum(tasks) for tasks in durations]
    workloads = list(before)
    sizes = [len(tasks) for tasks in durations]
    given = [0] * n
    received: list[deque[_Task]] = [deque() for _ in range(n)]
    moves = 0

    # Upper bound on useful moves: each task moves at most once per spread
    # reduction; total tasks squared is a safe, cheap cap.
    total_tasks = sum(sizes)
    max_moves = max(1, total_tasks * total_tasks)

    while moves < max_moves and n > 1:
        hi = max(range(n), key=workloads.__getitem__)
        lo = min(range(n), key=workloads.__getitem__)
        if workloads[lo] > 0 and workloads[hi] <= threshold * workloads[lo]:
            break
        if sizes[hi] <= 1:
            break
        own = given[hi] < len(durations[hi])
        task = (hi, given[hi]) if own else received[hi][0]
        duration = durations[task[0]][task[1]]
        spread = workloads[hi] - workloads[lo]
        new_spread_hi = workloads[hi] - duration
        new_spread_lo = workloads[lo] + duration
        if max(new_spread_hi, new_spread_lo) - min(
            new_spread_hi, new_spread_lo
        ) >= spread:
            break
        if own:
            given[hi] += 1
        else:
            received[hi].popleft()
        received[lo].append(task)
        sizes[hi] -= 1
        sizes[lo] += 1
        workloads[hi] = new_spread_hi
        workloads[lo] = new_spread_lo
        moves += 1

    return given, received, before, workloads, moves
