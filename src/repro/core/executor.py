"""Turn ordered task lists into concrete schedules.

Every algorithm in Section 3.3 ultimately produces *ordered lists* — one
order for compression tasks and one for I/O tasks (the two may coincide) —
plus a *rule of the game*: place each task as early as possible either
after all previously placed tasks (no backfilling) or in the earliest idle
gap (backfilling).  This module implements that common execution step so
the algorithms themselves stay small.

The step runs on floats: :class:`_Placer` reads the instance's job
columns as lists, places an order on one machine as
``{job: (start, end)}`` through the timeline's run-level kernel, and
:func:`schedule_orders` hands those spans to a ``Schedule``, which builds
``Interval``s only when someone reads them.  The insertion greedies,
which evaluate thousands of candidate orders to return one, place single
tasks from a machine's frontier (:meth:`_Placer.frontier_end`).

A campaign dump's compression tasks share one predicted time, one
ready time (``begin``) and, across ranks, one obstacle layout, so the
k-th one lands in the same span on every rank.  :func:`_slot_sequence`,
a small ``functools.lru_cache`` keyed on ``(begin, obstacles, ready,
duration, count, backfill)``, computes those spans once per iteration
for every order whose tasks share a ready time and whose tasks longer
than ``EPSILON`` share a duration; any other order is placed task by
task.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence

from ..telemetry import NULL_TRACER, NullTracer
from .model import EPSILON, Interval, ProblemInstance, Schedule
from .timeline import MachineTimeline

__all__ = ["schedule_orders", "trace_schedule"]

_Spans = dict[int, tuple[float, float]]


def trace_schedule(
    tracer: NullTracer,
    schedule: Schedule,
    suffix: str = "planned",
    **attrs,
) -> None:
    """Emit one span per obstacle and per scheduled task.

    Obstacles emit as ``compute`` (main) / ``core`` (background) spans;
    tasks as ``compress.<suffix>`` / ``write.<suffix>`` so planned
    placements and replayed executions stay distinguishable in one trace.
    """
    if not tracer.enabled:
        return
    inst = schedule.instance
    for obs in inst.main_obstacles:
        tracer.span("compute", "main", None, obs.start, obs.end, **attrs)
    for obs in inst.background_obstacles:
        tracer.span(
            "core", "background", None, obs.start, obs.end, **attrs
        )
    for job, (start, end) in schedule.spans(0).items():
        tracer.span(f"compress.{suffix}", "main", job, start, end, **attrs)
    for job, (start, end) in schedule.spans(1).items():
        tracer.span(
            f"write.{suffix}", "background", job, start, end, **attrs
        )


def schedule_orders(
    instance: ProblemInstance,
    compression_order: Sequence[int],
    io_order: Sequence[int],
    backfill: bool,
    algorithm: str = "",
    tracer: NullTracer = NULL_TRACER,
) -> Schedule:
    """Build a schedule from explicit task orders.

    Args:
        instance: the iteration's scheduling instance.
        compression_order: job indices in the order their compression tasks
            are considered for placement on the main thread.
        io_order: job indices in the order their I/O tasks are considered
            for placement on the background thread.
        backfill: when True, a task may slide into an earlier idle gap as
            long as it fits (this can never delay an already-placed task);
            when False, each task starts no earlier than the completion of
            every previously placed task on its machine.
        algorithm: name recorded on the returned schedule.
        tracer: when recording, the placed schedule's tasks are emitted
            as ``compress.planned``/``write.planned`` spans.

    The R -> B dependency is enforced by giving each I/O task a ready time
    equal to its compression task's completion.
    """
    expected = list(range(instance.num_jobs))
    if sorted(compression_order) != expected or sorted(io_order) != expected:
        raise ValueError(
            "orders must each be a permutation of "
            f"0..{instance.num_jobs - 1}"
        )

    placer = _Placer(instance)
    main = placer.main(compression_order, backfill)
    background = placer.background(io_order, placer.io_ready(main), backfill)
    schedule = Schedule.from_spans(instance, main, background, algorithm)
    if tracer.enabled:
        trace_schedule(tracer, schedule, algorithm=algorithm)
    return schedule


class _Placer:
    """The float-level placement core shared by every order-based solver.

    Holds one instance's durations, I/O release times (``release``,
    absolute) and obstacle runs so that a placement costs only its fit:
    spans are ``{job: (start, end)}`` floats, and the insertion greedies
    rank attempts on frontiers and never build a ``Schedule``.
    """

    def __init__(self, instance: ProblemInstance) -> None:
        self._begin = begin = instance.begin
        self._durations = (
            instance.compression_time.tolist(),
            instance.io_time.tolist(),
        )
        self.release = (begin + instance.io_release).tolist()
        self._at_begin = [begin] * instance.num_jobs
        self._obstacles = (
            instance.main_obstacles,
            instance.background_obstacles,
        )
        self._shared: list[MachineTimeline | None] = [None, None]

    def _obstacle_runs(self, machine: int) -> MachineTimeline:
        """The machine's timeline holding its obstacles and nothing else."""
        timeline = self._shared[machine]
        if timeline is None:
            timeline = MachineTimeline(self._begin, self._obstacles[machine])
            self._shared[machine] = timeline
        return timeline

    def _place(
        self, machine: int, order: Sequence[int], ready, backfill: bool
    ) -> _Spans:
        """List-schedule one machine; ``ready[job]`` is never before begin.

        Without backfilling every start is at or past the frontier, so no
        later fit can probe a task placed here: nothing is recorded, and
        one timeline per machine — its obstacle runs — serves every order.
        An order whose tasks share one ready time, and whose tasks longer
        than ``EPSILON`` share one duration, takes those tasks' spans from
        :func:`_slot_sequence` in turn, whichever job each one is.
        """
        durations = self._durations[machine]
        obstacles = self._obstacles[machine]
        timed = [d for d in map(durations.__getitem__, order) if d > EPSILON]
        timeline, slots = None, ()
        if len(set(timed)) == 1 and len({ready[j] for j in order}) == 1:
            slots = _slot_sequence(
                self._begin, obstacles, ready[order[0]], timed[0], len(timed),
                backfill,
            )
            if len(timed) == len(order):
                return dict(zip(order, slots))
        elif backfill:
            timeline = MachineTimeline(self._begin, obstacles)
        else:
            timeline = self._obstacle_runs(machine)
        return _list_schedule(
            self._begin, timeline, durations, order, ready, backfill, slots
        )

    def main(self, order: Sequence[int], backfill: bool = False) -> _Spans:
        """Place the compression tasks of ``order`` on the main thread."""
        return self._place(0, order, self._at_begin, backfill)

    def io_ready(self, main: _Spans) -> dict[int, float]:
        """Each job's R -> B ready time given its main-thread span."""
        release = self.release
        return {j: max(end, release[j]) for j, (_, end) in main.items()}

    def background(
        self, order: Sequence[int], ready, backfill: bool = False
    ) -> _Spans:
        """Place the I/O tasks of ``order`` once their jobs are ``ready``."""
        return self._place(1, order, ready, backfill)

    def frontier_end(self, machine: int) -> Callable[[int, float], float]:
        """One task's placement without backfilling, as ``end(job, t)``.

        ``t`` is the later of the job's ready time and the machine's
        frontier; the task's end is also the machine's next frontier, so
        the whole state of a machine after a prefix is that one float,
        the same one :meth:`_place` computes.
        """
        fit = self._obstacle_runs(machine)._fit
        durations = self._durations[machine]

        def end(job: int, t: float) -> float:
            duration = durations[job]
            if duration > EPSILON:
                return fit(duration, t)[0] + duration
            return t

        return end


def _list_schedule(
    begin: float,
    timeline: MachineTimeline | None,
    durations: Sequence[float],
    order: Sequence[int],
    ready,
    backfill: bool,
    slots: Sequence[tuple[float, float]] = (),
) -> _Spans:
    """Place ``order`` at each task's earliest fit on ``timeline``, at or
    after its ready time (and the frontier, without backfilling); with
    ``slots``, the tasks longer than ``EPSILON`` take those in turn."""
    next_slot = iter(slots).__next__
    spans: _Spans = {}
    frontier = begin
    for job in order:
        start = ready[job]
        if not backfill and start < frontier:
            start = frontier
        end = start
        duration = durations[job]
        if duration > EPSILON:
            if slots:
                start, end = next_slot()
            else:
                start, idx = timeline._fit(duration, start)
                end = start + duration
                if backfill:
                    timeline._insert(idx, start, end)
        if end > frontier:
            frontier = end
        spans[job] = (start, end)
    return spans


@functools.lru_cache(maxsize=8)
def _slot_sequence(
    begin: float,
    obstacles: tuple[Interval, ...],
    ready: float,
    duration: float,
    count: int,
    backfill: bool,
) -> tuple[tuple[float, float], ...]:
    """The spans of ``count`` tasks of one ``duration``, all ready at
    ``ready``, placed in turn around ``obstacles`` by the loop itself."""
    spans = _list_schedule(
        begin,
        MachineTimeline(begin, obstacles),
        [duration] * count,
        range(count),
        [ready] * count,
        backfill,
    )
    return tuple(spans.values())
