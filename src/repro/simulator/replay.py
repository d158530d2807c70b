"""Execution replay: run a planned schedule against actual durations.

The scheduler plans with *predicted* interval positions and task times.
At run time the application's own tasks land where they land, and
compression/I/O tasks take as long as they take.  Section 5.4.1 states the
conflict rule: each thread executes its tasks **sequentially in the
planned order** — a late-running task delays everything queued behind it
on the same thread; an I/O task additionally waits for its compression
task's actual completion.

This deterministic replay is the simulator's core: given a
:class:`~repro.core.model.Schedule` and an
:class:`~repro.simulator.noise.ActualDurations`, it derives every actual
start/end and the resulting iteration overhead.
"""

from __future__ import annotations

from operator import itemgetter

from ..core.model import Interval, Schedule, Spans, TaskSpans
from ..resilience.faults import FaultInjector
from ..telemetry import NULL_TRACER, NullTracer
from .noise import ActualDurations

__all__ = ["ExecutionResult", "execute_schedule"]


class ExecutionResult(TaskSpans):
    """Actual timings of one iteration's replayed execution.

    ``extra_io`` holds unscheduled trailing writes — the Section 4.4
    overflow path, where blocks that compressed worse than predicted are
    appended after the last planned I/O task.
    """

    _fields = ("begin", "computation_length", "compression", "io",
               "main_obstacles", "background_obstacles", "extra_io")

    def __init__(
        self,
        begin: float,
        computation_length: float,  # actual T_n (application tasks only)
        compression: dict[int, Interval],
        io: dict[int, Interval],
        main_obstacles: tuple[Interval, ...],
        background_obstacles: tuple[Interval, ...],
        extra_io: tuple[Interval, ...] = (),
    ) -> None:
        super().__init__(compression, io)
        self.begin = begin
        self.computation_length = computation_length
        self.main_obstacles = main_obstacles
        self.background_obstacles = background_obstacles
        self.extra_io = extra_io

    @property
    def io_makespan(self) -> float:
        ends = [end for _, end in self.spans(1).values()]
        ends += [iv.end for iv in self.extra_io]
        if not ends:
            return 0.0
        return max(ends) - self.begin

    @property
    def overall_time(self) -> float:
        """Iteration length including compression/I/O spill."""
        tails = [self.computation_length, self.io_makespan]
        compression = self.spans(0)
        if compression:
            tails.append(
                max(end for _, end in compression.values()) - self.begin
            )
        if self.main_obstacles:
            tails.append(self.main_obstacles[-1].end - self.begin)
        if self.background_obstacles:
            tails.append(self.background_obstacles[-1].end - self.begin)
        return max(tails)

    @property
    def overhead(self) -> float:
        """Time the dump added on top of pure computation (>= 0)."""
        return max(0.0, self.overall_time - self.computation_length)

    @property
    def relative_overhead(self) -> float:
        """Overhead as a fraction of computation time (the figures' y-axis)."""
        if self.computation_length <= 0:
            return 0.0
        return self.overhead / self.computation_length


def _planned(
    obstacles: tuple[Interval, ...], tasks: Spans
) -> list[tuple[float, bool, int]]:
    """One thread's ``(start, is_task, index)`` items in planned order;
    an obstacle goes first when it starts with a task."""
    items = [(obs.start, False, i) for i, obs in enumerate(obstacles)]
    items += [(start, True, job) for job, (start, _) in tasks.items()]
    items.sort(key=itemgetter(0, 1))
    return items


def execute_schedule(
    schedule: Schedule,
    actuals: ActualDurations,
    tracer: NullTracer = NULL_TRACER,
    injector: FaultInjector | None = None,
    rank: int = 0,
    iteration: int = 0,
) -> ExecutionResult:
    """Replay ``schedule`` with ``actuals``; returns actual timings.

    Per-thread semantics: items run in planned-start order.  An
    application task (obstacle) is *released* at its actual (noisy)
    position; a compression task is released immediately; an I/O task is
    released when its compression task actually completes.  Each item
    starts at ``max(thread cursor, release)`` and runs for its actual
    duration without preemption.  A recording ``tracer`` receives the
    realized timeline as ``compute``/``core``/``compress.actual``/
    ``write.actual`` spans.

    With a :class:`~repro.resilience.faults.FaultInjector`, individual
    I/O tasks can additionally *stall* — a bursty-contention hang that
    extends the task and, per the sequential-conflict rule, delays every
    task queued behind it on the background thread.  Stalls are keyed
    by ``rank``/``iteration``/job, so identical seeds reproduce identical
    stalls, and the injector counts and traces each one once however
    many replays ask.
    """
    inst = schedule.instance
    begin = inst.begin

    # --- main thread: obstacles + compression tasks, planned order ----
    cursor = begin
    actual_compression: Spans = {}
    actual_main_obs: list[Interval] = []
    for _, is_task, idx in _planned(inst.main_obstacles, schedule.spans(0)):
        if not is_task:
            planned = actuals.main_obstacles[idx]
            start = max(cursor, planned.start)
            end = start + planned.duration
            actual_main_obs.append(Interval(start, end))
        else:
            duration = actuals.compression_times[idx]
            start = cursor  # released immediately
            end = start + duration
            actual_compression[idx] = (start, end)
        cursor = end

    # --- background thread: obstacles + I/O tasks, planned order ------
    cursor = begin
    actual_io: Spans = {}
    actual_bg_obs: list[Interval] = []
    release = inst.io_release.tolist()
    bg_items = _planned(inst.background_obstacles, schedule.spans(1))
    for _, is_task, idx in bg_items:
        if not is_task:
            planned = actuals.background_obstacles[idx]
            start = max(cursor, planned.start)
            end = start + planned.duration
            actual_bg_obs.append(Interval(start, end))
        else:
            ready = max(actual_compression[idx][1], begin + release[idx])
            duration = actuals.io_times[idx]
            if injector is not None and duration > 0.0:
                duration += injector.io_stall_s(rank, iteration, idx)
            start = max(cursor, ready)
            end = start + duration
            actual_io[idx] = (start, end)
        cursor = end

    if tracer.enabled:
        for obs in actual_main_obs:
            tracer.span("compute", "main", None, obs.start, obs.end)
        for obs in actual_bg_obs:
            tracer.span("core", "background", None, obs.start, obs.end)
        for idx, (start, end) in actual_compression.items():
            tracer.span("compress.actual", "main", idx, start, end)
        for idx, (start, end) in actual_io.items():
            tracer.span("write.actual", "background", idx, start, end)

    return ExecutionResult(
        begin=begin,
        computation_length=actuals.length,
        compression={},
        io={},
        main_obstacles=tuple(actual_main_obs),
        background_obstacles=tuple(actual_bg_obs),
    )._with_spans(actual_compression, actual_io)
