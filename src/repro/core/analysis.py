"""Schedule analysis: lower bounds and quality statistics.

Used three ways: property tests sanity-check every heuristic against the
bounds; reports quantify how much of the compression/I/O work a schedule
actually concealed inside the iteration; and the playground example shows
optimality gaps when the ILP is unavailable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import EPSILON, Interval, ProblemInstance, Schedule
from .timeline import MachineTimeline

__all__ = ["ScheduleStats", "lower_bound", "schedule_stats"]


def lower_bound(instance: ProblemInstance) -> float:
    """A valid lower bound on the I/O makespan of *any* schedule.

    The maximum of three bounds:

    1. **job chain** — for every job, its compression placed at the
       earliest obstacle-respecting slot, then its I/O at the earliest
       slot after that: no schedule can finish that job sooner;
    2. **background load** — all I/O must run on the background thread:
       earliest-any-I/O-start plus the total I/O time minus obstacle-free
       capacity is unbeatable (computed by greedily packing the total I/O
       volume into the background thread from the earliest ready time);
    3. **main load** — the last compression cannot finish before the
       total compression volume has been packed around the main-thread
       obstacles, and some I/O must follow it.
    """
    if instance.num_jobs == 0:
        return 0.0
    begin = instance.begin
    compression = instance.compression_time.tolist()
    io = instance.io_time.tolist()
    main_fit = MachineTimeline(begin, instance.main_obstacles).earliest_fit
    background_fit = MachineTimeline(
        begin, instance.background_obstacles
    ).earliest_fit

    # Bound 1: per-job chains.
    ready = [main_fit(c, begin) + c for c in compression]
    chain = max(
        background_fit(d, max(end, begin + release)) + d - begin
        for end, d, release in zip(ready, io, instance.io_release.tolist())
    )

    # Bound 2: total I/O packed from the earliest any job could be ready.
    min_ready = min(ready)
    # Sub-epsilon tasks are instantaneous and slide into obstacles, so
    # only strictly placeable durations count toward machine loads.
    io_volume = sum(d for d in io if d > EPSILON)
    io_end = _pack_volume(
        instance.background_obstacles,
        begin,
        min_ready,
        io_volume,
    )
    load_bound = io_end - begin

    # Bound 3: total compression packed on the main thread, then the
    # shortest I/O task after it.
    comp_volume = sum(c for c in compression if c > EPSILON)
    comp_end = _pack_volume(
        instance.main_obstacles,
        begin,
        begin,
        comp_volume,
    )
    min_io = min(io)
    main_bound = comp_end + min_io - begin

    return max(chain, load_bound, main_bound)


def _pack_volume(
    obstacles: tuple[Interval, ...],
    begin: float,
    ready: float,
    volume: float,
) -> float:
    """Earliest completion of ``volume`` work (preemptively) packed into
    the machine's free time from ``ready`` onward — a relaxation of the
    non-preemptive problem, hence a valid bound.

    Volumes at or below EPSILON are instantaneous under the placement
    semantics (they never collide with obstacles), so they pack for free.
    """
    if volume <= EPSILON:
        return ready
    cursor = max(begin, ready)
    remaining = volume
    for obs in obstacles:
        if obs.end <= cursor:
            continue
        gap = max(0.0, obs.start - cursor)
        if gap >= remaining:
            return cursor + remaining
        remaining -= gap
        cursor = max(cursor, obs.end)
    return cursor + remaining


@dataclass(frozen=True)
class ScheduleStats:
    """How well a schedule conceals the dump inside the iteration."""

    io_makespan: float
    lower_bound: float
    concealed_fraction: float  # task time placed within [begin, end]
    spill: float  # task time past the iteration end
    main_idle_used: float  # fraction of main-thread idle time used
    background_idle_used: float

    @property
    def optimality_gap(self) -> float:
        """(makespan / lower bound) - 1; 0.0 means provably optimal."""
        if self.lower_bound <= 0:
            return 0.0
        return max(0.0, self.io_makespan / self.lower_bound - 1.0)


def schedule_stats(schedule: Schedule) -> ScheduleStats:
    """Compute concealment statistics for a (valid) schedule."""
    inst = schedule.instance
    window = Interval(inst.begin, inst.end)
    tasks = list(schedule.compression.values()) + list(
        schedule.io.values()
    )
    total = sum(t.duration for t in tasks)
    inside = sum(_overlap(t, window) for t in tasks)
    spill = total - inside

    main_idle = inst.length - sum(
        o.duration for o in inst.main_obstacles
    )
    bg_idle = inst.length - sum(
        o.duration for o in inst.background_obstacles
    )
    main_used = sum(
        _overlap(t, window) for t in schedule.compression.values()
    )
    bg_used = sum(_overlap(t, window) for t in schedule.io.values())

    return ScheduleStats(
        io_makespan=schedule.io_makespan,
        lower_bound=lower_bound(inst),
        concealed_fraction=inside / total if total > 0 else 1.0,
        spill=spill,
        main_idle_used=main_used / main_idle if main_idle > 0 else 0.0,
        background_idle_used=bg_used / bg_idle if bg_idle > 0 else 0.0,
    )


def _overlap(a: Interval, b: Interval) -> float:
    return max(0.0, min(a.end, b.end) - max(a.start, b.start))
