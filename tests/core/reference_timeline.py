"""Test oracle: the linear-scan ``MachineTimeline`` the run-coalesced one replaced.

This is ``src/repro/core/timeline.py`` as it stood before the placement
kernel kept maximal busy runs, verbatim except for the class name, the
absolute import and one fix.  It keeps one ``Interval`` per obstacle and
per placed task and walks them from the bisected position on every fit,
which is ``O(placed tasks)`` per placement; it exists only so that the
differential suites can hold the new kernel to the old answers.

The fix: the old code asked only the interval sorted just before ``t``
whether it still covers ``t``.  Obstacles may overlap by up to EPSILON,
so a sliver ``[2, 2+EPSILON)`` can sort after ``[2, 3)`` and hide it:
a fit released at ``2+EPSILON`` was then placed inside ``[2, 3)``.  A fit
now checks every earlier interval, and an explicit placement every
interval.  Original docstring:

Earliest-fit task placement around obstacles, with optional backfilling.

A :class:`MachineTimeline` tracks one machine (the main thread or the
background thread) of the flow-shop problem.  It holds the machine's fixed
obstacles plus the tasks placed so far, and answers two questions:

* *frontier placement* (no backfilling): the earliest feasible start that is
  also no earlier than the completion of every already-placed task — this is
  the list-scheduling rule of ExtJohnson and GenerationListSchedule;
* *gap placement* (backfilling): the earliest feasible start anywhere,
  sliding into idle gaps between existing reservations, which never delays
  an already-placed task because placed tasks have fixed start times.

Both placements respect half-open interval semantics: a task may start
exactly when an obstacle (or another task) ends.
"""

from __future__ import annotations

import bisect
import math

from repro.core.model import EPSILON, Interval

__all__ = ["ReferenceTimeline"]

_INF = math.inf


class ReferenceTimeline:
    """One machine's busy intervals: fixed obstacles plus placed tasks."""

    def __init__(
        self, begin: float, obstacles: tuple[Interval, ...] = ()
    ) -> None:
        self._begin = begin
        # Busy intervals kept sorted by start; obstacles never overlap each
        # other (enforced by ProblemInstance) and placements are validated.
        self._busy: list[Interval] = sorted(
            (iv for iv in obstacles if iv.duration > EPSILON),
            key=lambda iv: iv.start,
        )
        self._busy_starts: list[float] = [iv.start for iv in self._busy]
        self._frontier = begin

    @property
    def begin(self) -> float:
        return self._begin

    @property
    def frontier(self) -> float:
        """Completion time of the last placed task (or ``begin``)."""
        return self._frontier

    def earliest_fit(self, duration: float, not_before: float) -> float:
        """Earliest start ``t >= not_before`` with ``[t, t+duration)`` free.

        Zero-duration tasks fit at ``not_before`` directly.
        """
        t = max(not_before, self._begin)
        if duration <= EPSILON:
            return t
        # Scan gaps starting from the first busy interval that could clash.
        idx = bisect.bisect_left(self._busy_starts, t)
        # Any earlier interval may still cover t.
        for earlier in self._busy[:idx]:
            if earlier.end > t + EPSILON:
                t = earlier.end
        while idx < len(self._busy):
            nxt = self._busy[idx]
            if t + duration <= nxt.start + EPSILON:
                return t
            t = max(t, nxt.end)
            idx += 1
        return t

    def earliest_frontier_fit(
        self, duration: float, not_before: float
    ) -> float:
        """Earliest fit that also waits for all already-placed tasks."""
        return self.earliest_fit(duration, max(not_before, self._frontier))

    def place(self, duration: float, start: float) -> Interval:
        """Reserve ``[start, start+duration)``; must already be feasible.

        Sub-epsilon durations are stored as true zero-length intervals:
        they are instantaneous to the placement machinery, and keeping
        ``end - start`` exactly zero avoids float round-off promoting
        them back above the epsilon threshold downstream.
        """
        if duration <= EPSILON:
            interval = Interval(start, start)
            self._frontier = max(self._frontier, interval.end)
            return interval
        interval = Interval(start, start + duration)
        if duration > EPSILON:
            idx = bisect.bisect_left(self._busy_starts, interval.start)
            for neighbor in self._busy:
                if interval.overlaps(neighbor):
                    raise ValueError(
                        f"placement {interval} overlaps busy {neighbor}"
                    )
            self._busy.insert(idx, interval)
            self._busy_starts.insert(idx, interval.start)
        self._frontier = max(self._frontier, interval.end)
        return interval

    def place_earliest(
        self, duration: float, not_before: float, backfill: bool
    ) -> Interval:
        """Find and reserve the earliest feasible slot."""
        if backfill:
            start = self.earliest_fit(duration, not_before)
        else:
            start = self.earliest_frontier_fit(duration, not_before)
        return self.place(duration, start)

    def gaps(self, until: float) -> list[Interval]:
        """The machine's free intervals from ``begin`` to ``until``.

        Includes gaps between busy intervals (obstacles and placed
        tasks); useful for analysing how much idle capacity a schedule
        left unused.
        """
        free: list[Interval] = []
        cursor = self._begin
        for busy in self._busy:
            if busy.start >= until:
                break
            if busy.start > cursor + EPSILON:
                free.append(Interval(cursor, min(busy.start, until)))
            cursor = max(cursor, busy.end)
        if cursor < until - EPSILON:
            free.append(Interval(cursor, until))
        return free
