"""Earliest-fit task placement around obstacles, with optional backfilling.

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

The busy time is stored as its **maximal runs**, not as one interval per
obstacle or task: neighbours with ``next.start <= prev.end`` are merged
into one ``[start, end)`` held in two parallel float lists.  A task longer
than ``EPSILON`` can never start inside a run (the members leave it no gap
``> 0``), so a fit bisects to its run and then steps over whole runs: a
packed stretch of a hundred tasks costs one probe, and a placement is
``O(log n + runs probed)``.  Where tasks pack (compressions on the main
thread) the run count stays near the obstacle count plus the slivers
nothing fits into; where they sit apart (writes waiting for their
compressions) the bisect skips every run before the release time.

A task of duration in ``(EPSILON, 2·EPSILON]`` is the one case where the
runs answer differently from a per-task list: the tolerance would let it
straddle the joint of two abutting members, and a run has no joints (it is
placed after the run instead; ``tests/core/test_timeline_differential.py``
pins the case).
"""

from __future__ import annotations

import bisect

from .model import EPSILON, Interval

__all__ = ["MachineTimeline"]


class MachineTimeline:
    """One machine's busy runs: fixed obstacles plus placed tasks."""

    def __init__(
        self, begin: float, obstacles: tuple[Interval, ...] = ()
    ) -> None:
        self._begin = begin
        # Maximal busy runs, sorted; obstacles never overlap each other
        # (enforced by ProblemInstance) and placements are validated.
        self._starts: list[float] = []
        self._ends: list[float] = []
        for iv in sorted(obstacles, key=lambda iv: iv.start):
            if iv.duration > EPSILON:
                self._insert(len(self._starts), iv.start, iv.end)
        self._frontier = begin
        self._probes = 0  # runs stepped over by fits; read by tests only

    @property
    def begin(self) -> float:
        return self._begin

    @property
    def frontier(self) -> float:
        """Completion time of the last placed task (or ``begin``)."""
        return self._frontier

    def _fit(self, duration: float, t: float) -> tuple[float, int]:
        """Earliest fit of a ``duration > EPSILON`` task at or after ``t``.

        Returns the start and the index of the first run at or after it,
        which is where :meth:`_insert` puts the reservation.
        """
        starts, ends = self._starts, self._ends
        first = idx = bisect.bisect_left(starts, t)
        # The previous run may still cover t.
        if idx > 0 and ends[idx - 1] > t + EPSILON:
            t = ends[idx - 1]
        count = len(starts)
        while idx < count and t + duration > starts[idx] + EPSILON:
            t = ends[idx]
            idx += 1
        self._probes += idx - first
        return t, idx

    def _insert(self, idx: int, start: float, end: float) -> None:
        """Record ``[start, end)`` before run ``idx``, merging neighbours."""
        starts, ends = self._starts, self._ends
        joins_left = idx > 0 and start <= ends[idx - 1]
        if idx < len(starts) and starts[idx] <= end:
            if joins_left:
                ends[idx - 1] = max(ends[idx - 1], ends.pop(idx))
                del starts[idx]
            else:
                starts[idx] = start
                ends[idx] = max(ends[idx], end)
        elif joins_left:
            ends[idx - 1] = max(ends[idx - 1], end)
        else:
            starts.insert(idx, start)
            ends.insert(idx, end)

    def earliest_fit(self, duration: float, not_before: float) -> float:
        """Earliest start ``t >= not_before`` with ``[t, t+duration)`` free.

        Zero-duration tasks fit at ``not_before`` directly.
        """
        t = max(not_before, self._begin)
        if duration <= EPSILON:
            return t
        return self._fit(duration, t)[0]

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
            self._frontier = max(self._frontier, start)
            return Interval(start, start)
        interval = Interval(start, start + duration)
        idx = bisect.bisect_left(self._starts, start)
        for i in range(max(0, idx - 1), min(idx + 1, len(self._starts))):
            run = Interval(self._starts[i], self._ends[i])
            if interval.overlaps(run):
                raise ValueError(f"placement {interval} overlaps busy {run}")
        self._insert(idx, start, interval.end)
        self._frontier = max(self._frontier, interval.end)
        return interval

    def place_earliest(
        self, duration: float, not_before: float, backfill: bool
    ) -> Interval:
        """Find and reserve the earliest feasible slot.

        The reservation goes in at the index the fit stopped at; nothing
        is searched twice and a fit is never re-validated.
        """
        start = max(not_before, self._begin if backfill else self._frontier)
        end = start
        if duration > EPSILON:
            start, idx = self._fit(duration, start)
            end = start + duration
            self._insert(idx, start, end)
        self._frontier = max(self._frontier, end)
        return Interval(start, end)

    def gaps(self, until: float) -> list[Interval]:
        """The machine's free intervals from ``begin`` to ``until``.

        Includes gaps between busy intervals (obstacles and placed
        tasks); useful for analysing how much idle capacity a schedule
        left unused.
        """
        free: list[Interval] = []
        cursor = self._begin
        for start, end in zip(self._starts, self._ends):
            if start >= until:
                break
            if start > cursor + EPSILON:
                free.append(Interval(cursor, min(start, until)))
            cursor = max(cursor, end)
        if cursor < until - EPSILON:
            free.append(Interval(cursor, until))
        return free
