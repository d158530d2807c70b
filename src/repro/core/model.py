"""Problem model for the two-machine flow-shop scheduling problem.

This module defines the data model from Section 3.1 of the paper:

* An iteration occupies the window ``[begin, end]``.
* The *main thread* (machine 1) runs the application's computing tasks
  ``Y_{n,1..k}``; these are immovable **obstacles** for compression tasks.
* The *background thread* (machine 2) runs the application's core tasks
  ``G_{n,1..o}`` (communication or application I/O); these are immovable
  obstacles for the compressed-data I/O tasks.
* A **job** ``j`` is the pair of a compression task ``R_j`` (duration
  ``c_j``, runs on the main thread) and an I/O task ``B_j`` (duration
  ``c'_j``, runs on the background thread).  ``B_j`` may not start before
  ``R_j`` completes.  Neither task may be preempted or overlap an obstacle.

A :class:`Schedule` assigns a start time to every task.  The paper's
objective is to minimise the completion time of the last I/O task relative
to the iteration start (``io_makespan``); the iteration's overall length is
``max(T_n, io_makespan)``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "EPSILON",
    "Interval",
    "Job",
    "ProblemInstance",
    "Schedule",
    "ScheduleError",
    "TaskSpans",
    "figure1_instance",
]

#: Numerical tolerance for interval comparisons (seconds).
EPSILON = 1e-9


class ScheduleError(ValueError):
    """Raised when a schedule violates a constraint from Section 3.1."""


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open time interval ``[start, end)``.

    Obstacles and scheduled tasks are both represented as intervals.  The
    half-open convention means an interval ending at ``t`` does not overlap
    one starting at ``t``, matching back-to-back task execution.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        if not (self.end >= self.start):
            raise ValueError(
                f"interval end {self.end!r} precedes start {self.start!r}"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        """True when the two intervals share more than a boundary point."""
        return (
            self.start < other.end - EPSILON
            and other.start < self.end - EPSILON
        )

    def contains_point(self, t: float) -> bool:
        return self.start - EPSILON <= t <= self.end + EPSILON

    def shifted(self, delta: float) -> "Interval":
        return Interval(self.start + delta, self.end + delta)


@dataclass(frozen=True)
class Job:
    """A compression task paired with the I/O task writing its output.

    Attributes:
        index: position of the job in generation order (the order the
            fine-grained compression produced the blocks).
        compression_time: duration ``c_j`` of the compression task ``R_j``.
        io_time: duration ``c'_j`` of the I/O task ``B_j``.
        label: optional human-readable name (e.g. ``"temperature[3]"``).
        io_release: extra earliest-start constraint on the I/O task,
            relative to the iteration begin.  Zero for ordinary jobs; the
            I/O balancer (Section 3.4) uses it for moved-in tasks whose
            data is compressed by *another* process, so the local zero-
            length compression stub must not make the write eligible
            before the donor's predicted compression completes.
    """

    index: int
    compression_time: float
    io_time: float
    label: str = ""
    io_release: float = 0.0

    def __post_init__(self) -> None:
        if self.compression_time < 0 or self.io_time < 0:
            raise ValueError("task durations must be non-negative")
        if self.io_release < 0:
            raise ValueError("io_release must be non-negative")


def _column(values) -> np.ndarray:
    column = np.array(values, dtype=np.float64)
    column.flags.writeable = False
    return column


def _job_column(name: str) -> cached_property:
    """The read-only column of one ``Job`` field, built from ``jobs``."""
    return cached_property(
        lambda self: _column([getattr(job, name) for job in self.jobs])
    )


@dataclass(frozen=True, init=False)
class ProblemInstance:
    """One iteration's scheduling instance.

    The jobs are also held as three read-only float columns indexed by
    job in generation order: ``compression_time`` (``c_j``), ``io_time``
    (``c'_j``) and ``io_release``, which every order-based solver reads.
    Build it from ``Job``s or, with :meth:`from_columns`, from columns.
    Each form is built from the other on first read: a service request
    builds no column it never schedules, and the campaign builds no
    ``Job`` (``jobs`` serves the API edges: serialization, the exact
    solvers, ``Schedule.validate()``).

    Attributes:
        begin: iteration start time ``beg_n``.
        end: iteration end time ``end_n`` (the window the paper tries to
            hide compression and I/O inside; tasks may spill past it, which
            is counted as overhead).
        jobs: the ``m`` jobs to schedule.
        main_obstacles: unavailability intervals on the main thread (the
            computing tasks ``Y``), within ``[begin, end]``.
        background_obstacles: unavailability intervals on the background
            thread (the core tasks ``G``), within ``[begin, end]``.
    """

    begin: float
    end: float
    # A field whose default is the cached property below: ``==``,
    # ``hash`` and ``repr`` compare and show the ``Job`` tuple.
    jobs: tuple[Job, ...]
    main_obstacles: tuple[Interval, ...] = ()
    background_obstacles: tuple[Interval, ...] = ()

    def __init__(
        self,
        begin: float,
        end: float,
        jobs: Sequence[Job],
        main_obstacles: Sequence[Interval] = (),
        background_obstacles: Sequence[Interval] = (),
    ) -> None:
        self._set(begin, end, main_obstacles, background_obstacles)
        jobs = tuple(jobs)
        for i, job in enumerate(jobs):
            if job.index != i:
                raise ValueError(
                    f"job at position {i} has index {job.index}; "
                    "indices must match generation order"
                )
        vars(self)["jobs"] = jobs

    @classmethod
    def from_columns(
        cls,
        begin: float,
        end: float,
        compression_time,
        io_time,
        io_release,
        main_obstacles: Sequence[Interval] = (),
        background_obstacles: Sequence[Interval] = (),
    ) -> "ProblemInstance":
        """Jobs given as per-job columns, checked as ``Job`` checks them."""
        self = cls.__new__(cls)
        self._set(begin, end, main_obstacles, background_obstacles)
        c, io, release = map(_column, (compression_time, io_time, io_release))
        if c.ndim != 1 or not c.shape == io.shape == release.shape:
            raise ValueError("job columns must be 1-D and equally long")
        if (c < 0).any() or (io < 0).any():
            raise ValueError("task durations must be non-negative")
        if (release < 0).any():
            raise ValueError("io_release must be non-negative")
        vars(self).update(compression_time=c, io_time=io, io_release=release)
        return self

    def _set(self, begin, end, main_obstacles, background_obstacles) -> None:
        if end < begin:
            raise ValueError("iteration end precedes begin")
        main = _normalized(main_obstacles)
        background = _normalized(background_obstacles)
        for name, obstacles in (("main", main), ("background", background)):
            for a, b in zip(obstacles, obstacles[1:]):
                if a.overlaps(b):
                    raise ValueError(f"{name} obstacles overlap: {a} and {b}")
        vars(self).update(
            begin=begin,
            end=end,
            main_obstacles=main,
            background_obstacles=background,
        )

    @cached_property
    def jobs(self) -> tuple[Job, ...]:
        """The ``m`` jobs to schedule."""
        columns = zip(
            self.compression_time.tolist(),
            self.io_time.tolist(),
            self.io_release.tolist(),
        )
        return tuple(
            Job(i, c, io, io_release=release)
            for i, (c, io, release) in enumerate(columns)
        )

    compression_time = _job_column("compression_time")
    io_time = _job_column("io_time")
    io_release = _job_column("io_release")

    @property
    def length(self) -> float:
        """The iteration length ``T_n``."""
        return self.end - self.begin

    @property
    def num_jobs(self) -> int:
        return len(self.compression_time)

    def total_compression_time(self) -> float:
        return sum(self.compression_time.tolist())

    def total_io_time(self) -> float:
        return sum(self.io_time.tolist())

    def with_jobs(self, jobs: Sequence[Job]) -> "ProblemInstance":
        """A copy of this instance with a different job set."""
        return replace(self, jobs=jobs)


def figure1_instance() -> ProblemInstance:
    """The exact worked example from Figure 1 of the paper.

    Iteration [0, 12]; main obstacles Y1=[3,4], Y2=[6,7]; background
    obstacle G1=[4,5]; four jobs with (c, c') = (1,2), (2,1), (2,2), (3,2).
    """
    return ProblemInstance(
        begin=0.0,
        end=12.0,
        jobs=(
            Job(0, 1.0, 2.0),
            Job(1, 2.0, 1.0),
            Job(2, 2.0, 2.0),
            Job(3, 3.0, 2.0),
        ),
        main_obstacles=(Interval(3.0, 4.0), Interval(6.0, 7.0)),
        background_obstacles=(Interval(4.0, 5.0),),
    )


Spans = dict[int, tuple[float, float]]


class TaskSpans:
    """Per-job task placements on the two machines.

    The solvers and the replay place tasks as float ``(start, end)``
    spans; the ``compression`` and ``io`` dicts of :class:`Interval` are
    built on first read, and from then on they are what :meth:`spans`
    reports, edits included.
    """

    #: The constructor's arguments in order: what ``==`` compares and
    #: ``repr`` shows, as for a dataclass's fields.
    _fields: tuple[str, ...] = ("compression", "io")

    def __init__(
        self,
        compression: dict[int, Interval] | None = None,
        io: dict[int, Interval] | None = None,
    ) -> None:
        self._intervals: list[dict[int, Interval] | None] = [
            {} if compression is None else compression,
            {} if io is None else io,
        ]
        self._spans: tuple[Spans, Spans] = ({}, {})

    def _with_spans(self, compression: Spans, io: Spans):
        self._intervals = [None, None]
        self._spans = (compression, io)
        return self

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        args = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._values())
        )
        return f"{self.__class__.__qualname__}({args})"

    @property
    def compression(self) -> dict[int, Interval]:
        """Main-thread (compression) task of each job."""
        return self._tasks(0)

    @property
    def io(self) -> dict[int, Interval]:
        """Background-thread (I/O) task of each job."""
        return self._tasks(1)

    def _tasks(self, machine: int) -> dict[int, Interval]:
        tasks = self._intervals[machine]
        if tasks is None:
            tasks = self._intervals[machine] = {
                j: Interval(start, end)
                for j, (start, end) in self._spans[machine].items()
            }
        return tasks

    def spans(self, machine: int) -> Spans:
        """``{job: (start, end)}`` of machine 0 (compression) or 1 (I/O)."""
        tasks = self._intervals[machine]
        if tasks is None:
            return self._spans[machine]
        return {j: (iv.start, iv.end) for j, iv in tasks.items()}


class Schedule(TaskSpans):
    """A complete assignment of start times to all tasks of an instance.

    ``compression`` and ``io`` map job index to the task's interval.  The
    schedule records which algorithm produced it for reporting.
    """

    _fields = ("instance", "compression", "io", "algorithm")

    def __init__(
        self,
        instance: ProblemInstance,
        compression: dict[int, Interval] | None = None,
        io: dict[int, Interval] | None = None,
        algorithm: str = "",
    ) -> None:
        super().__init__(compression, io)
        self.instance = instance
        self.algorithm = algorithm

    @classmethod
    def from_spans(
        cls,
        instance: ProblemInstance,
        compression: Spans,
        io: Spans,
        algorithm: str = "",
    ) -> "Schedule":
        """A schedule of float spans; ``Interval``s are built when read."""
        return cls(instance, algorithm=algorithm)._with_spans(compression, io)

    @property
    def io_makespan(self) -> float:
        """Completion time of the last I/O task, relative to ``begin``.

        This is the quantity every algorithm in Section 3.3 minimises.
        Returns 0.0 for an instance with no jobs.
        """
        io = self.spans(1)
        if not io:
            return 0.0
        return max(end for _, end in io.values()) - self.instance.begin

    @property
    def overall_time(self) -> float:
        """Iteration length including any spill of I/O past ``end``."""
        return max(self.instance.length, self.io_makespan)

    @property
    def overhead(self) -> float:
        """Time added to the iteration by compression + I/O (>= 0)."""
        return self.overall_time - self.instance.length

    def validate(self) -> None:
        """Check every constraint from Section 3.1; raise on violation.

        Checks: completeness, duration fidelity, no start before ``begin``,
        no overlap among tasks on the same machine, no overlap with that
        machine's obstacles, and the R -> B dependency per job.
        """
        inst = self.instance
        expected = {job.index for job in inst.jobs}
        if set(self.compression) != expected or set(self.io) != expected:
            raise ScheduleError("schedule does not cover every job exactly once")

        for job in inst.jobs:
            r = self.compression[job.index]
            b = self.io[job.index]
            if not math.isclose(
                r.duration, job.compression_time, abs_tol=1e-6
            ):
                raise ScheduleError(
                    f"job {job.index}: compression interval {r} does not "
                    f"match duration {job.compression_time}"
                )
            if not math.isclose(b.duration, job.io_time, abs_tol=1e-6):
                raise ScheduleError(
                    f"job {job.index}: io interval {b} does not match "
                    f"duration {job.io_time}"
                )
            if r.start < inst.begin - EPSILON:
                raise ScheduleError(
                    f"job {job.index}: compression starts before iteration"
                )
            if b.start < r.end - EPSILON:
                raise ScheduleError(
                    f"job {job.index}: io starts at {b.start} before "
                    f"compression ends at {r.end}"
                )
            if b.start < inst.begin + job.io_release - EPSILON:
                raise ScheduleError(
                    f"job {job.index}: io starts at {b.start} before its "
                    f"release at {inst.begin + job.io_release}"
                )

        _check_machine(
            "main", list(self.compression.values()), inst.main_obstacles
        )
        _check_machine(
            "background", list(self.io.values()), inst.background_obstacles
        )

    def is_valid(self) -> bool:
        try:
            self.validate()
        except ScheduleError:
            return False
        return True


def _normalized(intervals) -> tuple[Interval, ...]:
    return tuple(sorted(intervals, key=lambda iv: (iv.start, iv.end)))


def _check_machine(
    name: str, tasks: list[Interval], obstacles: tuple[Interval, ...]
) -> None:
    nonzero = [iv for iv in tasks if iv.duration > EPSILON]
    nonzero.sort(key=lambda iv: iv.start)
    for a, b in zip(nonzero, nonzero[1:]):
        if a.overlaps(b):
            raise ScheduleError(f"{name}: tasks overlap: {a} and {b}")
    # Sub-epsilon obstacles occupy no schedulable time; the placement
    # machinery ignores them, so the validator must too.
    real_obstacles = [o for o in obstacles if o.duration > EPSILON]
    for task in nonzero:
        for obs in real_obstacles:
            if task.overlaps(obs):
                raise ScheduleError(
                    f"{name}: task {task} overlaps obstacle {obs}"
                )
