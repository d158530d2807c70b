"""Shared fixtures and instance builders for the test suite."""

from __future__ import annotations

import errno
import multiprocessing
import os

import numpy as np
import pytest

from repro.core import Interval, Job, ProblemInstance, figure1_instance
from repro.simulator import ActualDurations


def random_instance(
    rng: np.random.Generator,
    num_jobs: int | None = None,
    num_main_obstacles: int | None = None,
    num_background_obstacles: int | None = None,
    length: float = 20.0,
) -> ProblemInstance:
    """A random feasible instance for stress tests."""
    if num_jobs is None:
        num_jobs = int(rng.integers(1, 9))
    if num_main_obstacles is None:
        num_main_obstacles = int(rng.integers(0, 4))
    if num_background_obstacles is None:
        num_background_obstacles = int(rng.integers(0, 4))

    def obstacles(count: int) -> tuple[Interval, ...]:
        if count == 0:
            return ()
        points = np.sort(rng.uniform(0.0, length, size=2 * count))
        return tuple(
            Interval(float(points[2 * i]), float(points[2 * i + 1]))
            for i in range(count)
        )

    jobs = tuple(
        Job(
            i,
            float(rng.uniform(0.1, 3.0)),
            float(rng.uniform(0.1, 3.0)),
        )
        for i in range(num_jobs)
    )
    return ProblemInstance(
        begin=0.0,
        end=length,
        jobs=jobs,
        main_obstacles=obstacles(num_main_obstacles),
        background_obstacles=obstacles(num_background_obstacles),
    )


def planned_actuals(instance: ProblemInstance) -> ActualDurations:
    """The actual values of a replay that goes exactly to plan."""
    return ActualDurations(
        length=instance.length,
        main_obstacles=instance.main_obstacles,
        background_obstacles=instance.background_obstacles,
        compression_times=tuple(j.compression_time for j in instance.jobs),
        io_times=tuple(j.io_time for j in instance.jobs),
    )


def fail_fsync(monkeypatch, nth: int = 1) -> None:
    """Make the ``nth`` ``os.fsync`` from now on raise ENOSPC, once."""
    real, calls = os.fsync, [0]

    def fsync(fd):
        calls[0] += 1
        if calls[0] == nth:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(fd)

    monkeypatch.setattr(os, "fsync", fsync)


@pytest.fixture(autouse=True)
def no_leftover_child_processes():
    """Fail any test that leaves a child process of its own alive.

    The pool data plane promises to kill and reap every worker it
    forked, on ``close()`` and on abnormal shutdown alike; this fixture
    holds the whole suite to that contract.  It sees only this
    process's children, so nothing else running on the host can fail
    it.
    """
    before = set(multiprocessing.active_children())
    yield
    leftover = set(multiprocessing.active_children()) - before
    assert not leftover, f"child processes left alive: {leftover}"


@pytest.fixture
def figure1() -> ProblemInstance:
    return figure1_instance()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240422)
