"""Differential tests: every order-based scheduler on the run-coalesced
placement kernel against the same scheduler on the linear-scan reference
(``reference_scheduling.py``), plus a feasibility checker that shares no
code with ``Schedule.validate`` and a probe-count bound.

Corpus: 200 seeded random instances of 8-160 jobs and every instance a
6-iteration 16-rank campaign builds.  The four list schedulers run on all
of them.  The reference greedies are O(K^3)/O(K^4) *through* an O(K)
placement, so they are compared where that finishes: OneListGreedy up to
32 jobs, TwoListsGreedy up to 16.
"""

import functools

import numpy as np
import pytest

from repro.core import (
    ALGORITHMS,
    EPSILON,
    Interval,
    Job,
    ProblemInstance,
    get_algorithm,
)
from repro.core import executor
from repro.engines import CampaignSpec, run_campaign
from repro.framework.runtime import ProcessRuntime

from .reference_scheduling import REFERENCE_HEURISTICS

_LIST_SCHEDULERS = [
    name for name in ALGORITHMS if not name.endswith("Greedy")
]
_JOB_LIMIT = {"OneListGreedy": 32, "TwoListsGreedy": 16}


def _random_instance(seed: int) -> ProblemInstance:
    """8-160 jobs on a non-zero ``begin``; some jobs are the balancer's
    pseudo-jobs (no compression + an ``io_release``, or no I/O)."""
    rng = np.random.default_rng((977, seed))
    num_jobs = int(rng.integers(8, 17 if seed % 3 == 0 else 161))
    begin = float(rng.choice([0.0, 3.25]))
    length = float(rng.uniform(4.0, 40.0))

    def obstacles() -> tuple[Interval, ...]:
        points = np.sort(rng.uniform(0.0, length, 2 * int(rng.integers(0, 9))))
        if len(points) > 3 and rng.random() < 0.5:
            points[2] = points[1]  # two obstacles abut
        return tuple(
            Interval(begin + float(a), begin + float(b))
            for a, b in zip(points[0::2], points[1::2])
        )

    scale = length / num_jobs
    jobs = []
    for index in range(num_jobs):
        compression = float(rng.uniform(0.05, 1.5)) * scale
        io = float(rng.uniform(0.05, 1.5)) * scale
        release = 0.0
        kind = rng.random()
        if kind < 0.08:
            compression, release = 0.0, float(rng.uniform(0.0, length))
        elif kind < 0.16:
            io = 0.0
        jobs.append(Job(index, compression, io, io_release=release))
    return ProblemInstance(
        begin=begin,
        end=begin + length,
        jobs=tuple(jobs),
        main_obstacles=obstacles(),
        background_obstacles=obstacles(),
    )


_RANDOM = [_random_instance(seed) for seed in range(200)]


@functools.lru_cache(maxsize=None)
def _campaign_instances() -> tuple[ProblemInstance, ...]:
    """Every instance a 6-iteration, 16-rank ``ours`` campaign schedules."""
    captured = []
    real = ProcessRuntime.make_instance

    def recording(self, plan):
        instance = real(self, plan)
        captured.append(instance)
        return instance

    ProcessRuntime.make_instance = recording
    try:
        run_campaign(
            CampaignSpec(app="nyx", nodes=4, ppn=4, iterations=6, seed=41)
        )
    finally:
        ProcessRuntime.make_instance = real
    assert len(captured) == 16 * 5  # iteration 0 never dumps
    return tuple(captured)


def assert_feasible(instance: ProblemInstance, schedule) -> None:
    """Section 3.1's constraints on bare floats (not ``validate()``)."""
    begin = instance.begin
    for machine, placed, obstacles, duration_of in (
        ("main", schedule.compression, instance.main_obstacles,
         lambda job: job.compression_time),
        ("background", schedule.io, instance.background_obstacles,
         lambda job: job.io_time),
    ):
        assert sorted(placed) == list(range(instance.num_jobs)), machine
        busy = []
        for job in instance.jobs:
            start, end = placed[job.index].start, placed[job.index].end
            duration = duration_of(job)
            assert start >= begin, (machine, job.index)
            if duration > EPSILON:
                assert end == start + duration, (machine, job.index)
                busy.append((start, end, f"job {job.index}"))
            else:
                assert end == start, (machine, job.index)
        busy += [
            (o.start, o.end, "obstacle")
            for o in obstacles
            if o.end - o.start > EPSILON
        ]
        busy.sort()
        for (_, end, a), (start, _, b) in zip(busy, busy[1:]):
            assert start >= end - EPSILON, f"{machine}: {a} runs into {b}"
    for job in instance.jobs:
        write = schedule.io[job.index].start
        assert write >= schedule.compression[job.index].end - EPSILON
        assert write >= begin + job.io_release - EPSILON


def _check(instance, schedule, reference) -> None:
    assert schedule.compression == reference.compression
    assert schedule.io == reference.io
    assert schedule.algorithm == reference.algorithm
    assert_feasible(instance, schedule)


@pytest.mark.parametrize("name", _LIST_SCHEDULERS)
def test_list_schedulers_match_reference(name):
    solve, reference = get_algorithm(name), REFERENCE_HEURISTICS[name]
    for instance in (*_RANDOM, *_campaign_instances()):
        _check(instance, solve(instance), reference(instance))


@pytest.mark.parametrize("name", ["OneListGreedy", "TwoListsGreedy"])
def test_insertion_greedies_match_reference(name):
    solve, reference = get_algorithm(name), REFERENCE_HEURISTICS[name]
    small = [i for i in _RANDOM if i.num_jobs <= _JOB_LIMIT[name]]
    assert len(small) >= 20
    for instance in small:
        _check(instance, solve(instance), reference(instance))


def test_feasibility_checker_rejects_broken_schedules():
    """The independent checker is not vacuous."""
    instance = next(i for i in _RANDOM if i.main_obstacles)
    good = get_algorithm("ExtJohnson+BF")(instance)
    assert_feasible(instance, good)
    job = next(j for j in instance.jobs if j.compression_time > EPSILON)
    obstacle = instance.main_obstacles[0]
    for start in (obstacle.start, good.io[job.index].start + 1.0):
        bad = get_algorithm("ExtJohnson+BF")(instance)
        bad.compression[job.index] = Interval(
            start, start + job.compression_time
        )
        with pytest.raises(AssertionError):
            assert_feasible(instance, bad)


@pytest.mark.parametrize("num_jobs", [144, 576])
def test_probes_per_placement_do_not_grow_with_jobs(monkeypatch, num_jobs):
    """A count, not a timing: ExtJohnson+BF steps over a bounded number
    of busy runs per placement, however many tasks those runs hold.  On
    the main thread every fit starts at ``begin``; the runs it crosses
    are the obstacles plus a few slivers nothing fits into (the linear
    scan crossed ~m/2 intervals: tens at 144 jobs, hundreds at 576).  On
    the background thread writes are shorter than compressions, so nearly
    every write is its own run, but a fit bisects to its ready time and
    the first gap after it is free."""
    from benchmarks.bench_core_schedule import campaign_instance

    timelines = []

    class Counted(executor.MachineTimeline):
        def __init__(self, *args):
            super().__init__(*args)
            timelines.append(self)

    monkeypatch.setattr(executor, "MachineTimeline", Counted)
    instance = campaign_instance(num_jobs)
    schedule = get_algorithm("ExtJohnson+BF")(instance)
    assert_feasible(instance, schedule)
    main, background = timelines
    assert len(main._starts) <= len(instance.main_obstacles) + 3
    assert 0 < main._probes <= 6 * num_jobs
    assert background._probes <= 6 * num_jobs
