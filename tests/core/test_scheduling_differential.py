"""Differential tests: every order-based scheduler on the run-coalesced
placement kernel against the same scheduler on the linear-scan reference
(``reference_scheduling.py``), plus a feasibility checker that shares no
code with ``Schedule.validate`` and a probe-count bound.

Corpus: 200 seeded random instances of 8-160 jobs and every instance a
6-iteration 16-rank campaign builds.  The four list schedulers run on all
of them.  The reference greedies are O(K^3)/O(K^4) *through* an O(K)
placement, so they are compared where that finishes: OneListGreedy up to
32 jobs, TwoListsGreedy up to 16.  The greedies, which evaluate an
attempt only where it differs from the order it extends, also run on 150
tie-heavy corner instances and two pinned ones, and count their fits.
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
from repro.core.timeline import MachineTimeline
from repro.engines import CampaignSpec, run_campaign
from repro.framework.runtime import ProcessRuntime

from .reference_scheduling import (
    REFERENCE_HEURISTICS,
    reference_schedule_orders,
)

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


def _corner_instance(seed: int) -> ProblemInstance:
    """4-12 jobs whose times sit on a binary grid, so attempts tie
    exactly, mixed with the cases an incremental evaluation of the
    greedies can get wrong: I/O and compression durations in
    ``(0, EPSILON]`` (a lower bound that counts them is too high where
    times are small), jobs with no compression but an ``io_release``,
    abutting obstacles and a ``begin`` that is not zero."""
    rng = np.random.default_rng((3571, seed))
    num_jobs = int(rng.integers(4, 13))
    begin = (0.0, 3.5, 0.0, -2.25, 1e4)[seed % 5]
    unit = 0.25 if seed % 2 else 1 / 64
    length = float(rng.integers(2, 4 * num_jobs + 3)) * unit

    def grid(high: int) -> float:
        return float(rng.integers(0, high)) * unit

    def obstacles() -> tuple[Interval, ...]:
        points, cursor = [], grid(4)
        for _ in range(int(rng.integers(0, 5))):
            start = cursor + (grid(6) if rng.random() < 0.6 else 0.0)
            cursor = start + grid(5) + unit
            points.append(Interval(begin + start, begin + cursor))
        return tuple(points)

    def tiny() -> float:
        return float(rng.choice([EPSILON, rng.uniform(0.0, EPSILON)]))

    jobs = []
    for index in range(num_jobs):
        compression, io, release = grid(5), grid(5), 0.0
        kind = rng.random()
        if kind < 0.3:
            io = tiny()
        elif kind < 0.4:
            compression = tiny()
        elif kind < 0.55:
            compression, release = 0.0, grid(4 * num_jobs + 3)
        jobs.append(Job(index, compression, io, io_release=release))
    return ProblemInstance(
        begin=begin,
        end=begin + length,
        jobs=tuple(jobs),
        main_obstacles=obstacles(),
        background_obstacles=obstacles(),
    )


_CORNERS = [_corner_instance(seed) for seed in range(150)]


def _uniform_instance(seed: int) -> ProblemInstance:
    """4-100 jobs that compress for one time, as a campaign rank's
    blocks do, mixed with the balancer's pseudo-jobs (no compression, or
    one of at most ``EPSILON``, and an ``io_release``).  The main
    thread's obstacles leave gaps within ``EPSILON`` of a whole number of
    compressions, so a fit that rounds the other way lands elsewhere."""
    rng = np.random.default_rng((4219, seed))
    num_jobs = int(rng.integers(4, 101))
    begin = (0.0, 3.25, -2.25)[seed % 3]
    duration = float(rng.choice([0.25, rng.uniform(0.05, 1.0)]))
    length = duration * num_jobs * float(rng.uniform(1.0, 2.5))

    def near_multiple() -> float:
        slack = float(rng.choice([-EPSILON, -EPSILON / 2, 0.0,
                                  EPSILON / 2, EPSILON, 3 * EPSILON]))
        return max(int(rng.integers(0, 5)) * duration + slack, 0.0)

    main, cursor = [], begin + near_multiple()
    for _ in range(int(rng.integers(0, 7))):
        width = float(rng.uniform(0.1, 3.0)) * duration
        main.append(Interval(cursor, cursor + width))
        cursor += width + near_multiple()
    background = tuple(
        Interval(begin + a, begin + b)
        for a, b in zip(*[iter(np.sort(rng.uniform(0.0, length, 6)))] * 2)
    )
    jobs = []
    for index in range(num_jobs):
        compression, release = duration, 0.0
        if rng.random() < 0.15:
            compression = float(rng.choice([0.0, EPSILON, EPSILON / 3]))
            release = float(rng.uniform(0.0, length))
        io = float(rng.uniform(0.05, 1.5)) * duration
        jobs.append(Job(index, compression, io, io_release=release))
    return ProblemInstance(
        begin=begin,
        end=begin + length,
        jobs=tuple(jobs),
        main_obstacles=tuple(main),
        background_obstacles=background,
    )


_UNIFORM = [_uniform_instance(seed) for seed in range(150)]


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


@pytest.mark.parametrize("name", _LIST_SCHEDULERS)
def test_uniform_compressions_match_reference(name):
    """Where every compression takes one time, the main thread's spans
    come from the slot memo; they are the reference's spans."""
    solve, reference = get_algorithm(name), REFERENCE_HEURISTICS[name]
    executor._slot_sequence.cache_clear()
    for instance in _UNIFORM:
        _check(instance, solve(instance), reference(instance))
    assert executor._slot_sequence.cache_info().misses >= len(_UNIFORM)


@pytest.mark.parametrize("backfill", [False, True])
def test_uniform_compressions_in_random_orders_match_reference(backfill):
    """Random compression and I/O orders, the pseudo-jobs anywhere in
    them, under both rules."""
    rng = np.random.default_rng(6007)
    for instance in _UNIFORM:
        for _ in range(3):
            orders = [rng.permutation(instance.num_jobs).tolist()
                      for _ in range(2)]
            schedule = executor.schedule_orders(instance, *orders, backfill)
            _check(
                instance,
                schedule,
                reference_schedule_orders(instance, *orders, backfill),
            )


def test_one_slot_sequence_per_dump_iteration():
    """A count: the 64 ranks of a dump iteration share one main-thread
    slot sequence (64 placements, one computed), and an instance whose
    compressions differ in length computes none."""
    executor._slot_sequence.cache_clear()
    run_campaign(
        CampaignSpec(app="nyx", nodes=16, ppn=4, iterations=5, seed=41)
    )
    info = executor._slot_sequence.cache_info()
    assert (info.misses, info.hits) == (4, 4 * 63)  # iteration 0: no dump
    executor._slot_sequence.cache_clear()
    mixed = next(
        i for i in _RANDOM
        if len(set(i.compression_time[i.compression_time > EPSILON])) > 1
    )
    for name in _LIST_SCHEDULERS:
        get_algorithm(name)(mixed)
    info = executor._slot_sequence.cache_info()
    assert (info.misses, info.hits) == (0, 0)


@pytest.mark.parametrize("name", ["OneListGreedy", "TwoListsGreedy"])
def test_insertion_greedies_match_reference(name):
    solve, reference = get_algorithm(name), REFERENCE_HEURISTICS[name]
    small = [i for i in _RANDOM if i.num_jobs <= _JOB_LIMIT[name]]
    assert len(small) >= 20
    for instance in small:
        _check(instance, solve(instance), reference(instance))


@pytest.mark.parametrize("name", ["OneListGreedy", "TwoListsGreedy"])
def test_insertion_greedies_match_reference_on_corner_cases(name):
    solve, reference = get_algorithm(name), REFERENCE_HEURISTICS[name]
    for instance in _CORNERS:
        _check(instance, solve(instance), reference(instance))


@pytest.mark.parametrize("name", ["OneListGreedy", "TwoListsGreedy"])
def test_insertion_greedies_keep_the_first_of_tied_attempts(name):
    """Two identical jobs: inserting job 1 before or after job 0 ties on
    both keys (I/O makespan 3, last compression 2), and the earlier
    position — ``(cpos, ipos) = (0, 0)`` — wins over ``(1, 1)``."""
    instance = ProblemInstance(
        begin=0.0, end=4.0, jobs=(Job(0, 1.0, 1.0), Job(1, 1.0, 1.0))
    )
    schedule = get_algorithm(name)(instance)
    assert schedule.spans(0) == {1: (0.0, 1.0), 0: (1.0, 2.0)}
    assert schedule.spans(1) == {1: (1.0, 2.0), 0: (2.0, 3.0)}
    _check(instance, schedule, REFERENCE_HEURISTICS[name](instance))


def test_two_lists_greedy_bound_counts_no_instant_write():
    """Job 1 compresses around a main obstacle at ``[2u, 3u)``; job 0's
    write lasts ``EPSILON``, which takes no time.  Inserting job 1 after
    job 0 for compression and before it for I/O ties the first
    attempt's I/O makespan (``10u``) and wins on last compression
    (``6u`` against ``7u``).  Half-way, that attempt's frontier plus the
    instant write is above the best I/O end by more than the abandon
    slack (relative ``1e-9`` of ``10u``): a bound that counted the write
    would drop the winner."""
    u = 1 / 64
    instance = ProblemInstance(
        begin=0.0,
        end=6 * u,
        jobs=(Job(0, u, EPSILON), Job(1, 3 * u, 4 * u)),
        main_obstacles=(Interval(2 * u, 3 * u),),
    )
    name = "TwoListsGreedy"
    schedule = get_algorithm(name)(instance)
    assert schedule.spans(0) == {0: (0.0, u), 1: (3 * u, 6 * u)}
    assert schedule.spans(1) == {1: (6 * u, 10 * u), 0: (10 * u, 10 * u)}
    _check(instance, schedule, REFERENCE_HEURISTICS[name](instance))


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
    # A memoized slot sequence would place the main thread with no
    # timeline at all.
    executor._slot_sequence.cache_clear()
    schedule = get_algorithm("ExtJohnson+BF")(instance)
    assert_feasible(instance, schedule)
    main, background = timelines
    assert len(main._starts) <= len(instance.main_obstacles) + 3
    assert 0 < main._probes <= 6 * num_jobs
    assert background._probes <= 6 * num_jobs


@pytest.mark.parametrize(
    "name, num_jobs, bound",
    [
        ("TwoListsGreedy", 16, 8_000),
        ("TwoListsGreedy", 32, 100_000),
        ("OneListGreedy", 32, 16_000),
    ],
)
def test_greedy_attempts_place_only_their_difference(
    monkeypatch, name, num_jobs, bound
):
    """A count, not a timing: an insertion attempt starts from the base
    order's shared prefix, stops placing where it merges back into the
    base's trajectory and is abandoned once it is sure to lose.
    Re-placing every attempt from ``begin`` took 20 024, 290 288 and
    22 944 fits on these Table 1 instances."""
    from benchmarks.bench_core_schedule import greedy_instance

    fits = 0
    real = MachineTimeline._fit

    def counted(self, duration, t):
        nonlocal fits
        fits += 1
        return real(self, duration, t)

    monkeypatch.setattr(MachineTimeline, "_fit", counted)
    instance = greedy_instance(num_jobs)
    assert_feasible(instance, get_algorithm(name)(instance))
    assert fits <= bound
