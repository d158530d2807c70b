"""Property-based tests: every algorithm yields valid schedules on
arbitrary instances, and structural invariants hold."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    ALGORITHMS,
    Interval,
    Job,
    ProblemInstance,
    exhaustive_schedule,
    johnson_order,
    lower_bound,
)

from .reference_scheduling import reference_one_list_greedy

durations = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def instances(draw, max_jobs=7):
    num_jobs = draw(st.integers(min_value=0, max_value=max_jobs))
    jobs = tuple(
        Job(i, draw(durations), draw(durations)) for i in range(num_jobs)
    )
    length = draw(st.floats(min_value=1.0, max_value=50.0))

    def obstacle_set():
        count = draw(st.integers(min_value=0, max_value=3))
        points = sorted(
            draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=length),
                    min_size=2 * count,
                    max_size=2 * count,
                )
            )
        )
        return tuple(
            Interval(points[2 * i], points[2 * i + 1])
            for i in range(count)
            if points[2 * i + 1] > points[2 * i]
        )

    return ProblemInstance(
        begin=0.0,
        end=length,
        jobs=jobs,
        main_obstacles=obstacle_set(),
        background_obstacles=obstacle_set(),
    )


@given(inst=instances())
@settings(max_examples=60, deadline=None)
def test_all_algorithms_produce_valid_schedules(inst):
    for algo in ALGORITHMS.values():
        schedule = algo(inst)
        schedule.validate()


@given(
    jobs=st.lists(st.tuples(durations, durations), min_size=1, max_size=5)
)
@settings(max_examples=25, deadline=None)
def test_johnson_is_optimal_without_obstacles(jobs):
    # With no obstacles and no release times the problem is the
    # two-machine flow shop, which Johnson's order solves optimally
    # (Johnson 1954): both variants reach the exact search's optimum.
    inst = ProblemInstance(
        begin=0.0,
        end=50.0,
        jobs=tuple(Job(i, c, io) for i, (c, io) in enumerate(jobs)),
    )
    best = exhaustive_schedule(inst).io_makespan
    for name in ("ExtJohnson", "ExtJohnson+BF"):
        assert abs(ALGORITHMS[name](inst).io_makespan - best) <= 1e-9, name


@given(inst=instances(max_jobs=4))
@settings(max_examples=300, deadline=None)
def test_heuristics_bounded_by_the_optimum_and_the_lower_bound(inst):
    # Section 3's claims on small instances: no heuristic beats the
    # exact optimum (the exhaustive search), and the optimum respects
    # the analytical lower bound.
    best = exhaustive_schedule(inst).io_makespan
    assert best >= lower_bound(inst) - 1e-6
    for name, algo in ALGORITHMS.items():
        assert algo(inst).io_makespan >= best - 1e-9, name


@given(inst=instances())
@settings(max_examples=60, deadline=None)
def test_backfill_never_worse_than_plain_johnson(inst):
    plain = ALGORITHMS["ExtJohnson"](inst)
    backfilled = ALGORITHMS["ExtJohnson+BF"](inst)
    assert backfilled.io_makespan <= plain.io_makespan + 1e-6


@given(inst=instances())
@settings(max_examples=60, deadline=None)
def test_backfill_never_worse_than_plain_generation(inst):
    plain = ALGORITHMS["GenerationListSchedule"](inst)
    backfilled = ALGORITHMS["GenerationListSchedule+BF"](inst)
    assert backfilled.io_makespan <= plain.io_makespan + 1e-6


@given(inst=instances())
@settings(max_examples=40, deadline=None)
def test_makespan_at_least_critical_path(inst):
    # No schedule can beat the trivial lower bound: for any job,
    # compression + I/O time; and total I/O must fit on one machine.
    for algo in ALGORITHMS.values():
        schedule = algo(inst)
        lower = max(
            (j.compression_time + j.io_time for j in inst.jobs),
            default=0.0,
        )
        lower = max(lower, inst.total_io_time())
        assert schedule.io_makespan >= lower - 1e-6


@given(inst=instances())
@settings(max_examples=40, deadline=None)
def test_johnson_order_is_permutation(inst):
    order = johnson_order(inst)
    assert sorted(order) == list(range(inst.num_jobs))


#: OneListGreedy 31.0 against GenerationListSchedule 16.0, with the kernel
#: and ``reference_scheduling.reference_one_list_greedy`` agreeing span for
#: span.  Inserting job 1 first ([1, 0]: I/O done at 12, not 14) is the
#: locally best step; once job 2 arrives, every insertion into [1, 0]
#: pushes a compression behind the second main-thread obstacle.
GREEDY_LOSES_TO_GENERATION = ProblemInstance(
    begin=0.0,
    end=34.0,
    jobs=(Job(0, 4.0, 1.0), Job(1, 1.0, 5.0), Job(2, 6.0, 2.0)),
    main_obstacles=(Interval(4.0, 7.0), Interval(16.0, 26.0)),
    background_obstacles=(Interval(6.0, 9.0), Interval(21.0, 23.0)),
)


def test_greedy_can_lose_to_generation_order():
    inst = GREEDY_LOSES_TO_GENERATION
    greedy = ALGORITHMS["OneListGreedy"](inst)
    assert greedy.io_makespan == 31.0
    assert reference_one_list_greedy(inst).io == greedy.io
    assert ALGORITHMS["GenerationListSchedule"](inst).io_makespan == 16.0


@example(inst=GREEDY_LOSES_TO_GENERATION)
@given(inst=instances())
@settings(max_examples=30, deadline=None)
def test_greedy_is_bounded_by_the_one_list_optimum(inst):
    # What Section 3.3.3 supports: OneListGreedy's final order is one
    # shared order, so no order beats the best of them (Exhaustive over
    # shared orders), and that in turn respects the lower bound.  With
    # at most two jobs its insertions try every order, so it *is* that
    # optimum, and then never worse than generation order.  Beyond two
    # jobs it carries no bound against generation order (above: 1.94x).
    one = ALGORITHMS["OneListGreedy"](inst).io_makespan
    assert one >= lower_bound(inst) - 1e-6
    if inst.num_jobs > 5:
        return
    best = exhaustive_schedule(inst, same_order=True).io_makespan
    assert one >= best
    if inst.num_jobs <= 2:
        assert one == best
        assert one <= ALGORITHMS["GenerationListSchedule"](inst).io_makespan
