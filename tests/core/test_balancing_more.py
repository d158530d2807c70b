"""Additional balancing tests: ordering semantics and hypothesis sweep."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IoTaskRef, balance_io_moves, balance_io_workloads


def _tasks(owner, durations):
    return [
        IoTaskRef(owner=owner, job_index=i, duration=float(d))
        for i, d in enumerate(durations)
    ]


class TestMoveSemantics:
    def test_moved_task_appended_after_receiver_tasks(self):
        heavy = _tasks(0, [5.0, 5.0, 5.0])
        light = _tasks(1, [1.0, 1.0])
        result = balance_io_workloads([heavy, light])
        receiver = result.assignments[1]
        # The receiver's own tasks keep their order; moved-in ones follow.
        own = [t for t in receiver if t.owner == 1]
        assert own == light
        moved = [t for t in receiver if t.owner == 0]
        assert receiver[: len(own)] == own
        assert receiver[len(own) :] == moved

    def test_donor_loses_from_the_front(self):
        heavy = _tasks(0, [9.0, 1.0, 1.0])
        light = _tasks(1, [0.5])
        result = balance_io_workloads([heavy, light])
        remaining = result.assignments[0]
        # The paper moves the *first* task of the heaviest process.
        assert remaining[0].job_index != 0 or len(remaining) == 3

    def test_three_way_cascades(self):
        processes = [
            _tasks(0, [4.0] * 6),
            _tasks(1, [1.0]),
            _tasks(2, [1.0]),
        ]
        result = balance_io_workloads(processes)
        after = result.workloads_after
        assert max(after) < 24.0  # work actually moved
        assert sum(len(a) for a in result.assignments) == 8

    def test_owner_preserved_through_moves(self):
        result = balance_io_workloads(
            [_tasks(0, [3.0, 3.0, 3.0, 3.0]), _tasks(1, [0.1])]
        )
        for assignment in result.assignments:
            for ref in assignment:
                assert ref.owner in (0, 1)
        moved = [t for t in result.assignments[1] if t.owner == 0]
        assert moved  # something moved and kept its provenance

    def test_handed_back_task_is_kept(self):
        # Process 0 gives tasks 0 and 1 away; process 1, once its own
        # task is gone too, hands task 0 back.
        result = balance_io_workloads(
            [_tasks(0, [1.0, 9.0, 3.0]), _tasks(1, [1.0])]
        )
        assigned = [(t.owner, t.job_index) for t in result.assignments[0]]
        assert assigned == [(0, 2), (1, 0), (0, 0)]
        assert balance_io_moves([[1.0, 9.0, 3.0], [1.0]]) == [
            ({1}, [(1, 0)]),
            ({0}, [(0, 1)]),
        ]


@given(
    workloads=st.lists(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=6,
    ),
    threshold=st.floats(min_value=1.1, max_value=4.0),
)
@settings(max_examples=80, deadline=None)
def test_balancing_invariants(workloads, threshold):
    processes = [
        _tasks(owner, durations)
        for owner, durations in enumerate(workloads)
    ]
    total_before = sum(sum(t.duration for t in p) for p in processes)
    count_before = sum(len(p) for p in processes)
    result = balance_io_workloads(processes, threshold=threshold)
    # Conservation.
    total_after = sum(result.workloads_after)
    assert abs(total_after - total_before) < 1e-9
    assert sum(len(a) for a in result.assignments) == count_before
    # No task duplicated or lost.
    seen = sorted(
        (t.owner, t.job_index)
        for assignment in result.assignments
        for t in assignment
    )
    expected = sorted(
        (owner, i)
        for owner, durations in enumerate(workloads)
        for i in range(len(durations))
    )
    assert seen == expected
    # Never worse.
    assert result.imbalance_after <= result.imbalance_before + 1e-9


@given(
    workloads=st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0),
            max_size=8,
        ),
        min_size=1,
        max_size=6,
    ),
    threshold=st.floats(min_value=1.1, max_value=4.0),
)
@settings(max_examples=200, deadline=None)
def test_moves_match_assignments(workloads, threshold):
    """``balance_io_moves`` is the assignment seen from each owner: what
    it no longer writes of its own, and whose tasks it writes, in order."""
    processes = [
        _tasks(owner, durations)
        for owner, durations in enumerate(workloads)
    ]
    result = balance_io_workloads(processes, threshold=threshold)
    moves = balance_io_moves(workloads, threshold=threshold)
    for p, (assigned, (moved_out, moved_in)) in enumerate(
        zip(result.assignments, moves)
    ):
        kept = {t.job_index for t in assigned if t.owner == p}
        assert moved_out == set(range(len(workloads[p]))) - kept
        assert moved_in == [
            (t.owner, t.job_index) for t in assigned if t.owner != p
        ]
