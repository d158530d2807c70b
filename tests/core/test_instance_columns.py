"""The instance on columns: built from ``Job`` objects or straight from
columns, it is one instance; ``jobs`` round-trips; both constructors
reject the same bad values with the same ``ValueError``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Interval, Job, ProblemInstance, johnson_order

durations = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
releases = st.floats(min_value=1e-6, max_value=10.0)
negatives = st.floats(min_value=-10.0, max_value=-1e-12)

_MAIN = (Interval(1.0, 2.0), Interval(5.0, 5.5))
_BACKGROUND = (Interval(3.0, 4.5),)


@st.composite
def job_rows(draw, min_size=0):
    """``[c, c', io_release]`` rows, some of them the balancer's moved-in
    pseudo-jobs (no compression, a positive ``io_release``)."""
    rows = []
    for _ in range(draw(st.integers(min_value=min_size, max_value=12))):
        if draw(st.booleans()):
            rows.append([0.0, draw(durations), draw(releases)])
        else:
            rows.append([draw(durations), draw(durations), 0.0])
    return rows


def _from_jobs(rows) -> ProblemInstance:
    jobs = [Job(i, c, io, io_release=r) for i, (c, io, r) in enumerate(rows)]
    return ProblemInstance(0.0, 20.0, jobs, _MAIN, _BACKGROUND)


def _from_columns(rows) -> ProblemInstance:
    columns = [[row[k] for row in rows] for k in range(3)]
    return ProblemInstance.from_columns(
        0.0, 20.0, *columns, _MAIN, _BACKGROUND
    )


@given(rows=job_rows())
@settings(max_examples=80, deadline=None)
def test_jobs_and_columns_build_one_instance(rows):
    from_jobs, from_columns = _from_jobs(rows), _from_columns(rows)
    assert from_jobs == from_columns
    assert hash(from_jobs) == hash(from_columns)
    assert repr(from_jobs) == repr(from_columns)
    assert from_columns.num_jobs == len(rows)
    for name in ("compression_time", "io_time", "io_release"):
        column = getattr(from_columns, name)
        assert column.dtype == np.float64
        assert not column.flags.writeable
        np.testing.assert_array_equal(column, getattr(from_jobs, name))
    assert johnson_order(from_jobs) == johnson_order(from_columns)


@given(rows=job_rows())
@settings(max_examples=60, deadline=None)
def test_jobs_round_trip(rows):
    instance = _from_columns(rows)
    jobs = instance.jobs
    assert jobs is instance.jobs  # built once
    assert [[j.compression_time, j.io_time, j.io_release] for j in jobs] == rows
    assert [j.index for j in jobs] == list(range(len(rows)))
    rebuilt = ProblemInstance(
        instance.begin,
        instance.end,
        jobs,
        instance.main_obstacles,
        instance.background_obstacles,
    )
    assert rebuilt == instance
    assert rebuilt.jobs is jobs  # the given tuple is kept, not rebuilt


@given(
    rows=job_rows(min_size=1),
    pick=st.integers(min_value=0),
    column=st.sampled_from([0, 1, 2]),
    value=negatives,
)
@settings(max_examples=80, deadline=None)
def test_negative_values_raise_the_same_error(rows, pick, column, value):
    rows[pick % len(rows)][column] = value
    messages = []
    for build in (_from_jobs, _from_columns):
        with pytest.raises(ValueError) as raised:
            build(rows)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert messages[0] == (
        "io_release must be non-negative"
        if column == 2
        else "task durations must be non-negative"
    )


def test_empty_instances_agree():
    assert _from_jobs([]) == _from_columns([])
    assert _from_columns([]).jobs == ()
    assert johnson_order(_from_columns([])) == []


def test_columns_are_copied_and_read_only():
    compression = np.array([1.0, 2.0])
    instance = ProblemInstance.from_columns(
        0.0, 5.0, compression, [1.0, 1.0], [0.0, 0.0]
    )
    compression[0] = 9.0
    assert instance.compression_time[0] == 1.0
    with pytest.raises(ValueError):
        instance.io_time[0] = 3.0


def test_columns_must_be_one_dimensional_and_equally_long():
    with pytest.raises(ValueError, match="equally long"):
        ProblemInstance.from_columns(0.0, 5.0, [1.0, 2.0], [1.0], [0.0])
    with pytest.raises(ValueError, match="1-D"):
        ProblemInstance.from_columns(0.0, 5.0, [[1.0]], [[1.0]], [[0.0]])


def test_other_validation_matches_the_job_constructor():
    for kwargs, message in (
        (dict(begin=1.0, end=0.0), "end precedes begin"),
        (
            dict(main_obstacles=(Interval(0, 2), Interval(1, 3))),
            "main obstacles overlap",
        ),
    ):
        args = {"begin": 0.0, "end": 5.0, **kwargs}
        with pytest.raises(ValueError, match=message):
            ProblemInstance(jobs=(Job(0, 1.0, 1.0),), **args)
        with pytest.raises(ValueError, match=message):
            ProblemInstance.from_columns(
                compression_time=[1.0],
                io_time=[1.0],
                io_release=[0.0],
                **args,
            )


def test_labels_stay_part_of_equality():
    labelled = ProblemInstance(0.0, 5.0, (Job(0, 1.0, 1.0, label="x"),))
    plain = ProblemInstance.from_columns(0.0, 5.0, [1.0], [1.0], [0.0])
    assert labelled != plain
    assert labelled.jobs[0].label == "x"
    assert labelled == labelled.with_jobs(labelled.jobs)


def test_instance_stays_frozen():
    instance = _from_columns([[1.0, 1.0, 0.0]])
    with pytest.raises(AttributeError):
        instance.begin = 3.0
