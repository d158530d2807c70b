"""One fault path: the injector draws, tallies, traces and crashes.

The report (``ResilienceLog``) and the trace (``fault.injected``,
``runtime.fallback``, ``io.retry``, ``io.write_failed``) are written by
the same call, so they must agree count for count — on random plans and
query orders, and on the CI smoke campaign.
"""

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import CampaignSpec, run_campaign
from repro.resilience import (
    CRASH_POINTS,
    SERVICE_CRASH_POINTS,
    BandwidthFault,
    CompressionFault,
    FaultInjector,
    FaultPlan,
    ProcessKillFault,
    StallFault,
    StragglerFault,
    WorkerFault,
    WriteErrorFault,
    load_spec_data,
)
from repro.telemetry import Tracer

_SMOKE = (
    Path(__file__).resolve().parents[2]
    / "examples"
    / "fault_specs"
    / "smoke.yaml"
)

_probability = st.sampled_from([0.0, 0.2, 0.5, 1.0])
_small = st.integers(min_value=0, max_value=3)

_plans = st.builds(
    FaultPlan,
    stall=st.none() | st.builds(StallFault, probability=_probability),
    write_error=st.none()
    | st.builds(WriteErrorFault, probability=_probability),
    bandwidth=st.none() | st.builds(BandwidthFault, probability=_probability),
    compression=st.none()
    | st.builds(CompressionFault, probability=_probability),
    straggler=st.none()
    | st.builds(
        StragglerFault,
        ranks=st.lists(_small, max_size=2, unique=True).map(tuple),
        io_factor=st.sampled_from([1.0, 2.0]),
        compression_factor=st.sampled_from([1.0, 1.5]),
    ),
    worker=st.none()
    | st.builds(
        WorkerFault,
        kind=st.sampled_from(["kill", "stall", "error"]),
        probability=_probability,
        attempts=st.integers(min_value=1, max_value=3),
    ),
)

#: (query method, number of integer key components)
_QUERIES = {
    "io_stall_s": 3,
    "write_error": 3,
    "bandwidth_factor": 3,
    "compression_fails": 3,
    "worker_fault": 3,
    "straggler_io_factor": 1,
    "straggler_compression_factor": 1,
}

_queries = st.lists(
    st.sampled_from(sorted(_QUERIES)).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.tuples(*[_small] * _QUERIES[name]),
        )
    ),
    max_size=60,
)


def _injected_events(tracer: Tracer) -> Counter:
    return Counter(
        e.attrs["kind"]
        for e in tracer.recorder.events
        if e.name == "fault.injected"
    )


@settings(max_examples=150, deadline=None)
@given(
    plan=_plans,
    seed=st.integers(min_value=0, max_value=2**31),
    queries=_queries,
    shuffle=st.randoms(use_true_random=False),
)
def test_answers_are_pure_and_tally_equals_trace(plan, seed, queries, shuffle):
    """Every answer is a function of ``(seed, kind, key)`` alone, and the
    report and the trace agree after any sequence of queries."""
    tracer = Tracer()
    injector = FaultInjector(plan, seed=seed, tracer=tracer)
    answers = {}
    for name, key in queries:
        answer = getattr(injector, name)(*key)
        assert answers.setdefault((name, key), answer) == answer

    # The same questions in another order, of a fresh injector.
    reordered = list(answers)
    shuffle.shuffle(reordered)
    other = FaultInjector(plan, seed=seed)
    for name, key in reordered:
        assert getattr(other, name)(*key) == answers[name, key]
    assert other.log.injected == injector.log.injected

    counters = tracer.recorder.counters
    assert sum(injector.log.injected.values()) == counters.get(
        "fault.injected", 0
    )
    assert dict(_injected_events(tracer)) == injector.log.injected


def test_unknown_kind_raises_instead_of_sharing_a_salt():
    injector = FaultInjector(FaultPlan())
    with pytest.raises(ValueError, match="unknown fault kind 'stal'"):
        injector.rng("stal", 0, 0)
    assert injector.rng("retry", 1, 2).random() == (
        FaultInjector(FaultPlan()).rng("retry", 1, 2).random()
    )


def test_recovery_calls_tally_and_trace_together():
    tracer = Tracer()
    injector = FaultInjector(FaultPlan(), tracer=tracer)
    injector.record_fallback("defer-io", 100, rank=1, iteration=2, job=3)
    injector.record_fallback("raw-write", 50, rank=0)
    injector.record_retry(rank=0, attempt=1, backoff_s=0.1)
    injector.record_write_failure(rank=0, nbytes=9, attempts=4)
    log = injector.log
    assert log.fallbacks == {"defer-io": 1, "raw-write": 1}
    assert (log.deferred_writes, log.deferred_bytes) == (1, 100)
    assert (log.retries, log.write_failures) == (1, 1)
    assert tracer.recorder.counters == {
        "runtime.fallback": 2,
        "io.retry": 1,
        "io.write_failed": 1,
    }
    first = tracer.recorder.events[0]
    assert first.attrs == {
        "kind": "defer-io", "nbytes": 100, "rank": 1, "iteration": 2, "job": 3
    }


def test_smoke_campaign_report_equals_trace():
    """The CI smoke campaign: every tally of the resilience report
    equals its trace counter, kind for kind."""
    tracer = Tracer()
    report = run_campaign(
        CampaignSpec(
            app="nyx",
            nodes=2,
            ppn=2,
            iterations=6,
            solution="ours",
            seed=7,
            faults=load_spec_data(_SMOKE),
        ),
        tracer=tracer,
    )
    resilience = report.result.resilience
    counters = tracer.recorder.counters
    assert resilience.total_injected == counters["fault.injected"] == 1620
    assert dict(resilience.injected) == dict(_injected_events(tracer))
    assert resilience.total_fallbacks == counters["runtime.fallback"] == 1631
    assert dict(resilience.fallbacks) == dict(
        Counter(
            e.attrs["kind"]
            for e in tracer.recorder.events
            if e.name == "runtime.fallback"
        )
    )
    assert resilience.retries == counters["io.retry"] == 658
    assert resilience.write_failures == counters["io.write_failed"] == 4


def test_campaign_without_faults_emits_no_fault_record():
    tracer = Tracer()
    run_campaign(
        CampaignSpec(app="nyx", nodes=1, ppn=2, iterations=3, seed=7),
        tracer=tracer,
    )
    names = {r.name for r in tracer.recorder.records}
    names |= set(tracer.recorder.counters)
    assert not {
        n
        for n in names
        if n.startswith(("fault.", "runtime.fallback", "io.retry", "io.write"))
    }


class Killed(Exception):
    pass


def _raise_killed(point, n):
    raise Killed(f"{point}@{n}")


def _armed(point="post-commit", iteration=-1, **kwargs):
    plan = FaultPlan(
        process_kill=ProcessKillFault(point=point, iteration=iteration)
    )
    return FaultInjector(plan, **kwargs)


class TestCrashPoint:
    def test_fires_once_per_key(self):
        crashes = []
        injector = _armed(on_crash=lambda *at: crashes.append(at))
        assert injector.crash_point("post-commit", 0)
        assert not injector.crash_point("post-commit", 0)
        assert injector.crash_point("post-commit", 1)  # iteration -1: any
        assert not injector.crash_point("pre-commit", 0)
        assert crashes == [("post-commit", 0), ("post-commit", 1)]
        assert injector.log.injected == {"process_kill": 2}

    def test_named_iteration_only(self):
        injector = _armed("plan", iteration=2, on_crash=_raise_killed)
        for n in (0, 1, 3):
            assert not injector.crash_point("plan", n)
        with pytest.raises(Killed, match="plan@2"):
            injector.crash_point("plan", 2)

    def test_report_point_ignores_the_iteration(self):
        injector = _armed("report", iteration=3, on_crash=_raise_killed)
        with pytest.raises(Killed, match="report@-1"):
            injector.crash_point("report", -1)

    def test_never_when_disarmed(self):
        """A resumed campaign: nothing fires, nothing is tallied, and
        ``before`` (the torn half-record) never runs."""
        ran = []
        tracer = Tracer()
        injector = _armed(
            on_crash=_raise_killed, crash_armed=lambda: False, tracer=tracer
        )
        for n in range(3):
            assert not injector.crash_point(
                "post-commit", n, before=lambda: ran.append(n)
            )
        assert ran == [] and injector.log.injected == {}
        assert not tracer.recorder.records

    def test_crash_armed_is_asked_only_when_about_to_die(self):
        asked = []

        def armed():
            asked.append(True)
            return True

        injector = _armed(
            "mid-dispatch", iteration=2, crash_armed=armed,
            on_crash=lambda *at: None,
        )
        injector.crash_point("post-admission")
        injector.crash_point("mid-dispatch")
        assert asked == []  # a one-shot token must survive these passes
        assert injector.crash_point("mid-dispatch")
        assert asked == [True]

    def test_before_runs_first_and_a_returning_action_continues(self):
        order = []
        tracer = Tracer()
        injector = _armed(
            "torn-commit",
            on_crash=lambda point, n: order.append(("crash", point, n)),
            tracer=tracer,
        )
        fired = injector.crash_point(
            "torn-commit", 4, before=lambda: order.append("before")
        )
        assert fired and order == ["before", ("crash", "torn-commit", 4)]
        (event,) = tracer.recorder.events
        assert event.name == "fault.injected"
        assert event.attrs == {
            "kind": "process_kill", "point": "torn-commit", "n": 4
        }

    def test_own_ordinal_counts_passes_of_the_armed_point(self):
        crashes = []
        injector = _armed(
            "pre-completion", iteration=3,
            on_crash=lambda *at: crashes.append(at),
        )
        fired = []
        for _ in range(4):
            injector.crash_point("post-admission")
            fired.append(injector.crash_point("pre-completion"))
        assert fired == [False, False, True, False]
        assert crashes == [("pre-completion", 3)]

    def test_probability_is_a_seeded_draw(self):
        plan = FaultPlan(
            process_kill=ProcessKillFault(point="plan", probability=0.5)
        )

        def fired(seed):
            injector = FaultInjector(
                plan, seed=seed, on_crash=lambda *at: None
            )
            return [injector.crash_point("plan", n) for n in range(32)]

        assert fired(3) == fired(3)
        assert 0 < sum(fired(3)) < 32

    def test_unknown_point_is_rejected(self):
        with pytest.raises(ValueError, match="unknown crash point 'nope'"):
            _armed().crash_point("nope", 0)

    def test_every_named_point_is_a_valid_process_kill(self):
        for point in CRASH_POINTS + SERVICE_CRASH_POINTS:
            ProcessKillFault(point=point)
        with pytest.raises(ValueError, match="process_kill.point"):
            ProcessKillFault(point="between-the-ticks")

    def test_unarmed_plan_is_a_no_op(self):
        injector = FaultInjector(FaultPlan(), on_crash=_raise_killed)
        for point in SERVICE_CRASH_POINTS:
            assert not injector.crash_point(point)
