"""The solve dispatcher: worker pull, bounds, deadlines, priorities.

Every test injects its own ``solve_fn`` — the dispatcher never sees a
real solver here, so the behaviours (execution order, queue pushback,
deadline expiry) are asserted deterministically.
"""

import statistics
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import Interval, Job, ProblemInstance
from repro.service import REJECT_DEADLINE, SolveDispatcher, SolveWork


def make_work(
    algorithm="alg-a",
    priority=0,
    deadline_s=None,
    seed=0,
):
    instance = ProblemInstance(
        begin=0.0,
        end=10.0,
        jobs=(Job(0, 1.0, 1.0 + seed * 0.001),),
        main_obstacles=(Interval(3.0, 4.0),),
        background_obstacles=(),
    )
    return SolveWork(
        instance=instance,
        algorithm=algorithm,
        engine="sim",
        time_limit=None,
        tenant="default",
        priority=priority,
        deadline_s=deadline_s,
        use_cache=True,
        key=f"key-{algorithm}-{seed}",
    )


class TestBatching:
    """There is no batcher: a free worker takes the best queued request."""

    def test_idle_round_trip_has_no_window_floor(self):
        dispatcher = SolveDispatcher(lambda work: {}, workers=2)
        try:
            samples = []
            for i in range(50):
                work = make_work(seed=i)
                t0 = time.perf_counter()
                dispatcher.try_submit(work).result(timeout=5.0)
                samples.append(time.perf_counter() - t0)
            assert statistics.median(samples) < 1e-3
            stats = dispatcher.stats()
            assert stats["dispatched"] == stats["batches"] == 50
        finally:
            dispatcher.shutdown()

    def test_co_arriving_requests_use_both_workers(self):
        """Two same-algorithm requests run side by side: each solve
        waits for the other at a barrier only a second worker can reach."""
        barrier = threading.Barrier(2)

        def solve_fn(work):
            barrier.wait(timeout=5.0)
            return {"key": work.key}

        dispatcher = SolveDispatcher(solve_fn, workers=2)
        try:
            futures = [
                dispatcher.try_submit(make_work(seed=i)) for i in range(2)
            ]
            assert [f.result(timeout=10.0).solution["key"] for f in futures] == [
                "key-alg-a-0",
                "key-alg-a-1",
            ]
        finally:
            dispatcher.shutdown()

    @settings(max_examples=25, deadline=None)
    @given(
        priorities=st.lists(
            st.integers(min_value=-2, max_value=2), min_size=1, max_size=8
        )
    )
    def test_execution_order_is_priority_then_arrival(self, priorities):
        """Whatever queues up behind a busy worker runs in
        ``sorted(key=(-priority, seq))`` order."""
        order = []
        head_running = threading.Event()
        head_release = threading.Event()

        def solve_fn(work):
            if work.algorithm == "head":
                head_running.set()
                head_release.wait(5.0)
            else:
                order.append(work.key)
            return {}

        dispatcher = SolveDispatcher(solve_fn, workers=1)
        try:
            dispatcher.try_submit(make_work(algorithm="head"))
            assert head_running.wait(5.0)
            futures = [
                dispatcher.try_submit(make_work(seed=seq, priority=priority))
                for seq, priority in enumerate(priorities)
            ]
            head_release.set()
            for future in futures:
                future.result(timeout=5.0)
            expected = sorted(
                range(len(priorities)), key=lambda seq: (-priorities[seq], seq)
            )
            assert order == [f"key-alg-a-{seq}" for seq in expected]
        finally:
            head_release.set()
            dispatcher.shutdown()

    def test_priority_runs_before_fifo(self):
        """With the worker busy, a later high-priority arrival is
        dispatched before an earlier low-priority one."""
        order = []
        head_running = threading.Event()
        head_release = threading.Event()

        def solve_fn(work):
            order.append(work.algorithm)
            if work.algorithm == "head":
                head_running.set()
                head_release.wait(5.0)
            return {}

        dispatcher = SolveDispatcher(solve_fn, workers=1)
        try:
            first = dispatcher.try_submit(make_work(algorithm="head"))
            assert head_running.wait(5.0)
            # Both wait in the queue while the single worker is busy.
            low = dispatcher.try_submit(
                make_work(algorithm="low", priority=0)
            )
            high = dispatcher.try_submit(
                make_work(algorithm="high", priority=5)
            )
            head_release.set()
            for f in (first, low, high):
                f.result(timeout=5.0)
            assert order == ["head", "high", "low"]
        finally:
            head_release.set()
            dispatcher.shutdown()


class TestContention:
    def test_every_request_runs_exactly_once(self):
        """More workers and submitters than cores, preempted every few
        bytecodes: no entry is lost, run twice or miscounted."""
        ran = []
        ran_lock = threading.Lock()

        def solve_fn(work):
            with ran_lock:
                ran.append(work.key)
            return {}

        futures = []
        futures_lock = threading.Lock()

        def submitter(base):
            for i in range(100):
                future = dispatcher.try_submit(make_work(seed=base + i))
                with futures_lock:
                    futures.append(future)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        dispatcher = SolveDispatcher(solve_fn, workers=8, max_queue=400)
        try:
            threads = [
                threading.Thread(target=submitter, args=(1000 * t,))
                for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            assert None not in futures  # max_queue covers every submission
            for future in futures:
                assert future.result(timeout=30.0).rejection is None
            assert len(ran) == len(set(ran)) == 400
            assert dispatcher.stats()["dispatched"] == 400
            assert dispatcher.depth == 0
        finally:
            sys.setswitchinterval(interval)
            dispatcher.shutdown()


class TestBounds:
    def test_queue_full_returns_none(self):
        release = threading.Event()
        running = threading.Event()

        def solve_fn(work):
            running.set()
            release.wait(5.0)
            return {}

        dispatcher = SolveDispatcher(solve_fn, workers=1, max_queue=2)
        try:
            blocker = dispatcher.try_submit(make_work(algorithm="blocker"))
            assert running.wait(5.0)
            # The single worker is busy, so these stay queued...
            q1 = dispatcher.try_submit(make_work(seed=1))
            q2 = dispatcher.try_submit(make_work(seed=2))
            assert q1 is not None and q2 is not None
            assert dispatcher.depth == 2
            # ...and the bounded queue pushes back on the next one.
            assert dispatcher.try_submit(make_work(seed=3)) is None
            release.set()
            for f in (blocker, q1, q2):
                assert f.result(timeout=5.0).rejection is None
        finally:
            release.set()
            dispatcher.shutdown()

    def test_submit_after_shutdown_raises(self):
        dispatcher = SolveDispatcher(lambda work: {}, workers=1)
        dispatcher.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            dispatcher.try_submit(make_work())


class TestDeadlines:
    def test_deadline_expires_queued_request(self):
        release = threading.Event()
        running = threading.Event()

        def solve_fn(work):
            running.set()
            release.wait(5.0)
            return {}

        dispatcher = SolveDispatcher(solve_fn, workers=1, max_queue=8)
        try:
            blocker = dispatcher.try_submit(make_work(algorithm="blocker"))
            assert running.wait(5.0)
            doomed = dispatcher.try_submit(
                make_work(seed=1, deadline_s=0.05)
            )
            time.sleep(0.15)  # let the deadline lapse while queued
            release.set()
            outcome = doomed.result(timeout=5.0)
            assert outcome.solution is None
            assert outcome.rejection is not None
            assert outcome.rejection.code == REJECT_DEADLINE
            assert outcome.rejection.http_status == 504
            assert outcome.queue_wait_s >= 0.05
            assert blocker.result(timeout=5.0).rejection is None
            assert dispatcher.stats()["expired"] == 1
        finally:
            release.set()
            dispatcher.shutdown()

    def test_fresh_deadline_not_expired(self):
        dispatcher = SolveDispatcher(lambda work: {"ok": True}, workers=1)
        try:
            future = dispatcher.try_submit(make_work(deadline_s=30.0))
            outcome = future.result(timeout=5.0)
            assert outcome.rejection is None
            assert outcome.solution == {"ok": True}
        finally:
            dispatcher.shutdown()


class TestShutdown:
    def test_drain_completes_queued_work(self):
        done = []

        def solve_fn(work):
            time.sleep(0.01)
            done.append(work.key)
            return {}

        dispatcher = SolveDispatcher(solve_fn, workers=1)
        futures = [
            dispatcher.try_submit(make_work(seed=i)) for i in range(5)
        ]
        dispatcher.shutdown(drain=True)
        assert len(done) == 5
        assert all(f.result(0.0).rejection is None for f in futures)

    def test_no_drain_rejects_queued_work(self):
        release = threading.Event()
        running = threading.Event()

        def solve_fn(work):
            running.set()
            release.wait(5.0)
            return {}

        dispatcher = SolveDispatcher(solve_fn, workers=1, max_queue=8)
        blocker = dispatcher.try_submit(make_work(algorithm="blocker"))
        assert running.wait(5.0)
        queued = dispatcher.try_submit(make_work(seed=1))
        # Shut down while the worker is still busy: the queued entry
        # must be rejected, not dispatched.  shutdown() blocks on the
        # in-flight blocker, so it runs on a helper thread.
        shutter = threading.Thread(
            target=lambda: dispatcher.shutdown(drain=False)
        )
        shutter.start()
        outcome = queued.result(timeout=5.0)
        assert (
            outcome.rejection is not None
            and outcome.rejection.http_status == 503
        )
        release.set()
        shutter.join(timeout=5.0)
        assert not shutter.is_alive()
        assert blocker.result(timeout=5.0).rejection is None

    def test_shutdown_is_idempotent(self):
        dispatcher = SolveDispatcher(lambda work: {}, workers=1)
        dispatcher.shutdown()
        dispatcher.shutdown()

    def test_solver_exception_propagates_to_future(self):
        def solve_fn(work):
            raise RuntimeError("solver blew up")

        dispatcher = SolveDispatcher(solve_fn, workers=1)
        try:
            future = dispatcher.try_submit(make_work())
            with pytest.raises(RuntimeError, match="blew up"):
                future.result(timeout=5.0)
        finally:
            dispatcher.shutdown()


class TestDrainDeadline:
    def test_expired_drain_rejects_queued_work_as_draining(self):
        """Regression: drain=True used to wait unboundedly on queued
        work.  With a hard deadline, a stalled solve cannot wedge
        shutdown — queued entries resolve as 503 ``draining``."""
        from repro.service import REJECT_DRAINING

        release = threading.Event()
        running = threading.Event()

        def solve_fn(work):
            running.set()
            release.wait(10.0)  # the stalled solve
            return {}

        dispatcher = SolveDispatcher(solve_fn, workers=1, max_queue=8)
        try:
            blocker = dispatcher.try_submit(make_work(algorithm="blocker"))
            assert running.wait(5.0)
            queued = [
                dispatcher.try_submit(make_work(seed=i)) for i in range(3)
            ]
            t0 = time.monotonic()
            dispatcher.shutdown(drain=True, timeout=0.3)
            elapsed = time.monotonic() - t0
            assert elapsed < 5.0, f"shutdown took {elapsed:.1f}s"
            for future in queued:
                outcome = future.result(timeout=5.0)
                assert outcome.rejection is not None
                assert outcome.rejection.code == REJECT_DRAINING
                assert outcome.rejection.http_status == 503
            assert dispatcher.stats()["drain_rejected"] == 3
        finally:
            release.set()

    def test_generous_deadline_still_drains_everything(self):
        done = []

        def solve_fn(work):
            time.sleep(0.01)
            done.append(work.key)
            return {}

        dispatcher = SolveDispatcher(solve_fn, workers=1)
        futures = [
            dispatcher.try_submit(make_work(seed=i)) for i in range(5)
        ]
        dispatcher.shutdown(drain=True, timeout=30.0)
        assert len(done) == 5
        assert all(f.result(0.0).rejection is None for f in futures)
        assert dispatcher.stats()["drain_rejected"] == 0
