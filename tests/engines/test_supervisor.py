"""WorkerSupervisor state machine, unit-tested on fake workers.

No fork, no real clock.  The two places the supervisor touches the
operating system are replaced: ``_spawn`` hands out a hand-controlled
:class:`FakeWorker`, and ``_wait`` is where the test acts — every pass
of ``run()`` ends in one wait, and each wait runs the test's scenario
(a generator) up to its next ``yield``.  Time only moves when the
scenario says so (or by the wait's timeout when nothing is readable),
which makes deadline, retry, worker-death, and fallback
transitions exact instead of timing-dependent.
"""

import pytest

from repro.engines.supervisor import POLL_INTERVAL_S, WorkerSupervisor
from repro.resilience import RetryPolicy, SupervisorStats


class FakeWorker:
    """Both things the supervisor holds of a worker: process and pipe."""

    def __init__(self, harness):
        self._harness = harness
        self._reply = None
        self._die_after_reply = False
        self.dead = False
        self.killed = False

    # -- the pipe ------------------------------------------------------
    def send(self, payload):
        if self.dead:
            raise BrokenPipeError("fake worker is dead")
        self._harness.sent.append(payload)
        self._harness.holder[payload] = self

    def recv(self):
        if self._reply is None:
            raise EOFError
        reply, self._reply = self._reply, None
        self.dead = self._die_after_reply
        return reply

    def close(self):
        pass

    @property
    def readable(self):
        return self.dead or self._reply is not None

    # -- the process ---------------------------------------------------
    def kill(self):
        self.dead = self.killed = True

    def join(self):
        pass


class FakeClock:
    """Manual monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Harness:
    """A supervisor on fake workers, driven by a scenario generator."""

    def __init__(self, workers=2, **overrides):
        harness = self
        self.clock = FakeClock()
        self.spawned = []  # every FakeWorker ever handed out
        self.sent = []  # (rank, attempt) in send order
        self.holder = {}  # (rank, attempt) -> the FakeWorker it went to
        self.waits = []  # how many pipes each wait blocked on
        self.ingested = []  # (rank, result)
        self.fallbacks = []
        self._scenario = iter(())
        self._idle_waits = 0

        class Supervisor(WorkerSupervisor):
            def _spawn(self):
                worker = FakeWorker(harness)
                harness.spawned.append(worker)
                return worker, worker

            def _wait(self, conns, timeout):
                return harness._wait(conns, timeout)

        kwargs = dict(
            retry=RetryPolicy(
                max_attempts=3, base_backoff_s=0.1, jitter_frac=0.0
            ),
            deadline_s=1.0,
            clock=self.clock,
        )
        kwargs.update(overrides)
        self.supervisor = Supervisor(
            lambda args: pytest.fail("a fake worker ran the task"),
            workers,
            **kwargs,
        )
        self.stats = self.supervisor.stats

    def _wait(self, conns, timeout):
        assert timeout == POLL_INTERVAL_S
        self.waits.append(len(conns))
        if next(self._scenario, self) is self:
            self._idle_waits += 1
            assert self._idle_waits < 1000, "run() did not finish"
        ready = [conn for conn in conns if conn.readable]
        if not ready:
            self.clock.now += timeout
        return ready

    def run(self, ranks, scenario=(), iteration=0):
        self._scenario = iter(scenario)
        self.supervisor.run(
            ranks,
            args=lambda rank, attempt: (rank, attempt),
            ingest=lambda rank, result: self.ingested.append(
                (rank, result)
            ),
            fallback=self._fallback,
            iteration=iteration,
        )

    def _fallback(self, rank):
        self.fallbacks.append(rank)
        return ("fallback", rank)

    # -- what a scenario does to the worker holding (rank, attempt) ----
    def reply(self, rank, attempt, value, then_die=False):
        worker = self.holder[(rank, attempt)]
        worker._reply = (True, value)
        worker._die_after_reply = then_die

    def fail(self, rank, attempt, message):
        self.holder[(rank, attempt)]._reply = (False, message)

    def kill(self, rank, attempt):
        self.holder[(rank, attempt)].dead = True


class TestCleanPath:
    def test_first_try_success_ingests_once(self):
        h = Harness()

        def scenario():
            assert h.sent == [(0, 0), (1, 0)]
            h.reply(0, 0, "r0")
            h.reply(1, 0, "r1")
            yield

        h.run([0, 1], scenario())
        assert h.ingested == [(0, "r0"), (1, "r1")]
        assert h.stats.tasks == 2
        assert h.stats.attempts == 2
        assert not h.stats.recovered
        assert len(h.spawned) == 2  # nobody was replaced

    def test_poll_streams_while_submitting(self):
        # Three ranks on two workers: rank 0 is ingested, and its worker
        # has rank 2, while rank 1 is still running.
        h = Harness()

        def scenario():
            assert h.sent == [(0, 0), (1, 0)]
            h.reply(0, 0, "r0")
            yield
            assert h.ingested == [(0, "r0")]
            assert h.sent == [(0, 0), (1, 0), (2, 0)]
            assert h.holder[(2, 0)] is h.holder[(0, 0)]
            h.reply(1, 0, "r1")
            h.reply(2, 0, "r2")

        h.run([0, 1, 2], scenario())
        assert sorted(h.ingested) == [(0, "r0"), (1, "r1"), (2, "r2")]

    def test_a_task_is_sent_only_to_an_idle_worker(self):
        h = Harness()

        def scenario():
            for done in range(10):
                assert len(h.sent) == min(10, done + 2)
                h.reply(done, 0, f"r{done}")
                yield

        h.run(range(10), scenario())
        assert h.sent == [(rank, 0) for rank in range(10)]
        assert [rank for rank, _ in h.ingested] == list(range(10))
        assert h.stats.attempts == h.stats.tasks == 10
        assert not h.stats.recovered
        assert max(h.waits) == 2


class TestDeadline:
    @staticmethod
    def _miss_then_retry(h):
        """Rank 0 blows its deadline; its retry goes out after backoff."""
        h.clock.now = 1.5  # past the 1.0 s deadline
        yield
        assert h.stats.deadline_misses == 1
        assert h.sent == [(0, 0)]  # backoff not elapsed yet
        h.clock.now = 1.7  # past 1.5 + 0.1
        yield
        assert h.sent == [(0, 0), (0, 1)]

    def test_deadline_miss_retries_after_backoff(self):
        h = Harness()

        def scenario():
            yield from self._miss_then_retry(h)
            assert h.stats.retries == 1
            assert h.stats.retried_ranks == ["it0000/rank0"]
            h.reply(0, 1, "retry-win")

        h.run([0], scenario())
        assert h.ingested == [(0, "retry-win")]

    def test_abandoned_attempt_still_wins_if_it_finishes_late(self):
        h = Harness()

        def scenario():
            yield from self._miss_then_retry(h)
            h.reply(0, 0, "late-original")  # original finishes late

        h.run([0], scenario())
        assert h.ingested == [(0, "late-original")]
        # The retry it overtook does not outlive the run.
        assert h.holder[(0, 1)].killed

    def test_both_attempts_finishing_ingests_once(self):
        h = Harness()

        def scenario():
            yield from self._miss_then_retry(h)
            h.reply(0, 0, "first")
            h.reply(0, 1, "second")

        h.run([0], scenario())
        assert len(h.ingested) == 1

    def test_straggler_under_the_deadline_is_waited_for(self):
        # An idle worker is no reason to duplicate a slow rank: until
        # its deadline the straggler is the only attempt.
        h = Harness(workers=3, deadline_s=60.0)

        def scenario():
            h.clock.now = 0.1
            h.reply(0, 0, "r0")
            yield
            h.clock.now = 30.0
            yield
            assert h.sent == [(0, 0), (1, 0)]
            h.reply(1, 0, "r1")

        h.run([0, 1], scenario())
        assert h.ingested == [(0, "r0"), (1, "r1")]
        assert h.stats.attempts == h.stats.tasks == 2
        assert not h.stats.recovered

    def test_no_deadline_never_expires(self):
        h = Harness(deadline_s=None)

        def scenario():
            h.clock.now = 1e6
            yield
            assert h.stats.deadline_misses == 0
            assert h.sent == [(0, 0)]
            h.reply(0, 0, "r0")

        h.run([0], scenario())
        assert h.ingested == [(0, "r0")]

    def test_stuck_workers_are_replaced_when_nobody_else_is_free(self):
        # One worker, hung on rank 0 past the deadline: rank 1 must not
        # wait behind it for ever.
        h = Harness(workers=1)

        def scenario():
            h.clock.now = 1.5
            yield
            assert h.holder[(0, 0)].killed
            assert h.sent == [(0, 0), (1, 0)]
            assert h.stats.worker_deaths == 0  # replaced, it did not die
            h.clock.now = 1.7  # rank 0's backoff is over
            h.reply(1, 0, "r1")
            yield
            assert h.sent[-1] == (0, 1)
            h.reply(0, 1, "r0")

        h.run([0, 1], scenario())
        assert sorted(h.ingested) == [(0, "r0"), (1, "r1")]


class TestWorkerErrors:
    def test_failed_attempt_recorded_and_retried(self):
        h = Harness()

        def scenario():
            h.fail(0, 0, "RuntimeError('worker exploded')")
            yield
            assert h.stats.worker_errors == 1
            assert h.sent == [(0, 0)]
            h.clock.now = 0.2  # past backoff
            yield
            assert h.sent == [(0, 0), (0, 1)]
            h.reply(0, 1, "ok")

        h.run([0], scenario())
        assert h.ingested == [(0, "ok")]

    def test_unpicklable_reply_is_a_worker_error_not_a_hang(self):
        # The real loop in a real child: the value cannot be pickled, the
        # worker says so, and stays usable for the next task.
        stats = SupervisorStats()
        supervisor = WorkerSupervisor(
            lambda rank: (lambda: None) if rank == 0 else rank,
            1,
            retry=RetryPolicy(max_attempts=1),
            deadline_s=30.0,
            stats=stats,
        )
        ingested = []
        try:
            supervisor.run(
                [0, 1],
                args=lambda rank, attempt: rank,
                ingest=lambda rank, result: ingested.append((rank, result)),
                fallback=lambda rank: "fallback",
            )
        finally:
            supervisor.close()
        assert sorted(ingested) == [(0, "fallback"), (1, 1)]
        assert stats.worker_errors == 1
        assert stats.worker_deaths == 0
        assert stats.fallback_ranks == ["it0000/rank0"]


class TestFallback:
    def test_budget_exhausted_falls_back_serially(self):
        h = Harness(
            retry=RetryPolicy(
                max_attempts=2, base_backoff_s=0.1, jitter_frac=0.0
            )
        )

        def scenario():
            h.fail(0, 0, "boom 1")
            yield
            h.clock.now = 0.2
            yield  # retry (send 2 of 2)
            h.fail(0, 1, "boom 2")

        h.run([0], scenario())
        assert h.fallbacks == [0]
        assert h.ingested == [(0, ("fallback", 0))]
        assert h.stats.fallback_ranks == ["it0000/rank0"]

    def test_late_result_after_fallback_not_ingested(self):
        h = Harness(retry=RetryPolicy(max_attempts=1, base_backoff_s=0.1))

        def scenario():
            h.clock.now = 0.5
            h.reply(1, 0, "r1")  # frees a worker for rank 2
            yield
            h.clock.now = 1.3  # rank 0: deadline -> budget gone -> fallback
            yield
            assert h.fallbacks == [0]
            h.reply(0, 0, "too-late")
            yield
            h.reply(2, 0, "r2")

        h.run([0, 1, 2], scenario())
        assert sorted(h.ingested, key=lambda item: item[0]) == [
            (0, ("fallback", 0)),
            (1, "r1"),
            (2, "r2"),
        ]


class TestWorkerDeath:
    def test_dead_worker_triggers_immediate_retry(self):
        h = Harness()

        def scenario():
            h.clock.now = 0.05  # well inside deadline AND backoff
            h.kill(0, 0)
            yield
            # Retried in the same pass: no deadline, no backoff.
            assert h.stats.worker_deaths == 1
            assert h.sent == [(0, 0), (0, 1)]
            h.reply(0, 1, "after-death")

        h.run([0], scenario())
        assert h.ingested == [(0, "after-death")]
        assert h.clock.now < 0.1

    def test_death_retries_only_the_task_that_worker_held(self):
        h = Harness()

        def scenario():
            h.kill(1, 0)
            yield
            assert h.sent == [(0, 0), (1, 0), (1, 1)]
            assert h.holder[(1, 1)] is h.spawned[2]  # the replacement
            h.reply(0, 0, "r0")
            h.reply(1, 1, "r1")

        h.run([0, 1], scenario(), iteration=1)
        assert h.ingested == [(0, "r0"), (1, "r1")]
        assert h.stats.worker_deaths == 1
        assert h.stats.retries == 1
        assert h.stats.retried_ranks == ["it0001/rank1"]
        assert h.stats.attempts == 3

    def test_idle_workers_death_is_replaced_before_the_next_send(self):
        h = Harness(workers=1)

        def scenario():
            h.reply(0, 0, "r0", then_die=True)  # dies once it is idle
            yield
            assert h.sent == [(0, 0), (1, 0)]
            assert h.holder[(1, 0)] is h.spawned[1]
            h.reply(1, 0, "r1")

        h.run([0, 1], scenario())
        assert h.ingested == [(0, "r0"), (1, "r1")]
        assert h.stats.worker_deaths == 1
        assert h.stats.retries == 0  # no attempt was lost
        assert h.stats.attempts == 2
        assert len(h.spawned) == 2

    def test_resolved_tasks_unaffected_by_death(self):
        # Rank 1's retry beats its deadline-abandoned original; the
        # worker still on that original then dies, and nothing is
        # retried for it.
        h = Harness(workers=3)

        def scenario():
            h.clock.now = 0.5
            h.reply(0, 0, "r0")
            h.reply(2, 0, "r2")
            yield  # rank 3 is sent at 0.5
            h.clock.now = 1.2  # rank 1 misses its deadline, rank 3 not
            yield
            h.clock.now = 1.4  # past rank 1's backoff
            yield
            assert h.sent[-1] == (1, 1)
            h.reply(1, 1, "retry")
            yield
            h.kill(1, 0)
            yield
            assert h.stats.worker_deaths == 1
            h.reply(3, 0, "r3")

        h.run([0, 1, 2, 3], scenario())
        assert h.stats.deadline_misses == h.stats.retries == 1
        assert [send for send in h.sent if send[0] == 1] == [(1, 0), (1, 1)]
        assert h.ingested == [(0, "r0"), (2, "r2"), (1, "retry"), (3, "r3")]


class TestWindow:
    """A clock starts when its attempt is sent, and only then."""

    def test_queued_attempt_is_not_on_the_deadline_clock(self):
        # One worker, 1.0 s deadline, every task runs 0.9 s.  Measured
        # from the start of the run, rank 1 would be 1.8 s old when it
        # finishes.
        h = Harness(workers=1, deadline_s=1.0)

        def scenario():
            for rank in range(4):
                assert h.sent == [(r, 0) for r in range(rank + 1)]
                h.clock.now += 0.9
                h.reply(rank, 0, f"r{rank}")
                yield

        h.run(range(4), scenario())
        assert len(h.ingested) == 4
        assert h.stats.deadline_misses == 0
        assert h.stats.attempts == h.stats.tasks == 4

    def test_running_attempt_still_misses_its_deadline(self):
        h = Harness(workers=1, deadline_s=1.0)

        def scenario():
            h.clock.now = 1.5
            yield
            # Rank 0 ran out of time; rank 1 had not started to.
            assert h.stats.deadline_misses == 1
            h.clock.now = 1.7  # rank 0's backoff is over
            h.reply(1, 0, "r1")
            yield
            h.reply(0, 1, "r0")

        h.run([0, 1], scenario())
        assert h.stats.deadline_misses == 1


class TestWaitAll:
    def test_sleeps_out_a_backoff_with_nothing_running(self):
        h = Harness()

        def scenario():
            h.fail(0, 0, "boom")
            yield  # error harvested, retry due 0.1 s later
            assert h.sent == [(0, 0)]
            while len(h.sent) == 1:
                yield
            assert h.waits[1:-1] == [0] * (len(h.waits) - 2)  # backoff
            h.reply(0, 1, "ok")

        h.run([0], scenario())
        assert h.clock.now == pytest.approx(0.1, abs=POLL_INTERVAL_S)

    def test_empty_supervisor_returns_immediately(self):
        h = Harness()
        h.run([])
        assert h.ingested == []
        assert h.waits == []


class TestClose:
    def test_close_is_idempotent_and_reaps_every_worker(self):
        h = Harness()

        def scenario():
            h.reply(0, 0, "r0")
            yield

        h.run([0], scenario())
        h.supervisor.close()
        h.supervisor.close()
        assert all(worker.killed for worker in h.spawned)
        with pytest.raises(RuntimeError, match="closed"):
            h.run([0])
        assert len(h.spawned) == 2  # and nobody was forked for it


class TestValidationAndStats:
    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_s"):
            Harness(deadline_s=0.0)

    def test_speculative_frac_is_retired(self):
        # The deadline is the one straggler rule: the old knob is an
        # unknown argument, not a silently ignored one.
        with pytest.raises(TypeError, match="speculative_frac"):
            Harness(speculative_frac=0.5)

    def test_stats_accumulate_across_instances(self):
        stats = SupervisorStats()
        for _ in range(2):
            h = Harness(stats=stats)

            def scenario():
                h.reply(0, 0, "ok")
                yield

            h.run([0], scenario())
        assert stats.tasks == 2
        assert stats.attempts == 2
