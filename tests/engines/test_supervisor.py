"""WorkerSupervisor state machine, unit-tested against fake pool handles.

No real pool, no real clock: launches return hand-controlled
``AsyncResult``-shaped fakes and time only moves when the test says so,
which makes deadline, retry, speculation, worker-death, and fallback
transitions exact instead of timing-dependent.
"""

import pytest

from repro.engines.supervisor import LOOKAHEAD, WorkerSupervisor
from repro.resilience import RetryPolicy, SupervisorStats


class FakeHandle:
    """An AsyncResult stand-in the test resolves by hand."""

    def __init__(self, clock):
        self._clock = clock
        self._value = None
        self._error = None
        self._ready = False

    def succeed(self, value):
        self._value = value
        self._ready = True

    def fail(self, exc):
        self._error = exc
        self._ready = True

    def ready(self):
        return self._ready

    def get(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._value

    def wait(self, timeout=None):
        """Nothing finishes by itself here: the wait just times out."""
        if not self._ready:
            self._clock.sleep(timeout)


class FakeClock:
    """Manual monotonic clock; ``sleep`` advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class Harness:
    """A supervisor wired to recording fakes."""

    def __init__(self, **overrides):
        self.clock = FakeClock()
        self.launches = []  # (rank, attempt) in launch order
        self.handles = []
        self.ingested = []  # (rank, result)
        self.fallbacks = []
        kwargs = dict(
            launch=self._launch,
            ingest=lambda rank, result: self.ingested.append(
                (rank, result)
            ),
            fallback=self._fallback,
            retry=RetryPolicy(
                max_attempts=3, base_backoff_s=0.1, jitter_frac=0.0
            ),
            deadline_s=1.0,
            speculative_frac=0.0,
            clock=self.clock,
            sleep=self.clock.sleep,
            poll_interval_s=0.01,
        )
        kwargs.update(overrides)
        self.supervisor = WorkerSupervisor(**kwargs)

    def _launch(self, rank, attempt):
        handle = FakeHandle(self.clock)
        self.launches.append((rank, attempt))
        self.handles.append(handle)
        return handle

    def _fallback(self, rank):
        self.fallbacks.append(rank)
        return ("fallback", rank)


class TestCleanPath:
    def test_first_try_success_ingests_once(self):
        h = Harness()
        h.supervisor.submit(0)
        h.supervisor.submit(1)
        assert h.launches == [(0, 0), (1, 0)]
        h.handles[0].succeed("r0")
        h.handles[1].succeed("r1")
        h.supervisor.wait_all(timeout=5.0)
        assert h.ingested == [(0, "r0"), (1, "r1")]
        stats = h.supervisor.stats
        assert stats.tasks == 2
        assert stats.attempts == 2
        assert not stats.recovered

    def test_poll_streams_while_submitting(self):
        h = Harness()
        h.supervisor.submit(0)
        h.handles[0].succeed("r0")
        assert h.supervisor.poll() == 0
        assert h.ingested == [(0, "r0")]
        h.supervisor.submit(1)
        assert h.supervisor.poll() == 1  # rank 1 still pending


class TestDeadline:
    def test_deadline_miss_retries_after_backoff(self):
        h = Harness()
        h.supervisor.submit(0)
        h.clock.now = 1.5  # past the 1.0s deadline
        h.supervisor.poll()
        assert h.supervisor.stats.deadline_misses == 1
        assert h.launches == [(0, 0)]  # backoff not elapsed yet
        h.clock.now = 1.7  # past next_retry_at = 1.5 + 0.1
        h.supervisor.poll()
        assert h.launches == [(0, 0), (0, 1)]
        assert h.supervisor.stats.retries == 1
        assert h.supervisor.stats.retried_ranks == ["it0000/rank0"]
        h.handles[1].succeed("retry-win")
        h.supervisor.wait_all(timeout=5.0)
        assert h.ingested == [(0, "retry-win")]

    def test_abandoned_attempt_still_wins_if_it_finishes_late(self):
        h = Harness()
        h.supervisor.submit(0)
        h.clock.now = 2.0
        h.supervisor.poll()  # miss + schedule retry
        h.clock.now = 2.2
        h.supervisor.poll()  # retry launched
        assert len(h.handles) == 2
        h.handles[0].succeed("late-original")  # original finishes late
        h.supervisor.poll()
        assert h.ingested == [(0, "late-original")]

    def test_both_attempts_finishing_ingests_once(self):
        h = Harness()
        h.supervisor.submit(0)
        h.clock.now = 2.0
        h.supervisor.poll()
        h.clock.now = 2.2
        h.supervisor.poll()
        h.handles[0].succeed("first")
        h.handles[1].succeed("second")
        h.supervisor.wait_all(timeout=5.0)
        assert len(h.ingested) == 1

    def test_no_deadline_never_expires(self):
        h = Harness(deadline_s=None)
        h.supervisor.submit(0)
        h.clock.now = 1e6
        h.supervisor.poll()
        assert h.supervisor.stats.deadline_misses == 0
        assert h.launches == [(0, 0)]


class TestWorkerErrors:
    def test_failed_attempt_recorded_and_retried(self):
        h = Harness()
        h.supervisor.submit(0)
        h.handles[0].fail(RuntimeError("worker exploded"))
        h.supervisor.poll()
        assert h.supervisor.stats.worker_errors == 1
        h.clock.now = 0.2  # past backoff
        h.supervisor.poll()
        assert h.launches == [(0, 0), (0, 1)]
        h.handles[1].succeed("ok")
        h.supervisor.wait_all(timeout=5.0)
        assert h.ingested == [(0, "ok")]


class TestFallback:
    def test_budget_exhausted_falls_back_serially(self):
        h = Harness(
            retry=RetryPolicy(
                max_attempts=2, base_backoff_s=0.1, jitter_frac=0.0
            )
        )
        h.supervisor.submit(0)
        h.handles[0].fail(RuntimeError("boom 1"))
        h.supervisor.poll()
        h.clock.now = 0.2
        h.supervisor.poll()  # retry (launch 2 of 2)
        h.handles[1].fail(RuntimeError("boom 2"))
        h.supervisor.wait_all(timeout=5.0)
        assert h.fallbacks == [0]
        assert h.ingested == [(0, ("fallback", 0))]
        assert h.supervisor.stats.fallback_ranks == ["it0000/rank0"]

    def test_late_result_after_fallback_not_ingested(self):
        h = Harness(
            retry=RetryPolicy(max_attempts=1, base_backoff_s=0.1)
        )
        h.supervisor.submit(0)
        h.clock.now = 2.0
        h.supervisor.poll()  # deadline miss -> budget gone -> fallback
        assert h.fallbacks == [0]
        h.handles[0].succeed("too-late")
        h.supervisor.poll()
        assert len(h.ingested) == 1
        assert h.ingested[0] == (0, ("fallback", 0))


class TestWorkerDeath:
    def test_dead_worker_triggers_immediate_retry(self):
        pids = [(101, 102)]
        h = Harness(worker_pids=lambda: pids[0])
        h.supervisor.submit(0)
        h.supervisor.poll()  # baseline pid snapshot
        pids[0] = (101, 103)  # 102 was SIGKILLed and replaced
        h.clock.now = 0.05  # well inside deadline AND backoff
        h.supervisor.poll()
        assert h.supervisor.stats.worker_deaths == 1
        # The retry fires on the next poll without waiting out the
        # deadline or the backoff.
        h.supervisor.poll()
        assert h.launches == [(0, 0), (0, 1)]
        h.handles[1].succeed("after-death")
        h.supervisor.wait_all(timeout=5.0)
        assert h.ingested == [(0, "after-death")]

    def test_resolved_tasks_unaffected_by_death(self):
        pids = [(101, 102)]
        h = Harness(worker_pids=lambda: pids[0])
        h.supervisor.submit(0)
        h.handles[0].succeed("done")
        h.supervisor.poll()
        pids[0] = (101, 103)
        h.supervisor.poll()
        assert h.supervisor.stats.worker_deaths == 1
        assert h.launches == [(0, 0)]  # nothing to retry


class TestSpeculation:
    def test_straggler_gets_speculative_duplicate(self):
        h = Harness(deadline_s=60.0, speculative_frac=0.5)
        for rank in range(4):
            h.supervisor.submit(rank)
        # Three finish quickly; rank 3 straggles.
        h.clock.now = 0.2
        for rank in range(3):
            h.handles[rank].succeed(f"r{rank}")
        h.supervisor.poll()
        assert len(h.ingested) == 3
        # Past 2x the median completion time: speculate on rank 3.
        h.clock.now = 5.0
        h.supervisor.poll()
        assert (3, 1) in h.launches
        assert h.supervisor.stats.speculative_launches == 1
        h.handles[4].succeed("spec-win")
        h.supervisor.poll()
        assert h.supervisor.stats.speculative_wins == 1
        assert h.ingested[-1] == (3, "spec-win")

    def test_original_win_is_not_a_speculative_win(self):
        h = Harness(deadline_s=60.0, speculative_frac=0.5)
        for rank in range(2):
            h.supervisor.submit(rank)
        h.clock.now = 0.2
        h.handles[0].succeed("r0")
        h.supervisor.poll()
        h.clock.now = 5.0
        h.supervisor.poll()  # speculative duplicate of rank 1
        assert h.supervisor.stats.speculative_launches == 1
        h.handles[1].succeed("original")  # original finishes first
        h.supervisor.poll()
        assert h.supervisor.stats.speculative_wins == 0
        assert h.ingested[-1] == (1, "original")

    def test_no_speculation_before_frac_completed(self):
        h = Harness(deadline_s=60.0, speculative_frac=1.0)
        for rank in range(3):
            h.supervisor.submit(rank)
        h.clock.now = 0.2
        h.handles[0].succeed("r0")
        h.supervisor.poll()
        h.clock.now = 50.0
        h.supervisor.poll()
        assert h.supervisor.stats.speculative_launches == 0

    def test_second_dump_speculates_like_the_first(self):
        # Regression: the completed fraction was measured against
        # ``stats.tasks``, which spans the campaign, so from the second
        # dump on no straggler was ever duplicated.
        stats = SupervisorStats()
        for dump in (1, 2):
            h = Harness(
                deadline_s=60.0, speculative_frac=0.75, stats=stats
            )
            for rank in range(4):
                h.supervisor.submit(rank)
            h.clock.now = 0.2
            for rank in range(3):
                h.handles[rank].succeed(f"r{rank}")
            h.supervisor.poll()
            h.clock.now = 2.0  # rank 3 at 10x the median
            h.supervisor.poll()
            assert (3, 1) in h.launches
            assert stats.speculative_launches == dump
            h.handles[3].succeed("r3")
            h.supervisor.wait_all(timeout=5.0)
        assert stats.tasks == 8

    def test_straggler_behind_the_window_is_speculated(self):
        # Two workers: ranks 0-2 launch at once, 3 and 4 as slots free.
        h = Harness(
            deadline_s=60.0,
            speculative_frac=0.75,
            worker_pids=lambda: (11, 12),
        )
        for rank in range(5):
            h.supervisor.submit(rank)
        assert h.launches == [(0, 0), (1, 0), (2, 0)]
        h.clock.now = 0.2
        h.handles[0].succeed("r0")
        h.handles[1].succeed("r1")
        h.supervisor.poll()
        assert h.launches[3:] == [(3, 0), (4, 0)]
        h.clock.now = 0.4
        h.handles[2].succeed("r2")
        h.handles[3].succeed("r3")
        h.supervisor.poll()  # 4 of 5 done; rank 4 starts to run now
        # 0.5 s after its launch, but only 0.3 s into its run: under
        # the 2 x 0.2 s threshold.
        h.clock.now = 0.7
        h.supervisor.poll()
        assert h.supervisor.stats.speculative_launches == 0
        h.clock.now = 0.9
        h.supervisor.poll()
        assert h.launches[-1] == (4, 1)
        assert h.supervisor.stats.speculative_launches == 1

    def test_disabled_speculation_never_duplicates(self):
        h = Harness(deadline_s=60.0, speculative_frac=0.0)
        h.supervisor.submit(0)
        h.supervisor.submit(1)
        h.clock.now = 0.1
        h.handles[0].succeed("r0")
        h.supervisor.poll()
        h.clock.now = 30.0
        h.supervisor.poll()
        assert len(h.launches) == 2


class TestWindow:
    """Submission is bounded; clocks start when a worker is free."""

    def test_in_flight_never_exceeds_workers_plus_lookahead(self):
        h = Harness(worker_pids=lambda: (11, 12))
        for rank in range(10):
            h.supervisor.submit(rank)
        done = 0
        while done < 10:
            assert len(h.launches) - done <= 2 + LOOKAHEAD
            h.handles[done].succeed(f"r{done}")
            done += 1
            h.supervisor.poll()
            # The freed slot is refilled in the same pass.
            assert len(h.launches) == min(10, done + 2 + LOOKAHEAD)
        assert h.launches == [(rank, 0) for rank in range(10)]
        assert [rank for rank, _ in h.ingested] == list(range(10))
        stats = h.supervisor.stats
        assert stats.attempts == stats.tasks == 10
        assert not stats.recovered

    def test_no_worker_count_means_no_window(self):
        h = Harness()
        for rank in range(10):
            h.supervisor.submit(rank)
        assert len(h.launches) == 10

    def test_queued_attempt_is_not_on_the_deadline_clock(self):
        # One worker, 1.0 s deadline, every task runs 0.9 s.  Measured
        # from launch, rank 1 would be 1.8 s old when it finishes.
        h = Harness(worker_pids=lambda: (11,), deadline_s=1.0)
        for rank in range(4):
            h.supervisor.submit(rank)
        assert h.launches == [(0, 0), (1, 0)]
        for rank in range(4):
            h.clock.now += 0.9
            h.handles[rank].succeed(f"r{rank}")
            h.supervisor.poll()
        stats = h.supervisor.stats
        assert len(h.ingested) == 4
        assert stats.deadline_misses == 0
        assert stats.attempts == stats.tasks == 4

    def test_running_attempt_still_misses_its_deadline(self):
        h = Harness(worker_pids=lambda: (11,), deadline_s=1.0)
        h.supervisor.submit(0)
        h.supervisor.submit(1)
        h.clock.now = 1.5
        h.supervisor.poll()
        # Rank 0 ran out of time; rank 1 has not started to.
        assert h.supervisor.stats.deadline_misses == 1

    def test_worker_death_suspects_only_the_window(self):
        pids = [(11, 12)]
        h = Harness(worker_pids=lambda: pids[0])
        for rank in range(10):
            h.supervisor.submit(rank)
        pids[0] = (11, 13)
        h.supervisor.poll()  # death seen, in-flight attempts abandoned
        h.supervisor.poll()  # ... and retried without backoff
        assert h.supervisor.stats.retries == 2 + LOOKAHEAD
        assert len(h.launches) == 2 * (2 + LOOKAHEAD)


class TestWaitAll:
    def test_blocks_on_a_running_handle_not_on_sleep(self):
        def no_sleep(seconds):
            raise AssertionError("slept while a task was running")

        h = Harness(sleep=no_sleep)
        h.supervisor.submit(0)
        handle = h.handles[0]
        handle.wait = lambda timeout=None: handle.succeed("r0")
        h.supervisor.wait_all(timeout=5.0)
        assert h.ingested == [(0, "r0")]

    def test_sleeps_out_a_backoff_with_nothing_running(self):
        h = Harness()
        h.supervisor.submit(0)
        h.handles[0].fail(RuntimeError("boom"))
        h.supervisor.poll()  # error harvested, retry due at 0.1

        def no_wait(timeout=None):
            raise AssertionError("waited on a finished attempt")

        h.handles[0].wait = no_wait
        with pytest.raises(TimeoutError):
            h.supervisor.wait_all(timeout=0.05)
        assert h.clock.now > 0.05  # only sleep() moved the clock


    def test_timeout_raises(self):
        h = Harness(deadline_s=None)
        h.supervisor.submit(0)  # never completes, no deadline
        with pytest.raises(TimeoutError, match="1 rank task"):
            h.supervisor.wait_all(timeout=3.0)

    def test_empty_supervisor_returns_immediately(self):
        h = Harness()
        h.supervisor.wait_all(timeout=0.0)
        assert h.ingested == []


class TestValidationAndStats:
    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_s"):
            Harness(deadline_s=0.0)

    def test_bad_speculative_frac_rejected(self):
        with pytest.raises(ValueError, match="speculative_frac"):
            Harness(speculative_frac=1.5)

    def test_stats_accumulate_across_instances(self):
        stats = SupervisorStats()
        for _ in range(2):
            h = Harness(stats=stats)
            h.supervisor.submit(0)
            h.handles[0].succeed("ok")
            h.supervisor.wait_all(timeout=1.0)
        assert stats.tasks == 2
        assert stats.attempts == 2
