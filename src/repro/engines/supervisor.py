"""`WorkerSupervisor`: fault-tolerant execution of per-rank pool tasks.

The process-pool data plane used to wait on each rank task with an
unbounded ``result.get()``.  That is exactly wrong for the one failure
``multiprocessing.Pool`` does not surface: a SIGKILLed worker is
silently respawned by the pool, but the task it was running never
resolves — the campaign hangs forever.  The supervisor replaces the
blind wait with a small state machine, polled from the dispatching
thread, that makes the real data plane survive worker death, hangs,
and stragglers:

* **window** — the caller submits every rank up front, but only
  ``live workers + LOOKAHEAD`` tasks are ever launched-and-unresolved;
  the window refills the moment a task resolves.  The look-ahead keeps
  a task queued in the pool so a worker that finishes between two polls
  never idles, and the bound keeps a worker death from making every
  rank of the dump suspect.
* **honest clocks** — an attempt's clock starts when a worker can have
  picked it up (the pool runs launches in order, so: once fewer older
  attempts are running than there are workers), not when it was
  launched.  Deadline and speculation threshold therefore measure run
  time, never time spent queued behind other ranks.
* **deadline** — every launch attempt of a rank task has a wall-clock
  deadline (:class:`~repro.engines.spec.CampaignSpec.task_deadline_s`);
  an attempt past it is abandoned (but still harvested if it finishes
  late, so a slow-but-alive worker can win).
* **worker watch** — the pool's worker PIDs are snapshotted every poll;
  when one disappears the in-flight attempts are abandoned and retried
  immediately instead of waiting out the full deadline.
* **retry** — failed/abandoned tasks are re-launched through the
  campaign's :class:`~repro.resilience.retry.RetryPolicy` backoff, up
  to ``max_task_retries`` re-executions.
* **speculation** — once most tasks of *this* dump have completed, a
  straggler running far past the median completion time gets one
  speculative duplicate; whichever attempt finishes first wins.
* **fallback** — a task that exhausts its budget is handed to the
  caller's ``fallback`` (the parent generates and compresses the rank
  serially through the same deterministic core, so bytes stay
  identical) and the campaign keeps going.

Exactly one result per rank is ever ingested (the first to arrive), so
duplicate attempts — retries racing their abandoned predecessors,
speculative copies — are always safe: a rank task is a pure function
of ``(spec, rank, iteration)``, every attempt produces the same
payloads, and dedup just discards the copies.

The supervisor is engine-agnostic: it only needs a ``launch`` callable
returning ``multiprocessing.pool.AsyncResult``-shaped handles
(``ready()`` / ``get(timeout)`` / ``wait(timeout)``), which is what
makes the state machine unit-testable without a real pool.  Without a
``worker_pids`` callable it knows no worker count: the window is then
unbounded and every clock starts at launch.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import deque
from typing import Callable

from ..resilience.report import SupervisorStats
from ..resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..telemetry import NULL_TRACER, NullTracer

__all__ = ["WorkerSupervisor"]

#: Longest :meth:`wait_all` blocks on one handle between two polls.
POLL_INTERVAL_S = 0.02

#: Tasks launched beyond the live worker count (see the module
#: docstring's *window*).  One is enough: a refill follows every resolve.
LOOKAHEAD = 1

#: A straggler is speculated on once it runs longer than
#: ``max(SPECULATIVE_FACTOR * median completion, SPECULATIVE_MIN_S)``.
SPECULATIVE_FACTOR = 2.0
SPECULATIVE_MIN_S = 0.1


class _Attempt:
    """One launch of a rank task."""

    __slots__ = ("handle", "started_at", "speculative", "abandoned", "finished")

    def __init__(self, handle, speculative: bool) -> None:
        self.handle = handle
        #: When a worker can have picked the attempt up; None while it
        #: is still queued behind busy workers.
        self.started_at: float | None = None
        self.speculative = speculative
        #: Past its deadline or suspected dead — no longer counts as
        #: active, but still harvested if it completes late.
        self.abandoned = False
        self.finished = False

    @property
    def live(self) -> bool:
        return not self.finished and not self.abandoned


class _Task:
    """Supervision state of one rank's compression task."""

    __slots__ = ("rank", "attempts", "launches", "resolved", "next_retry_at")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.attempts: list[_Attempt] = []
        self.launches = 0
        self.resolved = False
        self.next_retry_at: float | None = None


class WorkerSupervisor:
    """Deadline/retry/speculation state machine over pool rank tasks.

    Args:
        launch: ``launch(rank, attempt) -> handle``; dispatches launch
            number ``attempt`` (0-based) of the rank's task and returns
            an ``AsyncResult``-shaped handle.
        ingest: ``ingest(rank, result)``; called exactly once per rank
            with the winning attempt's (or the fallback's) result.
        fallback: ``fallback(rank) -> result``; synchronous last resort
            once the retry budget is exhausted.  Must be deterministic
            w.r.t. the pool path — the bytes-identical guarantee.
        retry: backoff shape *and* attempt cap for re-executions
            (``max_attempts`` counts every launch, the first included).
        deadline_s: per-attempt wall-clock deadline; None disables.
        speculative_frac: completed fraction of submitted tasks after
            which stragglers become eligible for one speculative
            duplicate; 0 disables speculation.
        worker_pids: optional ``() -> iterable of pids`` of the live
            pool workers, used to detect killed/replaced workers early
            and — by their count — to size the in-flight window.
        stats: the accumulating
            :class:`~repro.resilience.report.SupervisorStats` (shared
            across dumps, and with the campaign's resilience log when
            there is one); a fresh one is created when omitted.
        iteration: dump iteration, used for ``it<N>/rank<R>`` keys.
    """

    def __init__(
        self,
        *,
        launch: Callable[[int, int], object],
        ingest: Callable[[int, object], None],
        fallback: Callable[[int], object],
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
        deadline_s: float | None = None,
        speculative_frac: float = 0.0,
        worker_pids: Callable[[], object] | None = None,
        stats: SupervisorStats | None = None,
        tracer: NullTracer = NULL_TRACER,
        iteration: int = 0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        poll_interval_s: float = POLL_INTERVAL_S,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive or None, got {deadline_s!r}"
            )
        if not 0.0 <= speculative_frac <= 1.0:
            raise ValueError(
                f"speculative_frac must be in [0, 1], got {speculative_frac!r}"
            )
        self._launch = launch
        self._ingest = ingest
        self._fallback = fallback
        self._retry = retry
        self._deadline = deadline_s
        self._spec_frac = speculative_frac
        self._worker_pids = worker_pids
        self.stats = stats if stats is not None else SupervisorStats()
        self._tracer = tracer
        self._iteration = iteration
        self._clock = clock
        self._sleep = sleep
        self._poll_interval = poll_interval_s
        self._tasks: list[_Task] = []
        #: Index of the first task whose first attempt is yet to launch.
        self._next_launch = 0
        #: Launched-but-unresolved tasks (what the window bounds).
        self._in_flight = 0
        #: Launched attempts whose clock has not started, oldest first.
        self._queued: deque[_Attempt] = deque()
        self._completions: list[float] = []
        self._last_pids: frozenset | None = None

    # -- public API ----------------------------------------------------
    def submit(self, rank: int) -> None:
        """Register a rank task; launch it once the window has room."""
        self._tasks.append(_Task(rank))
        self.stats.tasks += 1
        if self._last_pids is None:
            self._check_workers(self._clock())  # baseline snapshot
        self._refill()

    def poll(self) -> int:
        """One pass of the state machine; returns unresolved task count."""
        now = self._clock()
        self._check_workers(now)
        self._start_clocks(now)
        for task in self._tasks[: self._next_launch]:
            if not task.resolved:
                self._poll_task(task, now)
        return sum(not task.resolved for task in self._tasks)

    def wait_all(self, timeout: float | None = None) -> None:
        """Poll until every submitted task resolved.

        Progress is guaranteed whenever a deadline is set: every task
        either completes, retries within its budget, or falls back — so
        ``timeout`` is a belt-and-braces bound, not the primary guard.
        """
        start = self._clock()
        while True:
            remaining = self.poll()
            if not remaining:
                return
            if (
                timeout is not None
                and self._clock() - start > timeout
            ):
                raise TimeoutError(
                    f"{remaining} rank task(s) unresolved after {timeout}s"
                )
            self._wait(self._poll_interval)

    def _wait(self, seconds: float) -> None:
        """Block until the oldest running attempt ends, ``seconds`` at most.

        Waiting on a handle instead of sleeping means the refill that
        follows a finished task is not a poll tick late; with every live
        attempt gone (retry backoff) there is nothing to wait on.
        """
        oldest = next(self._running(), None)
        if oldest is None:
            self._sleep(seconds)
        else:
            oldest.handle.wait(seconds)

    # -- window and clocks ---------------------------------------------
    def _workers(self) -> int | None:
        """Live pool workers at the last snapshot (None: unknown)."""
        return None if self._last_pids is None else len(self._last_pids)

    def _refill(self) -> None:
        """Launch first attempts, in submit order, while the window has
        room."""
        workers = self._workers()
        while self._next_launch < len(self._tasks) and (
            workers is None or self._in_flight < workers + LOOKAHEAD
        ):
            task = self._tasks[self._next_launch]
            self._next_launch += 1
            self._in_flight += 1
            self._launch_attempt(task, speculative=False)

    def _running(self):
        """Live attempts on the clock, oldest task first."""
        for task in self._tasks[: self._next_launch]:
            if not task.resolved:
                for attempt in task.attempts:
                    if attempt.live and attempt.started_at is not None:
                        yield attempt

    def _start_clocks(self, now: float) -> None:
        """Start the clock of every queued attempt a worker is free for."""
        if not self._queued:
            return
        workers = self._workers()
        if workers is not None:
            workers -= sum(1 for _ in self._running())
        while self._queued and (workers is None or workers > 0):
            attempt = self._queued.popleft()
            if attempt.live:
                attempt.started_at = now
                if workers is not None:
                    workers -= 1

    # -- state machine -------------------------------------------------
    def _poll_task(self, task: _Task, now: float) -> None:
        # 1. Harvest every finished attempt (abandoned ones included: a
        #    late success still wins if nothing else resolved the task).
        for attempt in task.attempts:
            if attempt.finished or not attempt.handle.ready():
                continue
            attempt.finished = True
            try:
                result = attempt.handle.get(0)
            except BaseException as exc:
                if not task.resolved:
                    self._count(
                        "worker_errors",
                        "supervisor.worker_error",
                        rank=task.rank,
                        error=repr(exc),
                    )
                continue
            if not task.resolved:
                self._resolve(task, result, attempt)
        if task.resolved:
            return

        # 2. Expire attempts past the per-attempt deadline.
        if self._deadline is not None:
            for attempt in task.attempts:
                if not attempt.live or attempt.started_at is None:
                    continue
                if now - attempt.started_at > self._deadline:
                    attempt.abandoned = True
                    self._count(
                        "deadline_misses",
                        "supervisor.deadline_miss",
                        rank=task.rank,
                        deadline_s=self._deadline,
                    )

        active = [a for a in task.attempts if a.live]
        if not active:
            # 3. Nothing live: retry within budget, else degrade.
            if task.launches >= self._retry.max_attempts:
                self._fallback_task(task)
                return
            if task.next_retry_at is None:
                task.next_retry_at = now + self._retry.backoff_s(
                    task.launches
                )
            if now >= task.next_retry_at:
                task.next_retry_at = None
                self._launch_attempt(task, speculative=False)
            return

        # 4. Speculation: duplicate a straggler once the bulk finished.
        if (
            self._spec_frac > 0.0
            and task.launches < self._retry.max_attempts
            and task.next_retry_at is None
            and not any(a.speculative for a in task.attempts)
        ):
            threshold = self._straggler_threshold()
            if threshold is not None and all(
                a.started_at is not None and now - a.started_at > threshold
                for a in active
            ):
                self._launch_attempt(task, speculative=True)

    def _launch_attempt(self, task: _Task, *, speculative: bool) -> None:
        index = task.launches
        handle = self._launch(task.rank, index)
        task.launches += 1
        attempt = _Attempt(handle, speculative)
        task.attempts.append(attempt)
        self._queued.append(attempt)
        self._start_clocks(self._clock())
        self.stats.attempts += 1
        if index == 0:
            return
        if speculative:
            self._count(
                "speculative_launches",
                "supervisor.speculative",
                rank=task.rank,
            )
        else:
            key = self._key(task.rank)
            if key not in self.stats.retried_ranks:
                self.stats.retried_ranks.append(key)
            self._count(
                "retries", "supervisor.retry", rank=task.rank, attempt=index
            )

    def _resolve(self, task: _Task, result, attempt: _Attempt | None) -> None:
        now = self._clock()
        task.resolved = True
        self._in_flight -= 1
        # Hand the workers their next task before the parent spends time
        # on this one's payloads.
        self._refill()
        self._start_clocks(now)
        self._ingest(task.rank, result)
        if attempt is not None:
            if attempt.started_at is not None:
                self._completions.append(now - attempt.started_at)
            if attempt.speculative:
                self._count(
                    "speculative_wins",
                    "supervisor.speculative_win",
                    rank=task.rank,
                )

    def _fallback_task(self, task: _Task) -> None:
        self.stats.fallback_ranks.append(self._key(task.rank))
        self._emit(
            "runtime.fallback",
            kind="rank-serial",
            rank=task.rank,
            iteration=self._iteration,
        )
        self._resolve(task, self._fallback(task.rank), attempt=None)

    def _check_workers(self, now: float) -> None:
        """Detect killed/replaced pool workers and fast-path the retry.

        A SIGKILLed pool child is silently respawned and its in-flight
        task never resolves; waiting out the full deadline would stall
        the dump.  We cannot attribute tasks to workers, so every
        in-flight attempt becomes suspect: abandon them and retry
        immediately — duplicates are safe because results dedupe.
        """
        if self._worker_pids is None:
            return
        try:
            pids = frozenset(self._worker_pids())
        except Exception:  # pool mid-teardown: skip this round
            return
        previous, self._last_pids = self._last_pids, pids
        if previous is None:
            return
        dead = previous - pids
        if not dead:
            return
        self._count(
            "worker_deaths",
            "supervisor.worker_death",
            len(dead),
            dead=len(dead),
        )
        for task in self._tasks:
            if task.resolved:
                continue
            suspect = False
            for attempt in task.attempts:
                if attempt.live:
                    attempt.abandoned = True
                    suspect = True
            if suspect:
                task.next_retry_at = now  # retry without backoff

    # -- misc ----------------------------------------------------------
    def _straggler_threshold(self) -> float | None:
        """Run time past which an attempt counts as a straggler.

        None until ``speculative_frac`` of *this dump's* tasks (``stats``
        spans the whole campaign), and at least one, have completed.
        """
        needed = max(1, math.ceil(self._spec_frac * len(self._tasks)))
        if len(self._completions) < needed:
            return None
        return max(
            SPECULATIVE_FACTOR * statistics.median(self._completions),
            SPECULATIVE_MIN_S,
        )

    def _key(self, rank: int) -> str:
        return f"it{self._iteration:04d}/rank{rank}"

    def _count(
        self, counter: str, event: str, n: int = 1, **fields
    ) -> None:
        """Add ``n`` to the one tally's ``counter``; emit ``event``."""
        setattr(self.stats, counter, getattr(self.stats, counter) + n)
        self._emit(event, **fields)

    def _emit(self, name: str, **fields) -> None:
        if self._tracer.enabled:
            self._tracer.event(name, **fields)
            self._tracer.counter(name).inc()
