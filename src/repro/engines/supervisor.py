"""`WorkerSupervisor`: the pool plane's worker processes and their tasks.

A rank is an addressable process, as in the paper: the supervisor forks
its workers itself and talks to each over that worker's own pipe.  A
child runs one loop — receive task args, run the task, send ``(ok,
value)`` back — and the parent sends a task only to an idle worker, then
blocks in :func:`multiprocessing.connection.wait` on the busy pipes.
Which worker runs which attempt, since when, and whether that worker is
alive are therefore facts the parent reads, and the recovery rules are
stated in terms of them:

* **clock** — an attempt's clock starts when it is sent.  Nothing ever
  queues behind a busy worker, so the deadline measures run time.
* **deadline** — the one straggler rule: an attempt running past
  ``deadline_s`` is abandoned and its task retried, but the abandoned
  attempt is still harvested if it finishes late, so a slow-but-alive
  worker races the retry and the first result wins.  A straggler still
  under the deadline is waited for, never duplicated.  Only when every
  worker is stuck on an attempt nobody waits for is one of them
  replaced to make room.
* **death** — end-of-file on a pipe means exactly the attempt that
  worker held is lost: it is retried at once, the worker is respawned,
  and no other attempt is suspected.  A worker found dead when it is
  about to be sent a task is replaced first.
* **retry** — a failed or abandoned task is sent again after the
  campaign's :class:`~repro.resilience.retry.RetryPolicy` backoff, up to
  ``max_task_retries`` re-executions.
* **fallback** — a task that exhausts its budget is handed to the
  caller's ``fallback`` (the parent runs the same deterministic core
  serially, so bytes stay identical) and the campaign keeps going.

Exactly one result per rank is ever ingested (the first to arrive), so
duplicate attempts are always safe: a rank task is a pure function of
``(spec, rank, iteration)``, every attempt produces the same payloads,
and dedup just discards the copies.
"""

from __future__ import annotations

import math
import multiprocessing.connection
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from ..resilience.report import SupervisorStats
from ..resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..telemetry import NULL_TRACER, NullTracer

__all__ = ["WorkerSupervisor"]

#: Longest the parent blocks on the busy pipes between two passes over
#: the deadline and backoff timers.
POLL_INTERVAL_S = 0.02

#: Trace event of each :class:`SupervisorStats` counter.
_EVENTS = {
    "retries": "supervisor.retry",
    "deadline_misses": "supervisor.deadline_miss",
    "worker_deaths": "supervisor.worker_death",
    "worker_errors": "supervisor.worker_error",
}


def _worker_main(conn, task, inherited) -> None:
    """A worker process: ``recv args -> task(args) -> send (ok, value)``.

    ``inherited`` are the parent's pipe ends the fork copied: closed
    here, so this worker sees end-of-file and exits when its parent
    closes its pipe or dies, whatever its siblings hold open.
    """
    for other in inherited:
        other.close()
    try:
        while True:
            args = conn.recv()
            try:
                reply = pickle.dumps((True, task(args)))
            except Exception as exc:  # it raised, or its value won't pickle
                reply = pickle.dumps((False, repr(exc)))
            conn.send_bytes(reply)
    except (EOFError, OSError):  # the parent is gone
        pass


@dataclass(eq=False)
class _Task:
    """Supervision state of one rank's task within one :meth:`run`."""

    rank: int
    launches: int = 0
    resolved: bool = False
    #: When the next send is due (the first at once); None while an
    #: attempt is live and nothing is scheduled.
    next_retry_at: float | None = 0.0


@dataclass(eq=False)
class _Attempt:
    """One send of a rank task, for as long as its worker holds it."""

    task: _Task
    started_at: float
    #: Past its deadline — no longer counts as active, but still
    #: harvested if it completes late.
    abandoned: bool = False


@dataclass(eq=False)
class _Worker:
    """One child process, its pipe, and the attempt it holds (if any)."""

    process: object
    conn: object
    attempt: _Attempt | None = None

    def stop(self) -> None:
        self.process.kill()
        self.process.join()
        self.conn.close()


class WorkerSupervisor:
    """Owns ``workers`` forked processes and runs rank tasks on them.

    One long-lived object per data plane: the constructor forks the
    workers, :meth:`run` supervises one dump's tasks, :meth:`close`
    leaves no child behind.

    Args:
        task: ``task(args) -> result``, run inside a worker; must be
            deterministic in ``args`` — the bytes-identical guarantee.
        retry: backoff shape *and* attempt cap (``max_attempts`` counts
            every send of a task, the first included).
        deadline_s: per-attempt wall-clock deadline; None disables.
        stats: the tally to add to (the campaign's, shared across
            dumps); a fresh one when omitted.
    """

    def __init__(
        self,
        task: Callable[[object], object],
        workers: int,
        *,
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
        deadline_s: float | None = None,
        stats: SupervisorStats | None = None,
        tracer: NullTracer = NULL_TRACER,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive or None, got {deadline_s!r}"
            )
        self._task = task
        self._retry = retry
        self._deadline = math.inf if deadline_s is None else deadline_s
        self.stats = stats if stats is not None else SupervisorStats()
        self._tracer = tracer
        self._clock = clock
        # Serializes a respawn against close(): another thread may abort
        # the plane mid-dump.
        self._lock = threading.Lock()
        self._closed = False
        self._workers: list[_Worker] = []
        for _ in range(workers):
            self._workers.append(_Worker(*self._spawn()))
        # The run in progress: the ``(rank, result)`` won but not yet
        # ingested.
        self._won: deque[tuple[int, object]] = deque()
        self._args = self._fallback = None
        self._iteration = 0

    # -- the two places that touch the OS (what the unit tests replace) -
    def _spawn(self):
        """Fork one worker; returns ``(process, parent's pipe end)``."""
        fork = multiprocessing.get_context("fork")
        conn, child_conn = fork.Pipe()
        inherited = [worker.conn for worker in self._workers] + [conn]
        process = fork.Process(
            target=_worker_main,
            args=(child_conn, self._task, inherited),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, conn

    def _wait(self, conns: list, timeout: float) -> list:
        """Block until a busy pipe is readable, ``timeout`` at most."""
        return multiprocessing.connection.wait(conns, timeout)

    # -- public API ----------------------------------------------------
    def run(
        self,
        ranks: Iterable[int],
        *,
        args: Callable[[int, int], object],
        ingest: Callable[[int, object], None],
        fallback: Callable[[int], object],
        iteration: int = 0,
    ) -> None:
        """Run one task per rank; returns once every rank has a result.

        ``args(rank, attempt)`` builds what send number ``attempt``
        (0-based) of the rank's task carries, ``ingest(rank, result)``
        gets each rank's first result, exactly once, and
        ``fallback(rank) -> result`` is the synchronous last resort.
        With a deadline set every task completes, retries within its
        budget or falls back, so this always returns.
        """
        tasks = [_Task(rank) for rank in ranks]
        self.stats.tasks += len(tasks)
        self._won.clear()
        self._args, self._fallback = args, fallback
        self._iteration = iteration
        try:
            while True:
                now = self._clock()
                for task in tasks:
                    if not task.resolved:
                        self._advance(task, now)
                # The idle workers have their next task: now the parent
                # can spend time on the finished ones' payloads.
                while self._won:
                    ingest(*self._won.popleft())
                if all(task.resolved for task in tasks):
                    return
                busy = {
                    w.conn: w for w in self._workers if w.attempt is not None
                }
                for conn in self._wait(list(busy), POLL_INTERVAL_S):
                    self._harvest(busy[conn])
        finally:
            # Whatever a worker still holds is superseded (or the run
            # failed): between runs every worker is idle.
            for worker in self._workers:
                if worker.attempt is not None and not self._closed:
                    self._respawn(worker, died=False)

    def close(self) -> None:
        """Kill and reap every worker (idempotent, safe from another
        thread); once :meth:`run` has returned, whatever a worker still
        holds is superseded."""
        with self._lock:
            if not self._closed:
                self._closed = True
                for worker in self._workers:
                    worker.stop()

    # -- workers -------------------------------------------------------
    def _respawn(self, worker: _Worker, died: bool = True) -> None:
        """Replace ``worker``'s process; whatever it held is over."""
        if died:
            self._count("worker_deaths", dead=1)
        with self._lock:
            if self._closed:
                raise RuntimeError("the supervisor is closed")
            worker.stop()
            worker.process, worker.conn = self._spawn()
        worker.attempt = None

    def _free_worker(self) -> _Worker | None:
        """An idle worker, or None while waiting will free one.  With
        every worker stuck on an attempt nobody waits for (abandoned, or
        its task resolved) no wait is bounded: one of them is replaced."""
        for worker in self._workers:
            if worker.attempt is None:
                return worker
        for worker in self._workers:
            if not (worker.attempt.abandoned or worker.attempt.task.resolved):
                return None
        self._respawn(self._workers[0], died=False)
        return self._workers[0]

    def _harvest(self, worker: _Worker) -> None:
        """Read a busy worker's pipe: its reply, or its death."""
        task = worker.attempt.task
        try:
            ok, value = worker.conn.recv()
        except (EOFError, OSError):
            # Exactly the attempt this worker held is lost: its task's
            # next send is due now, whatever backoff was pending.
            task.next_retry_at = self._clock()
            self._respawn(worker)
            return
        worker.attempt = None
        if task.resolved:
            return  # a late duplicate: the first result won
        if not ok:
            self._count("worker_errors", rank=task.rank, error=value)
            return
        # An abandoned attempt that finishes late still wins.
        self._won.append((task.rank, value))
        task.resolved = True

    # -- state machine -------------------------------------------------
    def _advance(self, task: _Task, now: float) -> None:
        held = [
            w.attempt
            for w in self._workers
            if w.attempt is not None and w.attempt.task is task
        ]
        # 1. Expire attempts past the per-attempt deadline.
        for a in held:
            if not a.abandoned and now - a.started_at > self._deadline:
                a.abandoned = True
                self._count(
                    "deadline_misses",
                    rank=task.rank,
                    deadline_s=self._deadline,
                )
        if any(not a.abandoned for a in held):
            return  # 2. A live attempt: wait for it, never duplicate it.
        if task.launches >= self._retry.max_attempts:
            # 3. Nothing live and the budget gone: degrade.
            self.stats.fallback_ranks.append(self._key(task.rank))
            self._emit(
                "runtime.fallback",
                kind="rank-serial",
                rank=task.rank,
                iteration=self._iteration,
            )
            self._won.append((task.rank, self._fallback(task.rank)))
            task.resolved = True
            return
        # 4. Nothing live: (re)send once the backoff has elapsed.
        if task.next_retry_at is None:
            task.next_retry_at = now + self._retry.backoff_s(task.launches)
        if now >= task.next_retry_at:
            self._send(task)

    def _send(self, task: _Task) -> None:
        """Send the task's next attempt, if a worker is free for it."""
        worker = self._free_worker()
        if worker is None:
            return
        index = task.launches
        payload = self._args(task.rank, index)
        while True:
            try:
                worker.conn.send(payload)
                break
            except OSError:  # died while idle: replace it, send again
                self._respawn(worker)
        worker.attempt = _Attempt(task, self._clock())
        task.launches += 1
        task.next_retry_at = None
        self.stats.attempts += 1
        if index:
            key = self._key(task.rank)
            if key not in self.stats.retried_ranks:
                self.stats.retried_ranks.append(key)
            self._count("retries", rank=task.rank, attempt=index)

    # -- misc ----------------------------------------------------------
    def _key(self, rank: int) -> str:
        return f"it{self._iteration:04d}/rank{rank}"

    def _count(self, counter: str, **fields) -> None:
        """Add one to the one tally's ``counter``; emit its event."""
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        self._emit(_EVENTS[counter], **fields)

    def _emit(self, name: str, **fields) -> None:
        if self._tracer.enabled:
            self._tracer.event(name, **fields)
            self._tracer.counter(name).inc()
