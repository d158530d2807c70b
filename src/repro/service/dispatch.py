"""The solve dispatcher: one bounded priority queue, drained by workers.

Requests wait in a single queue ordered by priority, then arrival.
``workers`` solver threads pull from it directly: a free worker pops the
best entry the moment one exists, so — as in the paper's list schedules
— no worker idles while a request is ready.  An entry stays in the
queue until a worker takes it, which is what makes ``max_queue`` push
back when every worker is busy.

A request whose deadline passes while it is queued completes with a
structured deadline :class:`~repro.service.protocol.Rejection` (504)
when a worker pops it, never a timeout exception.

Every completed request resolves to a :class:`DispatchOutcome` carrying
the solution (or rejection) plus the queue-wait and solve timings the
service's per-request telemetry spans report.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

from .protocol import (
    REJECT_DEADLINE,
    REJECT_DRAINING,
    REJECT_SHUTTING_DOWN,
    Rejection,
    SolveWork,
)

__all__ = ["DispatchOutcome", "SolveDispatcher"]


@dataclass
class DispatchOutcome:
    """What one dispatched request resolved to.

    Exactly one of ``solution`` / ``rejection`` is set.  ``queue_wait_s``
    covers enqueue to execution start; ``solve_s`` the solver call
    itself.
    """

    solution: dict | None = None
    rejection: Rejection | None = None
    queue_wait_s: float = 0.0
    solve_s: float = 0.0


@dataclass
class _Entry:
    work: SolveWork
    future: Future
    enqueued_at: float
    #: Absolute clock reading past which the request is answered 504.
    deadline_at: float | None


class SolveDispatcher:
    """Bounded priority queue drained by ``workers`` solver threads.

    ``solve_fn(work) -> dict`` produces the solution payload for one
    request (injectable for tests); it runs on the worker threads, so it
    must be thread-safe — which the constant algorithm table and
    ``solve()`` facade are.
    """

    def __init__(
        self,
        solve_fn,
        *,
        workers: int = 2,
        max_queue: int = 64,
        clock=time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue!r}")
        self._solve_fn = solve_fn
        self.workers = workers
        self.max_queue = max_queue
        self._clock = clock
        #: Guards the queue, the closed flag and the counters.
        self._cv = threading.Condition()
        #: Heap of ``(-priority, seq, entry)``: priority, then FIFO.
        self._queue: list[tuple[int, int, _Entry]] = []
        self._seq = 0
        self._closed = False
        self._dispatched = 0
        self._expired = 0
        self._drain_rejected = 0
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-solve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently waiting in the queue."""
        with self._cv:
            return len(self._queue)

    def try_submit(self, work: SolveWork) -> Future | None:
        """Queue one request; None when the bounded queue is full.

        Raises ``RuntimeError`` after :meth:`shutdown` — callers decide
        how to surface that (the service answers 503).
        """
        with self._cv:
            if self._closed:
                raise RuntimeError("dispatcher is shut down")
            if len(self._queue) >= self.max_queue:
                return None
            now = self._clock()
            entry = _Entry(
                work=work,
                future=Future(),
                enqueued_at=now,
                deadline_at=(
                    None if work.deadline_s is None else now + work.deadline_s
                ),
            )
            heapq.heappush(self._queue, (-work.priority, self._seq, entry))
            self._seq += 1
            self._cv.notify()
            return entry.future

    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if not self._queue:
                    return  # shut down with nothing left to drain
                entry = heapq.heappop(self._queue)[-1]
                started = self._clock()
                expired = (
                    entry.deadline_at is not None
                    and started > entry.deadline_at
                )
                if expired:
                    self._expired += 1
                else:
                    self._dispatched += 1
            queue_wait = started - entry.enqueued_at
            if expired:
                self._reject(
                    entry,
                    Rejection(
                        code=REJECT_DEADLINE,
                        message=(
                            f"deadline of {entry.work.deadline_s:g}s expired "
                            f"after {queue_wait:.3f}s in the queue"
                        ),
                        http_status=504,
                    ),
                    queue_wait,
                )
                continue
            if not entry.future.set_running_or_notify_cancel():
                continue
            try:
                solution = self._solve_fn(entry.work)
            except BaseException as exc:
                entry.future.set_exception(exc)
                continue
            entry.future.set_result(
                DispatchOutcome(
                    solution=solution,
                    queue_wait_s=queue_wait,
                    solve_s=self._clock() - started,
                )
            )

    def _reject(
        self, entry: _Entry, rejection: Rejection, queue_wait_s: float
    ) -> None:
        if entry.future.set_running_or_notify_cancel():
            entry.future.set_result(
                DispatchOutcome(
                    rejection=rejection, queue_wait_s=queue_wait_s
                )
            )

    def _flush(self, code: str, message: str) -> None:
        """Answer everything still queued with a 503 rejection."""
        with self._cv:
            stranded = [entry for _, _, entry in self._queue]
            self._queue.clear()
            self._drain_rejected += len(stranded)
        now = self._clock()
        rejection = Rejection(code=code, message=message, http_status=503)
        for entry in stranded:
            self._reject(entry, rejection, now - entry.enqueued_at)

    # ------------------------------------------------------------------
    def shutdown(self, drain: bool = True, timeout: float | None = 30.0):
        """Stop the dispatcher.

        ``drain=True`` (graceful): already-queued requests still run to
        completion — but only until ``timeout`` (the hard drain
        deadline); whatever is still queued then resolves with a 503
        ``draining`` rejection rather than waiting on a stalled solve
        forever.  ``drain=False``: queued requests resolve with a
        shutting-down rejection at once.  Either way this returns once
        the workers have exited or the deadline passed; a solve already
        on a worker may still be finishing in the background.
        Idempotent.
        """
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        if not drain:
            self._flush(
                REJECT_SHUTTING_DOWN, "service shut down before dispatch"
            )
        # The joins block in real time, whatever clock was injected.
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            thread.join(
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
        # Workers only exit on an empty queue, so anything left is past
        # the deadline.  Flushed here, not by the workers: every one of
        # them may be wedged in a solve.
        self._flush(REJECT_DRAINING, "drain deadline expired before dispatch")

    def stats(self) -> dict:
        """Queue counters for the ``/status`` endpoint."""
        with self._cv:
            return {
                "depth": len(self._queue),
                "workers": self.workers,
                "max_queue": self.max_queue,
                # Alias of ``dispatched``, kept only because
                # perf/workloads/service.py reads ``queue.batches`` in
                # traced runs; it retires with the service.batches /
                # service.mean_batch_size probes in the next benchmark PR.
                "batches": self._dispatched,
                "dispatched": self._dispatched,
                "expired": self._expired,
                "drain_rejected": self._drain_rejected,
            }
