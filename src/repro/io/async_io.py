"""Background-thread asynchronous I/O (the HDF5 async-VOL stand-in).

The paper launches compressed-data writes on a background thread per
process so they overlap the main thread's computation (Section 2.1, the
async VOL connector).  This module provides that runtime for the real-file
examples: a single worker thread drains a FIFO of write jobs against a
:class:`~repro.io.hdf5like.SharedFileWriter`, and callers get a future-like
handle per job.

Ordering is FIFO — matching the scheduler's premise that I/O tasks on the
background thread execute sequentially in the submitted order.

A :class:`~repro.resilience.retry.RetryPolicy` makes the worker retry
writes that fail with an :class:`OSError` with (wall-clock) exponential
backoff before surfacing the error at ``wait()`` — the real-file
counterpart of the simulated retry loop in
:class:`~repro.io.filesystem.SimulatedFileSystem`.  Any other error (an
unreserved or already-written dataset, a checksum mismatch) cannot heal
by writing again, so it fails the job on its first attempt.

Shutdown never hangs: the worker is a daemon thread, ``close()`` and
``drain()`` take optional timeouts, and if the worker dies every queued
job fails with a clear error instead of blocking its waiter forever.
Jobs submitted with a ``checksum`` have their payload's CRC32C checked
by the container writer right before the bytes land, so corruption while
queued fails the job (once, never retried) instead of reaching the file.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

from ..resilience.retry import RetryPolicy
from .hdf5like import SharedFileWriter

__all__ = ["WriteJob", "AsyncWriter"]


@dataclass
class WriteJob:
    """A pending asynchronous write; ``wait()`` blocks until durable."""

    name: str
    payload: bytes
    checksum: int | None = None
    _done: threading.Event = field(default_factory=threading.Event)
    fit_reservation: bool | None = None
    error: BaseException | None = None
    attempts: int = 0

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the write completed; re-raises worker errors."""
        finished = self._done.wait(timeout)
        if finished and self.error is not None:
            raise self.error
        return finished


class AsyncWriter:
    """One background thread writing jobs to a shared container in FIFO."""

    def __init__(
        self,
        writer: SharedFileWriter,
        retry: RetryPolicy | None = None,
        on_retry=None,
    ) -> None:
        self._writer = writer
        self._retry = retry
        #: ``on_retry(job, exc)`` — observer invoked from the worker
        #: thread each time a failed write is about to be retried, so
        #: callers (the data planes) can tally real-I/O retries in the
        #: campaign's resilience log.  Observer errors are swallowed:
        #: accounting must never turn a recoverable write into a failure.
        self._on_retry = on_retry
        self._queue: queue.SimpleQueue[WriteJob | None] = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._drain, name="repro-async-io", daemon=True
        )
        self._closed = False
        self._worker_exited = threading.Event()
        self._start_lock = threading.Lock()
        self._started = False

    def start(self) -> None:
        """Start the worker thread; safe to call any number of times.

        ``submit()`` and ``drain()`` call this lazily, so constructing an
        :class:`AsyncWriter` that is never used costs no thread — and
        engine code that calls ``start()`` again on an already-running
        writer is a no-op rather than a crash.
        """
        with self._start_lock:
            if self._started:
                return
            self._started = True
            self._thread.start()

    def submit(
        self, name: str, payload: bytes, checksum: int | None = None
    ) -> WriteJob:
        """Queue one write; returns immediately.

        ``checksum`` is the payload's CRC32C from compression time; the
        container writer re-verifies it just before writing.
        """
        if self._closed:
            raise ValueError("writer is closed")
        self.start()
        job = WriteJob(name=name, payload=payload, checksum=checksum)
        self._queue.put(job)
        if self._worker_exited.is_set():
            self._fail_pending()  # lost race with a dying worker
        return job

    def drain(self, timeout: float | None = None) -> None:
        """Block until every queued job has completed.

        Raises ``TimeoutError`` if the queue did not empty in time and
        ``RuntimeError`` if the worker thread is gone.
        """
        self.start()
        barrier = WriteJob(name="", payload=b"")
        self._queue.put(barrier)
        if self._worker_exited.is_set():
            self._fail_pending()
        if not barrier.wait(timeout):
            raise TimeoutError(
                f"async writer did not drain within {timeout}s"
            )

    def close(self, timeout: float | None = None) -> None:
        """Finish outstanding work and stop the worker thread.

        With a ``timeout``, raises ``TimeoutError`` if outstanding jobs
        (e.g. one wedged in a retry loop) outlast it; the worker is a
        daemon thread, so a timed-out close never prevents interpreter
        exit.
        """
        if self._closed:
            return
        self._closed = True
        with self._start_lock:
            if not self._started:
                return  # never started: nothing to stop
        self._queue.put(None)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError(
                f"async writer worker still busy after {timeout}s"
            )

    def __enter__(self) -> "AsyncWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _drain(self) -> None:
        try:
            while True:
                job = self._queue.get()
                if job is None:
                    return
                if job.name == "" and not job.payload:
                    job._done.set()  # drain barrier
                    continue
                try:
                    job.fit_reservation = self._write_with_retry(job)
                except BaseException as exc:  # surfaced at wait()
                    job.error = exc
                finally:
                    job._done.set()
        finally:
            # Normal shutdown or a crashed worker: either way nothing
            # will service the queue again, so fail whatever is left
            # rather than letting its waiters block forever.
            self._worker_exited.set()
            self._fail_pending()

    def _fail_pending(self) -> None:
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return
            if job is None:
                continue
            if job.name == "" and not job.payload:
                job._done.set()  # unblock drain barriers too
                continue
            job.error = RuntimeError(
                f"async writer worker exited before job {job.name!r} "
                f"ran; the write never happened"
            )
            job._done.set()

    def _write_with_retry(self, job: WriteJob) -> bool:
        """One write; an ``OSError`` is retried per the policy with
        wall-clock backoff."""
        policy = self._retry
        attempts = policy.max_attempts if policy is not None else 1
        started = time.monotonic()
        while True:
            job.attempts += 1
            try:
                if job.checksum is not None:
                    return self._writer.write(
                        job.name, job.payload, checksum=job.checksum
                    )
                return self._writer.write(job.name, job.payload)
            except OSError as exc:
                if policy is None or job.attempts >= attempts:
                    raise
                # Check the deadline *before* sleeping: a backoff that
                # would land past it is pointless — give up now instead
                # of waiting out the sleep just to discover that.
                backoff = policy.backoff_s(job.attempts)
                elapsed = time.monotonic() - started
                if policy.past_deadline(elapsed + backoff):
                    raise
                if self._on_retry is not None:
                    try:
                        self._on_retry(job, exc)
                    except Exception:  # pragma: no cover - observer bug
                        pass
                time.sleep(backoff)
