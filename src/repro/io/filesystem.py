"""Simulated parallel filesystem: per-node accounting over the time model.

The campaign simulator does not move real bytes; it asks this object how
long each write takes (delegating to :class:`IoThroughputModel`) and keeps
aggregate statistics so experiments can report achieved bandwidth and
write-size distributions.  Aggregates are maintained as running totals in
:meth:`SimulatedFileSystem.write`, so ``total_bytes``/``total_time`` stay
O(1) however many writes a campaign records.  The per-write log is kept
column-wise in four typed arrays (rank, bytes, duration, attempts: 32 bytes
a write instead of a ~170-byte boxed record), because a long campaign makes
thousands of writes per iteration and nothing but tests and ad-hoc analysis
reads them back; :attr:`SimulatedFileSystem.writes` materializes the
:class:`WriteRecord` list on demand.

With a :class:`~repro.resilience.faults.FaultInjector` attached, writes
can suffer bandwidth-collapse bursts (the throughput model is degraded
via :meth:`IoThroughputModel.with_bandwidth_factor`) and transient
errors; the configured :class:`~repro.resilience.retry.RetryPolicy`
drives a simulated retry loop — failed attempts and backoffs add
simulated seconds — and a write that exhausts its budget raises
:class:`~repro.resilience.retry.WriteFailedError` for the caller to
degrade gracefully (typically by deferring the payload to the next
compute gap).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from ..resilience.faults import FaultInjector
from ..resilience.retry import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    WriteFailedError,
)
from ..telemetry import NULL_TRACER, NullTracer
from .throughput import IoThroughputModel

__all__ = ["WriteRecord", "SimulatedFileSystem"]


@dataclass(frozen=True)
class WriteRecord:
    """One simulated write operation."""

    rank: int
    nbytes: int
    duration: float
    attempts: int = 1


@dataclass
class SimulatedFileSystem:
    """Bandwidth-modelled shared filesystem with write accounting."""

    model: IoThroughputModel
    tracer: NullTracer = NULL_TRACER
    injector: FaultInjector | None = None
    retry: RetryPolicy = DEFAULT_RETRY_POLICY
    _total_bytes: int = field(default=0, init=False, repr=False)
    _total_time: float = field(default=0.0, init=False, repr=False)
    _ops: int = field(default=0, init=False, repr=False)
    #: Write log columns: rank, nbytes, duration, attempts.
    _log: tuple[array, array, array, array] = field(
        default_factory=lambda: (
            array("q"), array("q"), array("d"), array("q")
        ),
        init=False,
        repr=False,
    )

    def write(self, rank: int, nbytes: int) -> float:
        """Simulate one write; returns its duration.

        Under fault injection the duration includes degraded-bandwidth
        slow-down, wasted partial attempts, and retry backoffs.  Raises
        :class:`WriteFailedError` when the retry budget or per-write
        deadline is exhausted; no record is kept for failed writes.
        """
        op = self._ops
        self._ops += 1
        if self.injector is None:
            duration, attempts = self.model.write_time(nbytes), 1
        else:
            duration, attempts = self._faulty_write(rank, nbytes, op)
        ranks, sizes, durations, tries = self._log
        ranks.append(rank)
        sizes.append(nbytes)
        durations.append(duration)
        tries.append(attempts)
        self._total_bytes += nbytes
        self._total_time += duration
        if self.tracer.enabled:
            self.tracer.event(
                "fs.write",
                rank=rank,
                nbytes=nbytes,
                duration=duration,
                attempts=attempts,
            )
            self.tracer.counter("fs.bytes").inc(nbytes)
            self.tracer.counter("fs.writes").inc()
        return duration

    def write_many(
        self, rank: int, sizes: np.ndarray | list[int]
    ) -> np.ndarray:
        """Simulate one rank's writes of ``sizes`` in order, without an
        injector; returns their durations.

        The log and the totals come out exactly as from one
        :meth:`write` per size: the durations accumulate one by one.
        """
        if self.injector is not None:
            raise ValueError("write_many is the fault-free path; use write")
        sizes = np.asarray(sizes, dtype=np.int64)
        durations = self.model.write_time(sizes)
        self._ops += len(sizes)
        ranks, nbytes, times, tries = self._log
        ranks.extend([rank] * len(sizes))
        nbytes.frombytes(sizes.tobytes())
        times.frombytes(durations.tobytes())
        tries.extend([1] * len(sizes))
        self._total_bytes += int(sizes.sum())
        self._total_time = float(
            np.cumsum(np.concatenate(([self._total_time], durations)))[-1]
        )
        if self.tracer.enabled:
            for n, duration in zip(sizes.tolist(), durations.tolist()):
                self.tracer.event(
                    "fs.write",
                    rank=rank,
                    nbytes=n,
                    duration=duration,
                    attempts=1,
                )
            self.tracer.counter("fs.bytes").inc(int(sizes.sum()))
            self.tracer.counter("fs.writes").inc(len(sizes))
        return durations

    def _faulty_write(
        self, rank: int, nbytes: int, op: int
    ) -> tuple[float, int]:
        """Retry loop over injected faults; simulated elapsed + attempts."""
        injector = self.injector
        assert injector is not None
        factor = injector.bandwidth_factor(rank, op, scope=1)
        model = (
            self.model
            if factor == 1.0
            else self.model.with_bandwidth_factor(factor)
        )
        attempt_s = model.write_time(nbytes)
        rng = injector.rng("retry", rank, op)
        elapsed = 0.0
        attempt = 1
        while True:
            if not injector.write_error(rank, op, attempt):
                elapsed += attempt_s
                if attempt > 1:
                    injector.log.record_retry_success()
                return elapsed, attempt
            # The attempt dies partway through: a transient error wastes
            # a uniform fraction of the would-be write time.
            elapsed += attempt_s * float(rng.uniform(0.0, 1.0))
            exhausted = attempt >= self.retry.max_attempts
            if not exhausted:
                backoff = self.retry.backoff_s(attempt, rng)
                elapsed += backoff
                exhausted = self.retry.past_deadline(elapsed + attempt_s)
                injector.record_retry(
                    rank=rank, attempt=attempt, backoff_s=backoff
                )
            if exhausted:
                injector.record_write_failure(
                    rank=rank, nbytes=nbytes, attempts=attempt
                )
                raise WriteFailedError(
                    f"write of {nbytes} bytes on rank {rank} failed "
                    f"after {attempt} attempts ({elapsed:.3f}s elapsed)",
                    rank=rank,
                    nbytes=nbytes,
                    attempts=attempt,
                    elapsed_s=elapsed,
                )
            attempt += 1

    @property
    def writes(self) -> list[WriteRecord]:
        """Every successful write so far, in order (built on demand)."""
        return [WriteRecord(*row) for row in zip(*self._log)]

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    @property
    def total_time(self) -> float:
        return self._total_time

    @property
    def mean_write_bytes(self) -> float:
        # Failed writes are not recorded, so the divisor is not ``_ops``.
        recorded = len(self._log[0])
        return self._total_bytes / recorded if recorded else 0.0

    def achieved_bandwidth(self) -> float:
        """Aggregate bytes per second across all recorded writes."""
        return (
            self._total_bytes / self._total_time
            if self._total_time
            else 0.0
        )

    def reset(self) -> None:
        for column in self._log:
            del column[:]
        self._total_bytes = 0
        self._total_time = 0.0
