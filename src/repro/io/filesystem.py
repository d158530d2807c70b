"""Simulated parallel filesystem: the fault path of a campaign's writes.

The campaign times every block write once, when the background thread
replays the dump plan; a fault-free campaign never builds this object.
With a :class:`~repro.resilience.faults.FaultInjector` attached, each
:meth:`SimulatedFileSystem.write` takes the next op number, which keys
its draws: a bandwidth-collapse burst (the throughput model is degraded
via :meth:`IoThroughputModel.with_bandwidth_factor`) and transient
errors.  The configured :class:`~repro.resilience.retry.RetryPolicy`
drives a simulated retry loop — failed attempts and backoffs add
simulated seconds — and a write that exhausts its budget raises
:class:`~repro.resilience.retry.WriteFailedError` for the caller to
degrade gracefully (typically by deferring the payload to the next
compute gap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..resilience.faults import FaultInjector
from ..resilience.retry import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    WriteFailedError,
)
from ..telemetry import NULL_TRACER, NullTracer
from .throughput import IoThroughputModel

__all__ = ["SimulatedFileSystem"]


@dataclass
class SimulatedFileSystem:
    """Bandwidth-modelled shared filesystem under fault injection."""

    model: IoThroughputModel
    injector: FaultInjector
    tracer: NullTracer = NULL_TRACER
    retry: RetryPolicy = DEFAULT_RETRY_POLICY
    _ops: int = field(default=0, init=False, repr=False)

    def write(self, rank: int, nbytes: int) -> float:
        """Simulate one write; returns its duration.

        The duration includes degraded-bandwidth slow-down, wasted
        partial attempts, and retry backoffs.  Raises
        :class:`WriteFailedError` when the retry budget or per-write
        deadline is exhausted.
        """
        op = self._ops
        self._ops += 1
        duration, attempts = self._faulty_write(rank, nbytes, op)
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

    def _faulty_write(
        self, rank: int, nbytes: int, op: int
    ) -> tuple[float, int]:
        """Retry loop over injected faults; simulated elapsed + attempts."""
        injector = self.injector
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
