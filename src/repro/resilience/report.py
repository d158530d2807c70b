"""Resilience accounting: what faults fired and how the run coped.

A single mutable :class:`ResilienceLog` rides along with a
:class:`~repro.resilience.faults.FaultInjector` for the whole campaign.
The injector records every fault it fires; the filesystem records
retries and write failures; the runtime and orchestrator record
fallbacks, overrun iterations, and deferred bytes; the supervised pool
data plane counts what it absorbed in the log's one
:class:`SupervisorStats`.  At the end :meth:`ResilienceLog.report`
freezes it into a :class:`ResilienceReport` whose modelled counts are
exactly reproducible from ``--faults spec.yaml --seed N``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

__all__ = ["ResilienceLog", "ResilienceReport", "SupervisorStats"]


@dataclass
class SupervisorStats:
    """Wall-clock recovery tallies of the supervised data plane.

    The one supervisor tally: a single instance accumulates across
    every dump of a campaign.  It rides on
    :class:`~repro.engines.dataplane.DataPlaneStats` and, when a fault
    injector (hence a resilience report) is attached, is also
    :attr:`ResilienceLog.supervisor`.
    """

    tasks: int = 0
    attempts: int = 0
    retries: int = 0
    deadline_misses: int = 0
    worker_deaths: int = 0
    worker_errors: int = 0
    #: Always 0: the supervisor launches no duplicates.  Kept only for
    #: ``perf/workloads/dump.py``'s ``engines.supervisor_speculative``.
    speculative_launches: int = 0
    #: ``it<N>/rank<R>`` keys of tasks that needed >1 attempt.
    retried_ranks: list[str] = field(default_factory=list)
    #: ``it<N>/rank<R>`` keys of tasks compressed serially in the parent.
    fallback_ranks: list[str] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """Whether any recovery action fired at all."""
        return bool(
            self.retries
            or self.deadline_misses
            or self.worker_deaths
            or self.worker_errors
            or self.fallback_ranks
        )


@dataclass
class ResilienceLog:
    """Mutable fault/recovery tally for one campaign run."""

    injected: dict[str, int] = field(default_factory=dict)
    fallbacks: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    retry_successes: int = 0
    write_failures: int = 0
    degraded_dumps: int = 0
    overrun_iterations: int = 0
    deferred_bytes: int = 0
    deferred_writes: int = 0
    pending_deferred_bytes: int = 0
    straggler_ranks: tuple[int, ...] = ()
    #: Real-plane supervisor tallies (wall-clock facts), updated by the
    #: :class:`~repro.engines.supervisor.WorkerSupervisor` directly.
    supervisor: SupervisorStats = field(default_factory=SupervisorStats)

    def record_injection(self, kind: str, n: int = 1) -> None:
        """Count ``n`` injected faults of ``kind``."""
        self.injected[kind] = self.injected.get(kind, 0) + n

    def record_retry(self) -> None:
        """Count one retried write attempt."""
        self.retries += 1

    def record_retry_success(self) -> None:
        """Count one write that recovered after at least one retry."""
        self.retry_successes += 1

    def record_write_failure(self) -> None:
        """Count one write whose retry budget was exhausted."""
        self.write_failures += 1

    def record_fallback(self, kind: str, nbytes: int = 0) -> None:
        """Count one graceful-degradation decision of ``kind``."""
        self.fallbacks[kind] = self.fallbacks.get(kind, 0) + 1
        if kind.startswith("defer"):
            self.deferred_writes += 1
            self.deferred_bytes += nbytes

    def report(self) -> "ResilienceReport":
        """Freeze the current tallies into an immutable report."""
        return ResilienceReport(
            injected=tuple(sorted(self.injected.items())),
            fallbacks=tuple(sorted(self.fallbacks.items())),
            retries=self.retries,
            retry_successes=self.retry_successes,
            write_failures=self.write_failures,
            degraded_dumps=self.degraded_dumps,
            overrun_iterations=self.overrun_iterations,
            deferred_bytes=self.deferred_bytes,
            deferred_writes=self.deferred_writes,
            pending_deferred_bytes=self.pending_deferred_bytes,
            straggler_ranks=self.straggler_ranks,
            supervisor=dataclasses.replace(
                self.supervisor,
                retried_ranks=sorted(self.supervisor.retried_ranks),
                fallback_ranks=sorted(self.supervisor.fallback_ranks),
            ),
        )


@dataclass(frozen=True)
class ResilienceReport:
    """Per-campaign summary of injected faults and recovery actions."""

    injected: tuple[tuple[str, int], ...] = ()
    fallbacks: tuple[tuple[str, int], ...] = ()
    retries: int = 0
    retry_successes: int = 0
    write_failures: int = 0
    degraded_dumps: int = 0
    overrun_iterations: int = 0
    deferred_bytes: int = 0
    deferred_writes: int = 0
    pending_deferred_bytes: int = 0
    straggler_ranks: tuple[int, ...] = ()
    #: Real-plane supervisor tallies (a snapshot, rank keys sorted).
    #: These are *wall-clock* facts — how many real retries, deadline
    #: misses, and worker deaths the physical data plane absorbed — so
    #: they are reported and formatted but deliberately kept out of
    #: :meth:`as_metrics`: the metric dict feeds the modelled campaign
    #: report, whose byte-identical resumed-vs-uninterrupted guarantee
    #: only holds for deterministic values.
    supervisor: SupervisorStats = field(default_factory=SupervisorStats)

    @property
    def total_injected(self) -> int:
        return sum(count for _, count in self.injected)

    @property
    def total_fallbacks(self) -> int:
        return sum(count for _, count in self.fallbacks)

    def as_metrics(self) -> dict[str, float]:
        """Flat metric dict, suitable for gauges / campaign metrics."""
        metrics: dict[str, float] = {
            "resilience.injected": float(self.total_injected),
            "resilience.retries": float(self.retries),
            "resilience.retry_successes": float(self.retry_successes),
            "resilience.write_failures": float(self.write_failures),
            "resilience.fallbacks": float(self.total_fallbacks),
            "resilience.degraded_dumps": float(self.degraded_dumps),
            "resilience.overrun_iterations": float(
                self.overrun_iterations
            ),
            "resilience.deferred_bytes": float(self.deferred_bytes),
            "resilience.pending_deferred_bytes": float(
                self.pending_deferred_bytes
            ),
        }
        for kind, count in self.injected:
            metrics[f"resilience.injected.{kind}"] = float(count)
        for kind, count in self.fallbacks:
            metrics[f"resilience.fallback.{kind}"] = float(count)
        return metrics

    def format(self) -> str:
        """Human-readable block for CLI output (stable ordering)."""
        lines = [
            f"faults injected:     {self.total_injected}",
        ]
        for kind, count in self.injected:
            lines.append(f"  {kind + ':':18s} {count}")
        lines.append(
            f"write retries:       {self.retries} "
            f"({self.retry_successes} recovered, "
            f"{self.write_failures} exhausted)"
        )
        lines.append(f"fallbacks:           {self.total_fallbacks}")
        for kind, count in self.fallbacks:
            lines.append(f"  {kind + ':':18s} {count}")
        lines.append(f"degraded dumps:      {self.degraded_dumps}")
        lines.append(f"overrun iterations:  {self.overrun_iterations}")
        lines.append(
            f"deferred writes:     {self.deferred_writes} "
            f"({self.deferred_bytes} bytes, "
            f"{self.pending_deferred_bytes} still pending)"
        )
        if self.straggler_ranks:
            ranks = ", ".join(str(r) for r in self.straggler_ranks)
            lines.append(f"straggler ranks:     {ranks}")
        # Real-plane supervisor lines appear only when the supervised
        # data plane actually had to recover something, so modelled-only
        # campaigns keep their historical output byte-for-byte.
        sup = self.supervisor
        if sup.retries or sup.deadline_misses:
            lines.append(
                f"task retries:        {sup.retries} "
                f"({sup.deadline_misses} deadline misses)"
            )
        if sup.worker_errors or sup.worker_deaths:
            lines.append(
                f"worker failures:     {sup.worker_errors} errors, "
                f"{sup.worker_deaths} deaths"
            )
        if sup.retried_ranks:
            lines.append(
                "retried ranks:       " + ", ".join(sup.retried_ranks)
            )
        if sup.fallback_ranks:
            lines.append(
                "fallback ranks:      " + ", ".join(sup.fallback_ranks)
            )
        return "\n".join(lines)
