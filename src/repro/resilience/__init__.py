"""Fault injection and graceful degradation for the campaign runtime.

The paper's premise — concealing compression + I/O inside compute gaps —
is evaluated under Gaussian noise only (Section 5.4.1).  This package
asks the harder question: does concealment survive a *misbehaving*
filesystem?  It provides

* :class:`FaultPlan` / :class:`FaultInjector` — seeded, deterministic
  injection of I/O stalls, transient write errors, heavy-tailed
  bandwidth collapse, compression-block failures, and straggler ranks;
  the injector is the one place a fault is drawn, tallied, traced and
  (at the named :data:`CRASH_POINTS` of the journal and the service
  ledger) carried out as a deliberate process death;
* :class:`RetryPolicy` — exponential backoff + jitter with a per-write
  deadline, applied to simulated and real writes;
* :class:`ResilienceLog` / :class:`ResilienceReport` — the per-campaign
  tally of injected faults, retries, fallbacks, overrun iterations, and
  deferred bytes, exactly reproducible from ``--faults spec.yaml --seed N``,
  plus the one :class:`SupervisorStats` of what the real pool absorbed;
* :func:`load_fault_spec` — declarative YAML fault campaigns validated
  at load time with errors naming the bad field.
"""

from .faults import (
    CRASH_EXIT_CODE,
    CRASH_POINTS,
    SERVICE_CRASH_POINTS,
    WORKER_FAULT_KINDS,
    BandwidthFault,
    CompressionFault,
    FaultInjector,
    FaultPlan,
    ProcessKillFault,
    StallFault,
    StragglerFault,
    WorkerFault,
    WriteErrorFault,
)
from .report import ResilienceLog, ResilienceReport, SupervisorStats
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy, WriteFailedError
from .spec import (
    FaultSpec,
    load_fault_spec,
    load_spec_data,
    parse_fault_spec,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "StallFault",
    "WriteErrorFault",
    "BandwidthFault",
    "CompressionFault",
    "StragglerFault",
    "ProcessKillFault",
    "WorkerFault",
    "WORKER_FAULT_KINDS",
    "CRASH_POINTS",
    "SERVICE_CRASH_POINTS",
    "CRASH_EXIT_CODE",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "WriteFailedError",
    "ResilienceLog",
    "ResilienceReport",
    "SupervisorStats",
    "FaultSpec",
    "parse_fault_spec",
    "load_fault_spec",
    "load_spec_data",
]
