"""Deterministic fault injection for the campaign runtime.

The paper's evaluation perturbs predictions only with Gaussian noise
(Section 5.4.1), but real parallel filesystems misbehave in structured
ways: bursty OST contention stalls individual writes, transient errors
force retries, aggregate bandwidth collapses under interference, and a
straggler rank drags the whole iteration (independent writes make the
slowest rank decisive, Section 4.4).  This module models those failure
classes so a campaign can answer "does concealment survive a misbehaving
filesystem" end to end.

Every decision is drawn from a :func:`numpy.random.default_rng` seeded
with ``(seed, fault-kind, key...)``, so injections are a pure function of
the seed and the operation identity — independent of call order, query
count, and which layer asks.  Repeated queries for the same key return
the cached first draw and are counted once in the
:class:`~repro.resilience.report.ResilienceLog`, which keeps the
per-campaign resilience report exactly reproducible from the command
line (``campaign --faults spec.yaml --seed N``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..durability.crashpoints import CRASH_POINTS
from .report import ResilienceLog

__all__ = [
    "StallFault",
    "WriteErrorFault",
    "BandwidthFault",
    "CompressionFault",
    "StragglerFault",
    "ProcessKillFault",
    "WorkerFault",
    "WORKER_FAULT_KINDS",
    "FaultPlan",
    "FaultInjector",
]


def _check_probability(owner: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(
            f"fault spec: {owner}.probability must be in [0, 1], "
            f"got {value!r}"
        )


@dataclass(frozen=True)
class StallFault:
    """Bursty I/O stalls: a write occasionally hangs for a while.

    When a stall hits (per-task ``probability``), its length is a
    heavy-tailed draw ``mean_duration_s * (0.1 + Pareto(tail_alpha))`` —
    most stalls are short, a few are catastrophic, matching observed OST
    contention bursts.
    """

    probability: float = 0.0
    mean_duration_s: float = 0.5
    tail_alpha: float = 2.0

    def __post_init__(self) -> None:
        _check_probability("stall", self.probability)
        if self.mean_duration_s <= 0:
            raise ValueError(
                "fault spec: stall.mean_duration_s must be positive, "
                f"got {self.mean_duration_s!r}"
            )
        if self.tail_alpha <= 0:
            raise ValueError(
                "fault spec: stall.tail_alpha must be positive, "
                f"got {self.tail_alpha!r}"
            )


@dataclass(frozen=True)
class WriteErrorFault:
    """Transient write errors: an attempt fails and must be retried.

    Each attempt fails independently with ``probability``, so a retry
    policy with ``n`` attempts succeeds unless ``probability**n`` comes
    up — the long tail that exercises the graceful-degradation path.
    """

    probability: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("write_error", self.probability)


@dataclass(frozen=True)
class BandwidthFault:
    """Heavy-tailed bandwidth collapse during contention bursts.

    With ``probability`` per (rank, window), the effective bandwidth
    share drops to ``factor = max(min_factor, 1 / (1 + Pareto(tail_alpha)))``
    of nominal — writes in that window take ``1 / factor`` times longer.
    """

    probability: float = 0.0
    min_factor: float = 0.2
    tail_alpha: float = 1.5

    def __post_init__(self) -> None:
        _check_probability("bandwidth", self.probability)
        if not 0.0 < self.min_factor <= 1.0:
            raise ValueError(
                "fault spec: bandwidth.min_factor must be in (0, 1], "
                f"got {self.min_factor!r}"
            )
        if self.tail_alpha <= 0:
            raise ValueError(
                "fault spec: bandwidth.tail_alpha must be positive, "
                f"got {self.tail_alpha!r}"
            )


@dataclass(frozen=True)
class CompressionFault:
    """A compression block fails (bad convergence, codec error).

    The runtime degrades gracefully: the block is written raw instead —
    ratio 1, no compression task — and the fallback is recorded.
    """

    probability: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("compression", self.probability)


@dataclass(frozen=True)
class StragglerFault:
    """Persistently slow ranks (bad node, degraded NIC, thermal limits).

    Every I/O (``io_factor``) and compression (``compression_factor``)
    duration on the listed ranks is multiplied by the given factor.
    """

    ranks: tuple[int, ...] = ()
    io_factor: float = 1.0
    compression_factor: float = 1.0

    def __post_init__(self) -> None:
        if any(r < 0 for r in self.ranks):
            raise ValueError(
                "fault spec: straggler.ranks must be non-negative, "
                f"got {list(self.ranks)!r}"
            )
        if self.io_factor < 1.0:
            raise ValueError(
                "fault spec: straggler.io_factor must be >= 1, "
                f"got {self.io_factor!r}"
            )
        if self.compression_factor < 1.0:
            raise ValueError(
                "fault spec: straggler.compression_factor must be >= 1, "
                f"got {self.compression_factor!r}"
            )


@dataclass(frozen=True)
class ProcessKillFault:
    """Kill the whole process at a durability crash point.

    The chaos-testing fault: when the campaign journal passes crash
    point ``point`` during ``iteration`` (``-1`` = any iteration), the
    process dies via ``os._exit`` — no cleanup, no atexit, exactly like
    a node loss.  A resumed run must recover every committed iteration.
    """

    iteration: int = -1
    point: str = "post-commit"
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.point not in CRASH_POINTS:
            raise ValueError(
                f"fault spec: process_kill.point must be one of "
                f"{list(CRASH_POINTS)}, got {self.point!r}"
            )
        if self.iteration < -1:
            raise ValueError(
                "fault spec: process_kill.iteration must be >= -1 "
                f"(-1 = any iteration), got {self.iteration!r}"
            )
        _check_probability("process_kill", self.probability)


#: Real-plane worker fault kinds (see :class:`WorkerFault`).
WORKER_FAULT_KINDS = ("kill", "stall", "error")


@dataclass(frozen=True)
class WorkerFault:
    """Real-plane worker faults: break the workers, not the model.

    Unlike every other fault class, this one is executed by the
    *physical* data plane (``--engine process``): the parent attaches
    the decision to the rank task it sends, and the worker carries it
    out before generating anything.

    Kinds:

    * ``kill`` — the worker SIGKILLs itself (``worker-kill``): the
      supervisor sees end-of-file on that worker's pipe, retries exactly
      the task it held and forks a replacement.
    * ``stall`` — the worker sleeps ``stall_s`` seconds before
      generating (``worker-stall``): a straggler that trips the task
      deadline or speculative re-execution.
    * ``error`` — the worker raises (``worker-error``): the failure
      comes back over the pipe and is counted as a worker error.

    ``attempts`` bounds how many launch attempts per task are affected:
    the default 1 faults only the first attempt (exercising retry);
    a large value faults every retry too (exercising the serial
    fallback).  ``rank``/``iteration`` of ``-1`` match any.
    """

    kind: str = "kill"
    rank: int = -1
    iteration: int = -1
    attempts: int = 1
    stall_s: float = 2.0
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise ValueError(
                f"fault spec: worker.kind must be one of "
                f"{', '.join(WORKER_FAULT_KINDS)}, got {self.kind!r}"
            )
        if self.rank < -1:
            raise ValueError(
                "fault spec: worker.rank must be >= -1 (-1 = any rank), "
                f"got {self.rank!r}"
            )
        if self.iteration < -1:
            raise ValueError(
                "fault spec: worker.iteration must be >= -1 "
                f"(-1 = any iteration), got {self.iteration!r}"
            )
        if self.attempts < 1:
            raise ValueError(
                "fault spec: worker.attempts must be >= 1, "
                f"got {self.attempts!r}"
            )
        if self.stall_s <= 0:
            raise ValueError(
                "fault spec: worker.stall_s must be positive, "
                f"got {self.stall_s!r}"
            )
        _check_probability("worker", self.probability)


@dataclass(frozen=True)
class FaultPlan:
    """Which fault classes a campaign injects, with their parameters."""

    stall: StallFault | None = None
    write_error: WriteErrorFault | None = None
    bandwidth: BandwidthFault | None = None
    compression: CompressionFault | None = None
    straggler: StragglerFault | None = None
    process_kill: ProcessKillFault | None = None
    worker: WorkerFault | None = None

    @property
    def any_faults(self) -> bool:
        """Whether a fault of the *modelled* campaign can fire: the
        runtime arms its probe replay and deadline guard on this.  A
        plan of only ``process_kill`` (crashes the driver), ``worker``
        (breaks the real data plane) or zero probabilities changes
        nothing."""
        return any(
            (
                self.stall is not None and self.stall.probability > 0,
                self.write_error is not None
                and self.write_error.probability > 0,
                self.bandwidth is not None
                and self.bandwidth.probability > 0,
                self.compression is not None
                and self.compression.probability > 0,
                self.straggler is not None and bool(self.straggler.ranks),
            )
        )


# Per-kind salts keep draws for different fault classes independent even
# when their keys coincide.
_SALTS = {
    "stall": 11,
    "write_error": 13,
    "bandwidth": 17,
    "compression": 19,
    "straggler": 23,
    "retry": 29,
    "process_kill": 31,
    "worker-kill": 37,
    "worker-stall": 41,
    "worker-error": 43,
}


class FaultInjector:
    """Seeded oracle answering "does this operation fail, and how badly?".

    One injector serves a whole campaign.  Each query is keyed by the
    operation's identity (rank, iteration, job/op index); the first draw
    per key is cached, recorded in :attr:`log` when it fires, and
    returned verbatim on every later query — so planning, replay, and
    accounting layers can all consult the same oracle without
    double-counting or perturbing each other's randomness.
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: int = 0,
        log: ResilienceLog | None = None,
    ) -> None:
        self.plan = plan
        self.seed = seed
        # Resumed runs disarm process-kill injection so a crash point
        # that fired in the original run cannot re-fire during replay.
        self.crash_enabled = True
        self.log = log if log is not None else ResilienceLog()
        if plan.straggler is not None:
            self.log.straggler_ranks = tuple(plan.straggler.ranks)
        self._cache: dict[tuple, float | bool] = {}

    # ------------------------------------------------------------------
    def rng(self, kind: str, *key: int) -> np.random.Generator:
        """Deterministic generator for one (kind, key) decision."""
        return np.random.default_rng(
            (0x5EED, self.seed, _SALTS.get(kind, 97), *key)
        )

    def _cached(
        self,
        kind: str,
        key: tuple[int, ...],
        draw: Callable[[np.random.Generator], float | bool],
        fired: Callable[[float | bool], bool],
    ) -> float | bool:
        cache_key = (kind, *key)
        if cache_key in self._cache:
            return self._cache[cache_key]
        value = draw(self.rng(kind, *key))
        self._cache[cache_key] = value
        if fired(value):
            self.log.record_injection(kind)
        return value

    # ------------------------------------------------------------------
    def io_stall_s(self, rank: int, iteration: int, task: int) -> float:
        """Extra seconds this I/O task hangs (0.0 = no stall)."""
        fault = self.plan.stall
        if fault is None or fault.probability <= 0:
            return 0.0

        def draw(rng: np.random.Generator) -> float:
            if rng.random() >= fault.probability:
                return 0.0
            severity = 0.1 + float(rng.pareto(fault.tail_alpha))
            return fault.mean_duration_s * severity

        return float(
            self._cached(
                "stall", (rank, iteration, task), draw, lambda v: v > 0
            )
        )

    def write_error(self, rank: int, op: int, attempt: int) -> bool:
        """Whether write attempt ``attempt`` of operation ``op`` fails."""
        fault = self.plan.write_error
        if fault is None or fault.probability <= 0:
            return False

        def draw(rng: np.random.Generator) -> bool:
            return bool(rng.random() < fault.probability)

        return bool(
            self._cached(
                "write_error", (rank, op, attempt), draw, lambda v: bool(v)
            )
        )

    def bandwidth_factor(
        self, rank: int, window: int, scope: int = 0
    ) -> float:
        """Effective-bandwidth multiplier in ``window`` (1.0 = nominal).

        ``scope`` namespaces independent window sequences (e.g. the
        per-iteration bursts seen by the noise model vs. the per-write
        bursts seen by the simulated filesystem) so their keys never
        collide.
        """
        fault = self.plan.bandwidth
        if fault is None or fault.probability <= 0:
            return 1.0

        def draw(rng: np.random.Generator) -> float:
            if rng.random() >= fault.probability:
                return 1.0
            severity = float(rng.pareto(fault.tail_alpha))
            return max(fault.min_factor, 1.0 / (1.0 + severity))

        return float(
            self._cached(
                "bandwidth", (scope, rank, window), draw, lambda v: v != 1.0
            )
        )

    def compression_fails(
        self, rank: int, iteration: int, job: int
    ) -> bool:
        """Whether this block's compression task fails (write raw)."""
        fault = self.plan.compression
        if fault is None or fault.probability <= 0:
            return False

        def draw(rng: np.random.Generator) -> bool:
            return bool(rng.random() < fault.probability)

        return bool(
            self._cached(
                "compression",
                (rank, iteration, job),
                draw,
                lambda v: bool(v),
            )
        )

    def process_kill_fires(self, point: str, iteration: int) -> bool:
        """Whether the process dies at this crash point, this iteration.

        ``iteration`` matching is exact unless the fault declares ``-1``
        (any); the ``"report"`` point fires regardless of iteration since
        report writing happens after the loop.  Deterministic: the draw
        is keyed by the point alone, so asking twice cannot flip the
        answer.
        """
        fault = self.plan.process_kill
        if (
            fault is None
            or fault.probability <= 0
            or not self.crash_enabled
        ):
            return False
        if point != fault.point:
            return False
        if point != "report" and fault.iteration not in (-1, iteration):
            return False

        def draw(rng: np.random.Generator) -> bool:
            return bool(rng.random() < fault.probability)

        # Seed tuples must be non-negative; the "report" point's -1
        # sentinel maps to 0 (no real iteration shares the report key
        # because the point index disambiguates).
        point_key = CRASH_POINTS.index(point)
        return bool(
            self._cached(
                "process_kill",
                (point_key, max(0, iteration)),
                draw,
                lambda v: bool(v),
            )
        )

    def worker_fault(
        self, rank: int, iteration: int, attempt: int
    ) -> tuple[str, float] | None:
        """The real-plane fault launch ``attempt`` of this rank task
        carries, or None.

        Returns ``(kind, stall_s)`` — the parent attaches it to the
        dispatched task, so the decision is drawn (and recorded) exactly
        once per ``(rank, iteration, attempt)`` in the parent and the
        worker only executes it.  Attempts at or past the fault's
        ``attempts`` budget are clean, which is what lets a retried task
        eventually succeed.
        """
        fault = self.plan.worker
        if fault is None or fault.probability <= 0:
            return None
        if fault.rank not in (-1, rank):
            return None
        if fault.iteration not in (-1, iteration):
            return None
        if attempt >= fault.attempts:
            return None

        def draw(rng: np.random.Generator) -> bool:
            return bool(rng.random() < fault.probability)

        fired = self._cached(
            f"worker-{fault.kind}",
            (rank, iteration, attempt),
            draw,
            lambda v: bool(v),
        )
        if not fired:
            return None
        return fault.kind, fault.stall_s

    def straggler_io_factor(self, rank: int) -> float:
        """I/O slow-down multiplier for ``rank`` (1.0 = healthy)."""
        fault = self.plan.straggler
        if fault is None or rank not in fault.ranks:
            return 1.0
        return self._straggler(rank, fault.io_factor)

    def straggler_compression_factor(self, rank: int) -> float:
        """Compression slow-down multiplier for ``rank``."""
        fault = self.plan.straggler
        if fault is None or rank not in fault.ranks:
            return 1.0
        return self._straggler(rank, fault.compression_factor)

    def _straggler(self, rank: int, factor: float) -> float:
        # Not random — but mark the rank once so the injection is
        # counted exactly once however many durations it scales.  The
        # decision looks at the plan's factors, not the queried one:
        # a first query for an unaffected dimension (e.g. compression
        # at factor 1.0) must not swallow the rank's record.
        cache_key = ("straggler", rank)
        if cache_key not in self._cache:
            self._cache[cache_key] = True
            fault = self.plan.straggler
            assert fault is not None
            if fault.io_factor != 1.0 or fault.compression_factor != 1.0:
                self.log.record_injection("straggler")
        return factor
