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
count, and which layer asks.  The :class:`FaultInjector` is the one
place a fault happens: it draws, and on the first draw of a key that
fires it counts the fault in the
:class:`~repro.resilience.report.ResilienceLog` and emits the
``fault.injected`` event itself, so the per-campaign resilience report
and the trace agree by construction and both are exactly reproducible
from the command line (``campaign --faults spec.yaml --seed N``).  It
also carries out the one deliberate death, :meth:`FaultInjector.crash_point`,
at the named instants of the journal and ledger protocols below.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..telemetry import NULL_TRACER, NullTracer
from .report import ResilienceLog

__all__ = [
    "CRASH_POINTS",
    "SERVICE_CRASH_POINTS",
    "CRASH_EXIT_CODE",
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

#: Journal crash points, in protocol order: after the iteration's intent
#: record (``plan``), after it executed but before its commit record
#: (``pre-commit``), halfway through appending that record
#: (``torn-commit``: the torn tail must be discarded on resume, not
#: trusted), after the commit is fsynced (``post-commit``), and after
#: the final report's temp file is written but before the rename that
#: publishes it (``report``).
CRASH_POINTS = ("plan", "pre-commit", "torn-commit", "post-commit", "report")

#: Request-ledger crash points of the scheduling service: after a
#: request's *open* record is durable, while its work executes, and
#: after the result exists but before its *close* record — the three
#: instants whose recovery behaviour differs.
SERVICE_CRASH_POINTS = ("post-admission", "mid-dispatch", "pre-completion")

#: Exit status of a deliberate death (the SIGKILL convention).
CRASH_EXIT_CODE = 137


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
    """Kill the whole process at a named crash point.

    The chaos-testing fault: when the campaign journal passes crash
    point ``point`` during ``iteration`` (``-1`` = any iteration), the
    process dies via ``os._exit`` — no cleanup, no atexit, exactly like
    a node loss.  A resumed run must recover every committed iteration.
    For a :data:`SERVICE_CRASH_POINTS` name, ``iteration`` is the
    ordinal of the pass through that point (the ``N``-th request).
    """

    iteration: int = -1
    point: str = "post-commit"
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.point not in CRASH_POINTS + SERVICE_CRASH_POINTS:
            raise ValueError(
                f"fault spec: process_kill.point must be one of "
                f"{list(CRASH_POINTS + SERVICE_CRASH_POINTS)}, "
                f"got {self.point!r}"
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
      generating (``worker-stall``): a straggler that, once it runs past
      the task deadline, is retried while the stalled attempt still
      races the retry.
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
        drawn = (
            self.stall, self.write_error, self.bandwidth, self.compression
        )
        return any(f is not None and f.probability > 0 for f in drawn) or (
            self.straggler is not None and bool(self.straggler.ranks)
        )


def _bernoulli(rng: np.random.Generator, fault) -> bool:
    return bool(rng.random() < fault.probability)


def _stall_seconds(rng: np.random.Generator, fault: StallFault) -> float:
    if rng.random() >= fault.probability:
        return 0.0
    severity = 0.1 + float(rng.pareto(fault.tail_alpha))
    return fault.mean_duration_s * severity


def _bandwidth_share(
    rng: np.random.Generator, fault: BandwidthFault
) -> float:
    if rng.random() >= fault.probability:
        return 1.0
    severity = float(rng.pareto(fault.tail_alpha))
    return max(fault.min_factor, 1.0 / (1.0 + severity))


_JOB = ("rank", "iteration", "job")
_ATTEMPT = ("rank", "iteration", "attempt")

#: kind -> (salt, plan section, key names, neutral answer, draw).  The
#: salt keeps draws of different kinds independent when keys coincide;
#: the key names are the ``fault.injected`` event's attributes.
#: ``straggler`` is not random (marked once per rank) and ``retry`` is
#: only the simulated retry loop's jitter stream.
_KINDS = {
    "stall": (11, "stall", _JOB, 0.0, _stall_seconds),
    "write_error": (
        13, "write_error", ("rank", "op", "attempt"), False, _bernoulli
    ),
    "bandwidth": (
        17, "bandwidth", ("scope", "rank", "window"), 1.0, _bandwidth_share
    ),
    "compression": (19, "compression", _JOB, False, _bernoulli),
    "straggler": (23, "straggler", ("rank",), None, None),
    "retry": (29, None, (), None, None),
    "process_kill": (31, "process_kill", ("point", "n"), False, _bernoulli),
    "worker-kill": (37, "worker", _ATTEMPT, False, _bernoulli),
    "worker-stall": (41, "worker", _ATTEMPT, False, _bernoulli),
    "worker-error": (43, "worker", _ATTEMPT, False, _bernoulli),
}


def _hard_exit(point: str, n: int) -> None:
    """The default crash action: die like a node loss, status 137, so no
    ``finally:`` block, ``atexit`` hook or buffered write softens it."""
    sys.stderr.write(
        f"chaos: killing process at crash point {point!r} "
        f"(iteration {n})\n"
    )
    sys.stderr.flush()
    os._exit(CRASH_EXIT_CODE)


class FaultInjector:
    """Seeded oracle answering "does this operation fail, and how badly?"
    — and the one place that fault is counted, traced and carried out.

    One injector serves a whole campaign (or one service process).  Each
    query is keyed by the operation's identity (rank, iteration, job/op
    index); the first draw per key is cached and returned verbatim on
    every later query, and when it fires that first draw is also the one
    that bumps :attr:`log` and emits the ``fault.injected`` event and
    counter on ``tracer`` — so planning, replay, and accounting layers
    can all consult the same oracle without double-counting, perturbing
    each other's randomness, or keeping a tally of their own.

    ``on_crash(point, n)`` is what :meth:`crash_point` does when a
    :class:`ProcessKillFault` fires (default: ``os._exit(137)``; a test
    passes one that raises, or returns to let the caller carry on).
    ``crash_armed()`` is asked once, just before dying: "a crash fires at
    most once per durable run" — a resumed campaign answers False, the
    service answers by consuming its token file.
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: int = 0,
        log: ResilienceLog | None = None,
        *,
        tracer: NullTracer = NULL_TRACER,
        on_crash: Callable[[str, int], None] = _hard_exit,
        crash_armed: Callable[[], bool] = lambda: True,
    ) -> None:
        self.plan = plan
        self.seed = seed
        self.tracer = tracer
        self.on_crash = on_crash
        self.crash_armed = crash_armed
        self.log = log if log is not None else ResilienceLog()
        if plan.straggler is not None:
            self.log.straggler_ranks = tuple(plan.straggler.ranks)
        self._cache: dict[tuple, float | bool] = {}
        # Passes through the armed crash point, for callers (the
        # service's request threads) that have no ordinal of their own.
        self._passes = 0
        self._passes_lock = threading.Lock()

    # ------------------------------------------------------------------
    # draw -> tally -> trace
    # ------------------------------------------------------------------
    def rng(self, kind: str, *key: int) -> np.random.Generator:
        """Deterministic generator for one (kind, key) decision."""
        if kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} (valid: {', '.join(_KINDS)})"
            )
        return np.random.default_rng(
            (0x5EED, self.seed, _KINDS[kind][0], *key)
        )

    def _draw(
        self, kind: str, key: tuple[int, ...]
    ) -> tuple[float | bool, bool]:
        """The answer for ``(kind, key)``, and whether this call is the
        first draw of a fault that fires (the one to record)."""
        _, section, _, neutral, draw = _KINDS[kind]
        fault = getattr(self.plan, section)
        if fault is None or fault.probability <= 0:
            return neutral, False
        cache_key = (kind, *key)
        if cache_key in self._cache:
            return self._cache[cache_key], False
        value = self._cache[cache_key] = draw(self.rng(kind, *key), fault)
        return value, value != neutral

    def _query(self, kind: str, *key: int) -> float | bool:
        value, fired = self._draw(kind, key)
        if fired:
            self._injected(
                kind, **dict(zip(_KINDS[kind][2], key)), value=value
            )
        return value

    def _injected(self, kind: str, **attrs) -> None:
        self.log.record_injection(kind)
        self._emit("fault.injected", kind=kind, **attrs)

    def _emit(self, name: str, **attrs) -> None:
        if self.tracer.enabled:
            self.tracer.event(name, **attrs)
            self.tracer.counter(name).inc()

    # ------------------------------------------------------------------
    # recovery actions the callers took (tally + event + counter)
    # ------------------------------------------------------------------
    def record_fallback(self, kind: str, nbytes: int = 0, **where) -> None:
        """Count one graceful-degradation decision of ``kind``."""
        self.log.record_fallback(kind, nbytes=nbytes)
        self._emit("runtime.fallback", kind=kind, nbytes=nbytes, **where)

    def record_retry(self, **where) -> None:
        """Count one retried write attempt."""
        self.log.record_retry()
        self._emit("io.retry", **where)

    def record_write_failure(self, **where) -> None:
        """Count one write whose retry budget was exhausted."""
        self.log.record_write_failure()
        self._emit("io.write_failed", **where)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def io_stall_s(self, rank: int, iteration: int, task: int) -> float:
        """Extra seconds this I/O task hangs (0.0 = no stall)."""
        return self._query("stall", rank, iteration, task)

    def write_error(self, rank: int, op: int, attempt: int) -> bool:
        """Whether write attempt ``attempt`` of operation ``op`` fails."""
        return self._query("write_error", rank, op, attempt)

    def bandwidth_factor(
        self, rank: int, window: int, scope: int = 0
    ) -> float:
        """Effective-bandwidth multiplier in ``window`` (1.0 = nominal).

        ``scope`` namespaces independent window sequences (e.g. the
        per-iteration bursts seen by the noise model vs. the per-write
        bursts seen by the simulated filesystem) so their keys never
        collide.
        """
        return self._query("bandwidth", scope, rank, window)

    def compression_fails(
        self, rank: int, iteration: int, job: int
    ) -> bool:
        """Whether this block's compression task fails (write raw)."""
        return self._query("compression", rank, iteration, job)

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
        if (
            fault is None
            or fault.rank not in (-1, rank)
            or fault.iteration not in (-1, iteration)
            or attempt >= fault.attempts
            or not self._query(
                f"worker-{fault.kind}", rank, iteration, attempt
            )
        ):
            return None
        return fault.kind, fault.stall_s

    def straggler_io_factor(self, rank: int) -> float:
        """I/O slow-down multiplier for ``rank`` (1.0 = healthy)."""
        fault = self._straggler(rank)
        return 1.0 if fault is None else fault.io_factor

    def straggler_compression_factor(self, rank: int) -> float:
        """Compression slow-down multiplier for ``rank``."""
        fault = self._straggler(rank)
        return 1.0 if fault is None else fault.compression_factor

    def _straggler(self, rank: int) -> StragglerFault | None:
        fault = self.plan.straggler
        if fault is None or rank not in fault.ranks:
            return None
        # Not random — but mark the rank once so the injection is
        # counted exactly once however many durations it scales, and
        # whichever of its two factors is asked for first.
        if ("straggler", rank) not in self._cache:
            self._cache["straggler", rank] = True
            if fault.io_factor != 1.0 or fault.compression_factor != 1.0:
                self._injected(
                    "straggler",
                    rank=rank,
                    io_factor=fault.io_factor,
                    compression_factor=fault.compression_factor,
                )
        return fault

    # ------------------------------------------------------------------
    # the one deliberate death
    # ------------------------------------------------------------------
    def crash_point(
        self,
        point: str,
        n: int | None = None,
        before: Callable[[], None] | None = None,
    ) -> bool:
        """Pass crash point ``point``; die here if the plan says so.

        ``n`` is the pass's ordinal — the campaign's iteration (``-1``
        at the ``"report"`` point, which follows the loop and so fires
        whatever iteration the fault names); None counts the passes
        through the armed point itself, from 1.  A
        :class:`ProcessKillFault` naming this point and ordinal fires at
        most once per ``(point, n)`` and only while :attr:`crash_armed`
        answers True.  Firing runs ``before`` (the torn half-record),
        then :attr:`on_crash`, which by default does not return; when it
        does, the result is True and the caller carries on as the
        survivor of a crash that did not happen.
        """
        fault = self.plan.process_kill
        if fault is None:
            return False
        points = CRASH_POINTS + SERVICE_CRASH_POINTS
        if point not in points:
            raise ValueError(
                f"unknown crash point {point!r} (valid: {', '.join(points)})"
            )
        if fault.point != point:
            return False
        if n is None:
            with self._passes_lock:
                self._passes += 1
                n = self._passes
        if point != "report" and fault.iteration not in (-1, n):
            return False
        # Seed tuples must be non-negative; the "report" point's -1
        # sentinel maps to 0 (no real iteration shares the report key
        # because the point index disambiguates).
        _, fired = self._draw(
            "process_kill", (points.index(point), max(0, n))
        )
        if not (fired and self.crash_armed()):
            return False
        self._injected("process_kill", point=point, n=n)
        if before is not None:
            before()
        self.on_crash(point, n)
        return True
