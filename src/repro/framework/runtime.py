"""Per-process runtime: plan, schedule, and execute one dump.

This is the modelled-execution pipeline of the proposed framework
(Section 4.4): for each dumping iteration a process

1. slices its fields into fine-grained blocks and predicts, per block,
   the compressed size (previous iteration's ratio, Section 3.4), the
   compression time (throughput model + shared-tree flag), and the I/O
   time (write model with buffer amortization);
2. builds the scheduling instance from the *previous* iteration's
   recorded obstacle layout (Section 3.1's similarity assumption);
3. runs the configured scheduling algorithm;
4. replays the plan against the iteration's *actual* obstacle layout,
   ratios and durations (Section 5.4.1's sequential-conflict rule) and
   records history for the next iteration.

Durations come from calibrated models rather than from really moving
bytes, which keeps campaign simulation fast and machine-independent; the
compression pipeline itself is exercised for real by the Figures 4-6
experiments and the examples.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from ..apps.base import ApplicationModel, IterationProfile
from ..core.balancing import IoTaskRef
from ..core.model import Interval, Job, ProblemInstance, Schedule
from ..core.executor import trace_schedule
from ..core.registry import get_algorithm
from ..resilience.faults import FaultInjector
from ..simulator.noise import ActualDurations, NoiseModel
from ..simulator.replay import ExecutionResult, execute_schedule
from ..telemetry import NULL_TRACER, NullTracer
from .config import FrameworkConfig

__all__ = ["BlockPlan", "DumpPlan", "DumpOutcome", "ProcessRuntime"]


@dataclass(frozen=True)
class BlockPlan:
    """One fine-grained block's planning data."""

    job_index: int
    field_name: str
    block_index: int
    raw_bytes: int
    predicted_ratio: float
    predicted_bytes: int
    predicted_compression_s: float
    predicted_io_s: float


@dataclass
class DumpPlan:
    """Everything a process plans before a dump executes.

    One numpy column per predicted quantity, indexed by job in generation
    order: with ``nb`` blocks per field, job ``j`` is block ``j % nb`` of
    field ``fields[j // nb]``, and every block holds ``raw_bytes``.
    """

    iteration: int
    fields: tuple[str, ...]
    raw_bytes: int
    predicted_ratio: np.ndarray
    predicted_bytes: np.ndarray
    predicted_compression_s: np.ndarray
    predicted_io_s: np.ndarray
    moved_in: list[IoTaskRef] = field(default_factory=list)
    moved_out: set[int] = field(default_factory=set)

    @property
    def blocks(self) -> list[BlockPlan]:
        """The columns as one :class:`BlockPlan` per job (built on demand)."""
        nb = len(self.predicted_bytes) // len(self.fields)
        columns = zip(
            self.predicted_ratio.tolist(),
            self.predicted_bytes.tolist(),
            self.predicted_compression_s.tolist(),
            self.predicted_io_s.tolist(),
        )
        return [
            BlockPlan(j, self.fields[j // nb], j % nb, self.raw_bytes, *row)
            for j, row in enumerate(columns)
        ]

    def io_task_refs(self, rank: int) -> list[IoTaskRef]:
        """This rank's I/O tasks as balancer inputs."""
        return [
            IoTaskRef(rank, j, duration)
            for j, duration in enumerate(self.predicted_io_s.tolist())
        ]


@dataclass
class DumpOutcome:
    """The result of executing one dump on one process.

    Under fault injection, ``degraded_blocks`` counts blocks whose
    compression failed and were written raw, ``deferred`` lists
    ``(job_index, nbytes)`` of blocks whose I/O the deadline guard
    pushed to the next compute gap, and ``overrun`` marks a dump whose
    first replay blew past the overrun deadline.
    """

    plan: DumpPlan
    schedule: Schedule
    execution: ExecutionResult
    actual_ratios: dict[str, np.ndarray]
    actual_sizes: list[int]
    overflow_bytes: int = 0
    degraded_blocks: int = 0
    deferred: tuple[tuple[int, int], ...] = ()
    overrun: bool = False

    @property
    def relative_overhead(self) -> float:
        return self.execution.relative_overhead


def _block_sizes(raw_bytes: int, ratios: np.ndarray) -> np.ndarray:
    """Compressed bytes of raw blocks at ``ratios`` (at least one byte)."""
    return np.maximum((raw_bytes / ratios).astype(np.int64), 1)


class ProcessRuntime:
    """State and pipeline of one process (one rank, one GPU)."""

    def __init__(
        self,
        rank: int,
        app: ApplicationModel,
        config: FrameworkConfig,
        node_size: int,
        noise: NoiseModel | None = None,
        tracer: NullTracer = NULL_TRACER,
        injector: FaultInjector | None = None,
    ) -> None:
        self.rank = rank
        self.app = app
        self.config = config
        self.node_size = node_size
        self.noise = noise if noise is not None else NoiseModel(seed=rank)
        self.injector = injector
        self.tracer = (
            tracer.bind(rank=rank) if tracer.enabled else tracer
        )
        self._previous_profile: IterationProfile | None = None
        self._previous_ratios: np.ndarray | None = None
        self._ratios: tuple[int, np.ndarray] | None = None
        self._scheduler = get_algorithm(config.scheduler)

    # ------------------------------------------------------------------
    # observation (every iteration, dump or not)
    # ------------------------------------------------------------------
    def observe_iteration(self, profile: IterationProfile) -> None:
        """Record an iteration's actual obstacle layout for prediction."""
        self._previous_profile = profile

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def blocks_per_field(self) -> int:
        """Fine-grained block count; whole fields when not compressing
        (blocking is part of the compression design, Section 4.1)."""
        if not self.config.use_compression:
            return 1
        field_bytes = self.app.partition_nbytes()
        return max(1, round(field_bytes / self.config.block_bytes))

    def _actual_ratios(self, iteration: int) -> np.ndarray:
        """This dump's actual compression ratio per job (read-only).

        Drawn once per iteration: the oracle plan, this rank's replay and
        every rank writing one of its blocks after balancing read the
        same column.
        """
        if self._ratios is None or self._ratios[0] != iteration:
            nb = self.blocks_per_field()
            if self.config.use_compression:
                by_field = self.app.block_ratios(
                    self.rank, iteration, nb, self.node_size
                )
                ratios = np.concatenate(
                    [by_field[spec.name] for spec in self.app.fields]
                )
            else:
                ratios = np.ones(nb * len(self.app.fields))
            ratios.flags.writeable = False
            self._ratios = (iteration, ratios)
        return self._ratios[1]

    def _io_task_timer(
        self, mean_block_bytes: float
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Write-model time of blocks, as a function of their bytes.

        With the compressed data buffer, ~``buffer/mean_block`` blocks
        share one write operation, so each block pays that fraction of
        the per-write latency (Section 4.2's consolidation effect).
        The latency share and the bandwidth are per-dump constants,
        worked out here once instead of once per block.
        """
        model = self.config.io_model
        latency = model.write_latency_s
        if self.config.buffer_bytes > 0:
            latency /= max(
                1.0, self.config.buffer_bytes / max(mean_block_bytes, 1.0)
            )
        bandwidth = model.per_process_bandwidth
        return lambda nbytes: np.where(
            nbytes > 0, latency + nbytes / bandwidth, 0.0
        )

    def actual_io_s(self, plan: DumpPlan) -> np.ndarray:
        """Write time of each block of ``plan`` at its actual size, on
        this rank's timer: what a rank that received one of the blocks
        from the balancer spends writing it."""
        timer = self._io_task_timer(float(np.mean(plan.predicted_bytes)))
        ratios = self._actual_ratios(plan.iteration)
        return timer(_block_sizes(plan.raw_bytes, ratios))

    def plan_dump(self, iteration: int) -> DumpPlan:
        """Plan every block of this dump with predicted values."""
        nb = self.blocks_per_field()
        raw_block = self.app.partition_nbytes() // nb
        fields = self.app.fields
        jobs = nb * len(fields)
        if not self.config.use_compression:
            ratios = np.ones(jobs)
            sizes = np.full(jobs, raw_block, dtype=np.int64)
            compression_s = np.zeros(jobs)
        else:
            if self.config.oracle_scheduling:
                ratios = self._actual_ratios(iteration)
            elif self._previous_ratios is not None:
                ratios = self._previous_ratios
            else:
                ratios = np.repeat([spec.base_ratio for spec in fields], nb)
            sizes = _block_sizes(raw_block, ratios)
            compression_s = np.full(
                jobs,
                self.config.compression_model.compression_time(
                    raw_block, shared_tree=self.config.use_shared_tree
                ),
            )
        io_task_time = self._io_task_timer(float(np.mean(sizes)))
        return DumpPlan(
            iteration=iteration,
            fields=tuple(spec.name for spec in fields),
            raw_bytes=raw_block,
            predicted_ratio=ratios,
            predicted_bytes=sizes,
            predicted_compression_s=compression_s,
            predicted_io_s=io_task_time(sizes),
        )

    # ------------------------------------------------------------------
    # scheduling + execution
    # ------------------------------------------------------------------
    def make_instance(self, plan: DumpPlan) -> ProblemInstance:
        """The scheduling instance, predicted from the previous iteration.

        Built from the plan's columns: own blocks keep their compression
        task; a moved-out block's I/O time becomes zero (another process
        writes it).  Moved-in tasks become zero-compression pseudo-jobs
        whose ``io_release`` is the donor's predicted compression
        completion (prefix-sum estimate).
        """
        if self._previous_profile is None:
            raise LookupError(
                "no previous iteration observed; run one iteration first"
            )
        profile = self._previous_profile
        compression_s = plan.predicted_compression_s
        io_s = plan.predicted_io_s.copy()
        io_s[list(plan.moved_out)] = 0.0
        # The donor compresses the same blocks in generation order; its
        # prefix sum of compression times lower-bounds readiness.
        prefix = np.cumsum(compression_s).tolist()
        release = [prefix[ref.job_index] for ref in plan.moved_in]
        main, background = self._obstacles(profile)
        return ProblemInstance.from_columns(
            begin=0.0,
            end=profile.length,
            compression_time=np.append(compression_s, [0.0] * len(release)),
            io_time=np.append(io_s, [ref.duration for ref in plan.moved_in]),
            io_release=np.append(np.zeros(len(io_s)), release),
            main_obstacles=main,
            background_obstacles=background,
        )

    def build_jobs(self, plan: DumpPlan) -> tuple[Job, ...]:
        """The jobs of :meth:`make_instance` as ``Job``s (an API edge)."""
        return self.make_instance(plan).jobs

    def _obstacles(
        self, profile: IterationProfile
    ) -> tuple[tuple[Interval, ...], tuple[Interval, ...]]:
        """The profile's obstacle layouts for the configured solution style.

        Prior-style solutions do not overlap with computation: the main
        thread is one solid obstacle.  The fully synchronous baseline
        additionally blocks the background thread, pushing every write
        after the iteration.
        """
        main, background = profile.main_obstacles, profile.background_obstacles
        if not self.config.overlap_with_computation:
            main = (Interval(0.0, profile.length),)
        if not self.config.async_background:
            background = (Interval(0.0, profile.length),)
        return main, background

    def execute_dump(
        self,
        plan: DumpPlan,
        iteration: int,
        moved_in_actual_s: list[float] | None = None,
        profile: IterationProfile | None = None,
    ) -> DumpOutcome:
        """Schedule the plan and replay it against actual conditions.

        ``profile`` is the iteration's actual obstacle layout, drawn
        here when the caller has not drawn it already.
        """
        actual_profile = profile or self.app.iteration_profile(iteration)
        if self.config.oracle_scheduling:
            # Section 5.2 mode: the scheduler sees the iteration's actual
            # obstacle layout rather than the previous iteration's.
            self._previous_profile = actual_profile
        tracer = (
            self.tracer.bind(iteration=iteration)
            if self.tracer.enabled
            else self.tracer
        )
        instance = self.make_instance(plan)
        with tracer.timed(
            "dump.schedule", algorithm=self.config.scheduler
        ):
            schedule = self._scheduler(instance)
        trace_schedule(tracer, schedule, algorithm=self.config.scheduler)

        ratios = self._actual_ratios(iteration)
        failed_compression = self._failed_compression_blocks(
            plan, iteration
        )
        if failed_compression:
            # Graceful degradation: a failed block's raw bytes are written
            # instead (the failed attempt still burns main-thread time),
            # and the history predictor and next iteration's balancer
            # inputs see it.
            ratios = ratios.copy()
            ratios[list(failed_compression)] = 1.0
        sizes = _block_sizes(plan.raw_bytes, ratios)
        io_task_time = self._io_task_timer(
            float(np.mean(plan.predicted_bytes))
        )
        io_s = io_task_time(sizes)
        io_s[list(plan.moved_out)] = 0.0
        if moved_in_actual_s is None:
            moved_in_actual_s = [ref.duration for ref in plan.moved_in]
        # The slow-downs, the stall draws and the deadline guard are
        # armed only when a modelled fault can fire (a plan of only
        # real-plane or crash faults changes nothing).
        injector = self.injector
        if injector is not None and not injector.plan.any_faults:
            injector = None
        planned_io_s = np.concatenate((io_s, moved_in_actual_s))
        compression_times, io_times = self.noise.perturb_dump(
            plan.predicted_compression_s, planned_io_s
        )
        if injector is not None:
            # Asked compression first, and never for a vector with no
            # task, so the injector's tallies and events keep their order.
            if len(compression_times):
                compression_times = compression_times * (
                    injector.straggler_compression_factor(self.rank)
                )
            if planned_io_s.any():  # else every write moved out
                io_times = io_times * injector.straggler_io_factor(self.rank)
                bandwidth = injector.bandwidth_factor(self.rank, iteration)
                if bandwidth != 1.0:
                    io_times = io_times / bandwidth
        compression_times = compression_times.tolist()
        compression_times += [0.0] * len(moved_in_actual_s)
        actual_sizes = sizes.tolist()

        actual_main, actual_bg = self._obstacles(actual_profile)
        actuals = ActualDurations(
            length=actual_profile.length,
            main_obstacles=actual_main,
            background_obstacles=actual_bg,
            compression_times=tuple(compression_times),
            io_times=tuple(io_times.tolist()),
        )
        deferred: list[tuple[int, int]] = []
        overrun = False
        if injector is not None:
            # The probe replay emits no spans; the final one below does.
            probe = execute_schedule(
                schedule,
                actuals,
                injector=injector,
                rank=self.rank,
                iteration=iteration,
            )
            actuals, deferred, overrun = self._deadline_guard(
                plan, iteration, actuals, probe, actual_sizes
            )
        execution = execute_schedule(
            schedule,
            actuals,
            tracer=tracer,
            injector=injector,
            rank=self.rank,
            iteration=iteration,
        )

        # Section 4.4 overflow: blocks that compressed worse than their
        # reservation spill into the shared file's tail through one extra,
        # unschedulable write queued after the last planned I/O task.
        reserved = np.ones(len(sizes), dtype=bool)
        reserved[list(plan.moved_out)] = False
        reserved[[idx for idx, _ in deferred]] = False
        overflow_bytes = int(
            np.maximum(sizes - plan.predicted_bytes, 0)[reserved].sum()
        )
        if overflow_bytes > 0 and self.config.use_compression:
            duration = self.config.io_model.write_time(overflow_bytes)
            tail_ends = [end for _, end in execution.spans(1).values()]
            tail_ends += [o.end for o in execution.background_obstacles]
            start = max(tail_ends, default=0.0)
            execution.extra_io = (Interval(start, start + duration),)
            tracer.span(
                "write.overflow",
                "background",
                None,
                start,
                start + duration,
                nbytes=overflow_bytes,
            )

        if tracer.enabled:
            # Prediction-error attrs: how far the previous-iteration
            # forecast (Section 3.1/3.4) was from this dump's reality.
            predicted_bytes = int(plan.predicted_bytes.sum())
            written = sum(actual_sizes) - sum(
                actual_sizes[idx] for idx in plan.moved_out
            )
            tracer.span(
                "dump",
                t0=instance.begin,
                t1=instance.begin + execution.overall_time,
                length_error=actual_profile.length - instance.length,
                size_rel_error=(
                    (sum(actual_sizes) - predicted_bytes) / predicted_bytes
                    if predicted_bytes
                    else 0.0
                ),
                makespan_error=(
                    execution.io_makespan - schedule.io_makespan
                ),
                overflow_bytes=overflow_bytes,
                relative_overhead=execution.relative_overhead,
                moved_in=len(plan.moved_in),
                moved_out=len(plan.moved_out),
            )
            tracer.counter("dump.bytes_written").inc(written)
            tracer.counter("dump.overflow_bytes").inc(overflow_bytes)

        if self.injector is not None and (
            failed_compression or deferred
        ):
            self.injector.log.degraded_dumps += 1

        self._previous_profile = actual_profile
        self._previous_ratios = ratios
        return DumpOutcome(
            plan=plan,
            schedule=schedule,
            execution=execution,
            actual_ratios=dict(
                zip(plan.fields, np.split(ratios, len(plan.fields)))
            ),
            actual_sizes=actual_sizes,
            overflow_bytes=overflow_bytes,
            degraded_blocks=len(failed_compression),
            deferred=tuple(deferred),
            overrun=overrun,
        )

    # ------------------------------------------------------------------
    # graceful degradation (fault campaigns only)
    # ------------------------------------------------------------------
    def _failed_compression_blocks(
        self, plan: DumpPlan, iteration: int
    ) -> set[int]:
        """Blocks whose compression task fails this dump (written raw)."""
        if self.injector is None or not self.config.use_compression:
            return set()
        failed: set[int] = set()
        for job in range(len(plan.predicted_bytes)):
            if self.injector.compression_fails(self.rank, iteration, job):
                failed.add(job)
                self.injector.record_fallback(
                    "raw-write",
                    plan.raw_bytes,
                    rank=self.rank,
                    iteration=iteration,
                    job=job,
                )
        return failed

    def _deadline_guard(
        self,
        plan: DumpPlan,
        iteration: int,
        actuals: ActualDurations,
        probe: ExecutionResult,
        actual_sizes: list[int],
    ) -> tuple[ActualDurations, list[tuple[int, int]], bool]:
        """Defer trailing I/O when the dump would overrun the next gap.

        Concealment promises the dump fits inside the compute interval;
        when the probe replay overruns ``T_n * (1 + frac)``, the I/O
        tasks ending past the deadline are pulled off this iteration's
        background thread (their durations zeroed in the returned
        actuals) and handed to the orchestrator to write during the next
        compute gap.  Only this rank's own blocks are deferrable
        (moved-in tasks write another rank's buffer).
        """
        deadline = actuals.length * (
            1.0 + self.config.overrun_deadline_frac
        )
        if probe.overall_time <= deadline:
            return actuals, [], False
        begin = probe.begin
        victims = sorted(
            idx
            for idx, (_, end) in probe.spans(1).items()
            if end - begin > deadline
            and idx < len(plan.predicted_bytes)
            and actuals.io_times[idx] > 0.0
        )
        if not victims:
            return actuals, [], True
        deferred: list[tuple[int, int]] = []
        io_times = list(actuals.io_times)
        for idx in victims:
            io_times[idx] = 0.0
            nbytes = actual_sizes[idx]
            deferred.append((idx, nbytes))
            self.injector.record_fallback(
                "defer-io",
                nbytes,
                rank=self.rank,
                iteration=iteration,
                job=idx,
            )
        return replace(actuals, io_times=tuple(io_times)), deferred, True
