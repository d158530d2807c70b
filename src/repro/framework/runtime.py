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
from dataclasses import dataclass, field

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
    """Everything a process plans before a dump executes."""

    iteration: int
    blocks: list[BlockPlan]
    jobs: list[Job] = field(default_factory=list)
    moved_in: list[IoTaskRef] = field(default_factory=list)
    moved_out: set[int] = field(default_factory=set)

    @property
    def total_predicted_io(self) -> float:
        return sum(b.predicted_io_s for b in self.blocks)

    def io_task_refs(self, rank: int) -> list[IoTaskRef]:
        """This rank's I/O tasks as balancer inputs."""
        return [
            IoTaskRef(
                owner=rank,
                job_index=b.job_index,
                duration=b.predicted_io_s,
            )
            for b in self.blocks
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
        self._previous_ratios: dict[str, np.ndarray] | None = None
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

    def _io_task_timer(
        self, mean_block_bytes: float
    ) -> Callable[[int], float]:
        """Write-model time of one block, as a function of its bytes.

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
        return lambda nbytes: (
            latency + nbytes / bandwidth if nbytes > 0 else 0.0
        )

    def _io_task_time(self, nbytes: int, mean_block_bytes: float) -> float:
        """One block's write-model time (see :meth:`_io_task_timer`)."""
        return self._io_task_timer(mean_block_bytes)(nbytes)

    def plan_dump(self, iteration: int) -> DumpPlan:
        """Plan every block of this dump with predicted values."""
        nb = self.blocks_per_field()
        field_bytes = self.app.partition_nbytes()
        raw_block = field_bytes // nb
        use_compression = self.config.use_compression

        oracle_ratios = (
            self.app.block_ratios(
                self.rank, iteration, nb, self.node_size
            )
            if (self.config.oracle_scheduling and use_compression)
            else None
        )
        predicted_sizes: list[tuple[str, int, int, float]] = []
        for spec in self.app.fields:
            for b in range(nb):
                if use_compression:
                    if oracle_ratios is not None:
                        ratio = float(oracle_ratios[spec.name][b])
                    else:
                        ratio = self._predicted_ratio(
                            spec.name, b, spec.base_ratio
                        )
                    size = max(1, int(raw_block / ratio))
                else:
                    ratio = 1.0
                    size = raw_block
                predicted_sizes.append((spec.name, b, size, ratio))

        mean_size = float(np.mean([s for _, _, s, _ in predicted_sizes]))
        io_task_time = self._io_task_timer(mean_size)
        blocks: list[BlockPlan] = []
        for job_index, (fname, b, size, ratio) in enumerate(predicted_sizes):
            if use_compression:
                comp_s = self.config.compression_model.compression_time(
                    raw_block, shared_tree=self.config.use_shared_tree
                )
            else:
                comp_s = 0.0
            blocks.append(
                BlockPlan(
                    job_index=job_index,
                    field_name=fname,
                    block_index=b,
                    raw_bytes=raw_block,
                    predicted_ratio=ratio,
                    predicted_bytes=size,
                    predicted_compression_s=comp_s,
                    predicted_io_s=io_task_time(size),
                )
            )
        return DumpPlan(iteration=iteration, blocks=blocks)

    def _predicted_ratio(
        self, field_name: str, block: int, default: float
    ) -> float:
        if self._previous_ratios is None:
            return default
        ratios = self._previous_ratios.get(field_name)
        if ratios is None or block >= len(ratios):
            return default
        return float(ratios[block])

    # ------------------------------------------------------------------
    # balancing hooks (called by the node orchestrator)
    # ------------------------------------------------------------------
    def apply_balancing(
        self,
        plan: DumpPlan,
        kept: list[IoTaskRef],
        moved_in: list[IoTaskRef],
    ) -> None:
        """Record the balancer's verdict on this plan."""
        kept_ids = {ref.job_index for ref in kept if ref.owner == self.rank}
        plan.moved_out = {
            b.job_index for b in plan.blocks if b.job_index not in kept_ids
        }
        plan.moved_in = list(moved_in)

    # ------------------------------------------------------------------
    # scheduling + execution
    # ------------------------------------------------------------------
    def build_jobs(self, plan: DumpPlan) -> list[Job]:
        """Assemble the flow-shop jobs for this plan.

        Own blocks keep their compression task; a moved-out block's I/O
        time becomes zero (another process writes it).  Moved-in tasks
        become zero-compression pseudo-jobs whose ``io_release`` is the
        donor's predicted compression completion (prefix-sum estimate).
        """
        jobs: list[Job] = []
        comp_prefix = 0.0
        prefix_by_index: dict[int, float] = {}
        for b in plan.blocks:
            comp_prefix += b.predicted_compression_s
            prefix_by_index[b.job_index] = comp_prefix
            io_s = 0.0 if b.job_index in plan.moved_out else b.predicted_io_s
            jobs.append(
                Job(
                    index=b.job_index,
                    compression_time=b.predicted_compression_s,
                    io_time=io_s,
                    label=f"{b.field_name}[{b.block_index}]",
                )
            )
        next_index = len(jobs)
        for ref in plan.moved_in:
            # The donor compresses in its own generation order; its
            # prefix sum of compression times lower-bounds readiness.
            release = prefix_by_index.get(ref.job_index, 0.0)
            jobs.append(
                Job(
                    index=next_index,
                    compression_time=0.0,
                    io_time=ref.duration,
                    label=f"moved-in:{ref.owner}:{ref.job_index}",
                    io_release=release,
                )
            )
            next_index += 1
        plan.jobs = jobs
        return jobs

    def make_instance(self, plan: DumpPlan) -> ProblemInstance:
        """The scheduling instance, predicted from the previous iteration."""
        if self._previous_profile is None:
            raise LookupError(
                "no previous iteration observed; run one iteration first"
            )
        profile = self._previous_profile
        jobs = plan.jobs or self.build_jobs(plan)
        main, background = self._obstacles(
            profile.length,
            profile.main_obstacles,
            profile.background_obstacles,
        )
        return ProblemInstance(
            begin=0.0,
            end=profile.length,
            jobs=tuple(jobs),
            main_obstacles=main,
            background_obstacles=background,
        )

    def _obstacles(
        self,
        length: float,
        main: tuple[Interval, ...],
        background: tuple[Interval, ...],
    ) -> tuple[tuple[Interval, ...], tuple[Interval, ...]]:
        """Obstacle layouts for the configured solution style.

        Prior-style solutions do not overlap with computation: the main
        thread is one solid obstacle.  The fully synchronous baseline
        additionally blocks the background thread, pushing every write
        after the iteration.
        """
        if not self.config.overlap_with_computation:
            main = (Interval(0.0, length),)
        if not self.config.async_background:
            background = (Interval(0.0, length),)
        return main, background

    def execute_dump(
        self,
        plan: DumpPlan,
        iteration: int,
        moved_in_actual_s: list[float] | None = None,
    ) -> DumpOutcome:
        """Schedule the plan and replay it against actual conditions."""
        if self.config.oracle_scheduling:
            # Section 5.2 mode: the scheduler sees the iteration's actual
            # obstacle layout rather than the previous iteration's.
            self._previous_profile = self.app.iteration_profile(iteration)
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

        actual_profile = self.app.iteration_profile(iteration)
        nb = self.blocks_per_field()
        if self.config.use_compression:
            actual_ratios = self.app.block_ratios(
                self.rank, iteration, nb, self.node_size
            )
        else:
            actual_ratios = {
                spec.name: np.ones(nb) for spec in self.app.fields
            }

        set_ctx = getattr(self.noise, "set_fault_context", None)
        if set_ctx is not None:
            set_ctx(iteration)
        failed_compression = self._failed_compression_blocks(
            plan, iteration
        )
        if failed_compression:
            # The degraded blocks really went out raw; make the history
            # predictor (and next iteration's balancer inputs) see it.
            actual_ratios = {
                name: ratios.copy()
                for name, ratios in actual_ratios.items()
            }

        io_task_time = self._io_task_timer(
            float(np.mean([b.predicted_bytes for b in plan.blocks]))
        )
        actual_sizes: list[int] = []
        compression_times: list[float] = []
        io_times: list[float] = []
        for b in plan.blocks:
            if b.job_index in failed_compression:
                # Graceful degradation: the block's compression task
                # failed, so its raw bytes are written instead — the
                # failed attempt still burns main-thread time.
                actual_ratios[b.field_name][b.block_index] = 1.0
                size = b.raw_bytes
            else:
                ratio = float(actual_ratios[b.field_name][b.block_index])
                size = max(1, int(b.raw_bytes / ratio))
            actual_sizes.append(size)
            compression_times.append(
                self.noise.perturb_compression_time(
                    b.predicted_compression_s
                )
            )
            if b.job_index in plan.moved_out:
                io_times.append(0.0)
            else:
                io_times.append(
                    self.noise.perturb_io_time(io_task_time(size))
                )
        if moved_in_actual_s is None:
            moved_in_actual_s = [ref.duration for ref in plan.moved_in]
        for actual in moved_in_actual_s:
            compression_times.append(0.0)
            io_times.append(self.noise.perturb_io_time(actual))

        actual_main, actual_bg = self._obstacles(
            actual_profile.length,
            actual_profile.main_obstacles,
            actual_profile.background_obstacles,
        )
        actuals = ActualDurations(
            length=actual_profile.length,
            main_obstacles=actual_main,
            background_obstacles=actual_bg,
            compression_times=tuple(compression_times),
            io_times=tuple(io_times),
        )
        # The stall draws and the deadline guard are armed only when a
        # modelled fault can fire (a plan of only real-plane or crash
        # faults changes nothing).
        injector = self.injector
        if injector is not None and not injector.plan.any_faults:
            injector = None
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
        deferred_indices = {idx for idx, _ in deferred}
        overflow_bytes = sum(
            max(0, size - b.predicted_bytes)
            for b, size in zip(plan.blocks, actual_sizes)
            if b.job_index not in plan.moved_out
            and b.job_index not in deferred_indices
        )
        if overflow_bytes > 0 and self.config.use_compression:
            duration = self.config.io_model.write_time(overflow_bytes)
            tail_ends = [iv.end for iv in execution.io.values()]
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
            predicted_bytes = sum(b.predicted_bytes for b in plan.blocks)
            written = sum(
                size
                for b, size in zip(plan.blocks, actual_sizes)
                if b.job_index not in plan.moved_out
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
        self._previous_ratios = actual_ratios
        return DumpOutcome(
            plan=plan,
            schedule=schedule,
            execution=execution,
            actual_ratios=actual_ratios,
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
        for b in plan.blocks:
            if self.injector.compression_fails(
                self.rank, iteration, b.job_index
            ):
                failed.add(b.job_index)
                self.injector.record_fallback(
                    "raw-write",
                    b.raw_bytes,
                    rank=self.rank,
                    iteration=iteration,
                    job=b.job_index,
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
            for idx, iv in probe.io.items()
            if iv.end - begin > deadline
            and idx < len(plan.blocks)
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
        trimmed = ActualDurations(
            length=actuals.length,
            main_obstacles=actuals.main_obstacles,
            background_obstacles=actuals.background_obstacles,
            compression_times=actuals.compression_times,
            io_times=tuple(io_times),
        )
        return trimmed, deferred, True
