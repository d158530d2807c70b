"""Campaign orchestration: many processes, many nodes, many iterations.

Drives one simulated application run end to end: every iteration all
ranks observe the actual obstacle layout; on dumping iterations each rank
plans its blocks, nodes run the intra-node I/O balancer over the predicted
I/O tasks (Section 3.4), every rank schedules and replays its dump, and
the iteration's cost is the *slowest rank's* cost (independent writes make
the stragglers decisive, Section 4.4).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..apps.base import ApplicationModel
from ..core.balancing import IoTaskRef, balance_io_moves
from ..io.filesystem import SimulatedFileSystem
from ..resilience.faults import FaultInjector
from ..resilience.report import ResilienceReport
from ..resilience.retry import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    WriteFailedError,
)
from ..simulator.node import ClusterSpec
from ..simulator.noise import FaultAwareNoiseModel, NoiseModel
from ..telemetry import NULL_TRACER, NullTracer
from .config import FrameworkConfig
from .runtime import DumpOutcome, DumpPlan, ProcessRuntime

__all__ = ["IterationRecord", "CampaignResult", "CampaignRunner"]


@dataclass(frozen=True)
class IterationRecord:
    """One iteration's aggregate outcome across all ranks."""

    iteration: int
    dumped: bool
    computation_s: float
    overall_s: float
    per_rank_overhead: tuple[float, ...] = ()

    @property
    def overhead_s(self) -> float:
        return max(0.0, self.overall_s - self.computation_s)

    @property
    def relative_overhead(self) -> float:
        if self.computation_s <= 0:
            return 0.0
        return self.overhead_s / self.computation_s


@dataclass
class CampaignResult:
    """A full run's per-iteration records plus summary statistics.

    ``metrics`` is the aggregated per-iteration/per-rank telemetry —
    iteration and dump counts, mean/worst overheads, and one
    ``overhead.rank<N>.mean`` entry per rank — filled by
    :meth:`CampaignRunner.run` whether or not a tracer records.
    """

    solution: str
    records: list[IterationRecord] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    resilience: ResilienceReport | None = None

    def dump_records(self) -> list[IterationRecord]:
        return [r for r in self.records if r.dumped]

    @property
    def mean_relative_overhead(self) -> float:
        dumps = self.dump_records()
        if not dumps:
            return 0.0
        return float(np.mean([r.relative_overhead for r in dumps]))

    @property
    def total_time(self) -> float:
        return sum(r.overall_s for r in self.records)

    @property
    def total_computation(self) -> float:
        return sum(r.computation_s for r in self.records)

    @property
    def total_overhead(self) -> float:
        return sum(r.overhead_s for r in self.records)


class CampaignRunner:
    """Run one (application, cluster, solution) campaign."""

    def __init__(
        self,
        app: ApplicationModel,
        cluster: ClusterSpec,
        config: FrameworkConfig,
        solution: str = "ours",
        seed: int = 0,
        noise: NoiseModel | None = None,
        tracer: NullTracer = NULL_TRACER,
        injector: FaultInjector | None = None,
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        self.app = app
        self.cluster = cluster
        self.config = config
        self.solution = solution
        self.tracer = tracer
        self.injector = injector
        io_model = (
            config.io_model.with_processes(cluster.processes_per_node)
            .with_nodes(cluster.num_nodes)
            .with_subfiles(config.num_subfiles)
        )
        self.config = dataclasses.replace(config, io_model=io_model)

        def rank_noise(rank: int) -> NoiseModel:
            if noise is not None:
                return noise
            rank_seed = seed * 100_003 + rank
            if injector is not None:
                return FaultAwareNoiseModel(
                    injector=injector, rank=rank, seed=rank_seed
                )
            return NoiseModel(seed=rank_seed)

        self.runtimes = [
            ProcessRuntime(
                rank,
                app,
                self.config,
                node_size=cluster.processes_per_node,
                noise=rank_noise(rank),
                tracer=tracer,
                injector=injector,
            )
            for rank in range(cluster.total_processes)
        ]
        #: Modelled time elapsed so far: the sum of every iteration's cost.
        self.now = 0.0
        #: Fault campaigns only: the replay has timed each block write,
        #: this asks whether it fails and times the deferred flushes.
        self.filesystem = (
            None
            if injector is None
            else SimulatedFileSystem(
                self.config.io_model, injector, tracer=tracer, retry=retry
            )
        )
        self.last_outcomes: list[DumpOutcome] | None = None
        #: (rank, nbytes) payloads pushed to the next compute gap by the
        #: deadline guard or by writes that exhausted their retries.
        self._deferred: list[tuple[int, int]] = []

    # ------------------------------------------------------------------
    def run(self, num_iterations: int) -> CampaignResult:
        """Simulate ``num_iterations``; dumps start at iteration 1 so the
        first iteration seeds the history predictor.  Not journaled:
        :func:`repro.engines.run_campaign` is the one driver loop that
        brackets iterations with write-ahead records (hooks below).
        """
        result = self.start_result()
        for iteration in range(num_iterations):
            result.records.append(self.run_one(iteration))
        self.finish(result)
        return result

    # ------------------------------------------------------------------
    # engine hooks: the execution engines (repro.engines) drive the same
    # control plane one iteration at a time through these, so journal
    # records and results stay byte-identical with a plain run().
    # ------------------------------------------------------------------
    def start_result(self) -> CampaignResult:
        """A fresh result for this runner's solution."""
        return CampaignResult(solution=self.solution)

    def run_one(self, iteration: int) -> IterationRecord:
        """Execute one iteration (with its telemetry span)."""
        t0 = self.now
        record = self._run_iteration(iteration)
        self.tracer.span(
            "iteration",
            t0=t0,
            t1=self.now,
            iteration=iteration,
            dumped=record.dumped,
            overhead_s=record.overhead_s,
            solution=self.solution,
        )
        return record

    def finish(self, result: CampaignResult) -> CampaignResult:
        """Aggregate metrics after the last iteration."""
        self._aggregate_metrics(result)
        return result

    def journal_end_data(
        self, result: CampaignResult, num_iterations: int
    ) -> dict:
        """The campaign-complete journal payload."""
        return {
            "iterations": int(num_iterations),
            "total_time_s": float(result.total_time),
            "total_overhead_s": float(result.total_overhead),
        }

    def journal_plan_data(self, iteration: int) -> dict:
        """The write-ahead view of one iteration, before it executes."""
        return {
            "solution": self.solution,
            "dump": self._is_dump(iteration),
            "deferred": [
                [int(rank), int(nbytes)] for rank, nbytes in self._deferred
            ],
        }

    def journal_commit_data(self, record: IterationRecord) -> dict:
        """What actually happened, as plain JSON-safe Python values."""
        data: dict = {
            "record": {
                "dumped": bool(record.dumped),
                "computation_s": float(record.computation_s),
                "overall_s": float(record.overall_s),
                "per_rank_overhead": [
                    float(v) for v in record.per_rank_overhead
                ],
            },
            "state": {
                "sim_now": float(self.now),
                "deferred": [
                    [int(rank), int(nbytes)]
                    for rank, nbytes in self._deferred
                ],
            },
        }
        if record.dumped and self.last_outcomes is not None:
            data["ranks"] = [
                {
                    "planned_bytes": int(o.plan.predicted_bytes.sum()),
                    "actual_bytes": int(sum(o.actual_sizes)),
                    "jobs": len(o.plan.predicted_bytes),
                }
                for o in self.last_outcomes
            ]
        return data

    def _aggregate_metrics(self, result: CampaignResult) -> None:
        """Fill ``result.metrics`` and mirror the values into gauges."""
        dumps = result.dump_records()
        per_rank = np.array(
            [r.per_rank_overhead for r in dumps], dtype=np.float64
        )
        metrics = {
            "iterations": float(len(result.records)),
            "dumps": float(len(dumps)),
            "total_time_s": float(result.total_time),
            "total_overhead_s": float(result.total_overhead),
            "mean_relative_overhead": float(
                result.mean_relative_overhead
            ),
            "worst_iteration_overhead": float(
                max((r.relative_overhead for r in dumps), default=0.0)
            ),
        }
        if per_rank.size:
            means = per_rank.mean(axis=0)
            metrics["worst_rank_overhead"] = float(per_rank.max())
            for rank, mean in enumerate(means):
                metrics[f"overhead.rank{rank}.mean"] = float(mean)
        if self.injector is not None:
            self.injector.log.pending_deferred_bytes = sum(
                nbytes for _, nbytes in self._deferred
            )
            result.resilience = self.injector.log.report()
            metrics.update(result.resilience.as_metrics())
        result.metrics = metrics
        if self.tracer.enabled:
            for name, value in metrics.items():
                self.tracer.gauge(f"campaign.{name}").set(value)

    # ------------------------------------------------------------------
    def _is_dump(self, iteration: int) -> bool:
        """Iteration 0 only computes; dumps start at 1, every period."""
        period = self.config.dump_period
        return iteration >= 1 and (iteration - 1) % period == 0

    def _run_iteration(self, iteration: int) -> IterationRecord:
        profile = self.app.iteration_profile(iteration)
        is_dump = self._is_dump(iteration)
        # Payloads deferred by earlier iterations catch up in this
        # iteration's compute gap: they ride the background thread and
        # only cost overhead if they outlast everything else.
        flush_s = self._flush_deferred()
        if not is_dump:
            for rt in self.runtimes:
                rt.observe_iteration(profile)
            overall = max(profile.length, flush_s)
            self.now += overall
            return IterationRecord(
                iteration=iteration,
                dumped=False,
                computation_s=profile.length,
                overall_s=overall,
            )

        plans = [rt.plan_dump(iteration) for rt in self.runtimes]
        if self.config.use_balancing:
            self._balance_node_io(plans)
        # A donor's blocks are sized and timed once, however many move.
        donor_io_s: dict[int, list[float]] = {}
        outcomes: list[DumpOutcome] = []
        for rt, plan in zip(self.runtimes, plans):
            owners = {ref.owner for ref in plan.moved_in}
            for owner in owners - donor_io_s.keys():
                donor = self.runtimes[owner]
                donor_io_s[owner] = donor.actual_io_s(plans[owner]).tolist()
            moved_actual = [
                donor_io_s[ref.owner][ref.job_index] for ref in plan.moved_in
            ]
            outcomes.append(
                rt.execute_dump(plan, iteration, moved_actual, profile)
            )
        self.last_outcomes = outcomes
        if self.injector is not None:
            for rank in range(len(outcomes)):
                self._write_blocks(rank, outcomes)
            if any(o.overrun for o in outcomes):
                self.injector.log.overrun_iterations += 1

        computation = max(o.execution.computation_length for o in outcomes)
        overall = max(
            max(o.execution.overall_time for o in outcomes), flush_s
        )
        self.now += overall
        return IterationRecord(
            iteration=iteration,
            dumped=True,
            computation_s=computation,
            overall_s=overall,
            per_rank_overhead=tuple(
                o.execution.relative_overhead for o in outcomes
            ),
        )

    # ------------------------------------------------------------------
    # graceful degradation plumbing (fault campaigns only)
    # ------------------------------------------------------------------
    def _write_blocks(self, rank: int, outcomes: list[DumpOutcome]) -> None:
        """One rank's block writes, in order: the blocks it kept and did
        not defer, then the ones moved in, at the donor's actual size.
        Each write retries on its own, and one that exhausts its retries
        waits for the next gap, as do the blocks the deadline guard
        deferred."""
        outcome = outcomes[rank]
        written = np.ones(len(outcome.actual_sizes), dtype=bool)
        written[list(outcome.plan.moved_out)] = False
        written[[idx for idx, _ in outcome.deferred]] = False
        sizes = np.asarray(outcome.actual_sizes)[written].tolist()
        sizes += [
            outcomes[ref.owner].actual_sizes[ref.job_index]
            for ref in outcome.plan.moved_in
        ]
        for nbytes in sizes:
            try:
                self.filesystem.write(rank, nbytes)
            except WriteFailedError:
                self._deferred.append((rank, nbytes))
                self.injector.record_fallback(
                    "defer-write", nbytes, rank=rank
                )
        self._deferred += [(rank, nbytes) for _, nbytes in outcome.deferred]

    def _flush_deferred(self) -> float:
        """Drain deferred payloads during a compute gap.

        Returns the slowest rank's flush time (writes of different ranks
        proceed independently; within a rank they are sequential).  A
        payload that fails again stays queued for the following gap.
        Only a fault campaign defers, so only it gets here.
        """
        if not self._deferred:
            return 0.0
        pending, self._deferred = self._deferred, []
        per_rank: dict[int, float] = {}
        for rank, nbytes in pending:
            try:
                duration = self.filesystem.write(rank, nbytes)
            except WriteFailedError:
                self._deferred.append((rank, nbytes))
                continue
            per_rank[rank] = per_rank.get(rank, 0.0) + duration
            if self.tracer.enabled:
                self.tracer.event(
                    "runtime.deferred_flush", rank=rank, nbytes=nbytes
                )
        self.injector.log.pending_deferred_bytes = sum(
            nbytes for _, nbytes in self._deferred
        )
        return max(per_rank.values(), default=0.0)

    # ------------------------------------------------------------------
    def _balance_node_io(self, plans: list[DumpPlan]) -> None:
        """Run the Section 3.4 balancer node by node."""
        for node in range(self.cluster.num_nodes):
            ranks = self.cluster.ranks_of_node(node)
            durations = [plans[r].predicted_io_s.tolist() for r in ranks]
            moves = balance_io_moves(
                durations, self.config.balancing_threshold
            )
            for rank, (moved_out, moved_in) in zip(ranks, moves):
                plans[rank].moved_out = moved_out
                plans[rank].moved_in = [
                    IoTaskRef(ranks[q], i, durations[q][i])
                    for q, i in moved_in
                ]
