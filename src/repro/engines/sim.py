"""`SimulatorEngine`: the modelled backend, as an engine.

A thin adapter over the existing :mod:`repro.simulator` stack: the
modelled control plane (:class:`~repro.framework.orchestrator.
CampaignRunner`) does everything, exactly as ``CampaignRunner.run()``
always has — same journal records, same metrics, same fault hooks.

When the spec enables the real data plane (``data_dir`` set), each dump
iteration additionally generates, compresses, CRC-stamps, and writes
every rank's partition — **serially, in this process**.  That is the
single-core reference the process-pool engine's overlap is measured
against, and the oracle the cross-engine equivalence suite compares
block CRC32Cs with.
"""

from __future__ import annotations

from ..framework.orchestrator import (
    CampaignResult,
    CampaignRunner,
    IterationRecord,
)
from ..resilience.faults import FaultInjector
from ..resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..telemetry import NULL_TRACER, NullTracer
from .base import EngineError, EngineReport, ExecutionEngine, register_engine
from .dataplane import SerialDataPlane
from .spec import CampaignSpec

__all__ = ["SimulatorEngine"]


@register_engine
class SimulatorEngine(ExecutionEngine):
    """Single-process modelled execution (the historical default)."""

    name = "sim"

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        tracer: NullTracer = NULL_TRACER,
        injector: FaultInjector | None = None,
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        super().__init__(
            spec, tracer=tracer, injector=injector, retry=retry
        )
        self.runner = CampaignRunner(
            spec.application(),
            spec.cluster_spec(),
            spec.resolved_config(),
            solution=spec.solution,
            seed=spec.seed,
            tracer=tracer.bind(solution=spec.solution),
            injector=injector,
            retry=retry,
        )
        self.result: CampaignResult | None = None
        self.dataplane: SerialDataPlane | None = None
        self._finished = False

    # -- data plane wiring (overridden by the process engine) ----------
    def _dataplane_spec(self) -> CampaignSpec:
        return self.spec

    def _make_dataplane(self) -> SerialDataPlane:
        return SerialDataPlane(
            self._dataplane_spec(),
            tracer=self.tracer,
            injector=self.injector,
            retry=self.retry,
        )

    # -- protocol ------------------------------------------------------
    def prepare(self) -> None:
        """Start a fresh result; bring up the data plane if enabled."""
        self.result = self.runner.start_result()
        self._finished = False
        if self._dataplane_spec().data_dir is not None:
            self.dataplane = self._make_dataplane()

    def run_iteration(self, iteration: int) -> IterationRecord:
        """One modelled iteration; dumps also hit the real data plane."""
        if self.result is None:
            raise EngineError("run_iteration() before prepare()")
        record = self.runner.run_one(iteration)
        self.result.records.append(record)
        if self.dataplane is not None and record.dumped:
            self.dataplane.dump(iteration)
        return record

    def finish(self) -> CampaignResult:
        """Aggregate the campaign metrics (idempotent)."""
        if self.result is None:
            raise EngineError("finish() before prepare()")
        if not self._finished:
            self.runner.finish(self.result)
            self._finished = True
        return self.result

    def finalize(self) -> None:
        """Orderly shutdown of the data plane (idempotent)."""
        dataplane, self.dataplane = self.dataplane, None
        if dataplane is not None:
            dataplane.close()
            self.dataplane = dataplane  # stats stay reachable

    def abort(self) -> None:
        """Hard shutdown: abort any half-written container."""
        dataplane, self.dataplane = self.dataplane, None
        if dataplane is not None:
            dataplane.abort()
            self.dataplane = dataplane

    def report(self, wall_time_s: float) -> EngineReport:
        """The run's report (modelled result + wall-clock facts)."""
        if self.result is None:
            raise EngineError("report() before prepare()")
        return EngineReport(
            engine=self.name,
            spec=self.spec,
            result=self.finish(),
            wall_time_s=float(wall_time_s),
            data=None if self.dataplane is None else self.dataplane.stats,
        )

    # -- journal hooks: pure control plane, identical across engines --
    def journal_plan_data(self, iteration: int) -> dict:
        """Write-ahead plan payload (delegates to the control plane)."""
        return self.runner.journal_plan_data(iteration)

    def journal_commit_data(self, record: IterationRecord) -> dict:
        """Post-iteration commit payload (delegates to the control plane)."""
        return self.runner.journal_commit_data(record)

    def journal_end_data(self) -> dict:
        """Campaign-complete payload (delegates to the control plane)."""
        return self.runner.journal_end_data(
            self.finish(), self.spec.iterations
        )
