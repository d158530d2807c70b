"""The control plane alone: a journalled, modelled 64-rank campaign."""

from __future__ import annotations

import os
import time

from harness import Calibrator, p50
from spans import SpanRecorder, StageTable

from repro.core import solve
from repro.durability.journal import CampaignJournal
from repro.durability.verify import verify_journal
from repro.engines import CampaignSpec, get_engine, run_campaign
from repro.framework.orchestrator import CampaignRunner

from .base import CheckResult, TraceResult, Workload

#: Iterations of the plain ``run_campaign()`` the records are held to.
_CHECK_ITERATIONS = 4
#: Iterations ``framework.concealed_frac`` is defined over.
_CONCEALED_ITERATIONS = 12
_SCHEDULER = "ExtJohnson+BF"


class CampaignSim(Workload):
    """An operation is one journalled iteration, driven exactly as
    ``run_campaign`` drives it: ``record_plan`` -> ``run_iteration`` ->
    ``record_commit`` with the journal's fsync on.  No data plane."""

    name = "campaign_sim"

    def __init__(self, seed, work, smoke=False) -> None:
        super().__init__(seed, work, smoke)
        self.engine = None
        self.journal = None
        self._setups = 0
        self.records = []

    def _spec(self, **overrides) -> CampaignSpec:
        kwargs = dict(
            app="nyx",
            nodes=2 if self.smoke else 16,
            ppn=4,
            iterations=100_000,
            solution="ours",
            engine="sim",
            seed=self.seed,
        )
        kwargs.update(overrides)
        return CampaignSpec(**kwargs)

    def setup(self) -> None:
        self._setups += 1
        self.spec = self._spec()
        self.engine = get_engine("sim")(self.spec)
        self.journal = CampaignJournal.create(
            self.work / f"campaign{self._setups}.journal",
            self.spec.journal_header(),
            fsync=self.spec.resolved_config().journal_fsync,
        )
        self.engine.prepare()
        self.records = []
        self.iteration = 0
        # Iteration 0 never dumps; it seeds the history predictor.
        self.op()

    def op(self) -> None:
        engine, journal, i = self.engine, self.journal, self.iteration
        journal.record_plan(i, engine.journal_plan_data(i))
        record = engine.run_iteration(i)
        journal.record_commit(i, engine.journal_commit_data(record))
        self.records.append(record)
        self.iteration += 1

    def release(self) -> None:
        engine, self.engine = self.engine, None
        journal, self.journal = self.journal, None
        if journal is not None:
            journal.close()
        if engine is not None:
            engine.finalize()

    def io_bytes_per_op(self) -> float:
        return os.path.getsize(self.journal.path) / len(self.records)

    def check(self) -> CheckResult:
        result = CheckResult()
        report = verify_journal(self.journal.path)
        result.expect(report.ok, f"journal scrub: {report.format()}")
        result.expect(
            report.checked == 1 + 2 * len(self.records),
            f"journal holds {report.checked} records for "
            f"{len(self.records)} iterations",
        )
        n = min(_CHECK_ITERATIONS, len(self.records))
        plain = run_campaign(self._spec(iterations=n)).result
        for mine, theirs in zip(self.records, plain.records):
            result.expect(
                mine == theirs,
                f"iteration {mine.iteration}: journalled run {mine} != "
                f"plain run_campaign() {theirs}",
            )
        result.expect(
            sum(r.overall_s for r in self.records[:n]) == plain.total_time,
            f"total_time over {n} iterations differs from run_campaign()",
        )
        return result

    # -- traced run ----------------------------------------------------
    def _stage_probe(self, iterations: int) -> dict[str, float]:
        """The per-rank public stages of a dump, one call at a time."""
        spec = self.spec
        runner = CampaignRunner(
            spec.application(),
            spec.cluster_spec(),
            spec.resolved_config(),
            solution=spec.solution,
            seed=spec.seed,
        )
        runner.run_one(0)
        plan_ms, instance_ms, schedule_ms, execute_ms, jobs = [], [], [], [], []
        clock = time.perf_counter
        for iteration in range(1, iterations + 1):
            for rt in runner.runtimes:
                t0 = clock()
                plan = rt.plan_dump(iteration)
                t1 = clock()
                rt.build_jobs(plan)
                instance = rt.make_instance(plan)
                t2 = clock()
                solve(instance, _SCHEDULER)
                t3 = clock()
                rt.execute_dump(plan, iteration, None)
                t4 = clock()
                plan_ms.append((t1 - t0) * 1e3)
                instance_ms.append((t2 - t1) * 1e3)
                schedule_ms.append((t3 - t2) * 1e3)
                execute_ms.append((t4 - t3) * 1e3)
                jobs.append(len(instance.jobs))
        return {
            "framework.plan_dump_ms": p50(plan_ms),
            "framework.make_instance_ms": p50(instance_ms),
            "framework.execute_dump_ms": p50(execute_ms),
            "core.schedule_ms": p50(schedule_ms),
            "core.jobs_per_instance": sum(jobs) / len(jobs),
            # one schedule per rank and dump
            "core.solves_per_iter": float(len(runner.runtimes)),
        }

    def trace(self, seconds: float, cal: Calibrator) -> TraceResult:
        untraced_p50 = self.untraced_p50(seconds / 4, cal)

        recorder = SpanRecorder()
        span = recorder.span
        engine, journal = self.engine, self.journal
        concealed = 4 if self.smoke else _CONCEALED_ITERATIONS
        deadline = time.perf_counter() + seconds / 2
        size_before = os.path.getsize(journal.path)
        first_traced = self.iteration
        while (
            self.iteration < concealed
            or time.perf_counter() < deadline
        ):
            i = self.iteration
            with span("iteration", op=i):
                with span("framework.journal_data"):
                    plan = engine.journal_plan_data(i)
                with span("durability.journal_append"):
                    journal.record_plan(i, plan)
                with span("framework.run_one"):
                    record = engine.run_iteration(i)
                with span("framework.journal_data"):
                    commit = engine.journal_commit_data(record)
                with span("durability.journal_append"):
                    journal.record_commit(i, commit)
            self.records.append(record)
            self.iteration += 1
        traced = self.iteration - first_traced
        table = StageTable(recorder, "iteration")

        n = concealed
        ours = sum(r.overhead_s for r in self.records[:n])
        baseline = run_campaign(
            self._spec(iterations=n, solution="baseline")
        ).result
        metrics = {
            "framework.run_one_ms": 1e3
            * p50(table.per_op_values("framework.run_one")),
            "durability.journal_append_ms": 1e3
            * p50(table.per_op_values("durability.journal_append")),
            "durability.journal_records": 2.0,
            "durability.journal_bytes": (
                os.path.getsize(journal.path) - size_before
            )
            / traced,
            "framework.concealed_frac": 1.0 - ours / baseline.total_overhead,
            **table.trace_metrics(untraced_p50),
        }
        metrics.update(self._stage_probe(1))
        return TraceResult(metrics, recorder, table)
