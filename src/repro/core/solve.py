"""Unified scheduling facade: one entry point for every solver.

``solve(instance, "ExtJohnson+BF")`` runs any algorithm of the table — the
six Section 3.3 heuristics, the Appendix A ILP, or the exhaustive
list-schedule search — and returns a common :class:`SolveResult` carrying
the schedule, its I/O makespan, lazily computed concealment stats, and
the measured scheduling wall time (Table 1's "scheduling cost" column).
The direct callables remain available and produce byte-identical
schedules; the facade only adds timing, metadata dispatch, and optional
tracing on top.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..telemetry import NULL_TRACER, NullTracer
from .analysis import ScheduleStats, schedule_stats
from .executor import trace_schedule
from .ilp import IlpResult
from .model import ProblemInstance, Schedule
from .registry import DEFAULT_ALGORITHM, get_algorithm_info

__all__ = ["SolveResult", "solve"]

#: Default ILP budget when the caller gives none (matches the CLI).
_DEFAULT_TIME_LIMIT = 60.0


@dataclass
class SolveResult:
    """Outcome of one :func:`solve` call, uniform across solvers.

    ``schedule`` is ``None`` only when an exact solver fails (ILP timeout
    or infeasibility), in which case ``status`` says why.  ``makespan``
    is the schedule's I/O makespan — the objective every algorithm
    minimises.  ``stats`` (concealment statistics) are computed on first
    access so the facade adds no overhead to tight benchmarking loops.
    ``detail`` carries solver-specific extras (the ILP fills objective
    and problem size); it is empty for the heuristics.

    ``engine`` names the execution backend the schedule is destined for
    (one of :data:`repro.engines.ENGINES`); ``wall_time`` is real
    scheduling time on the clock while :attr:`modelled_time` is the
    schedule's simulated I/O makespan — the wall/modelled split every
    engine report makes.  ``telemetry`` is the tracer the solve ran
    under, so callers can pull the emitted spans without threading the
    handle separately.
    """

    schedule: Schedule | None
    makespan: float | None
    algorithm: str
    wall_time: float
    status: str = "ok"
    detail: dict = field(default_factory=dict)
    engine: str = "sim"
    telemetry: NullTracer = field(
        default=NULL_TRACER, repr=False, compare=False
    )
    _stats: ScheduleStats | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def stats(self) -> ScheduleStats | None:
        """Concealment statistics of the schedule (lazily computed)."""
        if self._stats is None and self.schedule is not None:
            self._stats = schedule_stats(self.schedule)
        return self._stats

    @property
    def modelled_time(self) -> float | None:
        """The schedule's modelled (simulated) I/O makespan."""
        return self.makespan


def solve(
    instance: ProblemInstance,
    algorithm: str = DEFAULT_ALGORITHM,
    *,
    tracer: NullTracer = NULL_TRACER,
    time_limit: float | None = None,
    engine: str = "sim",
) -> SolveResult:
    """Run ``algorithm`` on ``instance`` behind one uniform interface.

    Args:
        instance: the iteration's scheduling instance.
        algorithm: any :func:`~repro.core.registry.list_algorithms`
            name (``include_exact=True`` names included); raises
            ``KeyError`` for unknown names.
        tracer: when recording, the run emits one ``solve`` span (wall
            clock) plus the planned task layout as machine spans.
        time_limit: seconds budget for solvers that take one (the ILP);
            ignored by the heuristics.
        engine: execution backend the schedule targets (a
            :data:`repro.engines.ENGINES` name); scheduling itself
            is backend-independent, but the result records the engine so
            downstream replay/runs know where it is headed.
    """
    if engine != "sim":
        # Lazy validation: repro.engines imports the framework, which
        # imports this module — only the non-default path pays for it.
        from ..engines import get_engine

        get_engine(engine)
    info = get_algorithm_info(algorithm)
    t0 = time.perf_counter()
    status = "ok"
    detail: dict = {}
    if info.needs_time_limit:
        limit = _DEFAULT_TIME_LIMIT if time_limit is None else time_limit
        outcome = info.func(instance, time_limit=limit)
        if isinstance(outcome, IlpResult):
            schedule, status = outcome.schedule, outcome.status
            detail = {
                "objective": outcome.objective,
                "num_variables": outcome.num_variables,
                "num_constraints": outcome.num_constraints,
            }
        else:  # pragma: no cover - future exact solvers
            schedule = outcome
    else:
        schedule = info.func(instance)
    wall_time = time.perf_counter() - t0

    makespan = None if schedule is None else schedule.io_makespan
    if tracer.enabled:
        if schedule is not None:
            trace_schedule(tracer, schedule, algorithm=algorithm)
        tracer.span(
            "solve",
            t0=t0,
            t1=t0 + wall_time,
            algorithm=algorithm,
            status=status,
            makespan=makespan,
            num_jobs=instance.num_jobs,
        )
    return SolveResult(
        schedule=schedule,
        makespan=makespan,
        algorithm=algorithm,
        wall_time=wall_time,
        status=status,
        detail=detail,
        engine=engine,
        telemetry=tracer,
    )
