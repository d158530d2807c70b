"""The scheduling algorithms (Section 3.3 + the exact solvers).

The set is the paper's and is fixed: the six Section 3.3 heuristics,
then the exact solvers.  Entries carry metadata — :class:`AlgorithmInfo`
records the paper name, whether the solver is exact, and whether it
needs a time limit — so the :func:`~repro.core.solve.solve` facade can
dispatch any of them through one call.  ``ALGORITHMS`` maps the six
heuristic names to their bare callables, ``get_algorithm`` returns the
callable itself, and ``list_algorithms()`` returns the six heuristics in
the paper's presentation order.

Both tables are read-only mappings, so the scheduling service's worker
threads read them without a lock.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from types import MappingProxyType

from .bruteforce import MAX_JOBS as EXHAUSTIVE_MAX_JOBS, exhaustive_schedule
from .greedy import one_list_greedy, two_lists_greedy
from .ilp import ilp_schedule
from .johnson import ext_johnson, ext_johnson_backfill
from .list_scheduling import (
    generation_list_schedule,
    generation_list_schedule_backfill,
)
from .model import ProblemInstance, Schedule

__all__ = [
    "ALGORITHMS",
    "REGISTRY",
    "AlgorithmInfo",
    "DEFAULT_ALGORITHM",
    "get_algorithm",
    "get_algorithm_info",
    "list_algorithms",
]

Scheduler = Callable[[ProblemInstance], Schedule]


@dataclass(frozen=True)
class AlgorithmInfo:
    """One registry entry: the callable plus dispatch metadata.

    ``exact`` marks optimal solvers (the Appendix A ILP, the exhaustive
    list-schedule search) as opposed to the Section 3.3 heuristics;
    ``needs_time_limit`` marks solvers whose signature takes a
    ``time_limit`` keyword and whose result may be a non-schedule
    wrapper (the ILP's :class:`~repro.core.ilp.IlpResult`);
    ``max_jobs`` is the largest instance the solver accepts (``None``:
    any size), so a caller can refuse a bigger one up front.
    """

    name: str
    func: Callable
    exact: bool = False
    needs_time_limit: bool = False
    max_jobs: int | None = None


#: Every algorithm, heuristics first in the paper's presentation order,
#: then the exact solvers.
REGISTRY: MappingProxyType[str, AlgorithmInfo] = MappingProxyType(
    {
        info.name: info
        for info in (
            AlgorithmInfo("ExtJohnson", ext_johnson),
            AlgorithmInfo("ExtJohnson+BF", ext_johnson_backfill),
            AlgorithmInfo("GenerationListSchedule", generation_list_schedule),
            AlgorithmInfo(
                "GenerationListSchedule+BF", generation_list_schedule_backfill
            ),
            AlgorithmInfo("OneListGreedy", one_list_greedy),
            AlgorithmInfo("TwoListsGreedy", two_lists_greedy),
            AlgorithmInfo(
                "Exhaustive",
                exhaustive_schedule,
                exact=True,
                max_jobs=EXHAUSTIVE_MAX_JOBS,
            ),
            AlgorithmInfo(
                "ILP", ilp_schedule, exact=True, needs_time_limit=True
            ),
        )
    }
)

#: The six Section 3.3 heuristics as bare callables.
ALGORITHMS: MappingProxyType[str, Scheduler] = MappingProxyType(
    {name: info.func for name, info in REGISTRY.items() if not info.exact}
)

#: The algorithm the paper adopts after Table 1.
DEFAULT_ALGORITHM = "ExtJohnson+BF"


def _lookup(table: MappingProxyType, name: str):
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise KeyError(f"unknown algorithm {name!r}; known: {known}") from None


def get_algorithm(name: str) -> Scheduler:
    """Look up a heuristic's callable by its paper name; raises
    ``KeyError`` (exact solvers are reachable via
    :func:`get_algorithm_info` or :func:`~repro.core.solve.solve`)."""
    return _lookup(ALGORITHMS, name)


def get_algorithm_info(name: str) -> AlgorithmInfo:
    """Look up any algorithm's metadata entry by name."""
    return _lookup(REGISTRY, name)


def list_algorithms(include_exact: bool = False) -> list[str]:
    """Algorithm names, in the paper's presentation order.

    By default only the six heuristics; ``include_exact=True`` appends
    the exact solvers.
    """
    return list(REGISTRY if include_exact else ALGORITHMS)
