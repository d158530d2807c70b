"""Task scheduling for concealing compression and I/O inside computation.

This package is the paper's primary contribution (Section 3): a
two-machine flow-shop scheduler with deterministic unavailability
intervals and non-resumable jobs, six heuristics, the exact ILP, and the
intra-node I/O workload balancer.
"""

from .analysis import ScheduleStats, lower_bound, schedule_stats
from .balancing import (
    BalanceResult,
    IoTaskRef,
    balance_io_moves,
    balance_io_workloads,
)
from .bruteforce import exhaustive_schedule
from .executor import schedule_orders
from .greedy import one_list_greedy, two_lists_greedy
from .ilp import IlpResult, ilp_schedule
from .johnson import ext_johnson, ext_johnson_backfill, johnson_order
from .list_scheduling import (
    generation_list_schedule,
    generation_list_schedule_backfill,
)
from .model import (
    EPSILON,
    Interval,
    Job,
    ProblemInstance,
    Schedule,
    ScheduleError,
    figure1_instance,
)
from .executor import trace_schedule
from .registry import (
    ALGORITHMS,
    REGISTRY,
    AlgorithmInfo,
    DEFAULT_ALGORITHM,
    get_algorithm,
    get_algorithm_info,
    list_algorithms,
)
from .solve import SolveResult, solve
from .serialization import (
    instance_fingerprint,
    instance_from_json,
    instance_json_dict,
    instance_to_json,
    schedule_from_json,
    schedule_to_json,
)
from .timeline import MachineTimeline

__all__ = [
    "EPSILON",
    "Interval",
    "Job",
    "ProblemInstance",
    "Schedule",
    "ScheduleError",
    "figure1_instance",
    "MachineTimeline",
    "ScheduleStats",
    "lower_bound",
    "schedule_stats",
    "schedule_orders",
    "exhaustive_schedule",
    "johnson_order",
    "ext_johnson",
    "ext_johnson_backfill",
    "generation_list_schedule",
    "generation_list_schedule_backfill",
    "one_list_greedy",
    "two_lists_greedy",
    "instance_json_dict",
    "instance_to_json",
    "instance_from_json",
    "instance_fingerprint",
    "schedule_to_json",
    "schedule_from_json",
    "ilp_schedule",
    "IlpResult",
    "balance_io_workloads",
    "balance_io_moves",
    "BalanceResult",
    "IoTaskRef",
    "ALGORITHMS",
    "REGISTRY",
    "AlgorithmInfo",
    "DEFAULT_ALGORITHM",
    "get_algorithm",
    "get_algorithm_info",
    "list_algorithms",
    "SolveResult",
    "solve",
    "trace_schedule",
]
