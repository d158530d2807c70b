"""Johnson's rule and its two extensions to unavailability intervals.

Johnson's algorithm (1954) solves the two-machine flow shop optimally when
both machines are always available: jobs whose first-machine time is no
longer than their second-machine time (set ``M1``) run first, sorted by
non-decreasing first-machine time; the remaining jobs (``M2``) follow,
sorted by non-increasing second-machine time.

With obstacles the problem becomes NP-complete, so the paper keeps
Johnson's *order* and changes only the placement rule:

* :func:`ext_johnson` places tasks in Johnson order strictly after all
  previously placed tasks (list scheduling, no backfilling);
* :func:`ext_johnson_backfill` additionally lets a task slide into an
  earlier idle gap when it fits, which never delays a placed task.

The paper's evaluation (Table 1) finds ExtJohnson+BF the best trade-off of
schedule quality and scheduling overhead, and adopts it for the framework.
"""

from __future__ import annotations

import numpy as np

from .executor import schedule_orders
from .model import ProblemInstance, Schedule

__all__ = ["johnson_order", "ext_johnson", "ext_johnson_backfill"]


def johnson_order(instance: ProblemInstance) -> list[int]:
    """Job indices in Johnson's optimal no-obstacle order.

    One ``np.lexsort`` over the job columns, keyed by (``M1``/``M2``
    group, ``c`` in ``M1`` or ``-c'`` in ``M2``); the sort is stable, so
    ties inside a group keep generation order and the order is
    deterministic.
    """
    c, io = instance.compression_time, instance.io_time
    in_m2 = c > io
    return np.lexsort((np.where(in_m2, -io, c), in_m2)).tolist()


def ext_johnson(instance: ProblemInstance) -> Schedule:
    """Johnson order, earliest placement after already-scheduled tasks."""
    order = johnson_order(instance)
    return schedule_orders(
        instance, order, order, backfill=False, algorithm="ExtJohnson"
    )


def ext_johnson_backfill(instance: ProblemInstance) -> Schedule:
    """Johnson order with backfilling into idle gaps (the adopted default)."""
    order = johnson_order(instance)
    return schedule_orders(
        instance, order, order, backfill=True, algorithm="ExtJohnson+BF"
    )
