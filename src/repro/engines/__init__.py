"""Execution engines: one engine class, interchangeable data planes.

One :class:`CampaignSpec` describes a campaign; :func:`run_campaign`
executes it under the one :class:`ExecutionEngine` (``prepare ->
run_iteration -> finish -> finalize -> report``).  The engine owns the
modelled control plane, so journal records, resume, fault injection,
and every report behave the same regardless of backend (see
``docs/architecture.md``); the spec's ``engine``, one of
:data:`ENGINES`, only picks the data plane:

* ``sim`` — the historical single-process modelled backend
  (closed-form replay); with a ``data_dir`` each dump is also executed
  by the :class:`SerialDataPlane`, which generates the next field on one
  helper thread while the current one compresses.
* ``process`` — every rank generated and compressed for real inside a
  worker process of the :class:`PoolDataPlane`, its payloads streamed
  to the wall-clock async writer so compute, compression, and I/O
  genuinely overlap.

The pool plane's workers belong to a :class:`WorkerSupervisor` (one
pipe per worker; deadlines as the one straggler rule, a retry of exactly
the task a dead worker held, serial fallback), so a killed or hung
worker degrades the run instead of wedging it;
what it absorbed is counted once, in :class:`SupervisorStats` (see
``docs/resilience.md``).
"""

from .base import (
    EngineError,
    EngineReport,
    ExecutionEngine,
    get_engine,
    run_campaign,
)
from .dataplane import DataPlaneStats, PoolDataPlane, SerialDataPlane
from .shm import SHM_PREFIX, SegmentRegistry, active_segments, attach_view
from .spec import APP_NAMES, ENGINES, SOLUTIONS, CampaignSpec
from ..resilience.report import SupervisorStats
from .supervisor import WorkerSupervisor

__all__ = [
    "APP_NAMES",
    "ENGINES",
    "SOLUTIONS",
    "SHM_PREFIX",
    "CampaignSpec",
    "DataPlaneStats",
    "EngineError",
    "EngineReport",
    "ExecutionEngine",
    "PoolDataPlane",
    "SegmentRegistry",
    "SerialDataPlane",
    "SupervisorStats",
    "WorkerSupervisor",
    "active_segments",
    "attach_view",
    "get_engine",
    "run_campaign",
]
