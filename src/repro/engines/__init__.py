"""Execution engines: interchangeable backends that run a campaign.

One :class:`CampaignSpec` describes a campaign; :func:`run_campaign`
executes it under whichever :class:`ExecutionEngine` the spec names
(``prepare -> run_iteration -> finalize -> report``):

* ``sim`` (:class:`SimulatorEngine`) — the historical single-process
  modelled backend (closed-form replay).
* ``process`` (:class:`ProcessPoolEngine`) — every rank generated and
  compressed for real inside a worker process, its payloads streamed to
  the wall-clock async writer so compute, compression, and I/O
  genuinely overlap.

Both run the identical modelled control plane, so journal records,
resume, fault injection, and every report behave the same regardless of
backend; see ``docs/architecture.md``.

The process engine's rank tasks run under a :class:`WorkerSupervisor`
(deadlines, bounded retries, straggler speculation, serial fallback), so
a killed or hung pool worker degrades the run instead of wedging it; see
``docs/resilience.md``.
"""

from .base import (
    EngineError,
    EngineReport,
    ExecutionEngine,
    get_engine,
    list_engines,
    register_engine,
    run_campaign,
)
from .dataplane import DataPlaneStats, PoolDataPlane, SerialDataPlane
from .process import ProcessPoolEngine
from .shm import SHM_PREFIX, SegmentRegistry, active_segments, attach_view
from .sim import SimulatorEngine
from .spec import APP_NAMES, SOLUTIONS, CampaignSpec
from .supervisor import SupervisorStats, WorkerSupervisor

__all__ = [
    "APP_NAMES",
    "SOLUTIONS",
    "SHM_PREFIX",
    "CampaignSpec",
    "DataPlaneStats",
    "EngineError",
    "EngineReport",
    "ExecutionEngine",
    "PoolDataPlane",
    "ProcessPoolEngine",
    "SegmentRegistry",
    "SerialDataPlane",
    "SimulatorEngine",
    "SupervisorStats",
    "WorkerSupervisor",
    "active_segments",
    "attach_view",
    "get_engine",
    "list_engines",
    "register_engine",
    "run_campaign",
]
