"""The seven benchmark workloads (see ``perf/README.md`` for why each)."""

from __future__ import annotations

from .base import CheckResult, TraceResult, Workload
from .campaign import CampaignSim
from .dump import DumpPoolNyx, DumpSerialNyx, DumpSerialWarpx8m
from .restore import RestoreNyx
from .service import ServiceCold, ServiceHot

__all__ = ["WORKLOADS", "Workload", "CheckResult", "TraceResult"]

WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        DumpSerialNyx,
        DumpPoolNyx,
        DumpSerialWarpx8m,
        RestoreNyx,
        CampaignSim,
        ServiceCold,
        ServiceHot,
    )
}
