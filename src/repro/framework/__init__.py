"""End-to-end framework: per-process runtime, multi-node campaigns, and
the three evaluated solutions (baseline / async-I/O-only / ours)."""

from .baselines import async_io_config, baseline_config, ours_config
from .config import FrameworkConfig
from .orchestrator import CampaignResult, CampaignRunner, IterationRecord
from .report import (
    Comparison,
    campaign_result_to_dict,
    compare,
    format_table,
    write_campaign_report,
)
from .runtime import BlockPlan, DumpOutcome, DumpPlan, ProcessRuntime
from .snapshot import SnapshotStats, load_snapshot, save_snapshot
from .textplot import line_chart

__all__ = [
    "FrameworkConfig",
    "ProcessRuntime",
    "BlockPlan",
    "DumpPlan",
    "DumpOutcome",
    "CampaignRunner",
    "CampaignResult",
    "IterationRecord",
    "baseline_config",
    "async_io_config",
    "ours_config",
    "Comparison",
    "compare",
    "format_table",
    "campaign_result_to_dict",
    "write_campaign_report",
    "save_snapshot",
    "load_snapshot",
    "SnapshotStats",
    "line_chart",
]
