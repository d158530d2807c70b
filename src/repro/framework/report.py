"""Result aggregation and text reports for solution comparisons."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from ..durability.atomic import DurableFile, find_stale_temps
from .orchestrator import CampaignResult

__all__ = [
    "Comparison",
    "compare",
    "format_table",
    "campaign_result_to_dict",
    "write_campaign_report",
]


@dataclass(frozen=True)
class Comparison:
    """Ours vs. the two reference solutions, paper-style."""

    baseline: CampaignResult
    previous: CampaignResult
    ours: CampaignResult

    @property
    def improvement_over_baseline(self) -> float:
        """I/O-overhead reduction factor vs the synchronous baseline."""
        return _factor(
            self.baseline.mean_relative_overhead,
            self.ours.mean_relative_overhead,
        )

    @property
    def improvement_over_previous(self) -> float:
        """I/O-overhead reduction factor vs async-I/O-only."""
        return _factor(
            self.previous.mean_relative_overhead,
            self.ours.mean_relative_overhead,
        )


def _factor(reference: float, ours: float) -> float:
    if ours <= 0:
        return float("inf") if reference > 0 else 1.0
    return reference / ours


def compare(
    baseline: CampaignResult,
    previous: CampaignResult,
    ours: CampaignResult,
) -> Comparison:
    """Bundle three campaigns into the paper's standard comparison."""
    return Comparison(baseline=baseline, previous=previous, ours=ours)


def campaign_result_to_dict(result: CampaignResult) -> dict:
    """A JSON-safe, fully deterministic view of one campaign result.

    Every value derives from the simulation (no wall-clock, no paths),
    so a resumed run's report compares byte-for-byte equal to the
    uninterrupted run's — the chaos harness's recovery gate.
    """
    doc: dict = {
        "solution": result.solution,
        "records": [
            {
                "iteration": int(r.iteration),
                "dumped": bool(r.dumped),
                "computation_s": float(r.computation_s),
                "overall_s": float(r.overall_s),
                "per_rank_overhead": [
                    float(v) for v in r.per_rank_overhead
                ],
            }
            for r in result.records
        ],
        "metrics": {
            key: float(value)
            for key, value in sorted(result.metrics.items())
        },
    }
    if result.resilience is not None:
        doc["resilience"] = {
            key: float(value)
            for key, value in sorted(
                result.resilience.as_metrics().items()
            )
        }
    return doc


def write_campaign_report(
    path,
    result: CampaignResult,
    *,
    fsync: bool = True,
    before_commit=None,
) -> dict:
    """Atomically write a campaign report JSON; returns the document.

    Stale ``*.tmp.*`` leftovers for the same report (a crash between
    temp-write and rename) are cleaned up first, so a recovered run
    leaves the directory pristine.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    base = os.path.basename(path)
    if os.path.isdir(directory):
        for stale in find_stale_temps(directory):
            if os.path.basename(stale).startswith(base + ".tmp."):
                os.unlink(stale)
    doc = campaign_result_to_dict(result)
    with DurableFile(
        path, "w", fsync=fsync, before_commit=before_commit
    ) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def format_table(
    rows: list[tuple[str, ...]], headers: tuple[str, ...]
) -> str:
    """Render rows as a plain text table (benchmark harness output)."""
    table = [headers, *rows]
    widths = [
        max(len(str(row[col])) for row in table)
        for col in range(len(headers))
    ]
    lines = []
    for i, row in enumerate(table):
        line = "  ".join(
            str(cell).ljust(width) for cell, width in zip(row, widths)
        )
        lines.append(line.rstrip())
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
