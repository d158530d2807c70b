"""Golden campaigns that reach every stage of the modelled dump.

``data/campaign_goldens.json`` holds, per campaign, the
``(computation_s, overall_s, per_rank_overhead)`` tuple of every
iteration, the journal's SHA-256 and (under faults) the resilience
report text.  The shapes cover what the 2x2-rank clock golden in
``test_orchestrator.py`` cannot: nyx 4x4 over 30 iterations crosses the
BEGINNING, MIDDLE and END stages with balancing moves from its second
dump on, a warpx campaign has its own block layout, and a seeded fault
campaign draws straggler, bandwidth, stall, write-error and
compression-failure faults with moves in its END stage.

Tier-1 runs seeds 23 and 901; the same shapes on seeds 3301-3303 are in
the file too and run with::

    python -m tests.framework.test_campaign_goldens 3301 3302 3303
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.engines import CampaignSpec, run_campaign

_GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "campaign_goldens.json").read_text()
)
_TIER1 = (
    "nyx-4x4x30-23",
    "nyx-4x4x30-901",
    "warpx-2x4x30-23",
    "faults-nyx-1x4x30-23",
)


def check_case(name: str, tmp_dir: Path) -> None:
    """Run one golden campaign and compare records, journal and report."""
    case = _GOLDENS["cases"][name]
    spec = dict(case["spec"])
    spec["faults"] = _GOLDENS["faults"] if spec["faults"] else None
    path = tmp_dir / f"{name}.journal"
    report = run_campaign(
        CampaignSpec(solution="ours", engine="sim", **spec),
        journal_path=str(path),
    )
    report.close()
    result = report.result
    records = [
        [r.computation_s, r.overall_s, list(r.per_rank_overhead)]
        for r in result.records
    ]
    for i, (mine, golden) in enumerate(zip(records, case["records"])):
        assert mine == golden, f"{name}: iteration {i} differs"
    assert len(records) == len(case["records"]), name
    resilience = (
        None if result.resilience is None else result.resilience.format()
    )
    assert resilience == case["resilience"], name
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == case["journal_sha256"]
    ), name


@pytest.mark.parametrize("name", _TIER1)
def test_campaign_matches_golden(name, tmp_path):
    check_case(name, tmp_path)


def test_tier1_cases_cover_moves_and_faults():
    """The fixture names the shapes the docstring promises."""
    cases = _GOLDENS["cases"]
    assert all(name in cases for name in _TIER1)
    assert {cases[n]["spec"]["app"] for n in _TIER1} == {"nyx", "warpx"}
    assert any(cases[n]["resilience"] for n in _TIER1)


if __name__ == "__main__":
    import tempfile

    seeds = {int(arg) for arg in sys.argv[1:]}
    chosen = [
        name
        for name, case in _GOLDENS["cases"].items()
        if not seeds or case["spec"]["seed"] in seeds
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for name in chosen:
            check_case(name, Path(tmp))
            print(f"golden ok: {name}")
