"""Crash-point chaos harness: kill a campaign subprocess, resume, compare.

Each case runs ``repro campaign`` in a subprocess with a fault spec that
arms one seeded :class:`ProcessKillFault` crash point.  The subprocess
must die with :data:`CRASH_EXIT_CODE`; ``--resume`` must then finish the
campaign and produce a report byte-identical to an uninterrupted
baseline run of the same seeds.  This is the recovery gate the CI
``chaos-smoke`` job enforces.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.durability import find_stale_temps, read_journal
from repro.resilience import CRASH_EXIT_CODE

SRC_DIR = str(os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))))

CAMPAIGN_ARGS = [
    "campaign",
    "--app", "nyx",
    "--nodes", "2",
    "--ppn", "2",
    "--iterations", "6",
    "--solution", "ours",
    "--seed", "3",
]

BASE_SPEC = {"seed": 7, "write_error": {"probability": 0.2}}

# (iteration, point) pairs covering every crash point in the closed set.
CRASH_CASES = [
    (1, "plan"),
    (2, "pre-commit"),
    (3, "torn-commit"),
    (3, "post-commit"),
    (-1, "report"),
]


def _run_repro(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _campaign(tmp_path, spec, name):
    spec_path = tmp_path / f"{name}.json"
    spec_path.write_text(json.dumps(spec))
    journal = tmp_path / f"{name}.jsonl"
    report = tmp_path / f"{name}.report.json"
    proc = _run_repro(
        CAMPAIGN_ARGS
        + [
            "--faults", str(spec_path),
            "--journal", str(journal),
            "--report-out", str(report),
        ],
        tmp_path,
    )
    return proc, journal, report


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One uninterrupted run: the report every resumed run must match."""
    tmp_path = tmp_path_factory.mktemp("baseline")
    proc, journal, report = _campaign(tmp_path, BASE_SPEC, "base")
    assert proc.returncode == 0, proc.stderr
    return report.read_text()


@pytest.mark.parametrize(
    "iteration,point", CRASH_CASES, ids=[p for _, p in CRASH_CASES]
)
def test_kill_then_resume_recovers(tmp_path, baseline, iteration, point):
    spec = dict(
        BASE_SPEC,
        process_kill={"iteration": iteration, "point": point},
    )
    proc, journal, report = _campaign(tmp_path, spec, "kill")

    # The armed crash point must actually fire and take the process down.
    assert proc.returncode == CRASH_EXIT_CODE, (
        f"{point}@{iteration}: expected exit {CRASH_EXIT_CODE}, "
        f"got {proc.returncode}\nstdout: {proc.stdout}\n"
        f"stderr: {proc.stderr}"
    )
    assert journal.exists()

    # Resume must finish cleanly from the journal alone.
    resumed = _run_repro(
        ["campaign", "--resume", str(journal), "--report-out", str(report)],
        tmp_path,
    )
    assert resumed.returncode == 0, (
        f"{point}@{iteration}: resume failed\nstdout: {resumed.stdout}\n"
        f"stderr: {resumed.stderr}"
    )

    # No lost committed iterations, no divergence: the resumed report is
    # byte-identical to the uninterrupted baseline.
    assert report.read_text() == baseline

    # The journal scrubs clean and is complete.
    scrub = _run_repro(["verify", str(journal)], tmp_path)
    assert scrub.returncode == 0, scrub.stdout
    assert "complete" in scrub.stdout

    # No torn files anywhere: every temp was either renamed or cleaned.
    assert find_stale_temps(tmp_path) == []


def test_killed_journal_holds_only_committed_iterations(tmp_path):
    """After a post-commit kill at iteration 3, commits 0..3 survive."""
    spec = dict(
        BASE_SPEC, process_kill={"iteration": 3, "point": "post-commit"}
    )
    proc, journal, _ = _campaign(tmp_path, spec, "kill")
    assert proc.returncode == CRASH_EXIT_CODE
    records, _, torn = read_journal(journal)
    commits = [r["data"]["iteration"] for r in records if r["type"] == "commit"]
    assert commits == [0, 1, 2, 3]
    assert not torn


def test_torn_commit_leaves_verifiably_torn_tail(tmp_path):
    spec = dict(
        BASE_SPEC, process_kill={"iteration": 2, "point": "torn-commit"}
    )
    proc, journal, _ = _campaign(tmp_path, spec, "kill")
    assert proc.returncode == CRASH_EXIT_CODE
    blob = journal.read_bytes()
    assert not blob.endswith(b"\n")  # the append genuinely tore
    records, _, torn = read_journal(journal)
    assert torn
    commits = [r["data"]["iteration"] for r in records if r["type"] == "commit"]
    assert commits == [0, 1]  # iteration 2's commit never landed


def test_resume_of_clean_run_is_idempotent(tmp_path, baseline):
    """Resuming a complete journal replays everything and changes nothing."""
    proc, journal, report = _campaign(tmp_path, BASE_SPEC, "clean")
    assert proc.returncode == 0, proc.stderr
    first = report.read_text()
    assert first == baseline
    before = journal.read_bytes()
    resumed = _run_repro(
        ["campaign", "--resume", str(journal), "--report-out", str(report)],
        tmp_path,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert journal.read_bytes() == before
    assert report.read_text() == first
