"""Self-test of the repo benchmark (``python -m pytest perf -q``).

Runs the whole suite once at ``--smoke`` size — every workload, untraced
and traced, through the same child-process path the driver uses — and
checks the benchmark's own promises: every workload and metric named in
``BENCHMARK.json`` is emitted with its unit, spans nest and share
operation ids, stage rows plus the unattributed remainder equal the
wall, every end-to-end metric has a bound and a direction, and nothing
(shared-memory segment, work directory, child process) survives a run.
Not part of the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(PERF))

from spans import SpanRecorder, StageTable  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
#: Root span of each workload's operations.
ROOTS = {
    "dump_serial_nyx": "dump",
    "dump_pool_nyx": "dump",
    "dump_serial_warpx_8m": "dump",
    "restore_nyx": "restore",
    "campaign_sim": "iteration",
    "service_cold": "service.request",
    "service_hot": "service.request",
}


@pytest.fixture(scope="session")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = subprocess.run(
        [
            sys.executable,
            str(PERF / "run.py"),
            "--smoke",
            "--seconds",
            "0.3",
            "--trace",
            "--seed",
            "5",
            "--out",
            str(out),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_benchmark_json_meets_the_contract():
    assert set(BENCH) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert BENCH["paths"] == ["perf"]
    assert isinstance(BENCH["run_seconds"], int)
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = WORKLOADS + [
        m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]
    ]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_no_gain_is_claimed(suite):
    assert suite["claim"] is None
    assert suite["fingerprint"]["nproc"] == os.cpu_count()
    assert set(suite["workloads"]) == set(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_emits_every_metric_with_its_unit(suite, name):
    entry = suite["workloads"][name]
    assert entry["correct"] and entry["failed"] == 0
    assert entry["attempted"] >= 1
    assert entry["info"]["ops"] >= 3
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in BENCH[kind]}
        emitted = {k: v["unit"] for k, v in entry[kind].items()}
        assert emitted == declared
    for key, metric in entry["end_to_end"].items():
        assert metric["value"] > 0, key


def test_every_per_layer_metric_is_resolved_by_some_workload(suite):
    resolved = set()
    for entry in suite["workloads"].values():
        resolved.update(entry["trace_info"]["resolved"])
    assert resolved == {m["name"] for m in BENCH["per_layer"]}


def _rows(name: str) -> list[dict]:
    path = PERF / "results" / f"trace_{name}.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_nest_and_share_operation_ids(suite, name):
    rows = _rows(name)
    assert rows and all(row["workload"] == name for row in rows)
    by_id = {row["id"]: row for row in rows}
    assert len(by_id) == len(rows)
    roots = [row for row in rows if row["parent"] is None]
    assert roots and all(row["name"] == ROOTS[name] for row in roots)
    assert len({row["op"] for row in roots}) == len(roots)
    slack = 1e-3  # the server's clock is not ours
    for row in rows:
        assert row["t1"] >= row["t0"]
        if row["parent"] is None:
            continue
        parent = by_id[row["parent"]]
        assert row["op"] == parent["op"]
        assert row["t0"] >= parent["t0"] - slack
        assert row["t1"] <= parent["t1"] + slack


@pytest.mark.parametrize("name", WORKLOADS)
def test_stage_rows_plus_unattributed_equal_the_wall(suite, name):
    recorder = SpanRecorder()
    recorder.rows = [
        [r["id"], r["parent"], r["op"], r["name"], r["t0"], r["t1"]]
        for r in _rows(name)
    ]
    table = StageTable(recorder, ROOTS[name])
    attributed = sum(table.total(stage) for stage in table.stages())
    assert attributed + table.total("unattributed") == pytest.approx(
        table.total_wall, rel=1e-9
    )
    reported = suite["workloads"][name]["per_layer"]
    assert reported["trace.unattributed_frac"]["value"] == pytest.approx(
        table.unattributed_frac, rel=1e-6
    )


def test_nothing_survives_a_run(suite):
    shm = Path("/dev/shm")
    leaked = (
        [p.name for p in shm.iterdir() if p.name.startswith("repro-shm-")]
        if shm.is_dir()
        else []
    )
    assert leaked == []
    work = PERF / ".work"
    assert not work.exists() or list(work.iterdir()) == []
    survivors = []
    for proc in Path("/proc").iterdir():
        if not proc.name.isdigit() or int(proc.name) == os.getpid():
            continue
        try:
            cmdline = (proc / "cmdline").read_bytes().decode(errors="replace")
        except OSError:
            continue
        if str(PERF) in cmdline and "pytest" not in cmdline:
            survivors.append(cmdline.replace("\0", " "))
    assert survivors == []


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and perf/: non-zero exit, no result line."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        PERF,
        tmp_path / "perf",
        ignore=shutil.ignore_patterns(".work", "__pycache__", "trace_*"),
    )
    done = subprocess.run(
        [
            sys.executable,
            "perf/run.py",
            "--workload",
            WORKLOADS[0],
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
