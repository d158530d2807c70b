"""Crash consistency of the service: SIGKILL mid-campaign, then recover.

The service inherits the durability stack's guarantees: a campaign
submitted over HTTP with a server-side journal can lose its server to
``SIGKILL`` at any moment, and what remains on disk is never torn —
the journal scrubs clean, holds only committed iterations, and
``repro campaign --resume`` finishes the run offline.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.durability import find_stale_temps, read_journal, verify_journal
from repro.service import ServiceClient, ServiceUnavailableError

SRC_DIR = str(
    os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
)


def _spawn_server(tmp_path):
    """Start ``repro serve`` on an ephemeral port; return (proc, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 20.0
    port = None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if "listening on http://" in line:
            port = int(line.rsplit(":", 1)[1])
            break
    if port is None:
        proc.kill()
        pytest.fail("repro serve never printed its listening line")
    return proc, port


def test_sigkill_mid_campaign_leaves_no_torn_files(tmp_path):
    proc, port = _spawn_server(tmp_path)
    journal = tmp_path / "campaign.jsonl"
    try:
        client = ServiceClient("127.0.0.1", port, timeout=120.0)
        client.wait_healthy()

        # A long campaign so the kill lands mid-run; the request rides
        # a helper thread because the server dies before answering.
        def submit():
            try:
                client.campaign(
                    {
                        "app": "nyx",
                        "nodes": 2,
                        "ppn": 2,
                        "iterations": 500,
                        "seed": 3,
                        "journal": str(journal),
                    }
                )
            except ServiceUnavailableError:
                pass  # expected: the server was killed under us

        request = threading.Thread(target=submit, daemon=True)
        request.start()

        # Wait until the campaign has really committed work...
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if journal.exists() and journal.read_bytes().count(
                b'"commit"'
            ) >= 2:
                break
            time.sleep(0.02)
        else:
            pytest.fail("campaign never started committing iterations")

        # ...then kill the server dead, no cleanup handlers.
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=20.0)
        request.join(timeout=20.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=20.0)

    # Nothing torn anywhere: every temp file was renamed or abandoned
    # in a way the stale-temp sweep identifies.
    assert find_stale_temps(tmp_path) == []

    # The journal's committed prefix survived intact.
    records, _, _ = read_journal(journal)
    commits = [
        r["data"]["iteration"] for r in records if r["type"] == "commit"
    ]
    assert commits == list(range(len(commits)))
    assert len(commits) >= 2
    assert verify_journal(journal).ok

    # The interrupted campaign resumes to completion offline.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    resumed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "campaign",
            "--resume",
            str(journal),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    scrub = verify_journal(journal)
    assert scrub.ok
    records, _, torn = read_journal(journal)
    assert not torn
    assert any(r["type"] == "end" for r in records)


# ----------------------------------------------------------------------
# Ledger crash points: SIGKILL-equivalent crashes at the three instants
# whose recovery behaviour differs, then restart and prove convergence.
# ----------------------------------------------------------------------

from repro.resilience import CRASH_EXIT_CODE, SERVICE_CRASH_POINTS
from repro.durability.journal import read_journal as _read_records
from repro.resilience import RetryPolicy


def _spawn_ledger_server(tmp_path, extra_env=None):
    """``repro serve`` with a ledger; returns (proc, port, banner_lines)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env.pop("REPRO_SERVICE_CRASH", None)
    env.pop("REPRO_SERVICE_CRASH_TOKEN", None)
    if extra_env:
        env.update(extra_env)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--ledger",
            str(tmp_path / "requests.jsonl"),
        ],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30.0
    port, banner = None, []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        banner.append(line)
        if "listening on http://" in line:
            port = int(line.rsplit(":", 1)[1])
            break
    if port is None:
        proc.kill()
        pytest.fail(f"serve never bound; output: {''.join(banner)}")
    return proc, port, banner


def _solve_payload():
    from repro.core import instance_json_dict
    from tests.conftest import figure1_instance

    return {"instance": instance_json_dict(figure1_instance())}


def _baseline_solution():
    """The uninterrupted result the recovered service must reproduce."""
    from repro.service import SchedulingService, ServiceConfig

    service = SchedulingService(ServiceConfig(workers=1))
    try:
        status, body = service.solve(_solve_payload())
        assert status == 200
        return body["solution"]
    finally:
        service.shutdown()


def _scrub_ledger(ledger):
    """``repro verify`` must name the file a ledger and find it clean."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    scrub = subprocess.run(
        [sys.executable, "-m", "repro", "verify", str(ledger)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert scrub.returncode == 0, scrub.stdout + scrub.stderr
    assert "ledger" in scrub.stdout
    assert "issue:" not in scrub.stdout


def _crash_server(tmp_path, point, submit):
    """Serve armed to crash at ``point``; ``submit(client)`` must die."""
    proc, port, _ = _spawn_ledger_server(
        tmp_path, extra_env={"REPRO_SERVICE_CRASH": point}
    )
    try:
        client = ServiceClient("127.0.0.1", port, timeout=60.0)
        client.wait_healthy()
        with pytest.raises(ServiceUnavailableError):
            submit(client)
        proc.wait(timeout=30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=20.0)
    assert proc.returncode == CRASH_EXIT_CODE


@pytest.mark.parametrize("point", SERVICE_CRASH_POINTS)
def test_crash_point_recovers_without_loss_or_rerun(tmp_path, point):
    """A solve is a pure function: a crash anywhere before its close
    record leaves the ledger without it, and the client's retry after
    the restart solves it once more, to the baseline solution."""
    ledger = tmp_path / "requests.jsonl"
    baseline = _baseline_solution()

    # 1. A server armed to crash at the point under test.
    _crash_server(tmp_path, point, lambda c: c.solve(_solve_payload()))

    # 2. The ledger holds no entry for the solve.
    records, _, _ = _read_records(ledger)
    assert [r["type"] for r in records] == ["begin"]

    # 3. Restart without chaos: there is nothing to replay.
    proc, port, banner = _spawn_ledger_server(tmp_path)
    try:
        assert not any("recovered" in line for line in banner), banner
        client = ServiceClient("127.0.0.1", port, timeout=60.0)
        client.wait_healthy()
        status, status_body = client.status()
        assert status == 200
        assert status_body["requests"]["replayed"] == 0
        assert status_body["ledger"]["open"] == 0

        # 4. The client's retry returns the baseline.
        status, body = client.solve(_solve_payload())
        assert status == 200
        assert body["solution"] == baseline
        assert body["cache"] == "miss"
        status, status_body = client.status()
        assert status_body["queue"]["dispatched"] == 1
        assert client.shutdown()[0] == 200
        proc.wait(timeout=30.0)
        assert proc.returncode == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=20.0)

    # 5. The retry wrote the solve's one record, the reply itself.
    records, _, torn = _read_records(ledger)
    assert not torn
    assert [r["type"] for r in records] == ["begin", "close"]
    close = records[1]["data"]
    assert (close["kind"], close["status"]) == ("solve", 200)
    assert close["body"]["solution"] == baseline

    # 6. ``repro verify`` scrubs the ledger clean.
    _scrub_ledger(ledger)


_CAMPAIGN = {"app": "nyx", "nodes": 2, "ppn": 2, "iterations": 2, "seed": 7}


def test_campaign_post_admission_crash_replays_exactly_once(tmp_path):
    """A campaign keeps its write-ahead open record: killed right after
    admission, it is replayed once at the next start, and the client's
    retry is answered from the ledger without running it again."""
    from repro.service import SchedulingService, ServiceConfig

    ledger = tmp_path / "requests.jsonl"
    service = SchedulingService(ServiceConfig(workers=1))
    try:
        status, baseline = service.campaign(dict(_CAMPAIGN))
        assert status == 200
    finally:
        service.shutdown()

    _crash_server(
        tmp_path, "post-admission", lambda c: c.campaign(dict(_CAMPAIGN))
    )
    records, _, _ = _read_records(ledger)
    assert [r["type"] for r in records] == ["begin", "open"]
    assert records[1]["data"]["kind"] == "campaign"

    proc, port, banner = _spawn_ledger_server(tmp_path)
    try:
        assert any(
            "recovered 1 request(s)" in line and "1 campaign" in line
            for line in banner
        ), banner
        client = ServiceClient("127.0.0.1", port, timeout=120.0)
        client.wait_healthy()
        status, body = client.campaign(dict(_CAMPAIGN))
        assert status == 200
        for field in ("total_time", "mean_relative_overhead", "iterations"):
            assert body["campaign"][field] == baseline["campaign"][field]
        status, status_body = client.status()
        assert status_body["requests"]["replayed"] == 1
        assert status_body["requests"]["ledger_hits"] == 1
        assert status_body["ledger"]["open"] == 0
        assert client.shutdown()[0] == 200
        proc.wait(timeout=30.0)
        assert proc.returncode == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=20.0)

    records, _, torn = _read_records(ledger)
    assert not torn
    assert [r["type"] for r in records] == ["begin", "open", "close"]
    close = records[2]["data"]
    assert (close["kind"], close["status"]) == ("campaign", 200)
    assert close["body"] == body
    _scrub_ledger(ledger)


def test_supervised_crash_is_a_latency_blip_for_a_retrying_client(
    tmp_path,
):
    """The whole self-healing loop: watchdog + ledger + client retries.

    A supervised server crashes mid-dispatch (once, token-armed); the
    watchdog restarts it with nothing to replay (a solve leaves no
    ledger entry before its answer), and the retrying client's
    resubmission is solved again to the baseline answer — no error
    ever surfaces to the caller.
    """
    import socket

    baseline = _baseline_solution()
    token = tmp_path / "crash-token"
    token.write_text("")

    # A fixed port keeps the client's address stable across restarts.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env["REPRO_SERVICE_CRASH"] = "mid-dispatch"
    env["REPRO_SERVICE_CRASH_TOKEN"] = str(token)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--supervised",
            "--port",
            str(port),
            "--ledger",
            str(tmp_path / "requests.jsonl"),
            "--heartbeat-file",
            str(tmp_path / "heartbeat"),
            "--max-restarts",
            "3",
            "--restart-backoff",
            "0.1",
        ],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        client = ServiceClient(
            "127.0.0.1",
            port,
            timeout=60.0,
            retry=RetryPolicy(
                max_attempts=10,
                base_backoff_s=0.5,
                backoff_multiplier=1.5,
            ),
        )
        client.wait_healthy(timeout=60.0)
        status, body = client.solve(_solve_payload())
        assert status == 200
        assert body["solution"] == baseline
        assert not token.exists()  # the crash really fired

        status, _ = client.shutdown()
        assert status == 200
        proc.wait(timeout=60.0)
        output = proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=20.0)
    assert proc.returncode == 0, output
    # The watchdog really restarted the child: two spawn events, and a
    # second listening banner, with no replay in between.
    assert output.count("listening on http://") >= 2, output
    assert "child_died" in output
    assert "repro service recovered" not in output
    records, _, _ = _read_records(tmp_path / "requests.jsonl")
    closes = [r["data"] for r in records if r["type"] == "close"]
    assert [r["type"] for r in records] == ["begin", "close"]
    assert closes[0]["body"]["solution"] == baseline


def test_supervised_replay_may_outlast_the_hang_timeout(tmp_path):
    """Ledger replay runs before the server binds; the heartbeat beats
    through it, so a replay longer than ``--hang-timeout`` is not taken
    for a hang and the server comes up."""
    from repro.service import RequestLedger

    ledger = tmp_path / "requests.jsonl"
    with RequestLedger(ledger) as open_ledger:
        open_ledger.record_open(
            "slow-campaign",
            "campaign",
            {"app": "nyx", "nodes": 16, "ppn": 4, "iterations": 40},
        )
    hang_timeout = 2.0
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--supervised",
            "--port", "0",
            "--ledger", str(ledger),
            "--heartbeat-file", str(tmp_path / "heartbeat"),
            "--hang-timeout", str(hang_timeout),
            "--max-restarts", "0",
        ],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        lines = []
        port = None
        for line in proc.stdout:
            lines.append(line)
            if "listening on http://" in line:
                port = int(line.rsplit(":", 1)[1])
                break
        assert port is not None, "".join(lines)
        assert time.monotonic() - t0 > hang_timeout
        client = ServiceClient("127.0.0.1", port, timeout=30.0)
        assert client.health() == (200, {"ok": True, "draining": False})
        status, _ = client.shutdown()
        assert status == 200
        proc.wait(timeout=60.0)
        output = "".join(lines) + proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=20.0)
    assert proc.returncode == 0, output
    assert "hang_detected" not in output
    assert "recovered 1 request(s)" in output
    records, _, _ = _read_records(ledger)
    closes = [r["data"] for r in records if r["type"] == "close"]
    assert [(c["kind"], c["status"]) for c in closes] == [("campaign", 200)]
