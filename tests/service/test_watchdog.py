"""The watchdog in isolation: fake children, real processes, no solver.

Children here are tiny ``python -c`` scripts, so crash loops, clean
exits, and hangs are all fast and deterministic.  The full supervised
server with a real crash is exercised in ``test_chaos.py``.
"""

import sys
import threading
import time

import pytest

from repro.resilience import RetryPolicy
from repro.service import Watchdog

FAST_BACKOFF = RetryPolicy(
    max_attempts=10, base_backoff_s=0.01, backoff_multiplier=1.0,
    jitter_frac=0.0,
)


def make_watchdog(child_code, **overrides):
    events = []
    kwargs = dict(
        probe_interval_s=0.05,
        hang_timeout_s=5.0,
        max_restarts=2,
        backoff=FAST_BACKOFF,
        on_event=events.append,
    )
    kwargs.update(overrides)
    watchdog = Watchdog([sys.executable, "-c", child_code], **kwargs)
    return watchdog, events


def event_kinds(events):
    return [e["event"] for e in events]


class TestExitHandling:
    def test_clean_exit_ends_supervision_with_zero(self):
        watchdog, events = make_watchdog("raise SystemExit(0)")
        assert watchdog.run() == 0
        assert watchdog.restarts == 0
        assert event_kinds(events) == ["spawned", "clean_exit"]

    def test_crashing_child_restarts_until_budget(self):
        watchdog, events = make_watchdog(
            "raise SystemExit(7)", max_restarts=2
        )
        assert watchdog.run() == 1
        assert watchdog.restarts == 2
        kinds = event_kinds(events)
        assert kinds.count("spawned") == 3  # initial + 2 restarts
        assert kinds.count("child_died") == 3
        died = [e for e in events if e["event"] == "child_died"]
        assert all(e["returncode"] == 7 for e in died)

    def test_zero_restarts_means_one_chance(self):
        watchdog, events = make_watchdog(
            "raise SystemExit(3)", max_restarts=0
        )
        assert watchdog.run() == 1
        assert event_kinds(events).count("spawned") == 1

    def test_recovery_after_one_crash(self, tmp_path):
        # The child crashes only while the marker file exists —
        # the first run consumes it, the second exits cleanly.
        marker = tmp_path / "crash-once"
        marker.write_text("")
        code = (
            "import os, sys\n"
            f"p = {str(marker)!r}\n"
            "if os.path.exists(p):\n"
            "    os.unlink(p)\n"
            "    sys.exit(9)\n"
            "sys.exit(0)\n"
        )
        watchdog, events = make_watchdog(code, max_restarts=5)
        assert watchdog.run() == 0
        assert watchdog.restarts == 1
        kinds = event_kinds(events)
        assert kinds[-1] == "clean_exit"
        assert "restarting" in kinds


class TestHangDetection:
    def test_stalled_heartbeat_gets_the_child_killed(self, tmp_path):
        # The child writes one heartbeat then sleeps forever: after
        # hang_timeout_s of heartbeat silence the watchdog kills it.
        heartbeat = tmp_path / "heartbeat"
        code = (
            "import time\n"
            f"open({str(heartbeat)!r}, 'w').write('alive')\n"
            "time.sleep(600)\n"
        )
        # port=1: health probes fail (connection refused), so the
        # heartbeat file is the only liveness signal.
        watchdog, events = make_watchdog(
            code,
            heartbeat_path=str(heartbeat),
            port=1,
            hang_timeout_s=0.4,
            max_restarts=0,
        )
        t0 = time.monotonic()
        assert watchdog.run() == 1
        assert time.monotonic() - t0 < 30.0
        died = [e for e in events if e["event"] == "child_died"]
        assert [e["why"] for e in died] == ["hang"]
        assert any(e["event"] == "hang_detected" for e in events)

    def test_child_wedged_before_bind_is_killed(self):
        # --port 0 and no listening line yet: the unknown port adds no
        # liveness signal, so pre-bind time is bounded by hang_timeout_s.
        watchdog, events = make_watchdog(
            "import time; time.sleep(30)",
            port=None,
            hang_timeout_s=0.4,
            max_restarts=0,
        )
        result = {}

        def run():
            result["rc"] = watchdog.run()

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=10.0)
        if runner.is_alive():
            watchdog.request_stop()
            runner.join(timeout=30.0)
        assert result.get("rc") == 1
        died = [e for e in events if e["event"] == "child_died"]
        assert [e["why"] for e in died] == ["hang"]

    def test_summary_on_exhausted_budget(self, capsys):
        watchdog, _ = make_watchdog(
            "raise SystemExit(5)", on_event=None, max_restarts=1
        )
        assert watchdog.run() == 1
        err = capsys.readouterr().err
        assert "restart_budget_exhausted" in err
        assert '"last_returncode": 5' in err


class TestStop:
    def test_request_stop_terminates_child_and_returns_zero(self):
        # A child that ignores nothing: SIGTERM kills it promptly.
        watchdog, events = make_watchdog(
            "import time; time.sleep(600)", hang_timeout_s=30.0
        )
        result = {}

        def run():
            result["rc"] = watchdog.run()

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not events:
            time.sleep(0.01)
        assert events and events[0]["event"] == "spawned"
        watchdog.request_stop()
        runner.join(timeout=30.0)
        assert not runner.is_alive()
        assert result["rc"] == 0
        assert event_kinds(events)[-1] == "stopped"


class TestAddressParsing:
    def test_listening_line_updates_probe_target(self):
        watchdog, _ = make_watchdog(
            "print('repro service listening on http://127.0.0.1:45678',"
            " flush=True)"
        )
        assert watchdog.run() == 0
        # The forwarding thread races run()'s return; give it a moment.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and watchdog.port != 45678:
            time.sleep(0.01)
        assert watchdog.port == 45678
        assert watchdog.host == "127.0.0.1"


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="probe_interval_s"):
            Watchdog(["true"], probe_interval_s=0.0)
        with pytest.raises(ValueError, match="hang_timeout_s"):
            Watchdog(["true"], hang_timeout_s=0.0)
        with pytest.raises(ValueError, match="max_restarts"):
            Watchdog(["true"], max_restarts=-1)
