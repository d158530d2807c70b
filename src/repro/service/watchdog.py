"""Watchdog supervision: restart a crashed or wedged serving process.

``repro serve --supervised`` runs the server in a *child* process and
this watchdog in the parent.  The watchdog holds no request state — all
of that is in the child's request ledger and campaign journals — so its
job reduces to three detections and one action:

* **crash** — the child exited with a nonzero status (a SIGKILL'd
  child reports 137, the chaos convention);
* **hang** — the heartbeat file the child refreshes from its event
  loop stops advancing for ``hang_timeout_s`` (a livelocked event loop
  keeps the process alive and the socket open while serving nothing);
* **unresponsive** — ``/health`` probes fail four times in a row after
  the child was known healthy.

On any of them the child is killed (if needed) and restarted with
exponential backoff from a :class:`~repro.resilience.RetryPolicy`.
After ``max_restarts`` restarts the watchdog gives up with a
structured JSON summary on stderr and exit status 1 — a supervisor
that flaps forever hides failure instead of healing it.  A child that
exits 0 (graceful drain via ``POST /shutdown`` or SIGTERM) ends
supervision with exit status 0.

Recovery composes with the ledger: each restarted child replays its
admitted-but-unanswered requests before accepting traffic, so from a
retrying client's view a supervised crash is a latency blip, not an
error.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from ..resilience.retry import RetryPolicy

__all__ = ["Watchdog"]

#: Default backoff between restarts: 0.5 s doubling, modest jitter.
DEFAULT_RESTART_BACKOFF = RetryPolicy(
    max_attempts=6, base_backoff_s=0.5, backoff_multiplier=2.0
)
#: Failed ``/health`` probes in a row that make a child unresponsive.
_PROBE_FAILURES = 4
#: Signalling or reaping a child that is already gone is not an error.
_CHILD_GONE = (OSError, subprocess.TimeoutExpired)


class Watchdog:
    """Supervise one serving child process; restart it when it dies.

    ``child_argv`` is the full command of the child (typically
    ``[sys.executable, "-m", "repro", "serve", ...]`` without
    ``--supervised``).  The child's stdout is forwarded line by line to
    this process's stdout; the ``listening on http://host:port`` line
    is parsed to learn the probe address, so ``--port 0`` children
    work across restarts.
    """

    def __init__(
        self,
        child_argv: list[str],
        *,
        heartbeat_path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        probe_interval_s: float = 0.5,
        hang_timeout_s: float = 10.0,
        max_restarts: int = 5,
        backoff: RetryPolicy = DEFAULT_RESTART_BACKOFF,
        rng: np.random.Generator | None = None,
        on_event=None,
    ) -> None:
        if probe_interval_s <= 0:
            raise ValueError(
                f"probe_interval_s must be > 0, got {probe_interval_s!r}"
            )
        if hang_timeout_s <= 0:
            raise ValueError(
                f"hang_timeout_s must be > 0, got {hang_timeout_s!r}"
            )
        if max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {max_restarts!r}"
            )
        self.child_argv = list(child_argv)
        self.heartbeat_path = heartbeat_path
        self.host = host
        self.port = port
        self.probe_interval_s = probe_interval_s
        self.hang_timeout_s = hang_timeout_s
        self.max_restarts = max_restarts
        self.backoff = backoff
        self._rng = rng if rng is not None else np.random.default_rng()
        self._on_event = on_event
        self.restarts = 0
        self.events: list[dict] = []
        self._child: subprocess.Popen | None = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def _event(self, kind: str, **detail) -> None:
        record = {"event": kind, "t": round(time.monotonic(), 3), **detail}
        self.events.append(record)
        if self._on_event is not None:
            self._on_event(record)
        else:
            print(f"watchdog: {kind} {detail}", file=sys.stderr, flush=True)

    def request_stop(self) -> None:
        """Stop supervising: forward SIGTERM to the child and exit once
        it does (signal-handler safe)."""
        self._stop.set()
        child = self._child
        if child is not None and child.poll() is None:
            with contextlib.suppress(*_CHILD_GONE):
                child.send_signal(signal.SIGTERM)

    # ------------------------------------------------------------------
    def _spawn(self) -> subprocess.Popen:
        child = subprocess.Popen(
            self.child_argv,
            stdout=subprocess.PIPE,
            stderr=None,  # child stderr flows straight through
            text=True,
        )
        reader = threading.Thread(
            target=self._forward_stdout, args=(child,), daemon=True
        )
        reader.start()
        return child

    def _forward_stdout(self, child: subprocess.Popen) -> None:
        for line in child.stdout:
            marker = "listening on http://"
            if marker in line:
                address = line.rsplit(marker, 1)[1].strip().rstrip("/")
                host, _, port = address.rpartition(":")
                try:
                    self.port = int(port)
                    self.host = host or self.host
                except ValueError:
                    pass
            sys.stdout.write(line)
            sys.stdout.flush()
        child.stdout.close()

    def _probe_health(self) -> bool:
        if self.port is None:
            return False  # not probed yet: no liveness signal before bind
        from .client import ServiceClient, ServiceUnavailableError

        with ServiceClient(self.host, self.port, timeout=2.0) as client:
            try:
                status, body = client.health()
            except ServiceUnavailableError:
                return False
        return status == 200 and bool(body.get("ok"))

    def _heartbeat_age(self) -> float | None:
        if self.heartbeat_path is None:
            return None
        try:
            return time.time() - os.stat(self.heartbeat_path).st_mtime
        except OSError:
            return None  # not written yet: covered by the spawn grace

    def _kill_child(self, child: subprocess.Popen) -> None:
        with contextlib.suppress(*_CHILD_GONE):
            child.kill()
        with contextlib.suppress(*_CHILD_GONE):
            child.wait(timeout=10.0)

    # ------------------------------------------------------------------
    def _watch_one(self, child: subprocess.Popen) -> str:
        """Monitor one child until it exits or must be killed.

        Returns ``"exited"`` (child gone, check its returncode),
        ``"hang"`` or ``"unresponsive"`` (child killed by us), or
        ``"stopped"`` (supervision was asked to stop).
        """
        spawned = time.monotonic()
        consecutive_failures = 0
        healthy_once = False
        while True:
            if self._stop.is_set():
                with contextlib.suppress(*_CHILD_GONE):
                    child.send_signal(signal.SIGTERM)
                with contextlib.suppress(*_CHILD_GONE):
                    child.wait(timeout=self.hang_timeout_s)
                if child.poll() is None:
                    self._kill_child(child)
                return "stopped"
            if child.poll() is not None:
                return "exited"

            alive_signals = [spawned]
            age = self._heartbeat_age()
            if age is not None:
                alive_signals.append(time.monotonic() - age)
            if self._probe_health():
                healthy_once = True
                consecutive_failures = 0
                alive_signals.append(time.monotonic())
            elif healthy_once:
                consecutive_failures += 1

            quiet_for = time.monotonic() - max(alive_signals)
            if quiet_for > self.hang_timeout_s:
                self._event(
                    "hang_detected",
                    quiet_for_s=round(quiet_for, 3),
                    heartbeat_age_s=None if age is None else round(age, 3),
                )
                self._kill_child(child)
                return "hang"
            if (
                healthy_once
                and consecutive_failures >= _PROBE_FAILURES
            ):
                self._event(
                    "unresponsive",
                    consecutive_probe_failures=consecutive_failures,
                )
                self._kill_child(child)
                return "unresponsive"
            time.sleep(self.probe_interval_s)

    def run(self) -> int:
        """Supervise until a clean exit, a stop, or restarts exhaust.

        Returns the watchdog's process exit status: 0 for a graceful
        child exit, 1 when the restart budget is spent.
        """
        while True:
            self._child = child = self._spawn()
            self._event("spawned", pid=child.pid, restarts=self.restarts)
            why = self._watch_one(child)
            returncode = child.returncode
            if why == "stopped":
                self._event("stopped", returncode=returncode)
                return 0
            if why == "exited" and returncode == 0:
                self._event("clean_exit")
                return 0
            self._event(
                "child_died",
                why=why,
                returncode=returncode,
            )
            if self.restarts >= self.max_restarts:
                summary = {
                    "ok": False,
                    "reason": "restart_budget_exhausted",
                    "restarts": self.restarts,
                    "max_restarts": self.max_restarts,
                    "last_returncode": returncode,
                    "events": self.events[-10:],
                }
                print(json.dumps(summary), file=sys.stderr, flush=True)
                return 1
            self.restarts += 1
            delay = self.backoff.backoff_s(
                min(self.restarts, self.backoff.max_attempts), self._rng
            )
            self._event("restarting", attempt=self.restarts, backoff_s=round(delay, 3))
            if self._stop.wait(timeout=delay):
                return 0

