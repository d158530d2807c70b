"""Circuit breaker: fail fast while a dependency is broken, probe later.

The service layer guards its solver engine call path with a classic
closed/open/half-open breaker.  While the engine is healthy (*closed*)
calls flow through and outcomes are recorded into a sliding window;
once the window's failure rate crosses ``failure_threshold`` the
breaker *opens* and callers are refused instantly (no queue slot, no
worker thread).  After ``cooldown_s`` the breaker goes *half-open* and
admits exactly one probe call: a success closes the circuit and clears
the window, a failure re-opens it for another cooldown.

Callers ask :meth:`CircuitBreaker.allow` before a call and report its
outcome with :meth:`~CircuitBreaker.record_success` /
:meth:`~CircuitBreaker.record_failure`.  The breaker never sleeps,
never spawns threads, and takes an injectable monotonic clock, so every
transition is unit-testable without wall time.  All methods are
thread-safe.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

__all__ = ["CircuitBreaker"]

#: Breaker state names (also the wire form in ``/health`` and ``/status``).
STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Closed/open/half-open breaker over a sliding outcome window.

    Attributes:
        name: label used in errors, telemetry, and status payloads.
        failure_threshold: open once the window's failure rate reaches
            this fraction (with at least ``min_calls`` samples).
        window: how many recent outcomes the failure rate is computed
            over.
        min_calls: never open on fewer than this many samples — one
            early failure must not condemn the dependency.
        cooldown_s: how long an open breaker waits before admitting a
            half-open probe.
    """

    def __init__(
        self,
        name: str = "breaker",
        *,
        failure_threshold: float = 0.5,
        window: int = 8,
        min_calls: int = 4,
        cooldown_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str], None] | None = None,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError(
                "CircuitBreaker.failure_threshold must be in (0, 1], "
                f"got {failure_threshold!r}"
            )
        if window < 1:
            raise ValueError(
                f"CircuitBreaker.window must be >= 1, got {window!r}"
            )
        if min_calls < 1:
            raise ValueError(
                f"CircuitBreaker.min_calls must be >= 1, got {min_calls!r}"
            )
        if cooldown_s <= 0:
            raise ValueError(
                f"CircuitBreaker.cooldown_s must be > 0, got {cooldown_s!r}"
            )
        self.name = name
        self.failure_threshold = failure_threshold
        self.window = window
        self.min_calls = min_calls
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._outcomes: deque[bool] = deque(maxlen=window)  # True = failure
        self._state = STATE_CLOSED
        self._opened_at = 0.0
        self._probe_inflight = False
        self._successes = 0
        self._failures = 0
        self._rejected = 0
        self._opens = 0

    # ------------------------------------------------------------------
    def _transition(self, new_state: str) -> None:
        """Move to ``new_state`` (caller holds the lock)."""
        old = self._state
        if old == new_state:
            return
        self._state = new_state
        if new_state == STATE_OPEN:
            self._opened_at = self._clock()
            self._opens += 1
        if new_state == STATE_CLOSED:
            self._outcomes.clear()
        self._probe_inflight = False
        if self._on_transition is not None:
            self._on_transition(old, new_state)

    def _effective_state(self) -> str:
        """The time-aware state (caller holds the lock); does not admit
        a probe — only :meth:`allow` does that."""
        if (
            self._state == STATE_OPEN
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            return STATE_HALF_OPEN
        return self._state

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half-open`` (read-only, time-aware)."""
        with self._lock:
            return self._effective_state()

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        Closed: always.  Open: no, until the cooldown elapses.  After
        the cooldown exactly one caller is admitted as the half-open
        probe; concurrent callers keep getting refused until that probe
        reports an outcome.
        """
        with self._lock:
            state = self._effective_state()
            if state == STATE_CLOSED:
                return True
            if state == STATE_HALF_OPEN:
                if self._state == STATE_OPEN:
                    self._transition(STATE_HALF_OPEN)
                if not self._probe_inflight:
                    self._probe_inflight = True
                    return True
            self._rejected += 1
            return False

    def record_success(self) -> None:
        """An allowed call succeeded."""
        with self._lock:
            self._successes += 1
            if self._state == STATE_HALF_OPEN:
                self._transition(STATE_CLOSED)
                return
            self._outcomes.append(False)

    def record_failure(self) -> None:
        """An allowed call failed; may open (or re-open) the circuit."""
        with self._lock:
            self._failures += 1
            if self._state == STATE_HALF_OPEN:
                # The probe failed: the dependency is still broken.
                self._transition(STATE_OPEN)
                return
            self._outcomes.append(True)
            if self._state == STATE_CLOSED and self._should_open():
                self._transition(STATE_OPEN)

    def _should_open(self) -> bool:
        if len(self._outcomes) < self.min_calls:
            return False
        rate = sum(self._outcomes) / len(self._outcomes)
        return rate >= self.failure_threshold

    def retry_after_s(self) -> float | None:
        """Seconds until the next probe is admitted (None when closed)."""
        with self._lock:
            if self._state != STATE_OPEN:
                return None
            remaining = self.cooldown_s - (self._clock() - self._opened_at)
            return max(0.0, remaining)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """A JSON-safe snapshot for status payloads and telemetry."""
        with self._lock:
            window = list(self._outcomes)
            return {
                "state": self._effective_state(),
                "failure_threshold": self.failure_threshold,
                "window": self.window,
                "min_calls": self.min_calls,
                "cooldown_s": self.cooldown_s,
                "successes": self._successes,
                "failures": self._failures,
                "rejected": self._rejected,
                "opens": self._opens,
                "window_failure_rate": (
                    round(sum(window) / len(window), 6) if window else 0.0
                ),
            }
