"""The circuit breaker: every transition under a hand-advanced clock."""

import pytest

from repro.resilience import CircuitBreaker


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_breaker(clock, **overrides):
    kwargs = dict(
        failure_threshold=0.5,
        window=4,
        min_calls=4,
        cooldown_s=10.0,
        clock=clock,
    )
    kwargs.update(overrides)
    return CircuitBreaker("test", **kwargs)


class TestClosedToOpen:
    def test_opens_at_threshold(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        for _ in range(2):
            breaker.record_success()
        for _ in range(2):
            breaker.record_failure()
        # Window: [ok, ok, fail, fail] -> rate 0.5 >= threshold.
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_never_opens_below_min_calls(self):
        clock = FakeClock()
        breaker = make_breaker(clock, min_calls=4)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_stays_closed_below_threshold(self):
        clock = FakeClock()
        breaker = make_breaker(clock, window=4, min_calls=4)
        for _ in range(3):
            breaker.record_success()
        breaker.record_failure()  # rate 0.25 < 0.5
        assert breaker.state == "closed"

    def test_window_slides_old_failures_out(self):
        clock = FakeClock()
        breaker = make_breaker(clock, window=4, min_calls=4)
        breaker.record_failure()
        breaker.record_failure()
        # Four successes push both failures out of the window.
        for _ in range(4):
            breaker.record_success()
        breaker.record_failure()  # rate 0.25 again, not 3/7
        assert breaker.state == "closed"


class TestOpenBehaviour:
    def _opened(self, clock):
        breaker = make_breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == "open"
        return breaker

    def test_refuses_and_counts_while_open(self):
        clock = FakeClock()
        breaker = self._opened(clock)
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.stats()["rejected"] == 2

    def test_retry_after_counts_down(self):
        clock = FakeClock()
        breaker = self._opened(clock)
        assert breaker.retry_after_s() == pytest.approx(10.0)
        clock.advance(4.0)
        assert breaker.retry_after_s() == pytest.approx(6.0)

    def test_half_open_after_cooldown(self):
        clock = FakeClock()
        breaker = self._opened(clock)
        clock.advance(10.0)
        assert breaker.state == "half-open"

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = self._opened(clock)
        clock.advance(10.0)
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # concurrent caller refused
        assert not breaker.allow()

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = self._opened(clock)
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        # The window was cleared: one new failure cannot re-open.
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_probe_failure_reopens_for_full_cooldown(self):
        clock = FakeClock()
        breaker = self._opened(clock)
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.retry_after_s() == pytest.approx(10.0)
        clock.advance(10.0)
        assert breaker.allow()  # next probe admitted after cooldown


class TestTransitionsAndStats:
    def test_on_transition_sees_every_edge(self):
        clock = FakeClock()
        edges = []
        breaker = make_breaker(
            clock, on_transition=lambda old, new: edges.append((old, new))
        )
        for _ in range(4):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert edges == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_stats_shape(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        breaker.record_success()
        breaker.record_failure()
        stats = breaker.stats()
        assert stats["state"] == "closed"
        assert stats["successes"] == 1
        assert stats["failures"] == 1
        assert stats["opens"] == 0
        assert stats["window_failure_rate"] == pytest.approx(0.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0.0)
        with pytest.raises(ValueError, match="window"):
            CircuitBreaker(window=0)
        with pytest.raises(ValueError, match="min_calls"):
            CircuitBreaker(min_calls=0)
        with pytest.raises(ValueError, match="cooldown_s"):
            CircuitBreaker(cooldown_s=0.0)
