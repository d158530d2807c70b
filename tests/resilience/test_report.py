"""ResilienceLog accounting and the frozen ResilienceReport views."""

from repro.resilience import ResilienceLog, SupervisorStats


def _populated_log() -> ResilienceLog:
    log = ResilienceLog()
    log.record_injection("stall")
    log.record_injection("write_error", 3)
    log.record_retry()
    log.record_retry()
    log.record_retry_success()
    log.record_write_failure()
    log.record_fallback("raw-write")
    log.record_fallback("defer-io", nbytes=100)
    log.record_fallback("defer-write", nbytes=50)
    log.overrun_iterations = 2
    log.degraded_dumps = 1
    log.pending_deferred_bytes = 50
    log.straggler_ranks = (0, 3)
    return log


class TestLog:
    def test_defer_fallbacks_accumulate_bytes(self):
        log = _populated_log()
        assert log.deferred_writes == 2
        assert log.deferred_bytes == 150
        assert log.fallbacks == {
            "raw-write": 1, "defer-io": 1, "defer-write": 1
        }

    def test_report_freezes_current_state(self):
        log = _populated_log()
        report = log.report()
        log.record_injection("stall")
        assert dict(report.injected)["stall"] == 1
        assert report.total_injected == 4
        assert report.total_fallbacks == 3
        assert report.retries == 2
        assert report.retry_successes == 1
        assert report.write_failures == 1

    def test_reports_comparable(self):
        assert _populated_log().report() == _populated_log().report()
        assert ResilienceLog().report() != _populated_log().report()


class TestReportViews:
    def test_as_metrics_keys(self):
        metrics = _populated_log().report().as_metrics()
        assert metrics["resilience.injected"] == 4.0
        assert metrics["resilience.injected.write_error"] == 3.0
        assert metrics["resilience.fallback.defer-io"] == 1.0
        assert metrics["resilience.retries"] == 2.0
        assert metrics["resilience.pending_deferred_bytes"] == 50.0

    def test_format_is_stable_and_complete(self):
        text = _populated_log().report().format()
        assert text == _populated_log().report().format()
        for fragment in (
            "faults injected:     4",
            "write retries:       2 (1 recovered, 1 exhausted)",
            "fallbacks:           3",
            "degraded dumps:      1",
            "overrun iterations:  2",
            "150 bytes, 50 still pending",
            "straggler ranks:     0, 3",
        ):
            assert fragment in text

    def test_format_omits_stragglers_when_none(self):
        assert "straggler" not in ResilienceLog().report().format()


def _supervised_log() -> ResilienceLog:
    log = ResilienceLog()
    log.supervisor = SupervisorStats(
        tasks=6,
        attempts=10,
        retries=3,
        deadline_misses=1,
        worker_errors=1,
        worker_deaths=2,
        retried_ranks=["it0001/rank1", "it0000/rank0"],
        fallback_ranks=["it0002/rank1"],
    )
    return log


class TestSupervisorTallies:
    def test_report_sorts_rank_keys(self):
        log = _supervised_log()
        report = log.report()
        assert report.supervisor.retried_ranks == [
            "it0000/rank0",
            "it0001/rank1",
        ]
        assert report.supervisor.fallback_ranks == ["it0002/rank1"]
        assert report.supervisor.retries == 3
        assert report.supervisor.worker_deaths == 2
        # A snapshot: the live tally keeps its order and moves on alone.
        assert log.supervisor.retried_ranks[0] == "it0001/rank1"
        log.supervisor.retries += 1
        assert report.supervisor.retries == 3

    def test_format_includes_supervisor_lines(self):
        text = _supervised_log().report().format()
        for fragment in (
            "task retries:        3 (1 deadline misses)",
            "worker failures:     1 errors, 2 deaths",
            "retried ranks:       it0000/rank0, it0001/rank1",
            "fallback ranks:      it0002/rank1",
        ):
            assert fragment in text

    def test_format_omits_supervisor_lines_when_clean(self):
        # Modelled-only campaigns keep their historical output intact.
        text = _populated_log().report().format()
        for fragment in (
            "task retries",
            "worker failures",
            "retried ranks",
            "fallback ranks",
        ):
            assert fragment not in text

    def test_supervisor_tallies_stay_out_of_metrics(self):
        # Wall-clock recovery facts must not perturb the metric dict:
        # it feeds the byte-compared resumed-vs-uninterrupted reports.
        clean = _populated_log().report().as_metrics()
        log = _populated_log()
        log.supervisor = _supervised_log().supervisor
        supervised = log.report().as_metrics()
        assert supervised == clean
