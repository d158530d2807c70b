"""SimulatedFileSystem under fault injection: retries, durations, failure."""

import pytest

from repro.io import IoThroughputModel, SimulatedFileSystem
from repro.resilience import (
    BandwidthFault,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    WriteErrorFault,
    WriteFailedError,
)
from repro.telemetry import Tracer

_MODEL = IoThroughputModel(
    node_bandwidth_bytes_per_s=1e9, processes_per_node=1
)


def _fs(plan=None, seed=0, **kwargs):
    injector = FaultInjector(plan or FaultPlan(), seed=seed)
    return SimulatedFileSystem(_MODEL, injector, **kwargs), injector


class TestRunningTotals:
    def test_totals_include_retry_inflation(self):
        plan = FaultPlan(write_error=WriteErrorFault(probability=0.5))
        fs, injector = _fs(plan, seed=3)
        clean = _MODEL.write_time(1_000_000)
        total = sum(fs.write(0, 1_000_000) for _ in range(50))
        assert total > 50 * clean  # some attempts were retried
        assert injector.log.retry_successes > 0


class TestRetries:
    def test_empty_plan_single_attempt(self):
        fs, injector = _fs()
        assert fs.write(0, 1000) == pytest.approx(_MODEL.write_time(1000))
        assert injector.log.retries == 0

    def test_retries_logged(self):
        plan = FaultPlan(write_error=WriteErrorFault(probability=0.6))
        fs, injector = _fs(plan, seed=1)
        for op in range(80):
            try:
                fs.write(0, 100_000)
            except WriteFailedError:
                pass
        log = injector.log
        assert log.retries > 0
        assert log.retry_successes > 0
        # Some writes recovered after more than one attempt.
        assert log.retry_successes > 0

    def test_exhaustion_raises_with_context(self):
        plan = FaultPlan(write_error=WriteErrorFault(probability=1.0))
        tracer = Tracer()
        fs, injector = _fs(
            plan,
            retry=RetryPolicy(max_attempts=3, jitter_frac=0.0),
            tracer=tracer,
        )
        with pytest.raises(WriteFailedError) as info:
            fs.write(2, 4096)
        assert info.value.rank == 2
        assert info.value.nbytes == 4096
        assert info.value.attempts == 3
        assert injector.log.write_failures == 1
        # A failed write emits no ``fs.write`` event and no byte count.
        assert "fs.write" not in {e.name for e in tracer.recorder.events}
        assert "fs.bytes" not in tracer.recorder.counters

    def test_deadline_cuts_retries_short(self):
        plan = FaultPlan(write_error=WriteErrorFault(probability=1.0))
        fs, _ = _fs(
            plan,
            retry=RetryPolicy(
                max_attempts=100, base_backoff_s=1.0, jitter_frac=0.0,
                deadline_s=2.5,
            ),
        )
        with pytest.raises(WriteFailedError) as info:
            fs.write(0, 1000)
        assert info.value.attempts < 100

    def test_deterministic_across_instances(self):
        plan = FaultPlan(
            write_error=WriteErrorFault(probability=0.5),
            bandwidth=BandwidthFault(probability=0.5, min_factor=0.1),
        )
        durations = []
        for _ in range(2):
            fs, _ = _fs(plan, seed=11)
            run = []
            for op in range(40):
                try:
                    run.append(fs.write(op % 4, 200_000))
                except WriteFailedError as exc:
                    run.append(("failed", exc.attempts))
            durations.append(run)
        assert durations[0] == durations[1]


class _FlakyWriter:
    """Duck-typed SharedFileWriter failing the first ``failures`` calls."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def write(self, name, payload):
        self.calls += 1
        if self.calls <= self.failures:
            raise OSError("transient")
        return True


class TestAsyncWriterRetry:
    def test_transient_failures_recovered(self):
        from repro.io import AsyncWriter

        target = _FlakyWriter(failures=2)
        policy = RetryPolicy(
            max_attempts=4, base_backoff_s=0.001, jitter_frac=0.0
        )
        with AsyncWriter(target, retry=policy) as writer:
            job = writer.submit("a", b"payload")
            assert job.wait(timeout=5.0)
        assert job.error is None
        assert job.attempts == 3
        assert job.fit_reservation is True

    def test_exhaustion_surfaces_at_wait(self):
        from repro.io import AsyncWriter

        target = _FlakyWriter(failures=100)
        policy = RetryPolicy(
            max_attempts=2, base_backoff_s=0.001, jitter_frac=0.0
        )
        with AsyncWriter(target, retry=policy) as writer:
            job = writer.submit("a", b"payload")
            with pytest.raises(OSError, match="transient"):
                job.wait(timeout=5.0)
        assert job.attempts == 2

    def test_no_policy_fails_immediately(self):
        from repro.io import AsyncWriter

        target = _FlakyWriter(failures=1)
        with AsyncWriter(target) as writer:
            job = writer.submit("a", b"payload")
            with pytest.raises(OSError):
                job.wait(timeout=5.0)
        assert job.attempts == 1


    def test_checksum_mismatch_fails_once_unretried(self, tmp_path):
        """Corrupt bytes fail the job on its first attempt: no retry, no
        retry tally, and nothing lands in the reservation."""
        from repro.durability.checksum import crc32c
        from repro.io import AsyncWriter, SharedFileWriter
        from repro.io.hdf5like import ChecksumMismatchError

        payload = b"payload"
        policy = RetryPolicy(
            max_attempts=4, base_backoff_s=0.001, jitter_frac=0.0
        )
        seen = []
        with SharedFileWriter(tmp_path / "c.rpio") as target:
            target.reserve("a", len(payload))
            with AsyncWriter(
                target,
                retry=policy,
                on_retry=lambda job, exc: seen.append(exc),
            ) as writer:
                job = writer.submit(
                    "a", payload, checksum=crc32c(payload) ^ 1
                )
                with pytest.raises(
                    ChecksumMismatchError, match="'a'.*checksum"
                ):
                    job.wait(timeout=5.0)
            assert target.write("a", payload, checksum=crc32c(payload))
        assert job.attempts == 1
        assert seen == []


class TestBandwidthBursts:
    def test_burst_slows_write(self):
        plan = FaultPlan(
            bandwidth=BandwidthFault(probability=1.0, min_factor=0.1)
        )
        fs, _ = _fs(plan)
        duration = fs.write(0, 10_000_000)
        assert duration > _MODEL.write_time(10_000_000)

    def test_telemetry_events_emitted(self):
        tracer = Tracer()
        plan = FaultPlan(
            write_error=WriteErrorFault(probability=0.6),
            bandwidth=BandwidthFault(probability=0.5, min_factor=0.1),
        )
        injector = FaultInjector(plan, seed=2, tracer=tracer)
        fs = SimulatedFileSystem(_MODEL, tracer=tracer, injector=injector)
        for op in range(60):
            try:
                fs.write(0, 100_000)
            except WriteFailedError:
                pass
        names = {e.name for e in tracer.recorder.events}
        assert "fault.injected" in names
        assert "io.retry" in names
        assert tracer.recorder.counters["io.retry"] == injector.log.retries


class TestAsyncWriterRetryObserver:
    def test_on_retry_called_per_retry(self):
        from repro.io import AsyncWriter

        target = _FlakyWriter(failures=2)
        policy = RetryPolicy(
            max_attempts=4, base_backoff_s=0.001, jitter_frac=0.0
        )
        seen = []
        with AsyncWriter(
            target,
            retry=policy,
            on_retry=lambda job, exc: seen.append((job.name, str(exc))),
        ) as writer:
            job = writer.submit("a", b"payload")
            assert job.wait(timeout=5.0)
        assert seen == [("a", "transient"), ("a", "transient")]

    def test_observer_error_does_not_fail_the_write(self):
        from repro.io import AsyncWriter

        target = _FlakyWriter(failures=1)
        policy = RetryPolicy(
            max_attempts=3, base_backoff_s=0.001, jitter_frac=0.0
        )

        def broken_observer(job, exc):
            raise RuntimeError("observer bug")

        with AsyncWriter(
            target, retry=policy, on_retry=broken_observer
        ) as writer:
            job = writer.submit("a", b"payload")
            assert job.wait(timeout=5.0)
        assert job.error is None

    def test_deadline_checked_before_sleeping(self):
        # A backoff that would land past the deadline gives up now
        # instead of sleeping the whole backoff first.
        from repro.io import AsyncWriter

        target = _FlakyWriter(failures=100)
        policy = RetryPolicy(
            max_attempts=50,
            base_backoff_s=30.0,  # would sleep 30s without the check
            jitter_frac=0.0,
            deadline_s=0.5,
        )
        with AsyncWriter(target, retry=policy) as writer:
            job = writer.submit("a", b"payload")
            with pytest.raises(OSError, match="transient"):
                job.wait(timeout=5.0)  # must fail fast, not in 30s
        assert job.attempts == 1
