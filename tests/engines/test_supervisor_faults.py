"""Real-plane fault injection: the supervisor's workers under actual
failures.

These tests SIGKILL, stall, and crash real worker processes and check
the guarantees the supervisor exists for: the campaign never hangs, the
compressed bytes stay identical to a clean run, exactly the task a dead
worker held is retried, and nothing (no shared-memory segment, no child
process) leaks — even when a worker dies mid-rank or a dump is abandoned
halfway.
"""

import dataclasses
import multiprocessing
import pathlib
import threading

import pytest

from repro.cli import main
from repro.engines import CampaignSpec, PoolDataPlane, run_campaign
from repro.engines.shm import active_segments
from repro.io.async_io import AsyncWriter
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    WorkerFault,
    load_spec_data,
)

_WORKER_KILL_SPEC = str(
    pathlib.Path(__file__).parents[2]
    / "examples"
    / "fault_specs"
    / "worker_kill.yaml"
)

#: Generous wall-clock bound for one faulted campaign; a supervision bug
#: (the pre-supervisor code hung forever on a SIGKILLed worker) fails
#: the test instead of wedging the suite.
_CAMPAIGN_TIMEOUT_S = 90.0


def small_spec(**overrides) -> CampaignSpec:
    base = dict(
        nodes=1,
        ppn=2,
        iterations=3,
        seed=5,
        engine="process",
        workers=2,
        data_edge=8,
        data_fields=1,
        data_block_bytes=2048,
        task_deadline_s=10.0,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def run_bounded(fn, timeout=_CAMPAIGN_TIMEOUT_S):
    """Run ``fn`` on a thread; fail (don't hang) if it never returns."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # re-raised on the test thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        pytest.fail(
            f"campaign did not finish within {timeout}s — the "
            f"supervisor failed to bound a faulted task"
        )
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def worker_faults(kind, **overrides):
    fault = dict(kind=kind, rank=1, iteration=1, **overrides)
    return {"worker": fault}


@pytest.fixture(scope="module")
def clean_crc(tmp_path_factory):
    """Block CRC32C map of an unfaulted process-engine campaign."""
    data_dir = str(tmp_path_factory.mktemp("clean"))
    report = run_bounded(
        lambda: run_campaign(small_spec(data_dir=data_dir))
    )
    assert report.data.block_crc32c
    return report.data.block_crc32c


class TestWorkerKill:
    def test_sigkilled_worker_never_hangs_the_campaign(
        self, tmp_path, clean_crc
    ):
        # Regression: before supervision, dump() blocked forever on the
        # killed child's result.  Attribution is exact: one death, one
        # retry, of the task that worker held and no other.
        spec = small_spec(
            data_dir=str(tmp_path), faults=worker_faults("kill")
        )
        report = run_bounded(lambda: run_campaign(spec))
        sup = report.data.supervisor
        assert sup.worker_deaths == 1
        assert sup.retries == 1
        assert sup.retried_ranks == ["it0001/rank1"]
        assert report.data.block_crc32c == clean_crc

    def test_report_names_retried_rank(self, tmp_path):
        spec = small_spec(
            data_dir=str(tmp_path), faults=worker_faults("kill")
        )
        report = run_bounded(lambda: run_campaign(spec))
        resilience = report.result.resilience
        assert resilience.supervisor.retries == 1
        assert resilience.supervisor.retried_ranks == ["it0001/rank1"]
        assert ("worker-kill", 1) in resilience.injected
        assert "retried ranks:       it0001/rank1" in resilience.format()

    def test_example_spec_fills_one_tally(self, tmp_path):
        # What the data plane counted *is* what the resilience report
        # shows: one SupervisorStats, snapshotted with sorted rank keys.
        spec = small_spec(
            data_dir=str(tmp_path),
            seed=7,
            faults=load_spec_data(_WORKER_KILL_SPEC),
        )
        report = run_bounded(lambda: run_campaign(spec))
        counted = report.data.supervisor
        assert counted.worker_deaths >= 1
        assert report.result.resilience.supervisor == dataclasses.replace(
            counted,
            retried_ranks=sorted(counted.retried_ranks),
            fallback_ranks=sorted(counted.fallback_ranks),
        )

    def test_example_spec_cli_lines_ci_greps(self, tmp_path, capsys):
        argv = [
            "campaign", "--app", "nyx", "--nodes", "1", "--ppn", "2",
            "--iterations", "3", "--solution", "ours", "--seed", "7",
            "--engine", "process", "--workers", "2",
            "--task-deadline", "10",
            "--data-edge", "8", "--data-out", str(tmp_path),
            "--faults", _WORKER_KILL_SPEC,
        ]
        assert run_bounded(lambda: main(argv)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("supervisor [ours]: ") for line in lines)
        assert "retried ranks:       it0001/rank1" in lines

    def test_recovery_does_not_leak_into_metrics(self, tmp_path):
        # Wall-clock supervisor tallies must stay out of as_metrics():
        # the metric dict feeds the byte-compared campaign report.
        spec = small_spec(
            data_dir=str(tmp_path), faults=worker_faults("kill")
        )
        report = run_bounded(lambda: run_campaign(spec))
        metrics = report.result.resilience.as_metrics()
        assert not any(
            "task" in key or "worker_" in key or "supervisor" in key
            for key in metrics
        )


class TestWorkerStall:
    def test_stalled_worker_blows_deadline_and_retries(
        self, tmp_path, clean_crc
    ):
        spec = small_spec(
            data_dir=str(tmp_path),
            task_deadline_s=0.5,
            faults=worker_faults("stall", stall_s=4.0),
        )
        report = run_bounded(lambda: run_campaign(spec))
        sup = report.data.supervisor
        assert sup.deadline_misses >= 1
        assert report.data.block_crc32c == clean_crc

    def test_straggler_under_the_deadline_is_not_duplicated(
        self, tmp_path
    ):
        # Ten ranks, so nine finish while rank 1 stalls: the one
        # straggler rule waits for it instead of launching a duplicate.
        spec = small_spec(
            ppn=10,
            task_deadline_s=30.0,
            faults=worker_faults("stall", stall_s=1.0),
        )
        clean = run_bounded(
            lambda: run_campaign(
                dataclasses.replace(
                    spec, faults=None, data_dir=str(tmp_path / "clean")
                )
            )
        )
        report = run_bounded(
            lambda: run_campaign(
                dataclasses.replace(spec, data_dir=str(tmp_path / "stall"))
            )
        )
        sup = report.data.supervisor
        assert ("worker-stall", 1) in report.result.resilience.injected
        assert sup.attempts == sup.tasks
        assert sup.retries == sup.deadline_misses == 0
        assert report.data.block_crc32c == clean.data.block_crc32c

    def test_short_stall_within_deadline_is_absorbed(
        self, tmp_path, clean_crc
    ):
        spec = small_spec(
            data_dir=str(tmp_path),
            task_deadline_s=30.0,
            faults=worker_faults("stall", stall_s=0.3),
        )
        report = run_bounded(lambda: run_campaign(spec))
        sup = report.data.supervisor
        assert sup.deadline_misses == 0
        assert sup.retries == 0
        assert report.data.block_crc32c == clean_crc


class TestWorkerError:
    def test_raised_task_is_recorded_and_retried(
        self, tmp_path, clean_crc
    ):
        # Regression: the old error callback swallowed the exception
        # without a trace; now it is counted and the task re-executed.
        spec = small_spec(
            data_dir=str(tmp_path), faults=worker_faults("error")
        )
        report = run_bounded(lambda: run_campaign(spec))
        sup = report.data.supervisor
        assert sup.worker_errors >= 1
        assert sup.retries >= 1
        assert report.result.resilience.supervisor.worker_errors >= 1
        assert report.data.block_crc32c == clean_crc


class TestSerialFallback:
    def test_exhausted_budget_compresses_rank_in_parent(
        self, tmp_path, clean_crc
    ):
        # Every launch of it0001/rank1 errors out (attempts=99 covers
        # the whole budget), so the parent must compress it serially —
        # with identical bytes.
        spec = small_spec(
            data_dir=str(tmp_path),
            max_task_retries=1,
            faults=worker_faults("error", attempts=99),
        )
        report = run_bounded(lambda: run_campaign(spec))
        sup = report.data.supervisor
        assert sup.fallback_ranks == ["it0001/rank1"]
        resilience = report.result.resilience
        assert resilience.supervisor.fallback_ranks == ["it0001/rank1"]
        assert ("rank-serial", 1) in resilience.fallbacks
        assert "fallback ranks:      it0001/rank1" in resilience.format()
        assert report.data.block_crc32c == clean_crc

    def test_killed_every_time_still_completes(self, tmp_path, clean_crc):
        spec = small_spec(
            data_dir=str(tmp_path),
            max_task_retries=1,
            task_deadline_s=5.0,
            faults=worker_faults("kill", attempts=99),
        )
        report = run_bounded(lambda: run_campaign(spec))
        sup = report.data.supervisor
        assert sup.fallback_ranks == ["it0001/rank1"]
        assert report.data.block_crc32c == clean_crc


class TestShmHygieneUnderFailure:
    """Satellite: no repro-shm-* leaks on any failure path.

    The suite-wide autouse leak fixture re-checks after every test; the
    assertions here additionally pin down *when* the segments are gone.
    """

    def _plane(self, tmp_path, fault=None, **overrides):
        spec = small_spec(data_dir=str(tmp_path), **overrides)
        injector = None
        if fault is not None:
            injector = FaultInjector(FaultPlan(worker=fault), seed=3)
        return PoolDataPlane(spec, injector=injector)

    def test_worker_death_mid_rank_releases_segments(self, tmp_path):
        plane = self._plane(
            tmp_path, fault=WorkerFault(kind="kill", rank=0, iteration=0)
        )
        try:
            run_bounded(lambda: plane.dump(0))
            assert active_segments() == []
        finally:
            plane.close()
        assert active_segments() == []

    def test_timed_out_dump_releases_segments(self, tmp_path, monkeypatch):
        def stuck_drain(self, timeout=None):
            raise TimeoutError("injected: writer never drained")

        monkeypatch.setattr(AsyncWriter, "drain", stuck_drain)
        plane = self._plane(tmp_path)
        try:
            with pytest.raises(TimeoutError, match="never drained"):
                run_bounded(lambda: plane.dump(0))
            assert active_segments() == []
            assert plane.stats.containers == {}  # nothing published
        finally:
            plane.abort()
        assert active_segments() == []

    def test_abort_mid_dump_leaves_no_child_behind(self, tmp_path):
        # Rank 0 hangs for 60 s with no deadline to bound it; abort()
        # from another thread ends the dump and every worker at once.
        plane = self._plane(
            tmp_path,
            fault=WorkerFault(kind="stall", rank=0, stall_s=60.0),
            task_deadline_s=None,
        )
        before = set(multiprocessing.active_children())
        plane.start()
        workers = set(multiprocessing.active_children()) - before
        assert len(workers) == 2
        threading.Timer(0.5, plane.abort).start()
        with pytest.raises(RuntimeError, match="closed"):
            run_bounded(lambda: plane.dump(0), timeout=30.0)
        plane.abort()  # idempotent, and waits for the timer's abort
        assert not any(worker.is_alive() for worker in workers)
        assert plane.stats.containers == {}  # nothing published

    def test_abort_racing_close_is_safe(self, tmp_path):
        before = set(multiprocessing.active_children())
        plane = self._plane(tmp_path)
        run_bounded(lambda: plane.dump(0))
        errors = []

        def call(fn):
            try:
                fn()
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [
            threading.Thread(target=call, args=(plane.abort,)),
            threading.Thread(target=call, args=(plane.close,)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(_CAMPAIGN_TIMEOUT_S)
            assert not thread.is_alive()
        assert errors == []
        assert active_segments() == []
        assert set(multiprocessing.active_children()) <= before
