"""Ranks own their data: the pool plane's workers generate *and*
compress, the parent supervises and writes.

Real pools throughout.  What is pinned down here: the parent never
generates a field (and no shared-memory segment ever exists) on a clean
dump, windowed submission keeps the supervisor's clocks on run time, and
the stored bytes equal the serial plane's however a rank got done.
"""

import dataclasses
import time

import pytest

from repro.engines import CampaignSpec, PoolDataPlane, SerialDataPlane
from repro.engines.shm import active_segments
from repro.engines.supervisor import WorkerSupervisor
from repro.io.async_io import AsyncWriter
from repro.io.hdf5like import SharedFileReader
from repro.resilience import FaultInjector, FaultPlan, WorkerFault
from repro.telemetry import Tracer


def small_spec(data_dir, **overrides) -> CampaignSpec:
    base = dict(
        nodes=1,
        ppn=4,
        seed=5,
        engine="process",
        workers=2,
        data_edge=8,
        data_fields=2,
        data_block_bytes=2048,
        data_dir=str(data_dir),
    )
    base.update(overrides)
    return CampaignSpec(**base)


def dump_once(plane, iteration=1):
    """One dump; returns ``(crc map, {dataset: stored payload bytes})``."""
    try:
        plane.dump(iteration)
        plane.close()
    except BaseException:
        plane.abort()
        raise
    with SharedFileReader(plane.stats.containers[iteration]) as reader:
        stored = {name: reader.read(name) for name in reader.names()}
    return plane.stats.block_crc32c, stored


@pytest.fixture
def serial_bytes(tmp_path):
    return dump_once(SerialDataPlane(small_spec(tmp_path / "serial")))


class TestParentOnlySupervisesAndWrites:
    def test_parent_never_generates_and_no_segment_exists(
        self, tmp_path, monkeypatch, serial_bytes
    ):
        plane = PoolDataPlane(small_spec(tmp_path / "pool"))

        def parent_generates(*args, **kwargs):
            raise AssertionError("the parent generated a field")

        # On the instance: the workers build their own application.
        monkeypatch.setattr(plane.app, "generate_field", parent_generates)
        segments_mid_dump = []
        real_submit = AsyncWriter.submit

        def submit(self, *args, **kwargs):
            segments_mid_dump.append(active_segments())
            return real_submit(self, *args, **kwargs)

        monkeypatch.setattr(AsyncWriter, "submit", submit)
        assert dump_once(plane) == serial_bytes
        assert len(segments_mid_dump) == plane.stats.num_blocks > 0
        assert all(names == [] for names in segments_mid_dump)
        assert not hasattr(plane, "registry")

    def test_workers_report_their_own_seconds(self, tmp_path):
        plane = PoolDataPlane(small_spec(tmp_path))
        dump_once(plane)
        stats = plane.stats
        assert stats.generate_wall_s > 0.0
        assert stats.compress_wall_s > 0.0
        app = plane.spec.data_application()
        assert stats.raw_bytes == 4 * 2 * app.partition_nbytes()
        sup = stats.supervisor
        assert sup.attempts == sup.tasks == 4
        assert not sup.recovered


class TestWorkIsNotWaiting:
    """Each step's CPU seconds (the thread that ran it) beside its wall
    seconds: never above them, and on the pool plane the workers'."""

    def test_serial_steps_use_at_most_their_wall(self, tmp_path):
        plane = SerialDataPlane(small_spec(tmp_path, data_edge=32))
        dump_once(plane)
        stats = plane.stats
        assert 0.0 < stats.generate_cpu_s <= stats.generate_wall_s + 1e-3
        assert 0.0 < stats.compress_cpu_s <= stats.compress_wall_s + 1e-3

    def test_pool_plane_sums_the_workers_cpu(self, tmp_path, monkeypatch):
        plane = PoolDataPlane(small_spec(tmp_path, data_edge=32))

        def parent_generates(*args, **kwargs):
            raise AssertionError("the parent generated a field")

        monkeypatch.setattr(plane.app, "generate_field", parent_generates)
        results = []
        real_run = WorkerSupervisor.run

        def run(self, ranks, *, ingest, **kwargs):
            def keep(rank, result):
                results.append(result)
                ingest(rank, result)

            real_run(self, ranks, ingest=keep, **kwargs)

        monkeypatch.setattr(WorkerSupervisor, "run", run)
        dump_once(plane)
        assert len(results) == 4
        for result in results:
            assert 0.0 < result.generate_cpu_s <= result.generate_s + 1e-3
            assert 0.0 < result.compress_cpu_s <= result.compress_s + 1e-3
        stats = plane.stats
        assert stats.generate_cpu_s == pytest.approx(
            sum(r.generate_cpu_s for r in results)
        )
        assert stats.compress_cpu_s == pytest.approx(
            sum(r.compress_cpu_s for r in results)
        )


class TestHonestClocks:
    def test_queue_time_is_not_run_time(self, tmp_path):
        """8 ranks behind 1 worker, deadline ~3x one task: submitted all
        at once, rank 3 onwards would blow it while still queued."""
        spec = small_spec(
            tmp_path, ppn=8, workers=1, data_edge=64,
            data_block_bytes=64 * 1024,
        )
        reference = SerialDataPlane(spec)
        t0 = time.perf_counter()
        reference._rank_result(1, 0)
        one_task_s = time.perf_counter() - t0
        reference.close()
        plane = PoolDataPlane(
            dataclasses.replace(spec, task_deadline_s=3.0 * one_task_s)
        )
        dump_once(plane)
        sup = plane.stats.supervisor
        assert sup.deadline_misses == 0
        assert sup.attempts == sup.tasks == 8


def _injector(**fault):
    return FaultInjector(
        FaultPlan(worker=WorkerFault(iteration=1, **fault)), seed=3
    )


class TestBytesIdenticalHoweverARankGotDone:
    def test_after_a_kill_on_the_only_worker(self, tmp_path, serial_bytes):
        # One worker: everything after the kill runs on its replacement,
        # which has to build its own application first.
        plane = PoolDataPlane(
            small_spec(tmp_path / "pool", workers=1, task_deadline_s=10.0),
            injector=_injector(kind="kill", rank=0),
        )
        assert dump_once(plane) == serial_bytes
        sup = plane.stats.supervisor
        assert sup.worker_deaths >= 1 and sup.retries >= 1
        assert sup.fallback_ranks == []

    def test_after_a_deadline_miss(self, tmp_path, serial_bytes):
        # Rank 3's first attempt stalls past its deadline: the retry
        # wins and the stalled attempt is superseded.
        plane = PoolDataPlane(
            small_spec(tmp_path / "pool", task_deadline_s=0.5),
            injector=_injector(kind="stall", rank=3, stall_s=5.0),
        )
        assert dump_once(plane) == serial_bytes
        sup = plane.stats.supervisor
        assert sup.deadline_misses >= 1
        assert "it0001/rank3" in sup.retried_ranks
        assert sup.fallback_ranks == []

    def test_via_the_rank_serial_fallback(self, tmp_path, serial_bytes):
        plane = PoolDataPlane(
            small_spec(tmp_path / "pool", max_task_retries=1),
            injector=_injector(kind="error", rank=2, attempts=99),
        )
        generated = []
        real = plane.app.generate_field
        plane.app.generate_field = lambda name, rank, it: (
            generated.append(rank) or real(name, rank, it)
        )
        assert dump_once(plane) == serial_bytes
        assert plane.stats.supervisor.fallback_ranks == ["it0001/rank2"]
        # The fallback is the parent's only generate call.
        assert generated == [2, 2]
        assert plane.stats.raw_bytes == 4 * 2 * plane.app.partition_nbytes()


@pytest.mark.parametrize("plane_type", [SerialDataPlane, PoolDataPlane])
def test_dump_event_carries_that_dump_only(tmp_path, plane_type):
    tracer = Tracer()
    plane = plane_type(small_spec(tmp_path), tracer=tracer)
    try:
        plane.dump(1)
        plane.dump(2)
        plane.close()
    except BaseException:
        plane.abort()
        raise
    events = [e for e in tracer.recorder.events if e.name == "engine.dump"]
    assert [e.attrs["iteration"] for e in events] == [1, 2]
    per_dump = plane.stats.num_blocks // 2
    assert [e.attrs["blocks"] for e in events] == [per_dump, per_dump]
    for key, total in (
        ("generate_s", plane.stats.generate_wall_s),
        ("compress_s", plane.stats.compress_wall_s),
        ("generate_cpu_s", plane.stats.generate_cpu_s),
        ("compress_cpu_s", plane.stats.compress_cpu_s),
    ):
        assert all(e.attrs[key] > 0.0 for e in events)
        assert sum(e.attrs[key] for e in events) == pytest.approx(total)
    assert tracer.recorder.counters["engine.dump"] == 2
