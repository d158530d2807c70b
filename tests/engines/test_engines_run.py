"""Each engine end to end: data plane, shutdown, cleanup."""

import dataclasses
import os

import pytest

from repro.compression import (
    CompressedBlock,
    SZCompressor,
    max_abs_error,
    plan_blocks,
    reassemble_field,
)
from repro.engines import (
    CampaignSpec,
    ExecutionEngine,
    PoolDataPlane,
    SerialDataPlane,
    WorkerSupervisor,
    run_campaign,
)
from repro.engines.shm import active_segments
from repro.framework import save_snapshot
from repro.io.hdf5like import SharedFileReader


def small_spec(**overrides) -> CampaignSpec:
    base = dict(
        nodes=1,
        ppn=2,
        iterations=3,
        seed=5,
        data_edge=8,
        data_fields=1,
        data_block_bytes=2048,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestSimulatorEngineDataPlane:
    def test_dump_iterations_write_containers(self, tmp_path):
        spec = small_spec(engine="sim", data_dir=str(tmp_path))
        report = run_campaign(spec)
        dumped = [r.iteration for r in report.result.records if r.dumped]
        assert sorted(report.data.containers) == dumped
        for path in report.data.containers.values():
            assert os.path.exists(path)
        assert report.data.num_blocks == len(report.block_crc32c)
        assert report.data.workers == 1

    def test_containers_decompress_within_bound(self, tmp_path):
        spec = small_spec(engine="sim", data_dir=str(tmp_path))
        report = run_campaign(spec)
        app = spec.data_application()
        field = app.fields[0]
        iteration, path = sorted(report.data.containers.items())[0]
        compressor = SZCompressor()
        with SharedFileReader(path) as reader:
            names = [
                n for n in reader.names() if n.startswith("rank0/")
            ]
            assert names
            payload = reader.read(names[0])
        block = CompressedBlock.from_bytes(payload)
        values = compressor.decompress(block)
        original = app.generate_field(field.name, 0, iteration)
        sliced = original[: values.shape[0]]
        assert abs(values - sliced).max() <= field.error_bound * (
            1 + 1e-9
        )


class TestProcessPoolEngine:
    def test_runs_with_temp_data_dir(self):
        spec = small_spec(engine="process", workers=2)
        report = run_campaign(spec)
        assert report.engine == "process"
        assert report.data is not None
        assert report.data.num_blocks > 0
        # The temp directory is removed at finalize.
        for path in report.data.containers.values():
            assert not os.path.exists(path)
        assert active_segments() == []

    def test_explicit_data_dir_is_kept(self, tmp_path):
        spec = small_spec(
            engine="process", data_dir=str(tmp_path), workers=2
        )
        report = run_campaign(spec)
        for path in report.data.containers.values():
            assert os.path.exists(path)
        assert report.data.workers == 2

    def test_worker_count_defaults_to_ranks_or_cpus(self, tmp_path):
        spec = small_spec(engine="process")
        plane = PoolDataPlane(
            dataclasses.replace(spec, data_dir=str(tmp_path))
        )
        assert plane.workers == min(2, os.cpu_count() or 1)
        plane.close()

    def test_abort_leaves_no_segment_and_no_temp_dir(self):
        spec = small_spec(engine="process", workers=2)
        engine = ExecutionEngine(spec)
        engine.prepare()
        tmpdir = engine.dataplane.spec.data_dir
        assert os.path.isdir(tmpdir)
        # A crash mid-campaign: one dump done, the pool still up.
        engine.run_iteration(0)
        engine.run_iteration(1)
        assert active_segments() == []
        engine.abort()
        assert active_segments() == []
        assert not os.path.exists(tmpdir)
        # abort() is idempotent.
        engine.abort()

    def test_dump_failure_aborts_container(self, tmp_path, monkeypatch):
        spec = small_spec(
            engine="process", data_dir=str(tmp_path), workers=2
        )
        engine = ExecutionEngine(spec)
        engine.prepare()

        def boom(*a, **k):
            raise RuntimeError("worker dispatch failed")

        monkeypatch.setattr(WorkerSupervisor, "run", boom)
        with pytest.raises(RuntimeError, match="worker dispatch"):
            for iteration in range(spec.iterations):
                engine.run_iteration(iteration)
        engine.abort()
        # No half-written container was published and nothing leaked.
        assert all(
            not name.endswith(".rpio")
            for name in os.listdir(tmp_path)
        )
        assert active_segments() == []


class TestSerialDataPlaneFailure:
    def test_dump_failure_aborts_container(self, tmp_path, monkeypatch):
        """A raising compress leaves no temp container, fd or writer
        thread behind, and the plane dumps again afterwards."""
        plane = SerialDataPlane(small_spec(data_dir=str(tmp_path)))
        real = plane._compressor.compress
        calls = []

        def second_block_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("codec failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(
            plane._compressor, "compress", second_block_fails
        )
        with pytest.raises(RuntimeError, match="codec failed"):
            plane.dump(1)
        assert os.listdir(tmp_path) == []
        assert plane._open_writer is None
        assert plane._open_async is None
        assert plane.stats.containers == {}
        plane.dump(1)
        assert os.listdir(tmp_path) == ["ours-it0001.rpio"]
        plane.close()

    def test_publish_failure_surfaces_its_own_error(self, tmp_path):
        """A container that cannot be published raises why, not the
        teardown's error, and leaves no temp file behind."""
        plane = SerialDataPlane(small_spec(data_dir=str(tmp_path)))
        os.mkdir(plane.container_path(1))
        with pytest.raises(IsADirectoryError):
            plane.dump(1)
        assert os.listdir(tmp_path) == ["ours-it0001.rpio"]
        assert plane.stats.containers == {}
        plane.close()


_ONE_SHOT = dict(
    engine="process",
    nodes=1,
    ppn=2,
    iterations=2,  # iteration 1 is the only dump
    seed=51,
    data_edge=12,
    data_fields=2,
    data_block_bytes=8 * 1024,
)


def _read_field(reader, spec, field_name, rank):
    """Decompress and reassemble one rank's field from a container."""
    app = spec.data_application()
    compressor = SZCompressor()
    return reassemble_field(
        [
            (
                block,
                compressor.decompress(
                    CompressedBlock.from_bytes(
                        reader.read(
                            f"rank{rank}/{field_name}/{block.block_index}"
                        )
                    )
                ),
            )
            for block in plan_blocks(
                field_name,
                app.partition_shape,
                app.dtype.itemsize,
                spec.data_block_bytes,
            )
        ]
    )


class TestOneShotDump:
    """One dump of every rank into one shared container, for real."""

    @pytest.fixture(scope="class")
    def dumped(self, tmp_path_factory):
        spec = CampaignSpec(
            data_dir=str(tmp_path_factory.mktemp("dump")),
            workers=2,
            **_ONE_SHOT,
        )
        report = run_campaign(spec)
        assert list(report.data.containers) == [1]
        return spec, report

    def test_every_rank_field_prefix_present(self, dumped):
        spec, report = dumped
        with SharedFileReader(report.data.containers[1]) as reader:
            names = reader.names()
        for rank in range(spec.ppn):
            for fs in spec.data_application().fields[: spec.data_fields]:
                assert any(
                    n.startswith(f"rank{rank}/{fs.name}/") for n in names
                )

    def test_dataset_extents_disjoint(self, dumped):
        _, report = dumped
        with SharedFileReader(report.data.containers[1]) as reader:
            spans = sorted(
                (e.offset, e.offset + e.nbytes)
                for e in reader.entries.values()
            )
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            assert end_a <= start_b

    def test_stats_accounting(self, dumped):
        spec, report = dumped
        partition = spec.data_application().partition_nbytes()
        assert report.data.raw_bytes == (
            spec.ppn * spec.data_fields * partition
        )
        with SharedFileReader(report.data.containers[1]) as reader:
            stored = sum(e.nbytes for e in reader.entries.values())
            assert len(reader.entries) == report.data.num_blocks
        assert stored == report.data.compressed_bytes

    def test_single_rank_uses_one_worker(self, tmp_path):
        spec = CampaignSpec(
            **{**_ONE_SHOT, "ppn": 1}, data_dir=str(tmp_path)
        )
        report = run_campaign(spec)
        assert report.data.workers == 1
        with SharedFileReader(report.data.containers[1]) as reader:
            assert all(n.startswith("rank0/") for n in reader.names())

    def test_other_iteration_violates_bound(self, dumped):
        # The container matches the iteration it dumped and no other:
        # the fields evolve, so a vacuous read-back check would show
        # here.
        spec, report = dumped
        app = spec.data_application()
        fs = app.fields[0]
        with SharedFileReader(report.data.containers[1]) as reader:
            restored = _read_field(reader, spec, fs.name, 0)
        own = app.generate_field(fs.name, 0, 1)
        other = app.generate_field(fs.name, 0, 20)
        assert max_abs_error(own, restored) <= fs.error_bound * (1 + 1e-9)
        assert max_abs_error(other, restored) > fs.error_bound


class TestSharedBlockCore:
    def test_snapshot_and_dataplane_store_same_bytes(self, tmp_path):
        """Same field, bound and block size: `save_snapshot` and the
        data plane store the same bytes, block for block."""
        spec = small_spec(data_dir=str(tmp_path / "plane"), data_fields=2)
        plane = SerialDataPlane(spec)
        plane.dump(1)
        plane.close()
        app = spec.data_application()
        specs = app.fields[: spec.data_fields]
        save_snapshot(
            tmp_path / "snap.rpio",
            {fs.name: app.generate_field(fs.name, 1, 1) for fs in specs},
            {fs.name: fs.error_bound for fs in specs},
            block_bytes=spec.data_block_bytes,
        )
        with SharedFileReader(
            plane.stats.containers[1]
        ) as dumped, SharedFileReader(tmp_path / "snap.rpio") as snap:
            rank1 = [n for n in dumped.names() if n.startswith("rank1/")]
            assert len(rank1) > len(specs)  # several blocks per field
            for name in rank1:
                assert dumped.read(name) == snap.read(
                    name.removeprefix("rank1/")
                )
