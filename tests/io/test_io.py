"""Tests for the I/O substrate: throughput model, shared container, and
the async background writer."""

import os
import threading

import numpy as np
import pytest

from repro.io import (
    AsyncWriter,
    IoThroughputModel,
    SharedFileReader,
    SharedFileWriter,
)


class TestThroughputModel:
    def test_large_write_near_bandwidth(self):
        model = IoThroughputModel(
            node_bandwidth_bytes_per_s=1e9,
            processes_per_node=1,
            write_latency_s=0.001,
        )
        eff = model.effective_throughput(1_000_000_000)
        assert eff == pytest.approx(1e9, rel=0.01)

    def test_small_write_penalized(self):
        model = IoThroughputModel()
        small = model.effective_throughput(100_000)  # 100 KB
        large = model.effective_throughput(100_000_000)  # 100 MB
        assert small < large / 5

    def test_bandwidth_shared_across_processes(self):
        model = IoThroughputModel(processes_per_node=1)
        crowded = model.with_processes(4)
        assert crowded.per_process_bandwidth == pytest.approx(
            model.per_process_bandwidth / 4
        )

    def test_zero_write_free(self):
        assert IoThroughputModel().write_time(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            IoThroughputModel().write_time(-1)

    def test_array_of_sizes_gives_each_write_time(self):
        model = IoThroughputModel(num_nodes=8)
        sizes = [0, 1, 4096, 7_340_033, 2**31]
        scalar = [model.write_time(n) for n in sizes]
        assert all(type(t) is float for t in scalar)
        assert scalar == [0.0] + [
            model.write_latency_s + n / model.per_process_bandwidth
            for n in sizes[1:]
        ]
        assert model.write_time(np.array(sizes)).tolist() == scalar
        with pytest.raises(ValueError):
            model.write_time(np.array([5, -1]))

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            IoThroughputModel(node_bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            IoThroughputModel(processes_per_node=0)


class TestSharedFile:
    def test_reserve_write_read_round_trip(self, tmp_path):
        path = tmp_path / "dump.rpio"
        with SharedFileWriter(path) as writer:
            writer.reserve("a", 10)
            writer.reserve("b", 10)
            assert writer.write("a", b"hello")
            assert writer.write("b", b"world!")
        with SharedFileReader(path) as reader:
            assert reader.names() == ["a", "b"]
            assert reader.read("a") == b"hello"
            assert reader.read("b") == b"world!"

    def test_offsets_are_disjoint(self, tmp_path):
        path = tmp_path / "dump.rpio"
        with SharedFileWriter(path) as writer:
            offsets = [writer.reserve(f"d{i}", 100) for i in range(10)]
        assert len(set(offsets)) == 10
        assert sorted(offsets) == offsets

    def test_overflow_region_used_when_prediction_too_small(self, tmp_path):
        path = tmp_path / "dump.rpio"
        with SharedFileWriter(path) as writer:
            writer.reserve("small", 4)
            writer.reserve("next", 4)
            fit = writer.write("small", b"way too large payload")
            assert not fit
            assert writer.write("next", b"ok")
            assert writer.overflow_bytes == len(b"way too large payload")
        with SharedFileReader(path) as reader:
            assert reader.read("small") == b"way too large payload"
            assert reader.read("next") == b"ok"
            assert reader.entries["small"].overflowed

    def test_write_unreserved(self, tmp_path):
        path = tmp_path / "dump.rpio"
        with SharedFileWriter(path) as writer:
            writer.write_unreserved("extra", b"tail data")
        with SharedFileReader(path) as reader:
            assert reader.read("extra") == b"tail data"

    def test_double_reserve_rejected(self, tmp_path):
        with SharedFileWriter(tmp_path / "f") as writer:
            writer.reserve("a", 4)
            with pytest.raises(ValueError):
                writer.reserve("a", 4)

    def test_write_without_reserve_rejected(self, tmp_path):
        with SharedFileWriter(tmp_path / "f") as writer:
            with pytest.raises(KeyError):
                writer.write("ghost", b"x")

    def test_double_write_rejected(self, tmp_path):
        with SharedFileWriter(tmp_path / "f") as writer:
            writer.reserve("a", 8)
            writer.write("a", b"x")
            with pytest.raises(ValueError):
                writer.write("a", b"y")

    def test_reader_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"not a container at all, definitely not")
        with pytest.raises(ValueError):
            SharedFileReader(path)

    def test_closed_writer_rejects_operations(self, tmp_path):
        writer = SharedFileWriter(tmp_path / "f")
        writer.close()
        with pytest.raises(ValueError):
            writer.reserve("a", 4)
        writer.close()  # idempotent


class TestAsyncWriter:
    def test_async_write_lands(self, tmp_path):
        path = tmp_path / "dump.rpio"
        with SharedFileWriter(path) as writer:
            writer.reserve("a", 16)
            with AsyncWriter(writer) as async_writer:
                job = async_writer.submit("a", b"payload")
                assert job.wait(timeout=5.0)
                assert job.fit_reservation
        with SharedFileReader(path) as reader:
            assert reader.read("a") == b"payload"

    def test_fifo_order(self, tmp_path):
        order = []
        path = tmp_path / "dump.rpio"

        class Spy(SharedFileWriter):
            def write(self, name, payload):
                order.append(name)
                return super().write(name, payload)

        with Spy(path) as writer:
            for i in range(8):
                writer.reserve(f"d{i}", 4)
            with AsyncWriter(writer) as async_writer:
                jobs = [
                    async_writer.submit(f"d{i}", b"abcd") for i in range(8)
                ]
                async_writer.drain()
        assert order == [f"d{i}" for i in range(8)]
        assert all(j.fit_reservation for j in jobs)

    def test_submit_does_not_block(self, tmp_path):
        path = tmp_path / "dump.rpio"
        release = threading.Event()

        class Slow(SharedFileWriter):
            def write(self, name, payload):
                release.wait(5.0)
                return super().write(name, payload)

        with Slow(path) as writer:
            writer.reserve("a", 4)
            async_writer = AsyncWriter(writer)
            job = async_writer.submit("a", b"data")
            assert not job.wait(timeout=0.05)  # worker is blocked
            release.set()
            assert job.wait(timeout=5.0)
            async_writer.close()

    def test_worker_error_surfaces_at_wait(self, tmp_path):
        with SharedFileWriter(tmp_path / "f") as writer:
            with AsyncWriter(writer) as async_writer:
                job = async_writer.submit("never-reserved", b"x")
                with pytest.raises(KeyError):
                    job.wait(timeout=5.0)

    def test_submit_after_close_rejected(self, tmp_path):
        with SharedFileWriter(tmp_path / "f") as writer:
            async_writer = AsyncWriter(writer)
            async_writer.close()
            with pytest.raises(ValueError):
                async_writer.submit("a", b"x")


class TestScaleContention:
    def test_single_node_no_contention(self):
        assert IoThroughputModel(num_nodes=1).contention == 1.0

    def test_contention_grows_with_nodes(self):
        m1 = IoThroughputModel(num_nodes=1)
        m16 = m1.with_nodes(16)
        assert m16.contention > m1.contention
        assert m16.per_process_bandwidth < m1.per_process_bandwidth

    def test_subfiles_relieve_contention(self):
        crowded = IoThroughputModel(num_nodes=16)
        split = crowded.with_subfiles(4)
        assert split.contention < crowded.contention
        assert split.per_process_bandwidth > crowded.per_process_bandwidth

    def test_subfiles_beyond_nodes_cap_at_one(self):
        model = IoThroughputModel(num_nodes=4).with_subfiles(16)
        assert model.contention == 1.0

    def test_with_methods_preserve_other_fields(self):
        base = IoThroughputModel(
            node_bandwidth_bytes_per_s=1e9,
            write_latency_s=0.002,
            scale_contention=0.2,
        )
        derived = base.with_processes(8).with_nodes(4).with_subfiles(2)
        assert derived.node_bandwidth_bytes_per_s == 1e9
        assert derived.write_latency_s == 0.002
        assert derived.scale_contention == 0.2
        assert derived.processes_per_node == 8
        assert derived.num_nodes == 4
        assert derived.num_subfiles == 2

    def test_invalid_subfiles(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            IoThroughputModel(num_subfiles=0)
