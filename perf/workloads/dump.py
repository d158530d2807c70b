"""The data-plane dump workloads and their stage replay.

An operation is one dump iteration driven through the public engine
protocol (``run_iteration``): every rank's fields are generated, sliced,
compressed, CRC-stamped and written into one ``.rpio`` container.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time

import numpy as np

from harness import Calibrator, p50
from spans import SpanRecorder, StageTable

from repro.compression import (
    CompressedBlock,
    CompressionThroughputModel,
    RatioModel,
    SZCompressor,
    build_codebook,
    codebook_to_bytes,
    encode_codes,
    lorenzo_forward,
    lossless_compress,
    plan_blocks,
    prequantize,
    slice_field,
)
from repro.durability.checksum import crc32c
from repro.engines import (
    CampaignSpec,
    PoolDataPlane,
    SegmentRegistry,
    SerialDataPlane,
    attach_view,
    get_engine,
)
from repro.io.async_io import AsyncWriter
from repro.io.hdf5like import SharedFileReader, SharedFileWriter
from repro.telemetry import NULL_TRACER, Tracer

from .base import CheckResult, TraceResult, Workload

#: The engines take the campaign length from the spec but never look
#: past the current iteration; the timed loop decides how many run.
_ITERATIONS = 100_000
#: The applications' fields change character with the iteration (warpx
#: goes constant past ~30): the timed loop starts over before that, so
#: that a faster program does not get a different workload.
_LAST_ITERATION = 24
#: Seconds the CRC-only pass over the older containers may take.
_CHECK_BUDGET_S = 1.5
#: Raw bytes of the block sample the four codec backends compress.
_BACKEND_SAMPLE_BYTES = 512 * 1024
_BACKENDS = ("numpy", "pure", "deflate", "zlib")


def iter_blocks(spec: CampaignSpec, app, iteration: int):
    """``(dataset, values, bound)`` of every block of one dump, in the
    order the data planes compress them."""
    for rank in range(spec.nodes * spec.ppn):
        for fs in app.fields[: spec.data_fields]:
            values = app.generate_field(fs.name, rank, iteration)
            for bspec in plan_blocks(
                fs.name, values.shape, values.itemsize, spec.data_block_bytes
            ):
                yield (
                    f"rank{rank}/{fs.name}/{bspec.block_index}",
                    np.ascontiguousarray(slice_field(values, bspec)),
                    fs.error_bound,
                )


def check_container(
    result: CheckResult,
    spec: CampaignSpec,
    iteration: int,
    path: str,
    crc_map: dict[str, int],
    full: bool,
) -> None:
    """Read every block of one container back.

    Every block's stored CRC32C is verified and compared with the one
    the data plane recorded at compression time.  With ``full`` the
    block is also decompressed and held to its field's error bound
    against the regenerated input.
    """
    compressor = SZCompressor()
    with SharedFileReader(path) as reader:
        if full:
            expected = iter_blocks(spec, spec.data_application(), iteration)
        else:
            expected = ((name, None, None) for name in reader.names())
        seen = 0
        for name, values, bound in expected:
            seen += 1
            what = f"it{iteration:04d}/{name}"
            try:
                payload = reader.read(name, verify=True)
                ok = reader.entries[name].crc32c == crc_map.get(what)
                if ok and full:
                    restored = compressor.decompress(
                        CompressedBlock.from_bytes(payload)
                    )
                    error = np.abs(
                        restored.astype(np.float64) - values
                    ).max()
                    ok = (
                        restored.shape == values.shape
                        and error <= bound * (1 + 1e-6)
                    )
            except (KeyError, ValueError) as exc:
                ok, what = False, f"{what}: {exc}"
            result.expect(bool(ok), what)
        result.expect(
            seen == len(reader.entries),
            f"it{iteration:04d}: container holds {len(reader.entries)} "
            f"datasets, expected {seen}",
        )


class StageReplay:
    """One dump pushed through the layers one public call at a time.

    Mirrors ``SerialDataPlane.dump``: the bytes it writes are identical
    (``trace()`` checks the CRC map against the engine's), but every
    stage runs inside its own span.
    """

    def __init__(self, spec: CampaignSpec, recorder: SpanRecorder) -> None:
        self.spec = spec
        self.rec = recorder
        self.app = spec.data_application()
        self.compressor = SZCompressor()
        # The control plane the engine runs before each dump.
        self.control = get_engine("sim")(
            dataclasses.replace(spec, data_dir=None, engine="sim")
        )
        self.control.prepare()
        self.control.run_iteration(0)
        self.crc_map: dict[str, int] = {}
        self.payloads: list[tuple[str, bytes, int]] = []
        self.values = 0
        self.outliers = 0
        self.bytes_in = 0

    def _compress(self, block: np.ndarray, bound: float) -> bytes:
        span = self.rec.span
        comp = self.compressor
        backend = comp.backend
        with span("compression.prequantize"):
            grid = prequantize(block, bound)
        with span("compression.lorenzo"):
            deltas = lorenzo_forward(grid)
        with span("compression.encode_codes"):
            quantized = encode_codes(deltas, comp.radius)
        codes = quantized.codes.reshape(-1)
        with span("compression.codebook"):
            hist = np.bincount(codes, minlength=2 * comp.radius + 1)
            codebook = build_codebook(
                hist,
                force_symbols=(comp.sentinel,),
                max_length=backend.build_max_length,
            )
            blob = codebook_to_bytes(codebook)
        with span("compression.encode"):
            stream = backend.encode(
                codes, codebook, chunk_size=comp.chunk_size
            )
        with span("compression.lossless"):
            payload = lossless_compress(
                stream.data
                + quantized.outlier_positions.astype(np.int64).tobytes()
                + quantized.outlier_values.astype(np.int64).tobytes()
            )
        with span("compression.to_bytes"):
            data = CompressedBlock(
                payload=payload,
                shape=block.shape,
                dtype=block.dtype,
                error_bound=bound,
                radius=comp.radius,
                nbits=stream.nbits,
                num_outliers=int(quantized.outlier_positions.size),
                codebook_blob=blob,
                used_shared_tree=False,
                chunk_size=stream.chunk_size,
                chunk_offsets=tuple(int(o) for o in stream.chunk_offsets),
                codec=backend.format_id,
            ).to_bytes()
        self.values += codes.size
        self.outliers += int(quantized.outlier_positions.size)
        return data

    def dump(self, iteration: int, path: str) -> None:
        span, spec = self.rec.span, self.spec
        self.payloads = []
        self.values = self.outliers = self.bytes_in = 0
        with span("dump", op=iteration):
            with span("engines.control_plane"):
                self.control.run_iteration(iteration)
            with span("io.close_publish"):
                writer = SharedFileWriter(path)
            for rank in range(spec.nodes * spec.ppn):
                for fs in self.app.fields[: spec.data_fields]:
                    with span("apps.generate"):
                        values = self.app.generate_field(
                            fs.name, rank, iteration
                        )
                    self.bytes_in += values.nbytes
                    with span("compression.blocking"):
                        plan = plan_blocks(
                            fs.name,
                            values.shape,
                            values.itemsize,
                            spec.data_block_bytes,
                        )
                    for bspec in plan:
                        with span("compression.blocking"):
                            block = np.ascontiguousarray(
                                slice_field(values, bspec)
                            )
                        data = self._compress(block, fs.error_bound)
                        with span("durability.crc32c"):
                            stamp = crc32c(data)
                        self.payloads.append(
                            (
                                f"rank{rank}/{fs.name}/{bspec.block_index}",
                                data,
                                stamp,
                            )
                        )
            for name, data, stamp in self.payloads:
                # The async writer re-verifies a queued payload before
                # it calls write(), which checks it a third time.
                with span("durability.crc32c"):
                    intact = crc32c(data) == stamp
                if not intact:
                    raise RuntimeError(f"{name}: payload changed in memory")
                with span("io.reserve_write"):
                    writer.reserve(name, len(data))
                    writer.write(name, data, checksum=stamp)
                self.crc_map[f"it{iteration:04d}/{name}"] = stamp
            with span("io.close_publish"):
                writer.close()

    def close(self) -> None:
        self.control.finalize()


class _DumpWorkload(Workload):
    spec_kwargs: dict = {}
    smoke_kwargs: dict = {}
    #: Only the workload the ROADMAP's < 5 % tracer gate reads pays for
    #: the live-``Tracer`` comparison.
    live_tracer_probe = False

    def __init__(self, seed, work, smoke=False) -> None:
        super().__init__(seed, work, smoke)
        self.engine = None
        self._released_stats = None
        self._setups = 0
        self._broken = False

    def _spec(self, data_dir, **overrides) -> CampaignSpec:
        kwargs = dict(self.spec_kwargs)
        if self.smoke:
            kwargs.update(self.smoke_kwargs)
        kwargs.update(overrides)
        return CampaignSpec(
            solution="ours",
            seed=self.seed,
            iterations=_ITERATIONS,
            data_dir=str(data_dir),
            **kwargs,
        )

    def setup(self) -> None:
        self._setups += 1
        self.spec = self._spec(self.work / f"dump{self._setups}")
        self.engine = get_engine(self.spec.engine)(self.spec)
        self.engine.prepare()
        # Iteration 0 never dumps; it seeds the control plane's history.
        self.engine.run_iteration(0)
        self.iteration = 1

    def op(self) -> None:
        try:
            record = self.engine.run_iteration(self.iteration)
        except BaseException:
            self._broken = True
            raise
        if not record.dumped:
            raise RuntimeError(f"iteration {self.iteration} did not dump")
        self.iteration += 1

    def rearm(self) -> None:
        if self.iteration > _LAST_ITERATION:
            self.release()
            self.setup()

    def release(self) -> None:
        engine, self.engine = self.engine, None
        if engine is None:
            return
        self._released_stats = engine.dataplane.stats
        if self._broken:
            engine.abort()
        else:
            engine.finish()
            engine.finalize()

    @property
    def stats(self):
        """The live engine's data-plane stats, or — right after a
        ``rearm()`` — those of the engine it replaced."""
        stats = self.engine.dataplane.stats
        return stats if stats.containers else self._released_stats

    def io_bytes_per_op(self) -> float:
        sizes = [os.path.getsize(p) for p in self.stats.containers.values()]
        return sum(sizes) / len(sizes)

    def check(self) -> CheckResult:
        result = CheckResult()
        stats = self.stats
        newest_first = sorted(stats.containers, reverse=True)
        deadline = None
        for iteration in newest_first:
            if deadline is not None and time.perf_counter() > deadline:
                break
            check_container(
                result,
                self.spec,
                iteration,
                stats.containers[iteration],
                stats.block_crc32c,
                full=deadline is None,
            )
            if deadline is None:
                deadline = time.perf_counter() + _CHECK_BUDGET_S
        return result

    # -- traced run ----------------------------------------------------
    def _codec_probes(self) -> dict[str, float]:
        """Whole-``compress`` cost, the two cost models, four backends."""
        spec = self.spec
        compressor = SZCompressor()
        time_model = CompressionThroughputModel()
        ratio_model = RatioModel(compressor)
        compress_s = 0.0
        time_ratios, ratio_errors, sample, sample_bytes = [], [], [], 0
        for index, (_, block, bound) in enumerate(
            iter_blocks(spec, spec.data_application(), 1)
        ):
            t0 = time.perf_counter()
            compressed = compressor.compress(block, bound)
            elapsed = time.perf_counter() - t0
            compress_s += elapsed
            time_ratios.append(
                elapsed
                / time_model.compression_time(block.nbytes, shared_tree=False)
            )
            if index % 24 == 0:
                actual = len(compressed.to_bytes())
                predicted = ratio_model.predict(block, bound).compressed_nbytes
                ratio_errors.append(abs(predicted - actual) / actual)
            if sample_bytes < _BACKEND_SAMPLE_BYTES:
                rows = max(
                    1,
                    (_BACKEND_SAMPLE_BYTES - sample_bytes)
                    * block.shape[0]
                    // block.nbytes,
                )
                piece = np.ascontiguousarray(block[:rows])
                sample.append((piece, bound))
                sample_bytes += piece.nbytes
        metrics = {
            "compression.compress_s": compress_s,
            "compression.time_model_ratio": p50(time_ratios),
            "compression.ratio_model_err_p50": p50(ratio_errors),
        }
        for backend in _BACKENDS:
            other = SZCompressor(backend=backend)
            t0 = time.perf_counter()
            for piece, bound in sample:
                other.compress(piece, bound).to_bytes()
            metrics[f"compression.compress_mb_per_s.{backend}"] = (
                sample_bytes / 1e6 / (time.perf_counter() - t0)
            )
        return metrics

    def _async_drain_probe(self, payloads) -> float:
        """The real write path: reserve + submit ... drain + close."""
        writer = SharedFileWriter(self.work / "drain.rpio")
        async_writer = AsyncWriter(writer)
        try:
            t0 = time.perf_counter()
            for name, data, stamp in payloads:
                writer.reserve(name, len(data))
                async_writer.submit(name, data, checksum=stamp)
            async_writer.drain(timeout=60.0)
            async_writer.close(timeout=60.0)
            return time.perf_counter() - t0
        finally:
            writer.abort()

    def _live_tracer_overhead(self) -> float:
        """The same dumps with a recording ``Tracer`` on the engine and
        with ``NULL_TRACER``, alternating so that drift hits both."""
        engines, walls = [], ([], [])
        try:
            for k, tracer in enumerate((NULL_TRACER, Tracer())):
                spec = self._spec(self.work / f"livetrace{k}")
                engines.append(get_engine(spec.engine)(spec, tracer=tracer))
                engines[k].prepare()
                engines[k].run_iteration(0)
            for iteration in (1, 2):
                for k, engine in enumerate(engines):
                    t0 = time.perf_counter()
                    engine.run_iteration(iteration)
                    walls[k].append(time.perf_counter() - t0)
            for engine in engines:
                engine.finish()
                engine.finalize()
        except BaseException:
            for engine in engines:
                engine.abort()
            raise
        return p50(walls[1]) / p50(walls[0]) - 1.0

    def trace(self, seconds: float, cal: Calibrator) -> TraceResult:
        untraced_p50 = self.untraced_p50(seconds / 3, cal)

        recorder = SpanRecorder()
        replay = StageReplay(self.spec, recorder)
        try:
            deadline = time.perf_counter() + 2 * seconds / 3
            iteration = 0
            while iteration < 2 or time.perf_counter() < deadline:
                iteration += 1
                replay.dump(
                    iteration, str(self.work / f"replay{iteration}.rpio")
                )
        finally:
            replay.close()
        engine_map = self.stats.block_crc32c
        shared = replay.crc_map.keys() & engine_map.keys()
        if not shared or any(
            replay.crc_map[k] != engine_map[k] for k in shared
        ):
            raise RuntimeError(
                "stage replay diverged: its blocks differ from the "
                "engine's for the same iteration"
            )

        table = StageTable(recorder, "dump")
        metrics = table.stage_metrics()
        blocks = len(replay.payloads)
        bytes_out = sum(len(data) for _, data, _ in replay.payloads)
        container = os.path.getsize(self.work / f"replay{iteration}.rpio")
        stats = self.stats
        dumps = len(stats.containers)
        metrics.update(
            {
                "compression.blocks": blocks,
                "compression.bytes_in": replay.bytes_in,
                "compression.bytes_out": bytes_out,
                "compression.ratio": replay.bytes_in / bytes_out,
                "compression.outlier_frac": replay.outliers / replay.values,
                # stamp + queue verify + write() per block, plus the footer
                "durability.crc32c_calls": 3 * blocks + 1,
                "durability.crc32c_bytes": 3 * bytes_out
                + (container - bytes_out),
                "io.write_calls": blocks,
                "io.bytes_written": container,
                "io.async_drain_s": self._async_drain_probe(replay.payloads),
                # the program's own account of its untraced dumps
                "engines.dump_s": stats.dump_wall_s / dumps,
                "engines.dump_mb_per_s": replay.bytes_in / 1e6 / untraced_p50,
                "engines.stats_generate_wall_s": stats.generate_wall_s / dumps,
                "engines.stats_compress_wall_s": stats.compress_wall_s / dumps,
                "engines.stats_write_wall_s": stats.write_wall_s / dumps,
                **table.trace_metrics(untraced_p50),
            }
        )
        metrics.update(self._codec_probes())
        if self.live_tracer_probe:
            metrics["telemetry.live_tracer_overhead_frac"] = (
                self._live_tracer_overhead()
            )
        return TraceResult(metrics, recorder, table)


class DumpSerialNyx(_DumpWorkload):
    name = "dump_serial_nyx"
    spec_kwargs = dict(
        app="nyx",
        nodes=1,
        ppn=4,
        data_edge=64,
        data_fields=3,
        data_block_bytes=65536,
        engine="sim",
    )
    smoke_kwargs = dict(data_edge=16, data_block_bytes=8192)
    live_tracer_probe = True


class DumpSerialWarpx8m(_DumpWorkload):
    # One rank, one 7.1 MB block per field.  With 4 MiB blocks the ~24 KB payloads
    # straddle crc32c's 24 KiB vectorization threshold (2 ms below it,
    # a flat 22 ms above), and the operation's cost flips with the seed.
    name = "dump_serial_warpx_8m"
    spec_kwargs = dict(
        app="warpx",
        nodes=1,
        ppn=1,
        data_edge=96,
        data_fields=3,
        data_block_bytes=8388608,
        engine="sim",
    )
    smoke_kwargs = dict(data_edge=24, data_block_bytes=65536)


class DumpPoolNyx(_DumpWorkload):
    name = "dump_pool_nyx"
    spec_kwargs = dict(
        DumpSerialNyx.spec_kwargs, engine="process", workers=2
    )
    smoke_kwargs = DumpSerialNyx.smoke_kwargs

    def check(self) -> CheckResult:
        """The serial checks, plus: same bytes as the serial plane."""
        result = super().check()
        stats = self.stats
        last = max(stats.containers)
        reference = SerialDataPlane(
            dataclasses.replace(
                self.spec, engine="sim", data_dir=str(self.work / "reference")
            )
        )
        try:
            reference.dump(last)
        finally:
            reference.close()
        prefix = f"it{last:04d}/"
        mine = {
            k: v for k, v in stats.block_crc32c.items() if k.startswith(prefix)
        }
        result.expect(
            mine == reference.stats.block_crc32c,
            f"it{last:04d}: pool CRC map differs from the serial plane's",
        )
        with SharedFileReader(stats.containers[last]) as reader:
            stored = sum(e.nbytes for e in reader.entries.values())
        result.expect(
            stored == reference.stats.compressed_bytes,
            f"it{last:04d}: pool wrote {stored} payload bytes, serial "
            f"{reference.stats.compressed_bytes}",
        )
        return result

    def _serial_plane_probe(self, dumps: int) -> tuple[float, SerialDataPlane]:
        """p50 wall of ``SerialDataPlane.dump`` called directly."""
        plane = SerialDataPlane(self._spec(self.work / "plane", engine="sim"))
        walls = []
        try:
            for iteration in range(1, dumps + 1):
                t0 = time.perf_counter()
                plane.dump(iteration)
                walls.append(time.perf_counter() - t0)
        finally:
            plane.close()
        return p50(walls), plane

    def _shm_and_pickle_probes(self, container: str) -> dict[str, float]:
        spec = self.spec
        app = spec.data_application()
        arrays = [
            app.generate_field(fs.name, 0, 1)
            for fs in app.fields[: spec.data_fields]
        ]
        registry = SegmentRegistry()
        publish = []
        try:
            for _ in range(5):
                t0 = time.perf_counter()
                segment = registry.create(sum(a.nbytes for a in arrays))
                offset = 0
                for data in arrays:
                    view = attach_view(segment, data.shape, data.dtype, offset)
                    view[...] = data
                    offset += data.nbytes
                del view
                registry.release(segment.name)
                publish.append(time.perf_counter() - t0)
        finally:
            registry.release_all()
        with SharedFileReader(container) as reader:
            rank0 = [
                (name, reader.read(name), reader.entries[name].crc32c)
                for name in reader.names()
                if name.startswith("rank0/")
            ]
        pickles = []
        for _ in range(5):
            t0 = time.perf_counter()
            wire = pickle.dumps((0, rank0))
            pickle.loads(wire)
            pickles.append(time.perf_counter() - t0)
        return {
            "engines.shm_publish_s": p50(publish),
            "engines.payload_pickle_s": p50(pickles),
            "engines.pipe_bytes": len(wire) * spec.nodes * spec.ppn,
        }

    def trace(self, seconds: float, cal: Calibrator) -> TraceResult:
        untraced_p50 = self.untraced_p50(seconds / 3, cal)
        recorder = SpanRecorder()
        deadline = time.perf_counter() + seconds / 3
        traced = 0
        while traced < 2 or time.perf_counter() < deadline:
            traced += 1
            with recorder.span("dump", op=self.iteration):
                self.op()
        table = StageTable(recorder, "dump")

        spec = self._spec(self.work / "poolplane")
        plane = PoolDataPlane(spec)
        pool_walls = []
        try:
            t0 = time.perf_counter()
            plane.start()
            pool_start_s = time.perf_counter() - t0
            for iteration in (1, 2, 3):
                t0 = time.perf_counter()
                plane.dump(iteration)
                pool_walls.append(time.perf_counter() - t0)
            plane.close()
        except BaseException:
            plane.abort()
            raise
        dump_s, serial = self._serial_plane_probe(2)
        supervisor = self.stats.supervisor
        dumps = len(plane.stats.containers)
        metrics = {
            "engines.pool_start_s": pool_start_s,
            "engines.pool_dump_s": p50(pool_walls),
            "engines.dump_s": dump_s,
            "engines.pool_speedup": dump_s / p50(pool_walls),
            "engines.dump_mb_per_s": serial.stats.raw_bytes
            / len(serial.stats.containers)
            / 1e6
            / untraced_p50,
            "engines.supervisor_retries": supervisor.retries,
            "engines.supervisor_fallbacks": len(supervisor.fallback_ranks),
            "engines.supervisor_speculative": supervisor.speculative_launches,
            "engines.stats_generate_wall_s": plane.stats.generate_wall_s
            / dumps,
            "engines.stats_compress_wall_s": plane.stats.compress_wall_s
            / dumps,
            "engines.stats_write_wall_s": plane.stats.write_wall_s / dumps,
            "compression.ratio": plane.stats.compression_ratio,
            # The pool dump is one opaque call from outside: nothing of
            # its wall is attributed to a stage.
            **table.trace_metrics(untraced_p50),
        }
        metrics.update(
            self._shm_and_pickle_probes(serial.stats.containers[1])
        )
        return TraceResult(metrics, recorder, None)
