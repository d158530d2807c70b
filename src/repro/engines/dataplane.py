"""The engines' real data plane: generate, compress, and write bytes.

The campaign control plane (planning, scheduling, modelled replay,
journalling) is identical under every engine; what an engine actually
*executes* is this data plane.  On each dump iteration every rank's
partition fields are generated, sliced into fine-grained blocks,
compressed with the SZ codec, CRC32C-stamped, and written into one
shared ``.rpio`` container through the wall-clock
:class:`~repro.io.async_io.AsyncWriter`.

Two implementations share one deterministic block core
(:func:`~repro.compression.compress_field_blocks`) and one dump template
(:meth:`SerialDataPlane.dump`), so the same spec + seed yields
byte-identical compressed blocks (hence identical CRC32Cs) under both:

* :class:`SerialDataPlane` — everything in the calling process, strictly
  compress-then-write: the single-process reference.
* :class:`PoolDataPlane` — per-rank compression fans out to worker
  processes over zero-copy shared-memory views, payloads stream to the
  async writer as each rank finishes, and the parent generates the next
  rank's fields meanwhile — compute, compression, and I/O genuinely
  overlap on real cores.

The pool plane is *supervised*: every rank task runs under the
:class:`~repro.engines.supervisor.WorkerSupervisor`, which bounds each
attempt with a deadline, detects killed/replaced pool workers, retries
within the campaign's backoff policy, speculates on stragglers, and —
once the budget is gone — compresses the poisoned rank serially in the
parent through the very same deterministic core.  A rank therefore
yields identical bytes whether it succeeded first try, after a retry,
or via the fallback.

Container layout *order* may differ between the two (workers finish in
nondeterministic order) but the stored bytes per dataset are identical.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..compression import SZCompressor, compress_field_blocks
from ..io.async_io import AsyncWriter
from ..io.hdf5like import SharedFileWriter
from ..resilience.faults import FaultInjector
from ..resilience.report import ResilienceLog
from ..resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..telemetry import NULL_TRACER, NullTracer
from .shm import SegmentRegistry, attach_view
from .spec import CampaignSpec
from .supervisor import SupervisorStats, WorkerSupervisor

__all__ = ["DataPlaneStats", "SerialDataPlane", "PoolDataPlane"]

#: Seconds the engine waits for the async writer to drain one dump.
_DRAIN_TIMEOUT_S = 120.0


@dataclass
class DataPlaneStats:
    """Wall-clock outcome of a run's real compress+dump pipeline."""

    workers: int = 1
    num_blocks: int = 0
    raw_bytes: int = 0
    compressed_bytes: int = 0
    generate_wall_s: float = 0.0
    compress_wall_s: float = 0.0
    write_wall_s: float = 0.0
    dump_wall_s: float = 0.0
    #: iteration -> published container path.
    containers: dict[int, str] = field(default_factory=dict)
    #: ``it<NNNN>/rank<R>/<field>/<block>`` -> payload CRC32C.
    block_crc32c: dict[str, int] = field(default_factory=dict)
    #: Recovery tallies of the supervised pool plane (None when serial).
    supervisor: SupervisorStats | None = None

    @property
    def compression_ratio(self) -> float:
        return self.raw_bytes / max(1, self.compressed_bytes)


# ----------------------------------------------------------------------
# pool worker (runs in a forked child)
# ----------------------------------------------------------------------
_WORKER_COMPRESSOR: SZCompressor | None = None


def _apply_worker_fault(fault) -> None:
    """Execute one injected real-plane fault inside the pool worker.

    ``fault`` is ``None`` or ``(kind, stall_s)`` drawn deterministically
    by the parent's :meth:`~repro.resilience.faults.FaultInjector.
    worker_fault` and shipped with the task args — the worker executes
    the decision but never draws randomness itself.
    """
    if fault is None:
        return
    kind, stall_s = fault
    if kind == "kill":
        # The real thing: SIGKILL this pool child.  The pool silently
        # respawns a replacement, but the in-flight task never resolves
        # — exactly the hang the supervisor exists to catch.
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "stall":
        time.sleep(stall_s)
    elif kind == "error":
        raise RuntimeError("injected worker fault: task raised")


def _pool_compress_rank(args):
    """Compress one rank's shared-memory fields; returns its payloads.

    ``fields_meta`` rows are ``(name, shape, dtype_str, offset, bound)``
    describing zero-copy views into the named segment.  Only the
    compressed payloads (plus their CRC32Cs) travel back over the task
    pipe.  ``fault`` (see :func:`_apply_worker_fault`) fires before the
    segment is attached so an injected kill never strands a child-side
    handle.
    """
    seg_name, rank, fields_meta, block_bytes, fault = args
    _apply_worker_fault(fault)
    global _WORKER_COMPRESSOR
    if _WORKER_COMPRESSOR is None:
        _WORKER_COMPRESSOR = SZCompressor()
    segment = shared_memory.SharedMemory(name=seg_name)
    try:
        results: list[tuple[str, bytes, int]] = []
        for name, shape, dtype_str, offset, bound in fields_meta:
            view = attach_view(
                segment, tuple(shape), np.dtype(dtype_str), offset
            )
            results.extend(
                compress_field_blocks(
                    _WORKER_COMPRESSOR,
                    name,
                    view,
                    bound,
                    block_bytes,
                    prefix=f"rank{rank}/",
                )
            )
        return rank, results
    finally:
        segment.close()


# ----------------------------------------------------------------------
class SerialDataPlane:
    """Single-process reference: compress every block, then write."""

    def __init__(
        self,
        spec: CampaignSpec,
        tracer: NullTracer = NULL_TRACER,
        *,
        injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.spec = spec
        self.tracer = tracer
        self.app = spec.data_application()
        self.field_specs = tuple(self.app.fields[: spec.data_fields])
        self.ranks = spec.nodes * spec.ppn
        self.stats = DataPlaneStats(workers=1)
        self.injector = injector
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self._log: ResilienceLog | None = (
            injector.log if injector is not None else None
        )
        self._compressor = SZCompressor()
        self._open_writer: SharedFileWriter | None = None
        self._open_async: AsyncWriter | None = None
        os.makedirs(spec.data_dir, exist_ok=True)

    def container_path(self, iteration: int) -> str:
        return os.path.join(
            self.spec.data_dir,
            f"{self.spec.solution}-it{iteration:04d}.rpio",
        )

    # -- pipeline ------------------------------------------------------
    def start(self) -> None:
        """Bring up whatever :meth:`dump` needs (nothing here)."""

    def dump(self, iteration: int) -> None:
        """Really compress and write every rank's partition.

        The one dump template: open the container, let :meth:`_produce`
        hand compressed blocks to ``ingest`` (reserve, queue the write,
        record the CRC), drain the writer, re-raise the first failed
        write, publish.  Any error on the
        way aborts the container, so nothing half-written is published
        and the plane is ready for the next ``dump()``.
        """
        self.start()
        t_dump = time.perf_counter()
        path = self.container_path(iteration)
        writer = SharedFileWriter(path)
        async_writer = AsyncWriter(
            writer, retry=self.retry, on_retry=self._on_io_retry
        )
        self._open_writer, self._open_async = writer, async_writer
        jobs = []

        def ingest(blocks) -> None:
            for dataset, payload, checksum in blocks:
                writer.reserve(dataset, len(payload))
                jobs.append(
                    async_writer.submit(dataset, payload, checksum=checksum)
                )
                self.stats.num_blocks += 1
                self.stats.compressed_bytes += len(payload)
                self.stats.block_crc32c[
                    f"it{iteration:04d}/{dataset}"
                ] = checksum

        try:
            self._produce(iteration, ingest)
            t_write = time.perf_counter()
            async_writer.drain(timeout=_DRAIN_TIMEOUT_S)
            # A write that exhausted its retries only set ``job.error``:
            # the first one aborts the dump instead of being published
            # as a zero-byte dataset.
            for job in jobs:
                job.wait()
            async_writer.close(timeout=_DRAIN_TIMEOUT_S)
            writer.close()
        except BaseException:
            self._abort_open_container()
            raise
        self._open_writer = self._open_async = None
        now = time.perf_counter()
        self.stats.write_wall_s += now - t_write
        self.stats.dump_wall_s += now - t_dump
        self.stats.containers[iteration] = path
        if self.tracer.enabled:
            self.tracer.event(
                "engine.dump",
                iteration=iteration,
                wall_s=now - t_dump,
                blocks=self.stats.num_blocks,
            )
            self.tracer.counter("engine.dump").inc()

    def _produce(self, iteration: int, ingest) -> None:
        """Strictly compress-then-write: every rank, then one ingest."""
        blocks: list[tuple[str, bytes, int]] = []
        for rank in range(self.ranks):
            blocks.extend(self._rank_payloads(iteration, rank))
        ingest(blocks)

    def _rank_payloads(
        self, iteration: int, rank: int, *, count_raw: bool = True
    ) -> list[tuple[str, bytes, int]]:
        """Generate + compress one rank in this process.

        The serial dump's per-rank body — and the pool plane's
        ``rank-serial`` fallback, which is what makes fallback bytes
        identical to the pool path.  ``count_raw=False`` skips the
        raw-byte tally for ranks already counted at publish time.
        """
        payloads: list[tuple[str, bytes, int]] = []
        for fs in self.field_specs:
            t0 = time.perf_counter()
            values = self.app.generate_field(fs.name, rank, iteration)
            t1 = time.perf_counter()
            self.stats.generate_wall_s += t1 - t0
            payloads.extend(
                compress_field_blocks(
                    self._compressor,
                    fs.name,
                    values,
                    fs.error_bound,
                    self.spec.data_block_bytes,
                    prefix=f"rank{rank}/",
                )
            )
            if count_raw:
                self.stats.raw_bytes += values.nbytes
            self.stats.compress_wall_s += time.perf_counter() - t1
        return payloads

    def _on_io_retry(self, job, exc: BaseException) -> None:
        """Count one wall-clock write retry in the campaign log."""
        if self._log is not None:
            self._log.record_retry()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Orderly shutdown (idempotent)."""
        self._abort_open_container()

    def abort(self) -> None:
        """Abnormal shutdown: never publish a half-written container."""
        self._abort_open_container()

    def _abort_open_container(self) -> None:
        async_writer, self._open_async = self._open_async, None
        writer, self._open_writer = self._open_writer, None
        if async_writer is not None:
            try:
                async_writer.close(timeout=5.0)
            except (TimeoutError, RuntimeError):  # pragma: no cover
                pass
        if writer is not None:
            writer.abort()


class PoolDataPlane(SerialDataPlane):
    """Per-rank compression on real worker processes, I/O overlapped.

    For each dump iteration the parent fills one shared-memory segment
    per rank with that rank's generated fields and hands workers a
    zero-copy view descriptor.  Each rank task runs under the
    :class:`~repro.engines.supervisor.WorkerSupervisor`: finished ranks
    stream their compressed payloads onto the async writer while the
    parent is still generating later ranks, killed or hung workers are
    detected and the task re-executed within the campaign's retry
    budget, and an unsalvageable rank is compressed serially in the
    parent — so a dump completes (with identical bytes) even when the
    pool misbehaves.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        tracer: NullTracer = NULL_TRACER,
        *,
        injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(spec, tracer, injector=injector, retry=retry)
        self.workers = spec.workers or min(
            self.ranks, os.cpu_count() or 1
        )
        self.stats.workers = self.workers
        self.stats.supervisor = SupervisorStats()
        # Same backoff shape as the write policy, but the attempt cap is
        # the spec's task knob: first launch + max_task_retries re-runs.
        self._task_retry = dataclasses.replace(
            self.retry, max_attempts=spec.max_task_retries + 1
        )
        self.registry = SegmentRegistry()
        self._pool = None
        self._lifecycle_lock = threading.Lock()

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self._pool is None:
            # The resource tracker must exist *before* the fork so the
            # workers inherit it: attach-time registrations then dedupe
            # against the parent's create-time ones and the parent's
            # unlink settles the account.  Forked-after-the-fact workers
            # would each spawn a private tracker that complains at exit
            # about segments the parent already unlinked.
            resource_tracker.ensure_running()
            ctx = multiprocessing.get_context("fork")
            self._pool = ctx.Pool(self.workers)

    def _worker_pids(self) -> tuple[int, ...]:
        """Current pool-child PIDs (empty once the pool is gone)."""
        pool = self._pool
        if pool is None:
            return ()
        return tuple(
            proc.pid
            for proc in getattr(pool, "_pool", ())
            if proc.pid is not None
        )

    # -- pipeline ------------------------------------------------------
    def _produce(self, iteration: int, ingest) -> None:
        """Publish each rank to the pool; stream finished ranks out."""
        t_produce = time.perf_counter()
        published: dict[int, tuple] = {}

        def launch(rank: int, attempt: int):
            segment, fields_meta = published[rank]
            fault = None
            if self.injector is not None:
                fault = self.injector.worker_fault(
                    rank, iteration, attempt
                )
            return self._pool.apply_async(
                _pool_compress_rank,
                (
                    (
                        segment.name,
                        rank,
                        fields_meta,
                        self.spec.data_block_bytes,
                        fault,
                    ),
                ),
            )

        def fallback(rank: int):
            # Regenerate + compress in the parent through the shared
            # deterministic core: bytes identical to the pool path.
            return rank, self._rank_payloads(
                iteration, rank, count_raw=False
            )

        def on_resolved(rank: int) -> None:
            segment, _ = published.pop(rank)
            self.registry.release(segment.name)

        supervisor = WorkerSupervisor(
            launch=launch,
            ingest=lambda rank, result: ingest(result[1]),
            fallback=fallback,
            retry=self._task_retry,
            deadline_s=self.spec.task_deadline_s,
            speculative_frac=self.spec.speculative_frac,
            worker_pids=self._worker_pids,
            on_resolved=on_resolved,
            stats=self.stats.supervisor,
            log=self._log,
            tracer=self.tracer,
            iteration=iteration,
        )
        try:
            for rank in range(self.ranks):
                t0 = time.perf_counter()
                published[rank] = self._publish_rank(rank, iteration)
                self.stats.generate_wall_s += time.perf_counter() - t0
                supervisor.submit(rank)
                # One state-machine pass between publishes streams
                # already-finished ranks to the writer while the parent
                # keeps generating — the overlap the pool plane exists
                # for.
                supervisor.poll()
            supervisor.wait_all()
            self.stats.compress_wall_s += time.perf_counter() - t_produce
        finally:
            # Error paths leave unresolved ranks' segments behind; a
            # clean run leaves nothing (each rank released on resolve).
            for segment, _ in published.values():
                self.registry.release(segment.name)
            published.clear()

    def _publish_rank(self, rank: int, iteration: int):
        """Generate one rank's fields into a fresh shared segment."""
        arrays = [
            (fs, self.app.generate_field(fs.name, rank, iteration))
            for fs in self.field_specs
        ]
        total = sum(data.nbytes for _, data in arrays)
        segment = self.registry.create(total)
        fields_meta = []
        offset = 0
        for fs, data in arrays:
            view = attach_view(segment, data.shape, data.dtype, offset)
            view[...] = data
            fields_meta.append(
                (
                    fs.name,
                    tuple(int(d) for d in data.shape),
                    data.dtype.str,
                    offset,
                    fs.error_bound,
                )
            )
            offset += data.nbytes
            self.stats.raw_bytes += data.nbytes
        return segment, fields_meta

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        # Serialized against abort(): engine teardown may race a signal
        # handler or watchdog aborting the same plane, and pool.close()
        # on a terminated pool (or vice versa) is undefined.
        with self._lifecycle_lock:
            pool, self._pool = self._pool, None
            if pool is not None:
                sup = self.stats.supervisor
                if sup is not None and sup.recovered:
                    # A task whose worker died never resolves, so its
                    # entry sits in the pool's result cache forever and
                    # a graceful close() would join() until the end of
                    # time.  Every result was already ingested per dump
                    # (the async writer drained), so once the supervisor
                    # recovered *anything* there is nothing left a
                    # graceful shutdown could flush — terminate.
                    pool.terminate()
                else:
                    pool.close()
                pool.join()
            super().close()
            self.registry.release_all()

    def abort(self) -> None:
        with self._lifecycle_lock:
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.terminate()
                pool.join()
            super().abort()
            self.registry.release_all()
