"""The engines' real data plane: generate, compress, and write bytes.

The campaign control plane (planning, scheduling, modelled replay,
journalling) is identical under every engine; what an engine actually
*executes* is this data plane.  On each dump iteration every rank's
partition fields are generated, sliced into fine-grained blocks,
compressed with the SZ codec, CRC32C-stamped, and written into one
shared ``.rpio`` container through the wall-clock
:class:`~repro.io.async_io.AsyncWriter`.

Two implementations share one deterministic per-rank core
(:func:`_compress_rank`: generate each field, then
:func:`~repro.compression.compress_field_blocks`) and one dump template
(:meth:`SerialDataPlane.dump`), so the same spec + seed yields
byte-identical compressed blocks (hence identical CRC32Cs) under both:

* :class:`SerialDataPlane` — everything in the calling process, strictly
  compress-then-write: the single-process reference.
* :class:`PoolDataPlane` — ranks own their data, as MPI ranks do: one
  task generates *and* compresses one rank's partition inside a worker
  process, and only the compressed payloads (with the worker's own
  generate/compress seconds) come back.  The parent supervises and
  streams each finished rank to the async writer, so compute,
  compression, and I/O genuinely overlap on real cores and no field
  byte ever crosses a process boundary.

The pool plane's workers belong to a
:class:`~repro.engines.supervisor.WorkerSupervisor`, which sends a task
only to an idle worker, bounds each attempt with a deadline, retries
exactly the task a dead worker held, retries within the campaign's
backoff policy (a straggler is retried only once it misses the deadline;
the late attempt still races the retry), and — once the budget is gone
— runs the poisoned rank in the parent through the very same core (the
parent's only generate call).  A rank therefore yields identical bytes
whether it succeeded first try, after a retry, or via the fallback.

Container layout *order* may differ between the two (workers finish in
nondeterministic order) but the stored bytes per dataset are identical.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from ..compression import SZCompressor, compress_field_blocks
from ..io.async_io import AsyncWriter
from ..io.hdf5like import SharedFileWriter
from ..resilience.faults import FaultInjector
from ..resilience.report import SupervisorStats
from ..resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..telemetry import NULL_TRACER, NullTracer
from .spec import CampaignSpec
from .supervisor import WorkerSupervisor

__all__ = ["DataPlaneStats", "SerialDataPlane", "PoolDataPlane"]

#: Seconds the engine waits for the async writer to drain one dump.
_DRAIN_TIMEOUT_S = 120.0


@dataclass
class DataPlaneStats:
    """Wall-clock outcome of a run's real compress+dump pipeline.

    ``generate_wall_s`` and ``compress_wall_s`` are seconds spent inside
    the per-rank core, summed over ranks wherever each one ran — on the
    pool plane that is summed *worker* seconds (as each worker measured
    them), which exceed the dump's wall time as soon as workers overlap.
    """

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
# the per-rank core (parent and pool workers run the same function)
# ----------------------------------------------------------------------
class RankResult(NamedTuple):
    """One rank's compressed partition and what producing it cost."""

    #: ``(dataset, payload, crc32c)`` per block, in field/block order.
    payloads: list[tuple[str, bytes, int]]
    raw_bytes: int
    generate_s: float
    compress_s: float


def _rank_context(spec: CampaignSpec):
    """``(app, dumped field specs, compressor)`` for one process."""
    app = spec.data_application()
    return app, tuple(app.fields[: spec.data_fields]), SZCompressor()


def _compress_rank(
    app, field_specs, compressor, block_bytes: int, rank: int, iteration: int
) -> RankResult:
    """Generate + compress one rank's fields, one field at a time."""
    payloads: list[tuple[str, bytes, int]] = []
    raw_bytes = 0
    generate_s = compress_s = 0.0
    for fs in field_specs:
        t0 = time.perf_counter()
        values = app.generate_field(fs.name, rank, iteration)
        t1 = time.perf_counter()
        payloads.extend(
            compress_field_blocks(
                compressor,
                fs.name,
                values,
                fs.error_bound,
                block_bytes,
                prefix=f"rank{rank}/",
            )
        )
        raw_bytes += values.nbytes
        generate_s += t1 - t0
        compress_s += time.perf_counter() - t1
    return RankResult(payloads, raw_bytes, generate_s, compress_s)


# ----------------------------------------------------------------------
# worker task (runs in a forked child)
# ----------------------------------------------------------------------
#: ``(spec, context)`` of the last task this process ran.
_WORKER_CONTEXT: tuple | None = None


def _pool_compress_rank(args) -> RankResult:
    """One worker task: generate rank ``rank``'s fields, compress them.

    The application and compressor are built once per worker process and
    kept for as long as tasks carry the same (frozen) spec, so no task
    pays for one — and a worker respawned after a SIGKILL simply builds
    its own on its first task.  ``fault`` is ``None`` or the ``(kind,
    stall_s)`` the parent's :meth:`~repro.resilience.faults.FaultInjector.
    worker_fault` drew: the worker executes the decision, it never draws
    randomness itself.
    """
    spec, rank, iteration, fault = args
    kind, stall_s = fault or (None, 0.0)
    if kind == "kill":
        # The real thing: the parent sees end-of-file on this worker's
        # pipe and retries exactly the task it held.
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "stall":
        time.sleep(stall_s)
    elif kind == "error":
        raise RuntimeError("injected worker fault: task raised")
    global _WORKER_CONTEXT
    if _WORKER_CONTEXT is None or _WORKER_CONTEXT[0] != spec:
        _WORKER_CONTEXT = (spec, _rank_context(spec))
    return _compress_rank(
        *_WORKER_CONTEXT[1], spec.data_block_bytes, rank, iteration
    )


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
        self.app, self.field_specs, self._compressor = _rank_context(spec)
        self.ranks = spec.nodes * spec.ppn
        self.stats = DataPlaneStats(workers=1)
        self.injector = injector
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
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
        stats = self.stats
        blocks0 = stats.num_blocks
        generate0, compress0 = stats.generate_wall_s, stats.compress_wall_s

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
                blocks=stats.num_blocks - blocks0,
                generate_s=stats.generate_wall_s - generate0,
                compress_s=stats.compress_wall_s - compress0,
            )
            self.tracer.counter("engine.dump").inc()

    def _produce(self, iteration: int, ingest) -> None:
        """Strictly compress-then-write: every rank, then one ingest."""
        blocks: list[tuple[str, bytes, int]] = []
        for rank in range(self.ranks):
            blocks.extend(self._account(self._rank_result(iteration, rank)))
        ingest(blocks)

    def _rank_result(self, iteration: int, rank: int) -> RankResult:
        """Generate + compress one rank in this process.

        The serial dump's per-rank body — and the pool plane's
        ``rank-serial`` fallback, which is what makes fallback bytes
        identical to the pool path.
        """
        return _compress_rank(
            self.app,
            self.field_specs,
            self._compressor,
            self.spec.data_block_bytes,
            rank,
            iteration,
        )

    def _account(self, result: RankResult) -> list[tuple[str, bytes, int]]:
        """Tally one rank's cost; returns its payloads for ``ingest``."""
        self.stats.raw_bytes += result.raw_bytes
        self.stats.generate_wall_s += result.generate_s
        self.stats.compress_wall_s += result.compress_s
        return result.payloads

    def _on_io_retry(self, job, exc: BaseException) -> None:
        """Count one wall-clock write retry in the campaign log."""
        if self.injector is not None:
            self.injector.record_retry(block=job.name, attempt=job.attempts)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Shut down (idempotent); a half-written container is never
        published.  :meth:`abort` is the same teardown."""
        self._abort_open_container()

    abort = close

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
    """Per-rank generate + compress on worker processes, I/O overlapped.

    For each dump iteration the parent runs one task per rank
    (:func:`_pool_compress_rank`) on its supervisor's workers and does
    nothing but supervise and write: finished ranks stream their
    compressed payloads onto the async writer while the workers are busy
    with later ranks, and a dump completes (with identical bytes) even
    when workers misbehave — see the module docstring.
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
        self.workers = spec.workers or min(self.ranks, os.cpu_count() or 1)
        self.stats.workers = self.workers
        # One tally: the campaign log's, when there is a campaign log.
        self.stats.supervisor = (
            SupervisorStats() if injector is None else injector.log.supervisor
        )
        self._supervisor: WorkerSupervisor | None = None

    def start(self) -> None:
        """Fork the workers (idempotent), before any writer thread exists."""
        if self._supervisor is None:
            self._supervisor = WorkerSupervisor(
                _pool_compress_rank,
                self.workers,
                # Same backoff shape as the write policy, but the attempt
                # cap is the spec's task knob: first send + re-runs.
                retry=dataclasses.replace(
                    self.retry, max_attempts=self.spec.max_task_retries + 1
                ),
                deadline_s=self.spec.task_deadline_s,
                stats=self.stats.supervisor,
                tracer=self.tracer,
            )

    # -- pipeline ------------------------------------------------------
    def _produce(self, iteration: int, ingest) -> None:
        """One task per rank on the workers; stream finished ranks out."""

        def args(rank: int, attempt: int):
            fault = None
            if self.injector is not None:
                fault = self.injector.worker_fault(rank, iteration, attempt)
            return self.spec, rank, iteration, fault

        def fallback(rank: int) -> RankResult:
            # The same deterministic core, in the parent: bytes
            # identical to the pool path.
            # Tally only: the supervisor emits this fallback's event,
            # injector or not.
            if self.injector is not None:
                self.injector.log.record_fallback("rank-serial")
            return self._rank_result(iteration, rank)

        self._supervisor.run(
            range(self.ranks),
            args=args,
            ingest=lambda rank, result: ingest(self._account(result)),
            fallback=fallback,
            iteration=iteration,
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        # Engine teardown may race a signal handler or watchdog aborting
        # the same plane: the supervisor's close() serializes the two.
        if self._supervisor is not None:
            self._supervisor.close()
        super().close()

    abort = close
