"""The `ExecutionEngine` protocol, registry, and campaign driver.

An execution engine is the thing that actually *runs* a campaign
described by a :class:`~repro.engines.spec.CampaignSpec`.  Every engine
follows the same four-phase protocol, driven by :func:`run_campaign`::

    prepare() -> run_iteration(i) ... -> finalize() -> report(wall_s)

All engines share one modelled **control plane** — the
:class:`~repro.framework.orchestrator.CampaignRunner` that plans,
schedules, and replays every iteration, fires fault injection, and
produces the write-ahead journal records.  That is what makes the
backends interchangeable: the journal records, the
:class:`~repro.framework.orchestrator.CampaignResult`, and every report
are identical under every engine, so ``--journal``/``--resume`` and the
fault hooks work the same everywhere.  Engines differ only in the
**data plane** — whether (and how) each dump iteration really
generates, compresses, and writes bytes.

The registry maps engine names (``sim``, ``process``) to classes;
:func:`run_campaign` is the single entry point the CLI and library
callers use.
"""

from __future__ import annotations

import abc
import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, ClassVar

from ..durability.journal import CampaignJournal, JournalError
from ..framework.orchestrator import CampaignResult, IterationRecord
from ..resilience.faults import FaultInjector
from ..resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..resilience.spec import parse_fault_spec
from ..telemetry import NULL_TRACER, NullTracer
from .dataplane import DataPlaneStats
from .spec import CampaignSpec

__all__ = [
    "EngineError",
    "EngineReport",
    "ExecutionEngine",
    "register_engine",
    "get_engine",
    "list_engines",
    "run_campaign",
]


class EngineError(RuntimeError):
    """An execution engine failed or was misused."""


@dataclass
class EngineReport:
    """What one engine run produced: modelled result + wall-clock facts.

    ``result`` (the modelled :class:`CampaignResult`) is structurally
    identical across engines for the same spec + seed; ``wall_time_s``
    and ``data`` describe what *this* backend physically did and are the
    only parts allowed to differ.
    """

    engine: str
    spec: CampaignSpec
    result: CampaignResult
    wall_time_s: float
    #: Real compress+dump pipeline stats; None when the data plane was off.
    data: DataPlaneStats | None = None
    #: The open write-ahead journal, when the run was journalled.  The
    #: caller owns closing it (see :meth:`close`).
    journal: CampaignJournal | None = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def modelled_time_s(self) -> float:
        """The campaign's total *modelled* (simulated) time."""
        return float(self.result.total_time)

    @property
    def block_crc32c(self) -> dict[str, int]:
        """Per-block payload CRC32Cs ({} when the data plane was off)."""
        return {} if self.data is None else dict(self.data.block_crc32c)

    def close(self) -> None:
        """Close the attached journal, if any (idempotent)."""
        journal, self.journal = self.journal, None
        if journal is not None:
            journal.close()


class ExecutionEngine(abc.ABC):
    """One campaign execution backend.

    Subclasses set :attr:`name`, register with :func:`register_engine`,
    and implement the four protocol phases.  The journal-data hooks must
    return byte-identical payloads across engines for the same spec —
    the cross-engine resume guarantee rests on it — which is why the
    provided engines all delegate them to the shared control plane.
    """

    #: Registry key (``sim``, ``process``) — unique per engine class.
    name: ClassVar[str] = ""

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        tracer: NullTracer = NULL_TRACER,
        injector: FaultInjector | None = None,
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        self.spec = spec
        self.tracer = tracer
        self.injector = injector
        self.retry = retry

    # -- protocol ------------------------------------------------------
    @abc.abstractmethod
    def prepare(self) -> None:
        """Allocate whatever the run needs (pools, writers)."""

    @abc.abstractmethod
    def run_iteration(self, iteration: int) -> IterationRecord:
        """Execute one iteration; returns its aggregate record."""

    @abc.abstractmethod
    def finish(self) -> CampaignResult:
        """Aggregate after the last iteration; returns the result."""

    @abc.abstractmethod
    def finalize(self) -> None:
        """Release resources after an orderly run (idempotent)."""

    def abort(self) -> None:
        """Release resources after a failed run (idempotent).

        The default just runs :meth:`finalize`; engines holding external
        state (worker pools, half-written containers)
        override this with a harder teardown.
        """
        self.finalize()

    @abc.abstractmethod
    def report(self, wall_time_s: float) -> EngineReport:
        """The run's :class:`EngineReport`."""

    # -- journal hooks -------------------------------------------------
    @abc.abstractmethod
    def journal_plan_data(self, iteration: int) -> dict:
        """The write-ahead *plan* payload for one iteration."""

    @abc.abstractmethod
    def journal_commit_data(self, record: IterationRecord) -> dict:
        """The post-iteration *commit* payload."""

    @abc.abstractmethod
    def journal_end_data(self) -> dict:
        """The campaign-complete *end* payload."""


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[ExecutionEngine]] = {}


def register_engine(
    cls: type[ExecutionEngine],
) -> type[ExecutionEngine]:
    """Class decorator: register an engine under ``cls.name``."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty .name")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"engine name {cls.name!r} already registered by "
            f"{existing.__name__}"
        )
    _REGISTRY[cls.name] = cls
    return cls


def get_engine(name: str) -> type[ExecutionEngine]:
    """Look up an engine class by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EngineError(
            f"unknown engine {name!r} (available: "
            f"{', '.join(list_engines())})"
        ) from None


def list_engines() -> list[str]:
    """Registered engine names, sorted."""
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# campaign driver
# ----------------------------------------------------------------------
def _build_injector(
    spec: CampaignSpec, crash_enabled: bool
) -> tuple[FaultInjector | None, RetryPolicy]:
    """The fault injector + retry policy a spec's fault data implies."""
    if spec.faults is None:
        return None, DEFAULT_RETRY_POLICY
    fault_spec = parse_fault_spec(spec.faults)
    seed = (
        fault_spec.seed if fault_spec.seed is not None else spec.seed
    )
    injector = FaultInjector(fault_spec.plan, seed=seed)
    # A crash point that killed the original run must not re-fire while
    # a resumed run replays past it.
    injector.crash_enabled = crash_enabled
    return injector, fault_spec.retry


def run_campaign(
    spec: CampaignSpec | None = None,
    *,
    journal_path: str | None = None,
    resume_path: str | None = None,
    tracer: NullTracer = NULL_TRACER,
    on_resume: Callable[[CampaignJournal], None] | None = None,
) -> EngineReport:
    """Run one campaign under the engine its spec names.

    This is the single campaign entry point: it builds the fault
    injector, opens (or resumes) the write-ahead journal, drives the
    engine through the ``prepare -> run_iteration -> finalize`` protocol
    with plan/commit records bracketing every iteration, and returns the
    engine's :class:`EngineReport`.

    With ``resume_path`` every campaign parameter comes from the journal
    header (``spec`` may be None); the committed prefix is re-executed
    and cross-checked byte-for-byte by the journal.  ``on_resume`` is
    called with the opened journal before execution starts (the CLI uses
    it to print progress).

    A journalled run's journal stays open on the returned report
    (``report.journal``) so callers can arm crash points around their
    own report writes; call ``report.close()`` when done.
    """
    if journal_path is not None and resume_path is not None:
        raise EngineError(
            "journal_path and resume_path are mutually exclusive "
            "(resume appends to the journal it resumes)"
        )
    journal: CampaignJournal | None = None
    if resume_path is not None:
        journal = CampaignJournal.resume(resume_path, tracer=tracer)
        header_spec = CampaignSpec.from_journal_header(journal.header)
        stored = journal.header.get("spec_crc32c")
        if stored is not None and stored != header_spec.control_fingerprint():
            journal.close()
            raise JournalError(
                f"journal {resume_path}: header spec fingerprint "
                f"{stored} does not match the rebuilt spec "
                f"({header_spec.control_fingerprint()}); the journalled "
                "campaign used parameters the header cannot express "
                "(e.g. an explicit config override) or the journal "
                "was edited — refusing to resume"
            )
        if spec is not None:
            # Campaign identity comes from the header; only data-plane
            # knobs (not journalled) carry over from the caller's spec.
            header_spec = dataclasses.replace(
                header_spec,
                data_dir=spec.data_dir,
                data_edge=spec.data_edge,
                data_fields=spec.data_fields,
                data_block_bytes=spec.data_block_bytes,
                workers=spec.workers,
                task_deadline_s=spec.task_deadline_s,
                max_task_retries=spec.max_task_retries,
                speculative_frac=spec.speculative_frac,
            )
        spec = header_spec
        if on_resume is not None:
            on_resume(journal)
    elif spec is None:
        raise EngineError("run_campaign needs a CampaignSpec or a resume_path")

    injector, retry = _build_injector(
        spec, crash_enabled=resume_path is None
    )
    config = spec.resolved_config()
    if journal_path is not None:
        journal = CampaignJournal.create(
            journal_path,
            spec.journal_header(),
            fsync=config.journal_fsync,
            injector=injector,
            tracer=tracer,
        )

    engine_cls = get_engine(spec.engine)
    engine = engine_cls(
        spec, tracer=tracer, injector=injector, retry=retry
    )
    t0 = time.perf_counter()
    try:
        engine.prepare()
        for iteration in range(spec.iterations):
            if journal is not None:
                journal.record_plan(
                    iteration, engine.journal_plan_data(iteration)
                )
            record = engine.run_iteration(iteration)
            if journal is not None:
                journal.record_commit(
                    iteration, engine.journal_commit_data(record)
                )
        engine.finish()
        if journal is not None:
            journal.record_end(engine.journal_end_data())
        engine.finalize()
    except BaseException:
        engine.abort()
        if journal is not None:
            journal.close()
        raise
    report = engine.report(time.perf_counter() - t0)
    report.journal = journal
    return report
