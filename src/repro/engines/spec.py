"""`CampaignSpec`: one validated, fingerprintable description of a run.

Campaign entry points used to take a pile of scattered kwargs (``app``,
``nodes``, ``ppn``, ``iterations``, ``solution``, ``seed``, ``faults``,
…) that every caller — the CLI, the sweep helpers, the chaos harness —
re-spelled slightly differently.  :class:`CampaignSpec` replaces them
with a single frozen dataclass that

* validates every field on construction, naming the bad one;
* serializes to canonical JSON (:meth:`to_json_dict`), so the write-ahead
  campaign journal can fingerprint exactly what it is journalling
  (:meth:`fingerprint` is the CRC32C of that canonical form); and
* builds the runtime objects the engines need (:meth:`application`,
  :meth:`cluster_spec`, :meth:`resolved_config`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..durability.fingerprint import fingerprint_json
from ..framework.baselines import (
    async_io_config,
    baseline_config,
    ours_config,
)
from ..framework.config import FrameworkConfig

__all__ = ["CampaignSpec", "SOLUTIONS", "APP_NAMES", "ENGINES"]

#: The three evaluated solution configurations (docs/architecture.md).
SOLUTIONS = ("baseline", "previous", "ours")
#: Application models a spec can name.
APP_NAMES = ("nyx", "warpx", "hacc")
#: Execution engines a spec can name, sorted (docs/architecture.md).
ENGINES = ("process", "sim")

_SOLUTION_CONFIGS = {
    "baseline": baseline_config,
    "previous": async_io_config,
    "ours": ours_config,
}


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that defines one campaign run, in one place.

    Attributes:
        app: application model name (``nyx`` / ``warpx`` / ``hacc``).
        nodes: cluster node count.
        ppn: processes (ranks) per node.
        iterations: campaign length in iterations.
        solution: which evaluated configuration to run (``baseline`` /
            ``previous`` / ``ours``) — ignored when ``config`` is given.
        seed: master seed driving fields, noise, and fault draws.
        engine: execution backend name, one of :data:`ENGINES`
            (``sim`` or ``process``).
        faults: parsed fault-spec data (the JSON-safe mapping
            :func:`repro.resilience.load_spec_data` returns), or None.
        config: explicit :class:`FrameworkConfig` override; None means
            "the named solution's standard configuration".
        data_dir: directory for real compressed containers.  None (the
            default) keeps the data plane off: the campaign is modelled
            only.  Set, every dump iteration also *really* generates,
            compresses, and writes each rank's partition — serially under
            the simulator engine, on worker processes under the
            process-pool engine.
        data_edge: cubic partition edge (or cube root of the particle
            count for HACC) of the real data-plane fields.
        data_fields: how many of the app's fields the data plane dumps.
        data_block_bytes: fine-grained block size for data-plane
            compression.
        workers: worker-process count for the process engine (None:
            ``min(total ranks, cpu count)``).
        task_deadline_s: wall-clock deadline for one launch attempt of a
            rank compression task on the process engine; past it the
            attempt is abandoned and the task retried (the one straggler
            rule: until then a slow rank is waited for).  None
            disables supervision deadlines (a SIGKILLed worker then
            surfaces only through worker-death detection).
        max_task_retries: how many times a failed/timed-out rank task is
            re-executed before the parent compresses that rank serially
            (the bytes-identical ``rank-serial`` fallback).

        The supervision knobs (like ``workers``) shape *how* the real
        data plane executes, never *what* bytes it produces, so they are
        excluded from :meth:`to_json_dict` and the fingerprint.
    """

    app: str = "nyx"
    nodes: int = 4
    ppn: int = 4
    iterations: int = 6
    solution: str = "ours"
    seed: int = 1
    engine: str = "sim"
    faults: dict | None = None
    config: FrameworkConfig | None = None
    data_dir: str | None = None
    data_edge: int = 16
    data_fields: int = 2
    data_block_bytes: int = 64 * 1024
    workers: int | None = None
    task_deadline_s: float | None = 30.0
    max_task_retries: int = 2

    def __post_init__(self) -> None:
        """Validate every field on construction, naming the bad one."""

        def bad(field_name: str, requirement: str) -> ValueError:
            value = getattr(self, field_name)
            return ValueError(
                f"CampaignSpec.{field_name} {requirement}, got {value!r}"
            )

        if self.app not in APP_NAMES:
            raise bad("app", f"must be one of {', '.join(APP_NAMES)}")
        if not isinstance(self.nodes, int) or self.nodes < 1:
            raise bad("nodes", "must be a positive int")
        if not isinstance(self.ppn, int) or self.ppn < 1:
            raise bad("ppn", "must be a positive int")
        if not isinstance(self.iterations, int) or self.iterations < 0:
            raise bad("iterations", "must be a non-negative int")
        if self.solution not in SOLUTIONS:
            raise bad(
                "solution", f"must be one of {', '.join(SOLUTIONS)}"
            )
        if not isinstance(self.seed, int):
            raise bad("seed", "must be an int")
        if self.engine not in ENGINES:
            raise bad("engine", f"must be one of {', '.join(ENGINES)}")
        if self.faults is not None and not isinstance(self.faults, dict):
            raise bad("faults", "must be parsed fault-spec data (a dict)")
        if self.config is not None and not isinstance(
            self.config, FrameworkConfig
        ):
            raise bad("config", "must be a FrameworkConfig")
        if self.data_edge < 2:
            raise bad("data_edge", "must be >= 2")
        if self.data_fields < 1:
            raise bad("data_fields", "must be >= 1")
        if self.data_block_bytes < 1:
            raise bad("data_block_bytes", "must be positive")
        if self.workers is not None and self.workers < 1:
            raise bad("workers", "must be None or >= 1")
        if self.task_deadline_s is not None and not (
            self.task_deadline_s > 0
        ):
            raise bad("task_deadline_s", "must be None or > 0")
        if (
            not isinstance(self.max_task_retries, int)
            or self.max_task_retries < 0
        ):
            raise bad("max_task_retries", "must be a non-negative int")

    # ------------------------------------------------------------------
    # canonical serialization + fingerprint
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        """A JSON-safe, canonical-JSON-serializable view of the spec.

        ``config`` flattens to its (numeric/bool/str) dataclass fields;
        the journal fingerprints this dict, so its shape is part of the
        journal format.
        """
        doc: dict = {
            "app": self.app,
            "nodes": int(self.nodes),
            "ppn": int(self.ppn),
            "iterations": int(self.iterations),
            "solution": self.solution,
            "seed": int(self.seed),
            "engine": self.engine,
            "faults": self.faults,
            "config": (
                None
                if self.config is None
                else dataclasses.asdict(self.config)
            ),
            "data": (
                None
                if self.data_dir is None
                else {
                    "edge": int(self.data_edge),
                    "fields": int(self.data_fields),
                    "block_bytes": int(self.data_block_bytes),
                }
            ),
        }
        return doc

    def fingerprint(self) -> str:
        """CRC32C (hex) of the canonical-JSON spec — the campaign's
        content identity (:func:`repro.durability.fingerprint_json`).

        The memo cache, the journal header, and the resume cross-check
        all derive identity from this one definition.
        """
        return fingerprint_json(self.to_json_dict())

    def control_fingerprint(self) -> str:
        """Fingerprint of the *control-plane* identity: the spec with
        the data plane stripped.

        This is what the write-ahead journal stamps in its header.  The
        journal records only the modelled control plane, and resume
        deliberately lets the (unjournalled) data-plane knobs differ
        between the crashed and the resuming invocation, so the identity
        the resume check verifies must exclude them.
        """
        return dataclasses.replace(self, data_dir=None).fingerprint()

    # ------------------------------------------------------------------
    # runtime object builders
    # ------------------------------------------------------------------
    def resolved_config(self) -> FrameworkConfig:
        """The explicit config override, or the solution's standard one."""
        if self.config is not None:
            return self.config
        return _SOLUTION_CONFIGS[self.solution]()

    def cluster_spec(self):
        """The :class:`~repro.simulator.ClusterSpec` this spec describes."""
        from ..simulator.node import ClusterSpec

        return ClusterSpec(
            num_nodes=self.nodes, processes_per_node=self.ppn
        )

    def application(self):
        """The modelled application (paper-default partition sizes)."""
        return self._app_class()(seed=self.seed)

    def data_application(self):
        """The data-plane application: same model, small real fields."""
        edge = self.data_edge
        shape = (edge**3,) if self.app == "hacc" else (edge,) * 3
        return self._app_class()(seed=self.seed, partition_shape=shape)

    def _app_class(self):
        from ..apps import HaccModel, NyxModel, WarpXModel

        return {
            "nyx": NyxModel,
            "warpx": WarpXModel,
            "hacc": HaccModel,
        }[self.app]

    def journal_header(self) -> dict:
        """The write-ahead journal's ``begin`` payload for this spec.

        Keeps the historical flat keys (``app``/``nodes``/…) so older
        journals resume unchanged, and adds the engine name plus the
        canonical spec fingerprint.
        """
        return {
            "app": self.app,
            "nodes": self.nodes,
            "ppn": self.ppn,
            "iterations": self.iterations,
            "solution": self.solution,
            "seed": self.seed,
            "faults": self.faults,
            "engine": self.engine,
            "spec_crc32c": self.control_fingerprint(),
        }

    @classmethod
    def from_journal_header(
        cls, header: dict, base: "CampaignSpec | None" = None
    ) -> "CampaignSpec":
        """Rebuild the spec a journalled campaign ran under.

        The header's fields are laid over ``base`` (a default spec when
        None): every field the header does not carry — the data-plane
        knobs — keeps ``base``'s value, except ``config``, which no
        header expresses and is cleared.
        """
        return dataclasses.replace(
            cls() if base is None else base,
            app=header["app"],
            nodes=header["nodes"],
            ppn=header["ppn"],
            iterations=header["iterations"],
            solution=header["solution"],
            seed=header["seed"],
            faults=header.get("faults"),
            engine=header.get("engine", "sim"),
            config=None,
        )
