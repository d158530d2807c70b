"""Configuration for the in situ compression + I/O framework."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..compression.ratio_model import CompressionThroughputModel
from ..io.throughput import IoThroughputModel

__all__ = ["FrameworkConfig"]


@dataclass(frozen=True)
class FrameworkConfig:
    """Every knob of the proposed solution, in paper defaults.

    Attributes:
        scheduler: one of the Section 3.3 algorithm names; the paper
            adopts ``"ExtJohnson+BF"`` after Table 1.
        block_bytes: fine-grained compression block size (Section 4.1;
            8-16 MB is the sweet spot, Figure 4).
        buffer_bytes: compressed data buffer capacity (Section 4.2;
            Figure 5 settles on 20 MB).  ``0`` disables buffering.
        use_shared_tree: reuse one Huffman tree across blocks/iterations
            (Section 4.3).
        use_balancing: intra-node I/O workload balancing (Section 3.4).
        balancing_threshold: rebalance while max > threshold * min.
        use_compression: disable to model the no-compression baselines.
        overlap_with_computation: disable to model the prior solutions
            that only overlap compression with I/O, not with computation.
        async_background: disable to model the fully synchronous baseline
            (writes strictly after computation); when False the background
            thread is also treated as busy for the whole iteration.
        num_subfiles: split the logical shared file across this many
            subfiles (Section 6 future work); relieves shared-file
            contention at scale.
        oracle_scheduling: schedule with the iteration's *actual*
            intervals and ratios instead of history-based predictions —
            the Section 5.2 evaluation mode used to isolate algorithm
            quality from prediction error.
        dump_period: dump data every ``l`` iterations (Section 3.1).
        journal_fsync: fsync the write-ahead campaign journal after
            every record (crash-consistent, the default).  Disable only
            for throughput experiments where losing the journal tail on
            power failure is acceptable.
        overrun_deadline_frac: under fault injection, a dump whose
            replay exceeds ``T_n * (1 + frac)`` triggers the graceful
            degradation path (trailing writes deferred to the next
            compute gap).
        compression_model: duration model for compression tasks.
        io_model: duration model for write operations.
    """

    scheduler: str = "ExtJohnson+BF"
    block_bytes: int = 8 * 2**20
    buffer_bytes: int = 20 * 2**20
    use_shared_tree: bool = True
    use_balancing: bool = True
    balancing_threshold: float = 2.0
    use_compression: bool = True
    overlap_with_computation: bool = True
    async_background: bool = True
    num_subfiles: int = 1
    oracle_scheduling: bool = False
    dump_period: int = 1
    overrun_deadline_frac: float = 0.5
    journal_fsync: bool = True
    compression_model: CompressionThroughputModel = field(
        default_factory=CompressionThroughputModel
    )
    io_model: IoThroughputModel = field(default_factory=IoThroughputModel)

    def __post_init__(self) -> None:
        """Validate every field on construction, naming the bad one.

        A bad knob fails here — at config-build time, with
        ``FrameworkConfig.<field>`` in the message — instead of deep in
        the runtime ten stack frames into a campaign.
        """
        def bad(field_name: str, requirement: str) -> ValueError:
            value = getattr(self, field_name)
            return ValueError(
                f"FrameworkConfig.{field_name} {requirement}, "
                f"got {value!r}"
            )

        if not isinstance(self.scheduler, str) or not self.scheduler:
            raise bad("scheduler", "must be a non-empty algorithm name")
        from ..core.registry import REGISTRY

        if self.scheduler not in REGISTRY:
            raise ValueError(
                f"FrameworkConfig.scheduler: unknown algorithm "
                f"{self.scheduler!r} (available: "
                f"{', '.join(sorted(REGISTRY))})"
            )
        if self.block_bytes <= 0:
            raise bad("block_bytes", "must be positive")
        if self.buffer_bytes < 0:
            raise bad("buffer_bytes", "must be non-negative")
        if self.balancing_threshold <= 1.0:
            raise bad("balancing_threshold", "must exceed 1.0")
        if self.dump_period < 1:
            raise bad("dump_period", "must be >= 1")
        if self.num_subfiles < 1:
            raise bad("num_subfiles", "must be >= 1")
        if self.overrun_deadline_frac < 0:
            raise bad("overrun_deadline_frac", "must be non-negative")
        if not isinstance(self.journal_fsync, bool):
            raise bad("journal_fsync", "must be a bool")
