"""Parallel-filesystem write-time model.

Captures the four effects the evaluation depends on:

1. **Aggregate node bandwidth is shared.**  The parallel filesystem
   delivers a roughly fixed per-node write bandwidth; with ``p``
   processes writing in the same windows each sees ``~1/p`` of it.
2. **Per-operation latency.**  Every write pays a fixed cost (client
   round-trips, lock acquisition on the shared file), which is why
   sub-megabyte writes crater throughput (Section 4.2) and why the
   compressed data buffer pays off (Figure 5).
3. **Linearity above the latency knee.**  Large writes stream at the
   shared bandwidth.
4. **Shared-file contention at scale.**  More nodes writing one shared
   file costs lock/metadata contention, degrading each process's share —
   this is why the baseline and async-only solutions slow down in the
   Figure 11 weak-scaling sweep while the compressed solution, moving
   16-274x less data, stays flat.

``write_time(nbytes) = latency + nbytes / per_process_bandwidth`` with
``per_process_bandwidth = node_bw / p / (1 + c * log2(num_nodes))``.

The default constants approximate one Summit node's share of GPFS while a
large job is writing: ~0.7 GB/s per node (the paper's runs see far less
than the 2.5 GB/s peak because the file system is shared), 4 ms per
operation, 10 % contention growth per node doubling.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["IoThroughputModel"]


@dataclass(frozen=True)
class IoThroughputModel:
    """Calibrated write-duration model for one process."""

    node_bandwidth_bytes_per_s: float = 0.7e9
    processes_per_node: int = 4
    write_latency_s: float = 0.004
    num_nodes: int = 1
    scale_contention: float = 0.10
    num_subfiles: int = 1

    def __post_init__(self) -> None:
        if self.node_bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.processes_per_node < 1:
            raise ValueError("processes_per_node must be >= 1")
        if self.write_latency_s < 0:
            raise ValueError("latency must be non-negative")
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.scale_contention < 0:
            raise ValueError("scale_contention must be non-negative")
        if self.num_subfiles < 1:
            raise ValueError("num_subfiles must be >= 1")

    # Both derived rates are asked once per simulated block; they are
    # computed once per (frozen) instance, and every ``with_*`` method
    # builds a new instance, so nothing goes stale.
    @cached_property
    def contention(self) -> float:
        """Shared-file contention multiplier (1.0 on a single node).

        Subfiling partitions the writers: ``k`` subfiles see contention
        as if ``num_nodes / k`` nodes shared each file (the Section 6
        multi-file future work, modelled end to end).
        """
        effective_nodes = max(1.0, self.num_nodes / self.num_subfiles)
        return 1.0 + self.scale_contention * math.log2(effective_nodes)

    @cached_property
    def per_process_bandwidth(self) -> float:
        return (
            self.node_bandwidth_bytes_per_s
            / self.processes_per_node
            / self.contention
        )

    def write_time(self, nbytes: int | np.ndarray) -> float | np.ndarray:
        """Predicted duration of one write of ``nbytes``; given an array
        of sizes, the duration of each write (same floats)."""
        sizes = np.asarray(nbytes)
        if (sizes < 0).any():
            raise ValueError("nbytes must be non-negative")
        times = np.where(
            sizes > 0,
            self.write_latency_s + sizes / self.per_process_bandwidth,
            0.0,
        )
        return times if times.ndim else float(times)

    def effective_throughput(self, nbytes: int) -> float:
        """Achieved bytes/s for one write of this size."""
        if nbytes <= 0:
            return 0.0
        return nbytes / self.write_time(nbytes)

    def with_processes(self, processes_per_node: int) -> "IoThroughputModel":
        """Same filesystem, different node occupancy."""
        return dataclasses.replace(
            self, processes_per_node=processes_per_node
        )

    def with_nodes(self, num_nodes: int) -> "IoThroughputModel":
        """Same filesystem, different job footprint."""
        return dataclasses.replace(self, num_nodes=num_nodes)

    def with_subfiles(self, num_subfiles: int) -> "IoThroughputModel":
        """Same filesystem, logical file split across subfiles."""
        return dataclasses.replace(self, num_subfiles=num_subfiles)

    def with_bandwidth_factor(self, factor: float) -> "IoThroughputModel":
        """A degraded view of the same filesystem during a contention
        burst: this process's bandwidth share is scaled by ``factor``
        (0 < factor <= 1; latency is unaffected)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")
        return dataclasses.replace(
            self,
            node_bandwidth_bytes_per_s=(
                self.node_bandwidth_bytes_per_s * factor
            ),
        )
