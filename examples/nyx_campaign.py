#!/usr/bin/env python
"""Nyx campaign at the paper's largest scale (16 nodes, 64 GPUs).

Reproduces the Figure 9 comparison: time overhead relative to computation
for the baseline (no compression, synchronous writes), the previous
solution (asynchronous I/O without compression), and the proposed
framework — plus the noise-free "simulation" reference the paper plots
alongside its in situ measurement.

Run:  python examples/nyx_campaign.py [iterations]
"""

import sys

from repro.apps import NyxModel
from repro.framework import (
    CampaignRunner,
    async_io_config,
    baseline_config,
    compare,
    format_table,
    ours_config,
)
from repro.simulator import ClusterSpec, NoiseModel


def main(iterations: int = 10) -> None:
    app = NyxModel(seed=11)
    cluster = ClusterSpec(num_nodes=16, processes_per_node=4)
    print(
        f"Nyx {app.partition_shape} per rank, "
        f"{cluster.num_nodes} nodes x {cluster.processes_per_node} GPUs, "
        f"{iterations} iterations, dump every iteration\n"
    )

    solutions = [
        ("baseline", baseline_config(), None),
        ("async-I/O", async_io_config(), None),
        ("ours", ours_config(), None),
        (
            "ours (simulation)",
            ours_config(),
            NoiseModel(
                seed=0,
                compression_sigma_frac=0.0,
                io_sigma_frac=0.0,
            ),
        ),
    ]
    results = {}
    rows = []
    for name, config, noise in solutions:
        runner = CampaignRunner(
            app, cluster, config, solution=name, seed=11, noise=noise
        )
        result = runner.run(iterations)
        results[name] = result
        rows.append(
            (
                name,
                f"{result.mean_relative_overhead * 100:.1f}%",
                f"{result.total_overhead:.1f}s",
                f"{result.total_time:.1f}s",
            )
        )
    print(
        format_table(
            rows,
            headers=(
                "solution",
                "I/O overhead (rel.)",
                "total overhead",
                "total time",
            ),
        )
    )

    comparison = compare(
        results["baseline"], results["async-I/O"], results["ours"]
    )
    print(
        f"\nOurs reduces I/O overhead by "
        f"{comparison.improvement_over_baseline:.2f}x vs the baseline and "
        f"{comparison.improvement_over_previous:.2f}x vs asynchronous I/O "
        f"(paper: up to 3.8x and 2.6x)."
    )

    print("\nPer-iteration relative overhead (ours):")
    for record in results["ours"].dump_records():
        bar = "#" * int(record.relative_overhead * 60)
        print(f"  iter {record.iteration:2d}  "
              f"{record.relative_overhead * 100:5.1f}% {bar}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 10)
