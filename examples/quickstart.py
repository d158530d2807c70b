#!/usr/bin/env python
"""Quickstart: the three layers of the reproduction in one minute.

1. Schedule the paper's Figure 1 example with all six heuristics and
   print the ExtJohnson+BF Gantt chart.
2. Compress a synthetic Nyx field with the SZ-style compressor and verify
   the error bound.
3. Run a small end-to-end campaign comparing the three solutions
   (baseline / async-I/O-only / ours).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.apps import NyxModel
from repro.compression import SZCompressor, max_abs_error
from repro.core import ALGORITHMS, figure1_instance, trace_schedule
from repro.framework import (
    CampaignRunner,
    async_io_config,
    baseline_config,
    compare,
    ours_config,
)
from repro.simulator import ClusterSpec
from repro.telemetry import Tracer, render_gantt


def schedule_figure1() -> None:
    print("=" * 64)
    print("1. Task scheduling on the paper's Figure 1 example")
    print("=" * 64)
    instance = figure1_instance()
    for name, algorithm in ALGORITHMS.items():
        schedule = algorithm(instance)
        schedule.validate()
        print(f"  {name:28s} I/O makespan = {schedule.io_makespan:5.2f}")
    best = ALGORITHMS["ExtJohnson+BF"](instance)
    print("\nExtJohnson+BF schedule (Y=compute, G=core, R=compress, B=I/O):")
    planned = Tracer()
    trace_schedule(planned, best)
    print(render_gantt(planned.recorder.spans, legend=False))


def compress_a_field() -> None:
    print("\n" + "=" * 64)
    print("2. Error-bounded lossy compression of a Nyx-like field")
    print("=" * 64)
    app = NyxModel(seed=7, partition_shape=(48, 48, 48))
    field = app.generate_field("temperature", rank=0, iteration=5)
    error_bound = app.field("temperature").error_bound
    compressor = SZCompressor()
    block = compressor.compress(field, error_bound)
    recon = compressor.decompress(block)
    print(f"  field shape          : {field.shape} float64")
    print(f"  error bound (abs)    : {error_bound:g}")
    print(f"  compression ratio    : {block.compression_ratio:.1f}x")
    print(f"  max abs error        : {max_abs_error(field, recon):.4g}")
    assert max_abs_error(field, recon) <= error_bound * (1 + 1e-9)
    print("  error bound respected: yes")


def run_small_campaign() -> None:
    print("\n" + "=" * 64)
    print("3. End-to-end campaign: baseline vs async-I/O vs ours")
    print("=" * 64)
    app = NyxModel(seed=7)
    cluster = ClusterSpec(num_nodes=2, processes_per_node=4)
    results = {}
    for name, config in (
        ("baseline", baseline_config()),
        ("previous", async_io_config()),
        ("ours", ours_config()),
    ):
        runner = CampaignRunner(app, cluster, config, solution=name, seed=7)
        results[name] = runner.run(6)
        overhead = results[name].mean_relative_overhead
        print(f"  {name:10s} I/O overhead = {overhead * 100:6.1f}% of computation")
    comparison = compare(
        results["baseline"], results["previous"], results["ours"]
    )
    print(
        f"\n  ours vs baseline : {comparison.improvement_over_baseline:.2f}x"
        f" less I/O overhead"
    )
    print(
        f"  ours vs previous : {comparison.improvement_over_previous:.2f}x"
        f" less I/O overhead"
    )


if __name__ == "__main__":
    np.set_printoptions(precision=3)
    schedule_figure1()
    compress_a_field()
    run_small_campaign()
