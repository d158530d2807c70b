#!/usr/bin/env python
"""One node's dump executed for real with OS processes as ranks.

The campaign benchmarks *model* multi-process execution; this example
*performs* it through the process engine: a two-iteration campaign whose
one dumping iteration has every rank generate and compress its own Nyx
partition inside a worker process, concurrently, while the parent
streams the CRC-stamped blocks through the background writer into one
shared file at independently reserved offsets — the shared-file
parallel-write pattern the paper builds on (Section 2.1).  The file is
then scrubbed, re-read, and every rank's error bounds are verified.

Run:  python examples/parallel_node_dump.py [ranks]
"""

import sys
import tempfile

from repro.compression import (
    CompressedBlock,
    SZCompressor,
    max_abs_error,
    plan_blocks,
    reassemble_field,
)
from repro.durability import verify_snapshot
from repro.engines import CampaignSpec, run_campaign
from repro.io import SharedFileReader

DUMP_ITERATION = 1  # the first dumping iteration of every campaign


def worst_errors(spec: CampaignSpec, path: str) -> dict[str, float]:
    """Worst absolute read-back error per field over every rank."""
    app = spec.data_application()
    compressor = SZCompressor()
    worst = {}
    with SharedFileReader(path) as reader:
        for fs in app.fields[: spec.data_fields]:
            blocks = plan_blocks(
                fs.name,
                app.partition_shape,
                app.dtype.itemsize,
                spec.data_block_bytes,
            )
            worst[fs.name] = 0.0
            for rank in range(spec.nodes * spec.ppn):
                restored = reassemble_field(
                    [
                        (
                            block,
                            compressor.decompress(
                                CompressedBlock.from_bytes(
                                    reader.read(
                                        f"rank{rank}/{fs.name}/"
                                        f"{block.block_index}"
                                    )
                                )
                            ),
                        )
                        for block in blocks
                    ]
                )
                original = app.generate_field(
                    fs.name, rank, DUMP_ITERATION
                )
                worst[fs.name] = max(
                    worst[fs.name], max_abs_error(original, restored)
                )
    return worst


def main(ranks: int = 4) -> None:
    spec = CampaignSpec(
        engine="process",
        app="nyx",
        nodes=1,
        ppn=ranks,
        iterations=DUMP_ITERATION + 1,
        seed=77,
        data_dir=tempfile.mkdtemp(prefix="repro-parallel-"),
        data_edge=24,
        data_fields=3,
        data_block_bytes=32 * 1024,
    )
    app = spec.data_application()
    raw = app.partition_nbytes() * spec.data_fields * ranks
    print(
        f"dumping {ranks} ranks x {spec.data_fields} fields "
        f"({raw / 2**20:.1f} MiB raw) into one shared file..."
    )
    stats = run_campaign(spec).data
    path = stats.containers[DUMP_ITERATION]
    print(
        f"  {stats.num_blocks} blocks, ratio "
        f"{stats.compression_ratio:.1f}x, {stats.workers} worker processes"
    )
    print(
        f"  dump {stats.dump_wall_s:.2f}s wall "
        f"(workers generated for {stats.generate_wall_s:.2f}s and "
        f"compressed for {stats.compress_wall_s:.2f}s in total, "
        f"writer drain {stats.write_wall_s * 1e3:.0f}ms)"
    )
    print("  " + verify_snapshot(path).format().replace("\n", "\n  "))

    worst = worst_errors(spec, path)
    print("per-field worst absolute error (all within bounds):")
    for fs in app.fields[: spec.data_fields]:
        assert worst[fs.name] <= fs.error_bound * (1 + 1e-9), fs.name
        print(
            f"  {fs.name:20s} {worst[fs.name]:.4g}  "
            f"(bound {fs.error_bound:g})"
        )
    print(f"\nshared file at {path}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
