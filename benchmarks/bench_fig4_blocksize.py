"""Figure 4: execution time vs fine-grained compression block size.

Paper setup: Nyx 512^3 over 8 GPUs (64 MB per field per process), three
run stages, buffer 20 MB, ExtJohnson+BF; block sizes 1-64 MB; relative to
the 64 MB (whole-field) execution time; plus a no-shared-tree series.
Expected shape: a sweet spot around 8-16 MB; very small blocks lose their
benefit, catastrophically so without the shared Huffman tree (the
constant tree-build cost is paid per block).
"""

from __future__ import annotations

from repro.apps import Stage
from repro.framework import format_table, ours_config

from .common import FixedStageNyx, emit, run_campaign

_MB = 2**20
_BLOCK_SIZES = [1, 2, 4, 8, 16, 32, 64]


def _overall_time(stage: Stage, block_mb: int, shared_tree: bool) -> float:
    app = FixedStageNyx(
        stage,
        seed=4,
        partition_shape=(128, 256, 256),  # 64 MiB per field (float64)
    )
    config = ours_config(
        block_bytes=block_mb * _MB,
        use_shared_tree=shared_tree,
        use_balancing=False,  # isolate the blocking effect
    )
    result = run_campaign(
        app, config, nodes=2, ppn=4, iterations=4, seed=4
    )
    return float(
        sum(r.overall_s for r in result.dump_records())
        / len(result.dump_records())
    )


def test_fig4_block_size(benchmark):
    def build() -> str:
        rows = []
        series: dict[tuple[str, int], float] = {}
        for stage in Stage:
            reference = _overall_time(stage, 64, shared_tree=True)
            for block_mb in _BLOCK_SIZES:
                t = _overall_time(stage, block_mb, shared_tree=True)
                series[(stage.value, block_mb)] = t / reference
                rows.append(
                    (
                        stage.value,
                        f"{block_mb} MB",
                        "shared tree",
                        f"{t / reference:.3f}",
                    )
                )
        # The dashed no-shared-tree line (paper shows it for one stage).
        reference = _overall_time(Stage.MIDDLE, 64, shared_tree=True)
        no_tree: dict[int, float] = {}
        for block_mb in _BLOCK_SIZES:
            t = _overall_time(Stage.MIDDLE, block_mb, shared_tree=False)
            no_tree[block_mb] = t / reference
            rows.append(
                (
                    Stage.MIDDLE.value,
                    f"{block_mb} MB",
                    "no shared tree",
                    f"{t / reference:.3f}",
                )
            )

        # Shape checks: 8-16 MB beats whole-field for every stage, and
        # tiny blocks without the shared tree are the worst configuration.
        for stage in Stage:
            best_mid = min(
                series[(stage.value, 8)], series[(stage.value, 16)]
            )
            assert best_mid <= series[(stage.value, 64)] + 1e-9
        assert no_tree[1] > no_tree[8]
        assert no_tree[1] > series[(Stage.MIDDLE.value, 1)]
        return format_table(
            rows,
            headers=("stage", "block size", "tree", "relative exec time"),
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("fig4_blocksize", text)
