"""Figure 11: weak scaling of Nyx and WarpX, 8 -> 64 GPUs.

Paper setup: per-process problem size fixed (Nyx 256^3, WarpX
128x128x512); both reference solutions slow down as the job grows
(shared-file contention) while ours stays consistent because it moves
16-274x less data.
"""

from __future__ import annotations

from repro.apps import NyxModel, WarpXModel
from repro.framework import (
    async_io_config,
    baseline_config,
    format_table,
    line_chart,
    ours_config,
)

from .common import emit, mean_overhead

_SCALES = [(2, 4), (4, 4), (8, 4), (16, 4)]  # 8, 16, 32, 64 GPUs


def test_fig11_weak_scaling(benchmark):
    def build() -> str:
        rows = []
        shape: dict[tuple[str, str, int], float] = {}
        for app_name, app in (
            ("nyx", NyxModel(seed=11)),
            ("warpx", WarpXModel(seed=11)),
        ):
            for nodes, ppn in _SCALES:
                gpus = nodes * ppn
                cells = []
                for sol_name, config in (
                    ("baseline", baseline_config()),
                    ("async-I/O", async_io_config()),
                    ("ours", ours_config()),
                ):
                    value = mean_overhead(
                        app,
                        config,
                        nodes=nodes,
                        ppn=ppn,
                        iterations=5,
                        seed=11,
                    )
                    shape[(app_name, sol_name, gpus)] = value
                    cells.append(f"{value * 100:.1f}%")
                rows.append((app_name, f"{gpus} GPUs", *cells))

        for app_name in ("nyx", "warpx"):
            # Ordering holds at every scale.
            for _, gpus in [(n, n * p) for n, p in _SCALES]:
                assert (
                    shape[(app_name, "ours", gpus)]
                    < shape[(app_name, "async-I/O", gpus)]
                    < shape[(app_name, "baseline", gpus)]
                )
            # Baseline/async degrade with scale; ours stays ~flat.
            for sol in ("baseline", "async-I/O"):
                assert (
                    shape[(app_name, sol, 64)]
                    > shape[(app_name, sol, 8)] * 1.1
                )
            ours_growth = (
                shape[(app_name, "ours", 64)]
                - shape[(app_name, "ours", 8)]
            )
            base_growth = (
                shape[(app_name, "baseline", 64)]
                - shape[(app_name, "baseline", 8)]
            )
            assert ours_growth < base_growth / 3
        table = format_table(
            rows,
            headers=("app", "scale", "baseline", "async-I/O", "ours"),
        )
        gpus = [n * p for n, p in _SCALES]
        chart = line_chart(
            {
                sol: [
                    (float(g), shape[("nyx", sol, g)]) for g in gpus
                ]
                for sol in ("baseline", "async-I/O", "ours")
            },
            x_label="GPUs (Nyx weak scaling)",
            y_label="relative overhead",
        )
        return table + "\n\n" + chart

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("fig11_scaling", text)
