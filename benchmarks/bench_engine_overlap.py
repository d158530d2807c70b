"""Execution-engine benchmarks: the payoff of real pipeline overlap.

``engine.pipeline_overlap.*`` times the identical end-to-end campaign
data plane — generate, SZ-compress, CRC32C-stamp, and write every
rank's partition — under the serial single-process path
(:class:`~repro.engines.SimulatorEngine`'s data plane) and under the
worker-pool path (:class:`~repro.engines.ProcessPoolEngine`), where
each rank is generated *and* compressed inside a worker and payloads
stream into the async writer while later ranks are still in flight::

    PYTHONPATH=src python -m repro bench run --filter engine --quick

On a multi-core runner the ``process`` case should beat ``serial`` by
roughly the worker count (the CI gate asks for >= 2x on 4 cores and,
through ``process_w2``, >= 1.5x with two workers on any host with two
cores); on a single-core machine they converge, which is itself the
honest result — overlap cannot conjure cores.
"""

from __future__ import annotations

import tempfile

from repro.bench import bench_case

_BASE = dict(
    nodes=1,
    ppn=4,
    iterations=3,
    seed=23,
    data_fields=2,
    data_block_bytes=64 * 1024,
)


def _run(engine: str, edge: int, workers: int | None):
    from repro.engines import CampaignSpec, run_campaign

    with tempfile.TemporaryDirectory(
        prefix="repro-bench-engine-"
    ) as tmp:
        spec = CampaignSpec(
            engine=engine,
            data_dir=tmp,
            data_edge=edge,
            workers=workers,
            **_BASE,
        )
        report = run_campaign(spec)
        assert report.data is not None and report.data.num_blocks > 0
        return report


@bench_case(
    "engine.pipeline_overlap.serial",
    group="engine",
    params={"edge": 48},
    quick={"edge": 24},
    warmup=1,
    repeats=3,
    timeout_s=300.0,
)
def bench_pipeline_serial(edge=48):
    """Single-process reference: compress then write, one rank at a time."""
    _run("sim", edge, None)


@bench_case(
    "engine.pipeline_overlap.process",
    group="engine",
    params={"edge": 48, "workers": 4},
    quick={"edge": 24, "workers": 4},
    warmup=1,
    repeats=3,
    timeout_s=300.0,
)
def bench_pipeline_process(edge=48, workers=4):
    """Worker-pool pipeline: per-rank compression and I/O overlapped."""
    _run("process", edge, workers)


@bench_case(
    "engine.pipeline_overlap.process_w2",
    group="engine",
    params={"edge": 48, "workers": 2},
    quick={"edge": 24, "workers": 2},
    warmup=1,
    repeats=3,
    timeout_s=300.0,
)
def bench_pipeline_process_w2(edge=48, workers=2):
    """The worker-pool pipeline on two workers: the two-core CI gate."""
    _run("process", edge, workers)


@bench_case(
    "engine.pipeline_overlap.speedup",
    group="engine",
    params={"edge": 32, "workers": 4},
    quick=True,
    warmup=0,
    repeats=1,
    timeout_s=300.0,
)
def bench_pipeline_speedup(edge=32, workers=4):
    """Both engines back to back, asserting the CRC-equality contract.

    The case's own timing is incidental; it exists so every bench run
    re-checks that the overlap pipeline still produces byte-identical
    blocks (the serial/process wall-clock ratio is visible by comparing
    the two cases above).
    """
    serial = _run("sim", edge, None)
    overlapped = _run("process", edge, workers)
    assert serial.block_crc32c == overlapped.block_crc32c
    assert serial.data.compressed_bytes == overlapped.data.compressed_bytes


@bench_case(
    "engine.supervised_recovery",
    group="engine",
    params={"edge": 32, "workers": 4},
    warmup=0,
    repeats=2,
    timeout_s=300.0,
)
def bench_supervised_recovery(edge=32, workers=4):
    """Worker-kill recovery cost: a SIGKILLed rank retried to completion.

    Times the process data plane while rank 1's first attempt at
    iteration 1 is killed, so the measurement includes death detection,
    relaunch, and result dedup on top of the clean pipeline — compare
    against ``engine.pipeline_overlap.process`` for the overhead.  Full
    runs only (no ``quick`` variant), so the committed quick baseline is
    untouched.
    """
    from repro.engines import CampaignSpec, run_campaign

    faults = {"worker": {"kind": "kill", "rank": 1, "iteration": 1}}
    with tempfile.TemporaryDirectory(prefix="repro-bench-sup-") as tmp:
        report = run_campaign(CampaignSpec(
            engine="process",
            data_dir=tmp,
            data_edge=edge,
            workers=workers,
            faults=faults,
            task_deadline_s=30.0,
            speculative_frac=0.0,
            **_BASE,
        ))
    sup = report.data.supervisor
    assert sup is not None and sup.recovered and sup.retries >= 1
