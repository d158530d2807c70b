"""The throughput model's derived rates are computed once per instance and
the runtime's per-dump I/O timer hoists its constants; both must return
exactly what the per-call formulas did."""

import dataclasses
import math

import numpy as np
import pytest

from repro.apps import NyxModel
from repro.framework import FrameworkConfig
from repro.framework.runtime import ProcessRuntime
from repro.io import IoThroughputModel


def _contention(model: IoThroughputModel) -> float:
    nodes = max(1.0, model.num_nodes / model.num_subfiles)
    return 1.0 + model.scale_contention * math.log2(nodes)


@pytest.mark.parametrize("nodes, subfiles", [(1, 1), (16, 1), (64, 4)])
def test_cached_rates_equal_the_formulas(nodes, subfiles):
    model = IoThroughputModel(num_nodes=nodes, num_subfiles=subfiles)
    for _ in range(2):  # the second read comes from the instance cache
        assert model.contention == _contention(model)
        assert model.per_process_bandwidth == (
            model.node_bandwidth_bytes_per_s
            / model.processes_per_node
            / _contention(model)
        )
    assert model == IoThroughputModel(num_nodes=nodes, num_subfiles=subfiles)


def test_derived_models_do_not_inherit_the_cache():
    model = IoThroughputModel(num_nodes=16)
    bandwidth = model.per_process_bandwidth
    assert model.with_bandwidth_factor(0.25).per_process_bandwidth == (
        model.node_bandwidth_bytes_per_s * 0.25 / 4 / model.contention
    )
    assert model.with_nodes(1).contention == 1.0
    assert model.with_processes(8).per_process_bandwidth == bandwidth / 2
    assert model.per_process_bandwidth == bandwidth


@pytest.mark.parametrize("buffer_bytes", [0, 20 * 2**20])
def test_io_task_timer_equals_the_per_block_formula(buffer_bytes):
    config = dataclasses.replace(
        FrameworkConfig(),
        io_model=IoThroughputModel(num_nodes=16),
        buffer_bytes=buffer_bytes,
    )
    runtime = ProcessRuntime(0, NyxModel(seed=3), config, node_size=4)
    model, mean = config.io_model, 612_345.5
    latency = model.write_latency_s
    if buffer_bytes:
        latency = latency / max(1.0, buffer_bytes / max(mean, 1.0))
    timer = runtime._io_task_timer(mean)
    sizes = [1, 4097, 612_345, 8_388_608]
    for nbytes in sizes:
        expected = latency + nbytes / model.per_process_bandwidth
        assert timer(nbytes) == expected
    # One call times a whole column, zero-byte blocks included.
    assert timer(np.array(sizes + [0])).tolist() == [
        latency + nbytes / model.per_process_bandwidth for nbytes in sizes
    ] + [0.0]
    assert timer(0) == 0.0
