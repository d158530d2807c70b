"""Tests for cluster topology."""

import pytest

from repro.simulator import ClusterSpec


class TestClusterSpec:
    def test_totals(self):
        spec = ClusterSpec(num_nodes=16, processes_per_node=4)
        assert spec.total_processes == 64

    def test_node_of(self):
        spec = ClusterSpec(num_nodes=4, processes_per_node=4)
        assert spec.node_of(0) == 0
        assert spec.node_of(5) == 1
        assert spec.node_of(15) == 3

    def test_local_rank(self):
        spec = ClusterSpec(num_nodes=4, processes_per_node=4)
        assert spec.local_rank(5) == 1

    def test_ranks_of_node(self):
        spec = ClusterSpec(num_nodes=2, processes_per_node=3)
        assert spec.ranks_of_node(1) == [3, 4, 5]

    def test_rank_out_of_range(self):
        spec = ClusterSpec(num_nodes=2, processes_per_node=2)
        with pytest.raises(ValueError):
            spec.node_of(4)
        with pytest.raises(ValueError):
            spec.ranks_of_node(2)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=0, processes_per_node=1)
