"""Unit tests for the HDFS block placement policy (the paper's description)."""

from __future__ import annotations

import pytest

from repro.core.errors import AllocationError
from repro.hdfs.block_placement import (
    DefaultPlacementPolicy,
    RandomPlacementPolicy,
    make_placement_policy,
)
from repro.hdfs.datanode import DataNode


def make_datanodes(num_nodes: int = 9, racks: int = 3) -> list[DataNode]:
    return [
        DataNode(i, host=f"node-{i}", rack=f"rack-{i % racks}")
        for i in range(num_nodes)
    ]


class TestDefaultPlacementPolicy:
    def test_first_replica_is_local_when_writer_is_a_datanode(self):
        nodes = make_datanodes()
        policy = DefaultPlacementPolicy(seed=1)
        for writer in ("node-0", "node-4", "node-8"):
            targets = policy.choose_targets(nodes, 3, writer_host=writer)
            assert targets[0].host == writer

    def test_second_replica_same_rack_third_remote_rack(self):
        nodes = make_datanodes()
        policy = DefaultPlacementPolicy(seed=2)
        for _ in range(20):
            targets = policy.choose_targets(nodes, 3, writer_host="node-0")
            first, second, third = targets
            assert second.rack == first.rack
            assert second.node_id != first.node_id
            assert third.rack != first.rack

    def test_targets_are_distinct(self):
        nodes = make_datanodes()
        policy = DefaultPlacementPolicy(seed=3)
        for _ in range(20):
            targets = policy.choose_targets(nodes, 3, writer_host="node-5")
            assert len({t.node_id for t in targets}) == 3

    def test_unknown_writer_host_falls_back_to_random(self):
        nodes = make_datanodes()
        policy = DefaultPlacementPolicy(seed=4)
        targets = policy.choose_targets(nodes, 2, writer_host="not-a-datanode")
        assert len(targets) == 2

    def test_replication_one_only_places_locally(self):
        nodes = make_datanodes()
        policy = DefaultPlacementPolicy(seed=5)
        targets = policy.choose_targets(nodes, 1, writer_host="node-7")
        assert [t.host for t in targets] == ["node-7"]

    def test_replication_beyond_three_uses_remaining_nodes(self):
        nodes = make_datanodes()
        policy = DefaultPlacementPolicy(seed=6)
        targets = policy.choose_targets(nodes, 5, writer_host="node-1")
        assert len({t.node_id for t in targets}) == 5

    def test_failed_nodes_excluded(self):
        nodes = make_datanodes(num_nodes=4, racks=2)
        nodes[0].fail()
        policy = DefaultPlacementPolicy(seed=7)
        targets = policy.choose_targets(nodes, 3, writer_host="node-0")
        assert all(t.node_id != 0 for t in targets)

    def test_single_rack_cluster_still_satisfies_replication(self):
        nodes = make_datanodes(num_nodes=4, racks=1)
        policy = DefaultPlacementPolicy(seed=8)
        targets = policy.choose_targets(nodes, 3, writer_host="node-0")
        assert len({t.node_id for t in targets}) == 3

    def test_over_replication_rejected(self):
        nodes = make_datanodes(num_nodes=2)
        policy = DefaultPlacementPolicy()
        with pytest.raises(AllocationError):
            policy.choose_targets(nodes, 3, writer_host="node-0")
        with pytest.raises(AllocationError):
            policy.choose_targets(nodes, 0, writer_host="node-0")


class TestRandomPlacementPolicy:
    def test_targets_distinct_and_live(self):
        nodes = make_datanodes()
        nodes[2].fail()
        policy = RandomPlacementPolicy(seed=9)
        for _ in range(10):
            targets = policy.choose_targets(nodes, 3)
            assert len({t.node_id for t in targets}) == 3
            assert all(t.node_id != 2 for t in targets)

    def test_spreads_over_cluster(self):
        nodes = make_datanodes()
        policy = RandomPlacementPolicy(seed=10)
        used = set()
        for _ in range(50):
            used.update(t.node_id for t in policy.choose_targets(nodes, 1))
        assert len(used) >= 6


class TestFactory:
    def test_known_policies(self):
        assert isinstance(make_placement_policy("default"), DefaultPlacementPolicy)
        assert isinstance(make_placement_policy("random"), RandomPlacementPolicy)
        with pytest.raises(AllocationError):
            make_placement_policy("bogus")
