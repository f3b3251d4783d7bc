"""End-to-end failure detection and recovery on the loopback deployment.

A node "process" is killed through the network fault plan, the control
plane notices via missed heartbeats, the recovery coordinator
re-replicates what the node held, and a subsequent read returns the
original bytes — the BlobSeer availability story, in one process.
"""

from __future__ import annotations

import pytest

from repro.core import KB, BlobSeer, BlobSeerConfig, DataProvider
from repro.bsfs import BSFS
from repro.hdfs import HDFS, DataNode
from repro.net import (
    ClusterConfig,
    ControlService,
    HeartbeatPump,
    NetworkFaultPlan,
    RecoveryCoordinator,
    RetryPolicy,
    loopback_datanode_stub,
    loopback_provider_stub,
)

BLOCK = 16 * KB
FAST = ClusterConfig(heartbeat_interval=0.02, max_missed_heartbeats=2)


def start_pumps(control: ControlService, nodes, faults: NetworkFaultPlan):
    """Register each node and heartbeat it until its peer is killed."""
    pumps = []
    for name, kind, numeric_id in nodes:
        control.register(name, kind, numeric_id)

        def beat(name=name):
            faults.on_message(name, "control")
            control.heartbeat(name)

        pumps.append(
            HeartbeatPump(
                beat,
                interval=FAST.heartbeat_interval,
                should_beat=lambda name=name: not faults.is_killed(name),
            ).start()
        )
    return pumps


class TestBlobSeerRecovery:
    def test_killed_provider_is_detected_and_repaired(self):
        faults = NetworkFaultPlan()
        config = BlobSeerConfig(
            page_size=4 * KB,
            num_providers=4,
            num_metadata_providers=3,
            replication=2,
        )
        backends = [
            DataProvider(i, host=f"node-{i}", rack=f"rack-{i % 2}")
            for i in range(config.num_providers)
        ]
        stubs = [
            loopback_provider_stub(p, faults=faults, retry=RetryPolicy.no_retry())
            for p in backends
        ]
        bs = BlobSeer(config, providers=stubs)
        fs = BSFS(blobseer=bs, default_block_size=BLOCK)

        registry = FAST.make_registry()
        control = ControlService(registry)
        coordinator = RecoveryCoordinator(registry, blobseer=bs, control=control)
        pumps = start_pumps(
            control,
            [(f"node-{i}", "provider", i) for i in range(len(backends))],
            faults,
        )
        try:
            payload = bytes(range(256)) * 128  # 32 KiB across pages
            fs.write_file("/survive.bin", payload)

            victim = backends[1]
            faults.kill(victim.host)  # RPCs to it now fail...
            victim.fail()  # ...and the backend itself is gone

            with coordinator.monitor():
                assert registry.await_death(victim.host, timeout=5.0)

            # The coordinator deregistered the provider and re-replicated.
            assert victim.provider_id not in bs.provider_manager.provider_ids
            names = [name for name, _kind, _count in coordinator.recoveries]
            assert names == [victim.host]
            _, kind, repaired = coordinator.recoveries[0]
            assert kind == "provider"
            assert repaired >= 1

            # Every page is back at full replication on live providers.
            assert fs.read_file("/survive.bin") == payload
        finally:
            for pump in pumps:
                pump.stop()

    def test_clean_deregister_triggers_no_recovery(self):
        faults = NetworkFaultPlan()
        registry = FAST.make_registry()
        control = ControlService(registry)
        config = BlobSeerConfig(
            page_size=4 * KB,
            num_providers=3,
            num_metadata_providers=3,
            replication=1,
        )
        backends = [DataProvider(i, host=f"node-{i}") for i in range(3)]
        stubs = [loopback_provider_stub(p, faults=faults) for p in backends]
        bs = BlobSeer(config, providers=stubs)
        coordinator = RecoveryCoordinator(registry, blobseer=bs, control=control)
        control.register("node-2", "provider", 2)
        control.deregister("node-2")
        import time

        time.sleep(3 * FAST.heartbeat_interval)
        registry.check()
        assert coordinator.recoveries == []


class TestHdfsRecovery:
    def test_killed_datanode_is_detected_and_re_replicated(self):
        faults = NetworkFaultPlan()
        backends = [
            DataNode(i, host=f"node-{i}", rack=f"rack-{i % 2}") for i in range(4)
        ]
        stubs = [
            loopback_datanode_stub(d, faults=faults, retry=RetryPolicy.no_retry())
            for d in backends
        ]
        fs = HDFS(datanodes=stubs, default_block_size=BLOCK, default_replication=2)

        registry = FAST.make_registry()
        control = ControlService(registry)
        coordinator = RecoveryCoordinator(
            registry, namenode=fs.namenode, control=control
        )
        pumps = start_pumps(
            control,
            [(f"node-{i}", "datanode", i) for i in range(len(backends))],
            faults,
        )
        try:
            payload = b"x" * (2 * BLOCK)
            fs.write_file("/survive.bin", payload)
            victim_id = fs.namenode.file_blocks("/survive.bin")[0].locations[0]
            victim = backends[victim_id]

            faults.kill(victim.host)
            victim.fail()

            with coordinator.monitor():
                assert registry.await_death(victim.host, timeout=5.0)

            _, kind, repaired = coordinator.recoveries[0]
            assert kind == "datanode"
            assert repaired >= 1
            for meta in fs.namenode.file_blocks("/survive.bin"):
                assert victim_id not in meta.locations
                assert len(meta.locations) == 2
            assert fs.read_file("/survive.bin") == payload
        finally:
            for pump in pumps:
                pump.stop()


class TestCoordinatorEdgeCases:
    def test_unknown_kind_death_is_recorded_but_harmless(self):
        registry = FAST.make_registry()
        coordinator = RecoveryCoordinator(registry)
        registry.register("mystery")
        import time

        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not coordinator.recoveries:
            registry.check()
            time.sleep(FAST.heartbeat_interval)
        assert coordinator.recoveries == [("mystery", "unknown", 0)]

    def test_manual_tracking_without_control_service(self):
        registry = FAST.make_registry()
        coordinator = RecoveryCoordinator(registry)
        coordinator.track_provider("p-0", 0)
        coordinator.track_datanode("d-1", 1)
        assert coordinator.recoveries == []
        with pytest.raises(TypeError):
            RecoveryCoordinator()  # registry is required
