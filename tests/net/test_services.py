"""Filesystems running over remote stubs: BSFS and HDFS unchanged on RPC."""

from __future__ import annotations

import pytest

from repro.core import KB, BlobSeer, BlobSeerConfig, DataProvider
from repro.core.errors import ProviderUnavailableError
from repro.bsfs import BSFS
from repro.hdfs import HDFS, DataNode
from repro.net import (
    NetworkFaultPlan,
    NodeServer,
    RemoteDataNode,
    RemoteDataProvider,
    RetryPolicy,
    connect_datanode,
    connect_provider,
    loopback_datanode_stub,
    loopback_provider_stub,
)

BLOCK = 16 * KB


def make_config(*, replication: int = 2) -> BlobSeerConfig:
    return BlobSeerConfig(
        page_size=4 * KB,
        num_providers=4,
        num_metadata_providers=3,
        replication=replication,
        rng_seed=7,
    )


@pytest.fixture
def faults():
    return NetworkFaultPlan(sleep=lambda _s: None)


class TestProviderStub:
    def test_stub_mirrors_provider_identity(self, faults):
        provider = DataProvider(3, host="node-3", rack="rack-1")
        stub = loopback_provider_stub(provider, faults=faults)
        assert isinstance(stub, RemoteDataProvider)
        assert stub.provider_id == 3
        assert stub.host == "node-3"
        assert stub.rack == "rack-1"

    def test_stub_page_round_trip(self, faults):
        from repro.core.pages import PageKey

        provider = DataProvider(0)
        stub = loopback_provider_stub(provider, faults=faults)
        key = PageKey(1, 1, 0)
        stub.put_page(key, b"payload")
        assert stub.get_page(key) == b"payload"
        assert stub.has_page(key)
        assert provider.has_page(key)  # it really landed on the backend

    def test_killed_peer_surfaces_as_provider_unavailable(self, faults):
        provider = DataProvider(0, host="node-0")
        stub = loopback_provider_stub(provider, faults=faults)
        faults.kill("node-0")
        assert not stub.available
        with pytest.raises(ProviderUnavailableError):
            stub.page_keys()


class TestBsfsOverStubs:
    def make_blobseer(self, faults, *, replication=2):
        config = make_config(replication=replication)
        self.backends = [
            DataProvider(i, host=f"node-{i}", rack=f"rack-{i % 2}")
            for i in range(config.num_providers)
        ]
        stubs = [
            loopback_provider_stub(p, faults=faults, retry=RetryPolicy.no_retry())
            for p in self.backends
        ]
        return BlobSeer(config, providers=stubs)

    def test_write_read_byte_identical(self, faults):
        bs = self.make_blobseer(faults)
        fs = BSFS(blobseer=bs, default_block_size=BLOCK)
        payload = bytes(range(256)) * 128  # 32 KiB, multi-page
        fs.write_file("/stub.bin", payload)
        assert fs.read_file("/stub.bin") == payload

    def test_read_fails_over_when_peer_killed(self, faults):
        bs = self.make_blobseer(faults, replication=2)
        fs = BSFS(blobseer=bs, default_block_size=BLOCK)
        payload = b"f" * (2 * BLOCK)
        fs.write_file("/failover.bin", payload)
        # Kill one node-process; the replica on a live peer serves reads.
        faults.kill("node-1")
        assert fs.read_file("/failover.bin") == payload


class TestHdfsOverStubs:
    def make_hdfs(self, faults, *, replication=2):
        self.backends = [
            DataNode(i, host=f"node-{i}", rack=f"rack-{i % 3}") for i in range(4)
        ]
        stubs = [
            loopback_datanode_stub(d, faults=faults, retry=RetryPolicy.no_retry())
            for d in self.backends
        ]
        return HDFS(
            datanodes=stubs,
            default_block_size=BLOCK,
            default_replication=replication,
        )

    def test_stub_mirrors_datanode_identity(self, faults):
        node = DataNode(7, host="node-7", rack="rack-0")
        stub = loopback_datanode_stub(node, faults=faults)
        assert isinstance(stub, RemoteDataNode)
        assert stub.node_id == 7
        assert stub.host == "node-7"

    def test_write_read_byte_identical(self, faults):
        fs = self.make_hdfs(faults)
        payload = b"h" * (2 * BLOCK + 500)
        fs.write_file("/stub.bin", payload)
        assert fs.read_file("/stub.bin") == payload
        blocks = fs.namenode.file_blocks("/stub.bin")
        assert [b.length for b in blocks] == [BLOCK, BLOCK, 500]

    def test_read_fails_over_when_peer_killed(self, faults):
        fs = self.make_hdfs(faults, replication=2)
        payload = b"f" * BLOCK
        fs.write_file("/failover.bin", payload)
        meta = fs.namenode.file_blocks("/failover.bin")[0]
        victim = fs.namenode.datanode(meta.locations[0])
        faults.kill(victim.host)
        assert fs.read_file("/failover.bin") == payload

    def test_partitioned_writer_still_writes_elsewhere(self, faults):
        fs = self.make_hdfs(faults, replication=2)
        faults.partition("client", "node-0")
        fs.write_file("/part.bin", b"p" * BLOCK, replication=2)
        meta = fs.namenode.file_blocks("/part.bin")[0]
        assert 0 not in meta.locations
        assert fs.read_file("/part.bin") == b"p" * BLOCK


class TestHdfsPlacementWithoutProbes:
    """Block placement reads each datanode stub's own view of liveness."""

    def make_hdfs(self, faults):
        self.backends = [
            DataNode(i, host=f"node-{i}", rack=f"rack-{i % 3}") for i in range(3)
        ]
        self.stubs = [
            loopback_datanode_stub(d, faults=faults, retry=RetryPolicy.no_retry())
            for d in self.backends
        ]
        self.writes = {stub.node_id: 0 for stub in self.stubs}
        for stub in self.stubs:
            self.count_writes(stub)
        return HDFS(datanodes=self.stubs, default_block_size=BLOCK)

    def count_writes(self, stub):
        """Count every ``write_block`` the stub is asked to send."""
        write_block = stub.write_block

        def counted(block_id, data):
            self.writes[stub.node_id] += 1
            return write_block(block_id, data)

        stub.write_block = counted

    def rpcs(self) -> int:
        return sum(stub.transport.calls_served for stub in self.stubs)

    @staticmethod
    def write_from(fs, host: str, path: str, data: bytes) -> None:
        """Write ``data`` as a client on ``host``: replication 1 places
        every block on that host's datanode while it looks up."""
        with fs.create(path, replication=1, client_host=host) as out:
            out.write(data)

    def test_write_makes_one_rpc_per_block(self, faults):
        fs = self.make_hdfs(faults)
        before = self.rpcs()
        fs.write_file("/six.bin", bytes(6 * BLOCK), replication=1)
        assert self.rpcs() - before == 6  # one write_block each, no probes
        assert len(fs.namenode.file_blocks("/six.bin")) == 6

    def test_failed_write_marks_node_down_and_places_the_block_once_more(self, faults):
        fs = self.make_hdfs(faults)
        victim = self.stubs[0]
        faults.kill(victim.host)
        payload = bytes(range(256)) * (6 * BLOCK // 256)
        self.write_from(fs, victim.host, "/spare.bin", payload)
        assert not victim.available
        assert self.writes[victim.node_id] == 1  # the failed one, no further
        blocks = fs.namenode.file_blocks("/spare.bin")
        assert len(blocks) == 6
        assert all(victim.node_id not in b.locations for b in blocks)
        assert fs.read_file("/spare.bin") == payload

    def test_down_mark_clears_on_success_and_on_expiry(self, faults, monkeypatch):
        from repro.net import stubs as stubs_module

        fs = self.make_hdfs(faults)
        victim = self.stubs[0]
        faults.kill(victim.host)
        self.write_from(fs, victim.host, "/a.bin", bytes(BLOCK))
        assert not victim.available
        faults.revive(victim.host)
        assert not victim.available  # no call has seen it since
        # A successful call clears the mark, and blocks go local again.
        assert victim.block_ids() == []
        assert victim.available
        self.write_from(fs, victim.host, "/b.bin", bytes(BLOCK))
        assert fs.namenode.file_blocks("/b.bin")[0].locations == (victim.node_id,)
        # fail() marks it down; the mark expires without any call.
        victim.fail()
        assert not victim.available
        self.backends[0].recover()
        monkeypatch.setattr(stubs_module, "DOWN_MARK_EXPIRY_S", 0.0)
        assert victim.available
        self.write_from(fs, victim.host, "/c.bin", bytes(BLOCK))
        assert fs.namenode.file_blocks("/c.bin")[0].locations == (victim.node_id,)

    def test_spare_placement_is_tried_once(self, faults):
        fs = self.make_hdfs(faults)
        for stub in self.stubs:
            faults.kill(stub.host)
        stream = fs.create("/never.bin", block_size=BLOCK, replication=1)
        with pytest.raises(ProviderUnavailableError):
            stream.write(bytes(BLOCK))
        stream.close()
        assert sum(self.writes.values()) == 2  # first placement, one spare
        assert sum(stub.available for stub in self.stubs) == 1  # still looks up
        assert fs.namenode.file_blocks("/never.bin") == []

    def test_delete_and_overwrite_skip_an_unreachable_replica(self, faults):
        fs = self.make_hdfs(faults)
        victim = self.stubs[0]
        self.write_from(fs, victim.host, "/old.bin", bytes(BLOCK))
        self.write_from(fs, victim.host, "/gone.bin", bytes(BLOCK))
        faults.kill(victim.host)
        assert victim.available  # no call has failed yet
        fs.write_file("/old.bin", b"new", overwrite=True, replication=1)
        fs.delete("/gone.bin")
        assert not fs.exists("/gone.bin")
        assert fs.read_file("/old.bin") == b"new"

    def test_stats_list_an_unreachable_datanode_and_report_the_rest(self, faults):
        fs = self.make_hdfs(faults)
        victim = self.stubs[0]
        self.write_from(fs, self.stubs[1].host, "/kept.bin", bytes(BLOCK))
        faults.kill(victim.host)
        report = fs.stats()["datanodes"]
        assert report[victim.node_id] == {
            "host": victim.host,
            "rack": victim.rack,
            "reachable": False,
        }
        others = [report[stub.node_id] for stub in self.stubs[1:]]
        assert all(entry["reachable"] for entry in others)
        assert [entry["blocks"] for entry in others] == [1, 0]


class TestTcpStubs:
    def test_provider_node_server_round_trip(self):
        from repro.core.pages import PageKey

        provider = DataProvider(5, host="node-5", rack="rack-0")
        server = NodeServer(provider, host="127.0.0.1", port=0)
        host, port = server.start()
        try:
            stub = connect_provider(host, port)
            assert stub.provider_id == 5
            key = PageKey(9, 1, 0)
            stub.put_page(key, b"over tcp")
            assert stub.get_page(key) == b"over tcp"
            assert provider.has_page(key)
            stub.close()
        finally:
            server.stop()

    def test_datanode_node_server_round_trip(self):
        node = DataNode(2, host="node-2", rack="rack-1")
        server = NodeServer(node, host="127.0.0.1", port=0)
        host, port = server.start()
        try:
            stub = connect_datanode(host, port)
            stub.write_block(11, b"tcp block")
            assert stub.read_block(11) == b"tcp block"
            assert stub.block_ids() == [11]
            stub.close()
        finally:
            server.stop()

    def test_hdfs_over_tcp_stubs(self):
        backends = [DataNode(i, host=f"node-{i}", rack="r0") for i in range(3)]
        servers = [NodeServer(d, host="127.0.0.1", port=0) for d in backends]
        stubs = []
        try:
            for server in servers:
                host, port = server.start()
                stubs.append(connect_datanode(host, port))
            fs = HDFS(
                datanodes=stubs, default_block_size=BLOCK, default_replication=2
            )
            payload = bytes(range(256)) * 256  # 64 KiB
            fs.write_file("/tcp.bin", payload)
            assert fs.read_file("/tcp.bin") == payload
        finally:
            for stub in stubs:
                stub.close()
            for server in servers:
                server.stop()


class TestNodeServerClassification:
    def test_storage_nodes_are_classified_by_duck_type(self):
        from repro.core.pages import PageKey

        provider = DataProvider(5, host="node-5", rack="rack-0")
        provider.put_page(PageKey(9, 1, 0), b"page")
        datanode = DataNode(2, host="node-2", rack="rack-1")
        datanode.write_block(11, b"block")

        as_provider = NodeServer(provider).describe()
        as_datanode = NodeServer(datanode).describe()
        assert (as_provider["kind"], as_provider["numeric_id"]) == ("provider", 5)
        assert (as_datanode["kind"], as_datanode["numeric_id"]) == ("datanode", 2)
        assert as_provider["node_name"] == "node-5"
        assert NodeServer(provider).block_report_payload() == [PageKey(9, 1, 0)]
        assert NodeServer(datanode).block_report_payload() == [11]

    def test_non_storage_node_is_rejected(self, tmp_path):
        from repro.fs import LocalFS
        from repro.mapreduce import JobService

        service = JobService.local(LocalFS(root=str(tmp_path / "fs")), num_trackers=1)
        with pytest.raises(TypeError) as excinfo:
            NodeServer(service)
        message = str(excinfo.value)
        for expected in ("put_page", "node_id", "provider_id"):
            assert expected in message
        assert "submit_job" not in message
