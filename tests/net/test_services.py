"""Filesystems running over remote stubs: BSFS and HDFS unchanged on RPC."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import KB, BlobSeer, BlobSeerConfig, DataProvider
from repro.core.errors import ProviderUnavailableError
from repro.core.pages import PageKey
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


class ProviderCluster:
    """Three provider stubs under one BlobSeer client."""

    def __init__(self, faults) -> None:
        self.backends = [DataProvider(i, host=f"node-{i}") for i in range(3)]
        self.stubs = [
            loopback_provider_stub(b, faults=faults, retry=RetryPolicy.no_retry())
            for b in self.backends
        ]
        config = BlobSeerConfig(page_size=4 * KB, num_providers=3, num_metadata_providers=1)
        self.client = BlobSeer(config, providers=self.stubs)

    def call(self, stub):
        return stub.page_keys()

    def probe(self, stub) -> bool:
        return stub.has_page(PageKey(9, 1, 0))

    def hold(self, index) -> None:
        """Store the probed page on backend ``index``."""
        self.backends[index].put_page(PageKey(9, 1, 0), b"x")

    def place_on(self, victim) -> bool:
        """Write three pages; whether any landed on ``victim``."""
        backend = self.backends[victim.provider_id]
        before = len(backend.page_keys())
        self.client.append(self.client.create_blob(), bytes(3 * 4 * KB))
        return len(backend.page_keys()) > before


class DataNodeCluster:
    """Three datanode stubs under one HDFS client."""

    def __init__(self, faults) -> None:
        self.backends = [DataNode(i, host=f"node-{i}") for i in range(3)]
        self.stubs = [
            loopback_datanode_stub(d, faults=faults, retry=RetryPolicy.no_retry())
            for d in self.backends
        ]
        self.client = HDFS(datanodes=self.stubs, default_block_size=BLOCK)
        self.files = 0

    def call(self, stub):
        return stub.block_ids()

    def probe(self, stub) -> bool:
        return stub.has_block(999)

    def hold(self, index) -> None:
        """Store the probed block on backend ``index``."""
        self.backends[index].write_block(999, b"x")

    def place_on(self, victim) -> bool:
        """Write one block from ``victim``'s host; whether it stayed local."""
        self.files += 1
        path = f"/placed-{self.files}.bin"
        with self.client.create(path, replication=1, client_host=victim.host) as out:
            out.write(bytes(BLOCK))
        return self.client.namenode.file_blocks(path)[0].locations == (victim.node_id,)


@pytest.fixture(params=[ProviderCluster, DataNodeCluster], ids=["provider", "datanode"])
def cluster(request, faults):
    return request.param(faults)


class TestDownMark:
    """Every stub kind's ``available`` is its own view of its calls."""

    def test_killed_peer_surfaces_as_provider_unavailable(self, cluster, faults):
        stub = cluster.stubs[0]
        served = stub.transport.calls_served
        assert stub.available
        assert stub.transport.calls_served == served  # available sent nothing
        faults.kill(stub.host)
        assert stub.available  # a view: no call has failed yet
        with pytest.raises(ProviderUnavailableError):
            cluster.call(stub)
        assert not stub.available

    def test_down_mark_clears_on_success_and_on_expiry(self, cluster, faults, monkeypatch):
        from repro.net import stubs as stubs_module

        victim = cluster.stubs[0]
        faults.kill(victim.host)
        assert not cluster.place_on(victim)  # the failed call re-placed its data
        assert not victim.available
        faults.revive(victim.host)
        assert not victim.available  # no call has seen it since
        assert not cluster.place_on(victim)
        # A successful call clears the mark, and data lands on it again.
        cluster.call(victim)
        assert victim.available
        assert cluster.place_on(victim)
        # fail() marks it down; the mark expires without any call.
        victim.fail()
        assert not victim.available
        cluster.backends[0].recover()
        monkeypatch.setattr(stubs_module, "DOWN_MARK_EXPIRY_S", 0.0)
        assert victim.available
        assert cluster.place_on(victim)


    def test_probes_share_the_down_mark(self, cluster, faults):
        stub = cluster.stubs[0]
        faults.kill(stub.host)
        assert not cluster.probe(stub)  # unreachable reads as "no" ...
        assert not stub.available  # ... and marks the node down
        faults.revive(stub.host)
        assert not cluster.probe(stub)
        assert not stub.available  # a failed node answers "no" too
        cluster.hold(0)
        assert cluster.probe(stub)
        assert stub.available


def count_rpcs(stubs, monkeypatch) -> Counter:
    """Count every RPC the stubs send, by method name."""
    sent: Counter = Counter()
    for stub in stubs:

        def call(service, method, *args, inner=stub.transport.call, **kwargs):
            sent[method] += 1
            return inner(service, method, *args, **kwargs)

        monkeypatch.setattr(stub.transport, "call", call)
    return sent


class TestRpcCounts:
    """Liveness and load come from replies: no data path sends ``stats``."""

    PAGE = 4 * KB

    def make_blobseer(self, faults, replication):
        stubs = [
            loopback_provider_stub(DataProvider(i, host=f"node-{i}"), faults=faults)
            for i in range(4)
        ]
        config = BlobSeerConfig(
            page_size=self.PAGE,
            num_providers=4,
            num_metadata_providers=1,
            replication=replication,
        )
        return BlobSeer(config, providers=stubs), stubs

    def test_replicated_bsfs_reads_send_no_stats(self, faults, monkeypatch):
        bs, stubs = self.make_blobseer(faults, replication=3)
        blob = bs.create_blob()
        payload = bytes(range(256)) * (8 * self.PAGE // 256)
        bs.append(blob, payload)
        sent = count_rpcs(stubs, monkeypatch)
        for _ in range(8):
            assert bs.read(blob, 0, len(payload)) == payload
        assert set(sent) == {"get_pages"}
        assert sent["get_pages"] <= 8 * len(stubs)  # one call per provider and read

    def test_appends_send_only_their_puts(self, faults, monkeypatch):
        bs, stubs = self.make_blobseer(faults, replication=1)
        blob = bs.create_blob()
        sent = count_rpcs(stubs, monkeypatch)
        for _ in range(8):
            bs.append(blob, bytes(4 * self.PAGE))
        # Each append stripes its 4 pages over the 4 providers.
        assert sent == {"put_pages": 32}

    def test_replicated_hdfs_read_sends_one_read_per_block(self, faults, monkeypatch):
        stubs = [
            loopback_datanode_stub(DataNode(i, host=f"node-{i}"), faults=faults)
            for i in range(4)
        ]
        fs = HDFS(datanodes=stubs, default_block_size=BLOCK, default_replication=3)
        payload = bytes(range(256)) * (8 * BLOCK // 256)
        fs.write_file("/r3.bin", payload)
        sent = count_rpcs(stubs, monkeypatch)
        assert fs.read_file("/r3.bin") == payload
        assert sent == {"read_block": 8}


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
