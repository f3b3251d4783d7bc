"""The metadata DHT over the wire: remote metadata providers.

A :class:`~repro.core.dht.MetadataDHT` built over
:class:`~repro.net.stubs.RemoteMetadataProvider` stubs must behave like
the in-process one — same key routing, same failover on unreachable
peers — so a BlobSeer deployment can push its metadata tree to remote
nodes without any caller changing.
"""

from __future__ import annotations

import pytest

from repro.core import KB, BlobSeer, BlobSeerConfig
from repro.core.dht import MISSING, MetadataDHT, MetadataProvider
from repro.core.errors import ProviderUnavailableError
from repro.core.provider import DataProvider
from repro.net import (
    NetworkFaultPlan,
    NodeServer,
    RemoteMetadataProvider,
    RetryPolicy,
    connect_metadata,
    loopback_metadata_stub,
)


@pytest.fixture
def faults():
    return NetworkFaultPlan(sleep=lambda _s: None)


def make_stubs(count, faults):
    backends = [MetadataProvider(i) for i in range(count)]
    stubs = [
        loopback_metadata_stub(p, faults=faults, retry=RetryPolicy.no_retry())
        for p in backends
    ]
    return backends, stubs


class TestMetadataStub:
    def test_stub_mirrors_identity_and_round_trips(self, faults):
        backend = MetadataProvider(5)
        stub = loopback_metadata_stub(backend, faults=faults)
        assert isinstance(stub, RemoteMetadataProvider)
        assert stub.provider_id == 5
        stub.put("k", {"v": 1})
        assert stub.get("k") == {"v": 1}
        assert stub.contains("k")
        assert backend.contains("k")  # it really landed on the backend
        assert stub.keys() == ["k"]
        assert len(stub) == 1
        assert stub.stats["puts"] == 1
        # Bulk ops are one plain RPC each; the missing-key marker keeps its
        # identity across the wire.
        stub.put_many([("a", 1), ("b", None)])
        assert stub.get_many(["b", "absent", "a"]) == [None, MISSING, 1]
        assert stub.get_many(["absent"])[0] is MISSING
        assert stub.stats == {"puts": 3, "gets": 5, "entries": 3}
        stub.delete("a")
        stub.delete("b")
        stub.delete("k")
        assert not stub.contains("k")

    def test_missing_key_raises_keyerror_through_the_wire(self, faults):
        _backends, stubs = make_stubs(1, faults)
        stub = stubs[0]
        with pytest.raises(KeyError):
            stub.get("absent")
        with pytest.raises(KeyError):
            stub.delete("absent")

    def test_killed_peer_surfaces_as_provider_unavailable(self, faults):
        backend = MetadataProvider(0)
        stub = loopback_metadata_stub(backend, faults=faults)
        served = stub.transport.calls_served
        assert stub.available
        assert stub.transport.calls_served == served  # available sent nothing
        faults.kill("metadata-0")
        assert stub.available  # a view: no call has failed yet
        with pytest.raises(ProviderUnavailableError):
            stub.put("k", 1)
        assert not stub.available


class TestDhtOverStubs:
    def test_dht_routes_keys_like_in_process(self, faults):
        backends, stubs = make_stubs(3, faults)
        remote = MetadataDHT(stubs, virtual_nodes=16)
        local = MetadataDHT(backends, virtual_nodes=16)
        for i in range(40):
            remote.put(f"key-{i}", i)
        # Same ring geometry: every key lands on the same owner either way.
        for i in range(40):
            assert remote.owner_of(f"key-{i}") == local.owner_of(f"key-{i}")
            assert remote.get(f"key-{i}") == i
        # distribution() exercises __len__ on the stubs.
        assert sum(remote.distribution().values()) == 40

    def test_dht_fails_over_to_live_replica(self, faults):
        backends, stubs = make_stubs(3, faults)
        dht = MetadataDHT(stubs, virtual_nodes=16, replication=2)
        dht.put("k", "v")
        owner = dht.owner_of("k")
        faults.kill(f"metadata-{owner}")
        assert dht.get("k") == "v"
        assert dht.contains("k")


class TestBlobSeerOverRemoteMetadata:
    def test_write_read_with_remote_metadata_plane(self, faults):
        config = BlobSeerConfig(
            page_size=4 * KB,
            num_providers=4,
            num_metadata_providers=3,
            replication=1,
        )
        _backends, stubs = make_stubs(config.num_metadata_providers, faults)
        bs = BlobSeer(config, metadata_providers=stubs)
        blob_id = bs.create_blob()
        payload = bytes(range(256)) * 64  # 16 KiB, multi-page
        version = bs.append(blob_id, payload)
        assert bs.read(blob_id, 0, len(payload), version=version) == payload

    def test_batched_appends_with_remote_metadata_plane(self, faults):
        config = BlobSeerConfig(
            page_size=4 * KB,
            num_providers=4,
            num_metadata_providers=3,
            replication=1,
        )
        _backends, stubs = make_stubs(config.num_metadata_providers, faults)
        bs = BlobSeer(config, metadata_providers=stubs)
        blob_id = bs.create_blob()
        chunks = [bytes([i]) * (4 * KB) for i in range(4)]
        versions = [bs.append(blob_id, chunk) for chunk in chunks]
        assert versions == [1, 2, 3, 4]
        assert bs.read(blob_id, 0, 16 * KB, version=4) == b"".join(chunks)


class TestTwoClientsOverOneMetadataProvider:
    """Each client caches tree nodes and never invalidates them; what the
    other client publishes must still reach it, over either transport."""

    @staticmethod
    def check(first_stub, second_stub, backend):
        config = BlobSeerConfig(
            page_size=4 * KB, num_providers=3, num_metadata_providers=1
        )
        data_providers = [DataProvider(i) for i in range(config.num_providers)]
        first = BlobSeer(config, providers=data_providers, metadata_providers=[first_stub])
        second = BlobSeer(config, providers=data_providers, metadata_providers=[second_stub])
        # One deployment, two client processes: the version manager is shared.
        second.version_manager = first.version_manager
        blob = first.create_blob()
        a, b, c = (bytes([x]) * (8 * KB) for x in (1, 2, 3))

        first.append(blob, a)
        gets = backend.stats["gets"]
        assert second.read_all(blob) == a
        assert backend.stats["gets"] > gets  # a cold client asks the provider
        second.append(blob, b)  # built on a base the other client stored
        assert first.read_all(blob) == a + b
        first.write(blob, 0, c)
        assert second.read_all(blob) == c + b
        # Old snapshots stay readable beside the new one, from either side.
        assert second.read_all(blob, version=1) == a
        assert first.read_all(blob, version=2) == a + b
        gets = backend.stats["gets"]
        assert second.read_all(blob) == c + b
        assert backend.stats["gets"] == gets  # a re-read asks nobody

    def test_over_loopback(self, faults):
        backend = MetadataProvider(0)
        self.check(
            loopback_metadata_stub(backend, faults=faults),
            loopback_metadata_stub(backend, faults=faults),
            backend,
        )

    def test_over_tcp(self):
        backend = MetadataProvider(0)
        with NodeServer(backend) as server:
            stubs = [connect_metadata(*server.rpc.address) for _ in range(2)]
            try:
                self.check(*stubs, backend)
            finally:
                for stub in stubs:
                    stub.close()


class TestNodeServerMetadataKind:
    def test_node_server_detects_metadata_kind(self):
        backend = MetadataProvider(2)
        backend.put("a", 1)
        server = NodeServer(backend)
        assert server.kind == "metadata"
        assert server.service_name == "metadata"
        assert server.node_name == "metadata-2"
        assert server.block_report_payload() == ["a"]

    def test_connect_metadata_over_tcp(self):
        backend = MetadataProvider(9)
        with NodeServer(backend) as server:
            host, port = server.rpc.address
            stub = connect_metadata(host, port)
            try:
                assert stub.provider_id == 9
                stub.put("tcp-key", [1, 2, 3])
                assert stub.get("tcp-key") == [1, 2, 3]
                assert backend.contains("tcp-key")
            finally:
                stub.close()
