"""The wire protocol end-to-end: no handshake, identity.

The wire path must be invisible to everything above the transport: the
filesystems and the metadata plane read back exactly the bytes they
wrote.  These tests cover the handshake-free connection over real
sockets, the out-of-band threshold, the retired batch flag, and
cross-backend differential byte-identity — including mid-read replica
failover and wire faults, where the degraded path must stay
byte-identical too.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.bsfs import BSFS
from repro.core import KB, BlobSeer, BlobSeerConfig, DataProvider
from repro.core.dht import MetadataDHT, MetadataProvider
from repro.hdfs import HDFS, DataNode
from repro.net import (
    NetworkFaultPlan,
    NodeServer,
    RetryPolicy,
    RpcServer,
    ServiceRegistry,
    TcpTransport,
    UnknownServiceError,
    WireConfig,
    connect_datanode,
    connect_metadata,
    connect_provider,
)
from repro.net.cluster import ClusterConfig
from repro.net.framing import HEADER, MAGIC, encode_frame
from repro.net.messages import Request, Response, decode_message, encode_message
from repro.net.stubs import (
    DATANODE_SERVICE,
    METADATA_SERVICE,
    PROVIDER_SERVICE,
    RemoteDataNode,
    RemoteDataProvider,
    RemoteMetadataProvider,
)
from repro.net.transport import LoopbackTransport

BLOCK = 16 * KB


class EchoService:
    def echo(self, value):
        return value

    def pair(self, a, b):
        return (a, b)


def echo_registry() -> ServiceRegistry:
    registry = ServiceRegistry()
    registry.register("echo", EchoService())
    return registry


@pytest.fixture
def faults():
    return NetworkFaultPlan(sleep=lambda _s: None)


#: The one wire configuration: every segment travels raw.
CODECS = pytest.mark.parametrize("wire", [WireConfig()], ids=["raw"])


def loopback_stub(stub_cls, service, backend, *, peer, faults, wire, retry=None):
    """A loopback stub like ``loopback_*_stub``, on a chosen wire config."""
    registry = ServiceRegistry()
    registry.register(service, backend)
    transport = LoopbackTransport(
        registry, peer=peer, faults=faults, retry=retry, wire=wire
    )
    return stub_cls.connect(transport)


class TestWireConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            WireConfig(oob_threshold=0)

    def test_cluster_config_maps_onto_wire_config(self):
        assert ClusterConfig().wire_config() == WireConfig()

    @pytest.mark.parametrize(
        "field",
        [
            "heartbeat_interval",
            "max_missed_heartbeats",
            "block_report_every",
            "rpc_timeout",
            "pool_size",
        ],
    )
    def test_cluster_config_rejects_non_positive_values(self, field):
        with pytest.raises(ValueError, match=field):
            ClusterConfig(**{field: 0})

    def test_connected_stubs_use_the_deployment_defaults(self):
        config = ClusterConfig(rpc_timeout=2.5, pool_size=3)
        server = NodeServer(DataProvider(0), host="127.0.0.1", port=0, config=config)
        host, port = server.start()
        try:
            stub = connect_provider(host, port, config=config)
            transport = stub.transport
            assert transport.retry == RetryPolicy()
            assert transport.retry.retries == 2
            assert transport.timeout == 2.5
            assert transport._pool_size == 3
            assert transport._wire == config.wire_config()
            stub.close()
        finally:
            server.stop()


class TestOutOfBandThreshold:
    def test_small_payloads_stay_in_band(self):
        request = Request(1, "s", "m", (b"x" * 100,), {})
        head, buffers = encode_message(request, oob_threshold=KB)
        assert buffers == []
        assert b"x" * 100 in head

    def test_large_payloads_leave_the_pickle_stream(self):
        bulk = b"y" * (64 * KB)
        request = Request(1, "s", "m", (bulk,), {"page": b"z" * (32 * KB)})
        head, buffers = encode_message(request, oob_threshold=KB)
        assert len(buffers) == 2
        assert len(head) < KB  # the head holds structure, not payload
        assert sorted(len(memoryview(b)) for b in buffers) == [32 * KB, 64 * KB]

    def test_memoryview_arguments_always_travel_out_of_band(self):
        view = memoryview(b"view-payload")
        head, buffers = encode_message(
            Request(1, "s", "m", (view,), {}), oob_threshold=KB
        )
        assert len(buffers) == 1  # even below threshold: views never pickle in-band

    def test_nested_containers_are_walked(self):
        bulk = b"n" * (64 * KB)
        head, buffers = encode_message(
            Request(1, "s", "m", ([{"chunk": bulk}],), {}), oob_threshold=KB
        )
        assert len(buffers) == 1

    @pytest.mark.parametrize("kind", [tuple, list, dict])
    def test_bulk_leaves_the_stream_down_to_the_walked_depth(self, kind):
        bulk = b"d" * (64 * KB)

        def nested(levels):
            value = bulk
            for _ in range(levels):
                value = {"k": value} if kind is dict else kind([value])
            return (value,)

        # The payload sits two levels below the args tuple (out of band),
        # then three (in band, past the walked depth).
        for levels, out_of_band in [(2, 1), (3, 0)]:
            for message in (
                Request(1, "s", "m", nested(levels), {}),
                Response(1, True, nested(levels)),
            ):
                head, buffers = encode_message(message, oob_threshold=KB)
                assert len(buffers) == out_of_band
                assert decode_message(head, buffers) == message


class TestNoHandshake:
    def test_first_call_is_the_only_request_served(self):
        # A fresh connection carries the caller's request and nothing
        # else: no probe round trip precedes it.
        with RpcServer(echo_registry()) as server:
            host, port = server.address
            with TcpTransport(host, port) as transport:
                assert transport.call("echo", "echo", "first") == "first"
        # stop() joined the loop thread: every counter update is in.
        assert server.requests_served == 1

    def test_wire_service_name_is_not_reserved(self):
        with RpcServer(echo_registry()) as server:
            host, port = server.address
            with TcpTransport(host, port) as transport:
                with pytest.raises(UnknownServiceError):
                    transport.call("__wire__", "describe")
                assert transport.call("echo", "echo", 1) == 1
            assert server.protocol_errors == 0

    def test_each_pooled_connection_serves_without_probe(self):
        # Concurrent callers dial connections of their own; each one
        # carries only its callers' requests.
        with RpcServer(echo_registry()) as server:
            host, port = server.address
            transport = TcpTransport(host, port, pool_size=2)
            try:
                barrier = threading.Barrier(4)
                results: dict[int, object] = {}

                def call(i):
                    barrier.wait()
                    results[i] = transport.call("echo", "echo", i)

                threads = [
                    threading.Thread(target=call, args=(i,)) for i in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert results == {i: i for i in range(4)}
                assert 1 <= transport.connections_opened <= 4
            finally:
                transport.close()
        assert server.requests_served == 4
        assert server.protocol_errors == 0

    def test_server_drops_a_version_1_connection(self):
        # A peer speaking the retired single-blob layout is a framing
        # violation: its connection is closed, the server keeps serving.
        with RpcServer(echo_registry()) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5.0) as raw:
                raw.sendall(HEADER.pack(MAGIC, 1, 5) + b"hello")
                assert raw.recv(1) == b""  # closed, nothing answered
            with TcpTransport(host, port) as transport:
                assert transport.call("echo", "echo", "after") == "after"
        assert server.protocol_errors == 1
        assert server.requests_served == 1


class TestReservedFlags:
    # Bit 0 of the frame flags was the small-op batch envelope and segment
    # flag 0x01 the zlib codec id; every flag is now reserved, so a frame
    # that sets one is a framing violation like any other.
    @pytest.mark.parametrize(
        "where, flags",
        [("frame", 0x01), ("segment", 0x01), ("segment", 0x80)],
    )
    def test_server_drops_a_frame_with_a_reserved_flag(self, where, flags):
        head, _ = encode_message(Request(1, "echo", "echo", ("x",), {}))
        frame = bytearray(b"".join(encode_frame([head])))
        # The frame flags byte opens the payload; segment 0's flag byte
        # follows the segment count and its 4-byte stored length.
        frame[HEADER.size if where == "frame" else HEADER.size + 3 + 4] = flags
        with RpcServer(echo_registry()) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5.0) as raw:
                raw.sendall(bytes(frame))
                assert raw.recv(1) == b""  # closed, nothing answered
            with TcpTransport(host, port) as transport:
                assert transport.call("echo", "echo", "after") == "after"
        assert server.protocol_errors == 1
        assert server.requests_served == 1


class TestLoopback:
    def test_loopback_round_trips_bulk(self):
        transport = LoopbackTransport(echo_registry())
        payload = bytes(range(256)) * (4 * KB)
        assert transport.call("echo", "echo", payload) == payload
        assert transport.call("echo", "pair", "a", 1) == ("a", 1)


def make_blobseer(faults, wire, *, replication=2):
    config = BlobSeerConfig(
        page_size=4 * KB,
        num_providers=4,
        num_metadata_providers=3,
        replication=replication,
    )
    backends = [
        DataProvider(i, host=f"node-{i}", rack=f"rack-{i % 2}")
        for i in range(config.num_providers)
    ]
    stubs = [
        loopback_stub(
            RemoteDataProvider,
            PROVIDER_SERVICE,
            p,
            peer=p.host,
            faults=faults,
            wire=wire,
            retry=RetryPolicy.no_retry(),
        )
        for p in backends
    ]
    return BlobSeer(config, providers=stubs)


class TestDifferentialByteIdentity:
    """The same workload over wire stubs must yield the same bytes,
    whether its segments travel raw or compressed."""

    @CODECS
    def test_bsfs_write_read_identical(self, faults, wire):
        fs = BSFS(blobseer=make_blobseer(faults, wire), default_block_size=BLOCK)
        payload = bytes(range(256)) * 128  # 32 KiB, multi-page
        fs.write_file("/wire.bin", payload)
        assert fs.read_file("/wire.bin") == payload

    @CODECS
    def test_bsfs_read_failover_identical(self, faults, wire):
        # Mid-read replica failover: kill a node after the write; the
        # degraded read must still return the exact original bytes.
        fs = BSFS(blobseer=make_blobseer(faults, wire), default_block_size=BLOCK)
        payload = b"f" * (2 * BLOCK)
        fs.write_file("/failover.bin", payload)
        faults.kill("node-1")
        assert fs.read_file("/failover.bin") == payload

    @CODECS
    def test_hdfs_failover_identical(self, faults, wire):
        backends = [
            DataNode(i, host=f"node-{i}", rack=f"rack-{i % 3}") for i in range(4)
        ]
        stubs = [
            loopback_stub(
                RemoteDataNode,
                DATANODE_SERVICE,
                d,
                peer=d.host,
                faults=faults,
                wire=wire,
                retry=RetryPolicy.no_retry(),
            )
            for d in backends
        ]
        fs = HDFS(datanodes=stubs, default_block_size=BLOCK, default_replication=2)
        payload = bytes(range(256)) * 256  # 64 KiB
        fs.write_file("/wire.bin", payload)
        meta = fs.namenode.file_blocks("/wire.bin")[0]
        victim = fs.namenode.datanode(meta.locations[0])
        faults.kill(victim.host)
        assert fs.read_file("/wire.bin") == payload

    @CODECS
    def test_wire_faults_identical(self, faults, wire):
        # Dropped messages burn the transport retry, not the data: the
        # payload survives lossy delivery byte-identically.
        backend = DataProvider(0, host="node-0")
        stub = loopback_stub(
            RemoteDataProvider,
            PROVIDER_SERVICE,
            backend,
            peer=backend.host,
            faults=faults,
            wire=wire,
        )
        from repro.core.pages import PageKey

        payload = bytes(range(256)) * (2 * KB)
        faults.drop(src="client", dst="node-0", count=1)
        stub.put_page(PageKey(1, 1, 0), payload)  # retried after the drop
        faults.drop(src="node-0", dst="client", count=1)
        assert stub.get_page(PageKey(1, 1, 0)) == payload

    @CODECS
    def test_metadata_dht_matches_in_process(self, faults, wire):
        backends = [MetadataProvider(i) for i in range(3)]
        stubs = [
            loopback_stub(
                RemoteMetadataProvider,
                METADATA_SERVICE,
                p,
                peer=f"metadata-{p.provider_id}",
                faults=faults,
                wire=wire,
                retry=RetryPolicy.no_retry(),
            )
            for p in backends
        ]
        local_backends = [MetadataProvider(i) for i in range(3)]
        remote = MetadataDHT(stubs, virtual_nodes=16)
        local = MetadataDHT(local_backends, virtual_nodes=16)
        for i in range(40):
            remote.put(f"key-{i}", {"value": i, "blob": bytes([i]) * 64})
            local.put(f"key-{i}", {"value": i, "blob": bytes([i]) * 64})
        for i in range(40):
            assert remote.get(f"key-{i}") == local.get(f"key-{i}")


class TestTcpDifferential:
    def test_hdfs_over_tcp_identical(self):
        config = ClusterConfig()
        backends = [DataNode(i, host=f"node-{i}", rack="r0") for i in range(3)]
        servers = [
            NodeServer(d, host="127.0.0.1", port=0, config=config)
            for d in backends
        ]
        stubs = []
        try:
            for server in servers:
                host, port = server.start()
                stubs.append(connect_datanode(host, port, config=config))
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

    def test_provider_bulk_pages_over_tcp_v2(self):
        from repro.core.pages import PageKey

        provider = DataProvider(5, host="node-5", rack="rack-0")
        server = NodeServer(provider, host="127.0.0.1", port=0)
        host, port = server.start()
        try:
            stub = connect_provider(host, port)
            payload = bytes(range(256)) * (4 * KB)  # 1 MiB page
            stub.put_page(PageKey(9, 1, 0), payload)
            assert stub.get_page(PageKey(9, 1, 0)) == payload
            assert provider.get_page(PageKey(9, 1, 0)) == payload
            stub.close()
        finally:
            server.stop()

    def test_metadata_stub_with_concurrent_callers_over_tcp(self):
        config = ClusterConfig()
        backend = MetadataProvider(2)
        server = NodeServer(backend, host="127.0.0.1", port=0, config=config)
        host, port = server.start()
        try:
            stub = connect_metadata(host, port, config=config)
            errors: list[BaseException] = []

            def worker(worker_id):
                try:
                    for i in range(25):
                        stub.put(f"w{worker_id}-k{i}", {"v": (worker_id, i)})
                        assert stub.get(f"w{worker_id}-k{i}") == {
                            "v": (worker_id, i)
                        }
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(w,)) for w in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert len(backend.keys()) == 150
            # One connection per concurrent caller at most (the first one
            # was dialled by connect_metadata's identity call).
            assert stub.transport.connections_opened <= 6
            stub.close()
        finally:
            server.stop()
