"""The wire protocol end-to-end: no handshake, batching, compression, identity.

The wire path must be invisible to everything above the transport: the
filesystems and the metadata plane read back exactly the bytes they
wrote.  These tests cover the handshake-free connection over real
sockets, the out-of-band threshold, small-op batching semantics,
compression chosen by each sender alone, and cross-backend differential
byte-identity over raw and compressed segments — including mid-read
replica failover and wire faults, where the degraded path must stay
byte-identical too.
"""

from __future__ import annotations

import socket
import threading
import time

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
from repro.net.framing import HEADER, MAGIC
from repro.net.messages import Request, encode_message
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


#: The two ways a segment may travel: raw, or zlib-compressed above a
#: threshold (low enough here that metadata heads compress too).
CODECS = pytest.mark.parametrize(
    "wire",
    [WireConfig(), WireConfig(compress_threshold=64)],
    ids=["raw", "zlib"],
)


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
            WireConfig(batch_window=-0.1)
        with pytest.raises(ValueError):
            WireConfig(compress_threshold=0)

    def test_cluster_config_maps_onto_wire_config(self):
        wire = ClusterConfig(batch_window=0.01, compress_threshold=KB).wire_config()
        assert wire.batch_window == 0.01
        assert wire.compress_threshold == KB
        assert ClusterConfig().wire_config() == WireConfig()
        with pytest.raises(ValueError):
            ClusterConfig(compress_threshold=0)


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
        # Concurrent callers open every pooled connection; each one
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
                assert 1 <= len(transport._pool) <= 2
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


class TestBatching:
    def test_concurrent_small_ops_coalesce_and_stay_correct(self):
        with RpcServer(echo_registry()) as server:
            host, port = server.address
            transport = TcpTransport(host, port, batching=True, pool_size=1)
            try:
                results: list = []
                lock = threading.Lock()

                def worker(worker_id):
                    for i in range(40):
                        value = transport.call("echo", "echo", (worker_id, i))
                        with lock:
                            results.append(value)

                threads = [
                    threading.Thread(target=worker, args=(w,)) for w in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert sorted(results) == sorted(
                    (w, i) for w in range(8) for i in range(40)
                )
                # Coalescing actually happened, on both sides.
                assert transport.batches_sent > 0
                assert transport.requests_batched > transport.batches_sent
                assert server.batched_requests == transport.requests_batched
                # Group-commit bookkeeping drains once every response is
                # in: nothing left outstanding to clock the next flush.
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline:
                    if all(
                        connection._batched_in_flight == 0
                        and not connection._batched_ids
                        for connection in transport._pool
                    ):
                        break
                    time.sleep(0.01)
                for connection in transport._pool:
                    assert connection._batched_in_flight == 0
                    assert not connection._batched_ids
            finally:
                transport.close()

    def test_lone_caller_is_never_batched(self):
        with RpcServer(echo_registry()) as server:
            host, port = server.address
            transport = TcpTransport(host, port, batching=True, pool_size=1)
            try:
                for i in range(20):
                    assert transport.call("echo", "echo", i) == i
                # Sequential calls: no concurrency, so the fast path
                # (direct send) must be taken every time.
                assert transport.batches_sent == 0
            finally:
                transport.close()

    def test_no_batch_calls_bypass_the_queue(self):
        with RpcServer(echo_registry()) as server:
            host, port = server.address
            transport = TcpTransport(host, port, batching=True, pool_size=1)
            try:
                hold = threading.Event()

                def background():
                    hold.wait()
                    for _ in range(10):
                        transport.call("echo", "echo", "bg")

                thread = threading.Thread(target=background)
                thread.start()
                hold.set()
                for i in range(10):
                    value = transport.call(
                        "echo", "echo", ("fg", i), no_batch=True
                    )
                    assert value == ("fg", i)
                thread.join()
            finally:
                transport.close()

    def test_bulk_responses_escape_the_batch_envelope(self):
        # Small requests may coalesce, but a response with a bulk
        # payload must come back in its own scatter-gather frame.
        class Mixed:
            def small(self, i):
                return i

            def bulk(self, n):
                return b"B" * n

        registry = ServiceRegistry()
        registry.register("mixed", Mixed())
        with RpcServer(registry) as server:
            host, port = server.address
            transport = TcpTransport(host, port, batching=True, pool_size=1)
            try:
                results: dict[int, bytes] = {}

                def worker(i):
                    results[i] = transport.call("mixed", "bulk", 100_000 + i)

                threads = [
                    threading.Thread(target=worker, args=(i,)) for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                # Interleave small calls so batching engages around them.
                for i in range(30):
                    assert transport.call("mixed", "small", i) == i
                for thread in threads:
                    thread.join()
                for i in range(6):
                    assert results[i] == b"B" * (100_000 + i)
            finally:
                transport.close()


class TestCompression:
    def test_compressed_connection_is_byte_identical(self):
        wire = WireConfig(compress_threshold=KB)
        with RpcServer(echo_registry(), wire=wire) as server:
            host, port = server.address
            transport = TcpTransport(host, port, wire=wire)
            try:
                compressible = b"c" * (1024 * KB)
                random_ish = bytes(range(256)) * (4 * KB)
                assert transport.call("echo", "echo", compressible) == compressible
                assert transport.call("echo", "echo", random_ish) == random_ish
            finally:
                transport.close()

    @pytest.mark.parametrize("server_compresses", [False, True])
    @pytest.mark.parametrize("client_compresses", [False, True])
    def test_every_pairing_round_trips_bulk_bytes(
        self, client_compresses, server_compresses
    ):
        # Each side compresses what it sends by its own config alone; the
        # receiver decodes whatever codec the segment table names.
        def wire(on: bool) -> WireConfig:
            return WireConfig(compress_threshold=KB if on else None)

        payload = b"p" * (2048 * KB)
        with RpcServer(echo_registry(), wire=wire(server_compresses)) as server:
            host, port = server.address
            transport = TcpTransport(host, port, wire=wire(client_compresses))
            try:
                assert transport.call("echo", "echo", payload) == payload
                assert transport.call("echo", "pair", 1, b"two") == (1, b"two")
            finally:
                transport.close()
        assert server.requests_served == 2
        assert server.protocol_errors == 0


class TestLoopback:
    def test_loopback_round_trips_bulk(self):
        transport = LoopbackTransport(echo_registry())
        payload = bytes(range(256)) * (4 * KB)
        assert transport.call("echo", "echo", payload) == payload
        assert transport.call("echo", "pair", "a", 1) == ("a", 1)

    def test_loopback_reuses_one_decoder_across_calls(self):
        # The same parser instance drains every frame of the
        # transport's lifetime.
        transport = LoopbackTransport(echo_registry())
        parser = transport._parser
        for i in range(5):
            transport.call("echo", "echo", i)
        assert transport._parser is parser
        assert parser.frames_decoded == 10  # request + response per call


def make_blobseer(faults, wire, *, replication=2):
    config = BlobSeerConfig(
        page_size=4 * KB,
        num_providers=4,
        num_metadata_providers=3,
        replication=replication,
        rng_seed=7,
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
    @pytest.mark.parametrize(
        "compress_threshold", [None, 64], ids=["raw", "zlib"]
    )
    def test_hdfs_over_tcp_identical(self, compress_threshold):
        config = ClusterConfig(
            metadata_batching=False, compress_threshold=compress_threshold
        )
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

    def test_metadata_stub_with_batching_over_tcp(self):
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
            # The hot metadata path actually used the coalescing channel.
            assert stub.transport.requests_batched > 0
            stub.close()
        finally:
            server.stop()
