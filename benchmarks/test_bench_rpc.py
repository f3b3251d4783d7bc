"""F4 — service-layer cost and failure-detection speed.

The paper's deployment pays a real RPC for every page transfer and
heartbeat; this benchmark prices that layer.  Three RPC scenarios measure
round-trip rate (loopback codec path, TCP, and TCP with pipelined
concurrent callers on one connection); one bulk scenario prices the
page-sized scatter-gather zero-copy wire path (MB/s); two metadata
scenarios price the small-op hot path with and without the coalescing
envelope (batched must clear 1.5x unbatched); and a final scenario
measures the availability story end to end: how quickly a killed
provider is detected by missed heartbeats and its pages are
re-replicated until a read returns byte-identical data.

The bulk row and the metadata pair are best of three passes, and the
metadata pair is measured interleaved: alternating the two sides
cancels the slow drift of a shared host, and best-of filters scheduling
hiccups, so the asserted ratio compares the two configurations rather
than two moments in time.

Every row reports ``ops_per_s`` (higher is better) so the perf gate can
compare scenarios uniformly; for the detect-recover row the "op" is one
full detection-and-recovery cycle, i.e. ``ops_per_s = 1 / seconds to
recover``.
"""

from __future__ import annotations

import socket
import threading
import time

from conftest import run_once

from repro.analysis import ExperimentReport
from repro.bsfs import BSFS
from repro.core import KB, BlobSeer, BlobSeerConfig, DataProvider
from repro.core.dht import MetadataProvider
from repro.net import (
    ClusterConfig,
    ControlService,
    HeartbeatPump,
    LoopbackTransport,
    NetworkFaultPlan,
    NodeServer,
    RecoveryCoordinator,
    RetryPolicy,
    RpcServer,
    ServiceRegistry,
    TcpTransport,
    connect_metadata,
    loopback_provider_stub,
)
from repro.net.framing import encode_frame, recv_frame
from repro.net.messages import Request, decode_message, encode_message
from repro.net.tcp import _tune_socket

EXPERIMENT = "F4"

PAYLOAD = b"x" * KB
BULK_PAYLOAD = b"\xa5" * (1024 * KB)  # 1 MiB page-sized transfer


class EchoService:
    """Minimal service so the benchmark times the layer, not the work."""

    def echo(self, value):
        return value


def _echo_registry() -> ServiceRegistry:
    registry = ServiceRegistry()
    registry.register("echo", EchoService())
    return registry


def _time_calls(call, count: int) -> float:
    started = time.perf_counter()
    for _ in range(count):
        call()
    return time.perf_counter() - started


def _bench_loopback(calls: int) -> float:
    with LoopbackTransport(_echo_registry()) as transport:
        return _time_calls(lambda: transport.call("echo", "echo", PAYLOAD), calls)


def _bench_tcp(calls: int) -> float:
    with RpcServer(_echo_registry()) as server:
        host, port = server.address
        with TcpTransport(host, port, retry=RetryPolicy.no_retry()) as transport:
            return _time_calls(
                lambda: transport.call("echo", "echo", PAYLOAD), calls
            )


def _bench_tcp_pipelined(calls: int, workers: int = 8) -> float:
    """Concurrent callers multiplexed on one pooled connection."""
    with RpcServer(_echo_registry()) as server:
        host, port = server.address
        with TcpTransport(
            host, port, pool_size=1, retry=RetryPolicy.no_retry()
        ) as transport:
            per_worker = calls // workers

            def worker():
                for _ in range(per_worker):
                    transport.call("echo", "echo", PAYLOAD)

            threads = [threading.Thread(target=worker) for _ in range(workers)]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return time.perf_counter() - started


def _bench_wire_flood(calls: int) -> float:
    """One-way flood of 1 MiB request frames over a real TCP socket.

    The sender hands the pickle head and the page buffer to one
    scatter-gather ``sendmsg`` and the receiver takes exact-framed
    ``recv_frame`` reads, so each bulk segment lands in a single
    kernel-filled buffer that the decoder adopts without copying.
    """
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    out = socket.create_connection(listener.getsockname())
    inbound, _ = listener.accept()
    listener.close()
    _tune_socket(out)
    _tune_socket(inbound)

    def receive() -> None:
        for _ in range(calls):
            frame = recv_frame(inbound)
            message = decode_message(frame.segments[0], frame.segments[1:])
            assert len(message.args[0]) == len(BULK_PAYLOAD)

    receiver = threading.Thread(target=receive)
    receiver.start()
    started = time.perf_counter()
    try:
        for i in range(calls):
            request = Request(i, "pages", "put", (BULK_PAYLOAD,), {})
            head, buffers = encode_message(request)
            views = [memoryview(part) for part in encode_frame([head, *buffers])]
            while views:
                sent = out.sendmsg(views)
                while sent:
                    if sent >= views[0].nbytes:
                        sent -= views[0].nbytes
                        views.pop(0)
                    else:
                        views[0] = views[0][sent:]
                        sent = 0
        receiver.join()
        return time.perf_counter() - started
    finally:
        out.close()
        inbound.close()


def _bench_tcp_metadata(ops: int, *, batching: bool, workers: int = 32) -> float:
    """Concurrent small metadata puts against one remote provider.

    This is the shape the coalescing envelope exists for: many tiny
    requests from many callers multiplexed on one shared connection
    (``pool_size=1``), where the group-commit flusher can collapse a
    whole wave of puts into a single frame.
    """
    config = ClusterConfig(metadata_batching=batching, pool_size=1)
    backend = MetadataProvider(0)
    server = NodeServer(backend, host="127.0.0.1", port=0, config=config)
    host, port = server.start()
    try:
        stub = connect_metadata(host, port, config=config)
        per_worker = ops // workers

        def worker(worker_id):
            for i in range(per_worker):
                stub.put(f"w{worker_id}-k{i}", i)

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(workers)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        stub.close()
        return elapsed
    finally:
        server.stop()


def _bench_detect_recover() -> float:
    """Seconds from killing a provider to a byte-identical read back."""
    fast = ClusterConfig(heartbeat_interval=0.02, max_missed_heartbeats=2)
    faults = NetworkFaultPlan()
    config = BlobSeerConfig(
        page_size=4 * KB,
        num_providers=4,
        num_metadata_providers=3,
        replication=2,
        rng_seed=7,
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
    fs = BSFS(blobseer=bs, default_block_size=16 * KB)
    registry = fast.make_registry()
    control = ControlService(registry)
    coordinator = RecoveryCoordinator(registry, blobseer=bs, control=control)
    pumps = []
    for backend in backends:
        control.register(backend.host, "provider", backend.provider_id)
        pumps.append(
            HeartbeatPump(
                lambda name=backend.host: (
                    faults.on_message(name, "control"),
                    control.heartbeat(name),
                ),
                interval=fast.heartbeat_interval,
                should_beat=lambda name=backend.host: not faults.is_killed(name),
            ).start()
        )
    try:
        payload = bytes(range(256)) * 128  # 32 KiB
        fs.write_file("/durable.bin", payload)
        victim = backends[1]
        started = time.perf_counter()
        faults.kill(victim.host)
        victim.fail()
        with coordinator.monitor():
            assert registry.await_death(victim.host, timeout=30.0)
        assert fs.read_file("/durable.bin") == payload
        elapsed = time.perf_counter() - started
        assert coordinator.recoveries
        return elapsed
    finally:
        for pump in pumps:
            pump.stop()


def _run(scale):
    calls = 4000 if scale.paper else 800
    report = ExperimentReport(
        EXPERIMENT,
        f"RPC round-trip rate and failure detect-to-recover time — {scale.label}",
    )
    rates = {}
    for scenario, elapsed in (
        ("loopback-rpc", _bench_loopback(calls)),
        ("tcp-rpc", _bench_tcp(calls)),
        ("tcp-rpc-pipelined", _bench_tcp_pipelined(calls)),
    ):
        rates[scenario] = calls / elapsed
        report.add_row(
            {
                "scenario": scenario,
                "calls": calls,
                "ops_per_s": round(calls / elapsed, 1),
                "mean_latency_us": round(elapsed / calls * 1e6, 1),
            }
        )
    bulk_calls = 192 if scale.paper else 48
    # Best-of-3: see module docstring.
    elapsed = min(_bench_wire_flood(bulk_calls) for _ in range(3))
    rates["tcp-bulk-v2"] = bulk_calls / elapsed
    report.add_row(
        {
            "scenario": "tcp-bulk-v2",
            "calls": bulk_calls,
            "ops_per_s": round(bulk_calls / elapsed, 1),
            "mean_latency_us": round(elapsed / bulk_calls * 1e6, 1),
            "mb_per_s": round(bulk_calls * len(BULK_PAYLOAD) / 1e6 / elapsed, 1),
        }
    )
    metadata_ops = 4000 if scale.paper else 1600
    metadata_elapsed = {
        "tcp-metadata-unbatched": float("inf"),
        "tcp-batched-metadata": float("inf"),
    }
    for _ in range(3):  # interleaved best-of-3, as above
        for scenario, batching in (
            ("tcp-metadata-unbatched", False),
            ("tcp-batched-metadata", True),
        ):
            metadata_elapsed[scenario] = min(
                metadata_elapsed[scenario],
                _bench_tcp_metadata(metadata_ops, batching=batching),
            )
    for scenario, elapsed in metadata_elapsed.items():
        rates[scenario] = metadata_ops / elapsed
        report.add_row(
            {
                "scenario": scenario,
                "calls": metadata_ops,
                "ops_per_s": round(metadata_ops / elapsed, 1),
                "mean_latency_us": round(elapsed / metadata_ops * 1e6, 1),
            }
        )
    recovery_seconds = _bench_detect_recover()
    rates["detect-recover"] = 1.0 / recovery_seconds
    report.add_row(
        {
            "scenario": "detect-recover",
            "calls": 1,
            "ops_per_s": round(1.0 / recovery_seconds, 2),
            "mean_latency_us": round(recovery_seconds * 1e6, 1),
        }
    )
    report.note(
        "detect-recover op = SIGKILL-equivalent fault -> missed-heartbeat "
        "death -> re-replication -> byte-identical read "
        f"({recovery_seconds * 1000:.0f} ms)"
    )
    return report, rates


def test_bench_rpc(benchmark, scale):
    report, rates = run_once(benchmark, _run, scale)
    report.print()
    # The loopback path skips sockets entirely: it must beat real TCP.
    assert rates["loopback-rpc"] > rates["tcp-rpc"]
    # Coalescing small metadata ops must clear 1.5x the unbatched rate.
    assert rates["tcp-batched-metadata"] >= 1.5 * rates["tcp-metadata-unbatched"]
    # Detection plus recovery completes in seconds, not minutes.
    assert rates["detect-recover"] > 1 / 60
