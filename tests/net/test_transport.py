"""Transports: loopback and TCP request/response, retries, faults, concurrency."""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.net import (
    LoopbackTransport,
    NetworkFaultPlan,
    PeerUnavailableError,
    RetryPolicy,
    RpcServer,
    RpcTimeoutError,
    ServiceRegistry,
    TcpTransport,
    TransportError,
    UnknownServiceError,
)


class Echo:
    """Tiny test service: methods, attributes, failures, slowness."""

    greeting = "hello"

    def __init__(self):
        self.calls = 0

    def echo(self, value):
        self.calls += 1
        return value

    def add(self, a, b, *, bias=0):
        return a + b + bias

    def boom(self):
        raise ValueError("application error")

    def slow(self, seconds):
        time.sleep(seconds)
        return "done"

    def _secret(self):  # pragma: no cover - must never be reachable
        raise AssertionError("private method invoked over RPC")


@pytest.fixture
def registry():
    reg = ServiceRegistry()
    reg.register("echo", Echo())
    return reg


@pytest.fixture
def loopback(registry):
    with LoopbackTransport(registry) as transport:
        yield transport


@pytest.fixture
def tcp(registry):
    with RpcServer(registry) as server:
        host, port = server.address
        with TcpTransport(host, port, retry=RetryPolicy.no_retry()) as transport:
            yield transport


@pytest.fixture(params=["loopback", "tcp"])
def transport(request):
    return request.getfixturevalue(request.param)


class TestRequestResponse:
    def test_call_round_trips_values(self, transport):
        assert transport.call("echo", "echo", b"payload" * 100) == b"payload" * 100
        assert transport.call("echo", "add", 2, 3, bias=10) == 15

    def test_attribute_read(self, transport):
        assert transport.call("echo", "greeting") == "hello"

    def test_remote_exception_rethrown_as_itself(self, transport):
        with pytest.raises(ValueError, match="application error"):
            transport.call("echo", "boom")

    def test_unknown_service_and_method(self, transport):
        with pytest.raises(UnknownServiceError):
            transport.call("nope", "echo", 1)
        with pytest.raises(UnknownServiceError):
            transport.call("echo", "no_such_method")

    def test_private_methods_rejected(self, transport):
        with pytest.raises(UnknownServiceError):
            transport.call("echo", "_secret")


class TestRetries:
    def test_transport_errors_retried_then_succeed(self, registry):
        faults = NetworkFaultPlan(sleep=lambda _s: None)
        faults.drop(src="client", dst="loopback", count=2)
        transport = LoopbackTransport(
            registry,
            faults=faults,
            retry=RetryPolicy(retries=3, backoff=0.001),
        )
        assert transport.call("echo", "echo", "x") == "x"
        assert faults.messages_dropped == 2
        assert transport.calls_retried == 1

    def test_retries_exhausted_raises_last_error(self, registry):
        faults = NetworkFaultPlan(sleep=lambda _s: None)
        faults.drop(src="client", dst="loopback", count=None)
        transport = LoopbackTransport(
            registry, faults=faults, retry=RetryPolicy(retries=2, backoff=0.001)
        )
        with pytest.raises(RpcTimeoutError):
            transport.call("echo", "echo", "x")
        assert faults.messages_dropped == 3  # first try + 2 retries

    def test_application_errors_never_retried(self, registry):
        service = registry.get("echo")
        transport = LoopbackTransport(
            registry, retry=RetryPolicy(retries=5, backoff=0.001)
        )
        with pytest.raises(ValueError):
            transport.call("echo", "boom")
        # boom() raised once; a retried application error would re-call it.
        transport.call("echo", "echo", 1)
        assert service.calls == 1

    def test_killed_peer_fails_fast(self, registry):
        faults = NetworkFaultPlan()
        faults.kill("loopback")
        transport = LoopbackTransport(
            registry, faults=faults, retry=RetryPolicy.no_retry()
        )
        with pytest.raises(PeerUnavailableError):
            transport.call("echo", "echo", 1)
        faults.revive("loopback")
        assert transport.call("echo", "echo", 1) == 1

    def test_retry_policy_delays_are_bounded_exponential(self):
        policy = RetryPolicy(retries=4, backoff=0.1, backoff_factor=2.0, max_backoff=0.3)
        assert list(policy.delays()) == [0.1, 0.2, 0.3, 0.3]
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)


class TestNetworkFaultPlan:
    def test_delay_injects_latency_until_cleared(self):
        slept = []
        faults = NetworkFaultPlan(sleep=slept.append)
        faults.delay("node-2", 0.5)
        faults.on_message("client", "node-2")
        faults.on_message("node-2", "client")
        assert slept == [0.5, 0.5]
        assert faults.messages_delayed == 2
        faults.clear_delay("node-2")
        faults.on_message("client", "node-2")
        assert slept == [0.5, 0.5]
        with pytest.raises(ValueError, match="non-negative"):
            faults.delay("node-2", -1.0)

    def test_each_plan_spends_its_own_drop_budget(self):
        first, second = (NetworkFaultPlan(sleep=lambda _s: None) for _ in range(2))
        for faults in (first, second):
            faults.drop(src="a", dst="b", count=1)
        with pytest.raises(RpcTimeoutError):
            first.on_message("a", "b")
        first.on_message("a", "b")  # budget spent: delivered
        # The second plan's identical rule still has its budget.
        with pytest.raises(RpcTimeoutError):
            second.on_message("a", "b")
        second.on_message("a", "b")
        assert (first.messages_dropped, second.messages_dropped) == (1, 1)


class TestTcpSpecifics:
    def test_timeout_raises_rpc_timeout(self, registry):
        with RpcServer(registry) as server:
            host, port = server.address
            with TcpTransport(
                host, port, timeout=0.2, retry=RetryPolicy.no_retry()
            ) as transport:
                with pytest.raises(RpcTimeoutError):
                    transport.call("echo", "slow", 5.0)

    def test_connect_failure_is_peer_unavailable(self):
        # Nothing listens on this port (bind-then-close reserves a dead one).
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with TcpTransport(
            "127.0.0.1", port, retry=RetryPolicy.no_retry()
        ) as transport:
            with pytest.raises(PeerUnavailableError):
                transport.call("echo", "echo", 1)

    def test_server_death_fails_inflight_then_reconnect_fails(self, registry):
        server = RpcServer(registry)
        host, port = server.start()
        transport = TcpTransport(host, port, retry=RetryPolicy.no_retry(), timeout=2.0)
        assert transport.call("echo", "echo", 1) == 1
        server.stop()
        with pytest.raises(TransportError):
            transport.call("echo", "echo", 2)
        transport.close()

    def test_slow_call_never_blocks_other_callers(self, registry):
        # A pool of one idle connection, many threads: a slow call must
        # not block fast calls behind it — each caller gets a connection
        # of its own.
        with RpcServer(registry) as server:
            host, port = server.address
            with TcpTransport(
                host, port, pool_size=1, retry=RetryPolicy.no_retry(), timeout=5.0
            ) as transport:
                order: list[str] = []
                lock = threading.Lock()

                def slow():
                    transport.call("echo", "slow", 0.4)
                    with lock:
                        order.append("slow")

                def fast(i):
                    transport.call("echo", "echo", i)
                    with lock:
                        order.append(f"fast-{i}")

                threads = [threading.Thread(target=slow)]
                threads += [
                    threading.Thread(target=fast, args=(i,)) for i in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert len(order) == 9
                # Every fast call overtook the in-flight slow call.
                assert order[-1] == "slow"

    def test_large_payload_round_trip(self, registry):
        blob = bytes(range(256)) * 4096  # 1 MiB
        with RpcServer(registry) as server:
            host, port = server.address
            with TcpTransport(host, port) as transport:
                assert transport.call("echo", "echo", blob) == blob

    def test_malformed_stream_drops_connection_not_server(self, registry):
        import socket

        with RpcServer(registry) as server:
            host, port = server.address
            raw = socket.create_connection((host, port))
            raw.sendall(b"NOT AN RPC STREAM AT ALL")
            # Server closes our connection...
            raw.settimeout(2.0)
            assert raw.recv(1024) == b""
            raw.close()
            # ...but keeps serving everyone else.
            with TcpTransport(host, port) as transport:
                assert transport.call("echo", "echo", "still alive") == "still alive"
            assert server.protocol_errors >= 1


def run_threads(target, count: int, *, timeout: float = 30.0) -> None:
    """Run ``target(i)`` on ``count`` threads and wait for all of them."""
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive()


class TestTcpConnectionContract:
    """One call per connection: what the caller may rely on."""

    def test_late_reply_never_reaches_the_next_call(self, registry):
        with RpcServer(registry) as server:
            host, port = server.address
            with TcpTransport(
                host, port, timeout=0.2, retry=RetryPolicy.no_retry()
            ) as transport:
                with pytest.raises(RpcTimeoutError):
                    transport.call("echo", "slow", 0.5)
                # The timed-out call closed its connection: the slow
                # handler's "done" can only land on a dead socket.
                assert transport.call("echo", "echo", "next") == "next"
                time.sleep(0.4)  # let the late reply be written
                assert transport.call("echo", "echo", "later") == "later"
                assert transport.connections_opened == 2

    def test_long_poll_blocks_nobody(self, registry):
        with RpcServer(registry) as server:
            host, port = server.address
            with TcpTransport(
                host, port, pool_size=1, retry=RetryPolicy.no_retry()
            ) as transport:
                poll = threading.Thread(
                    target=transport.call, args=("echo", "slow", 2.0)
                )
                poll.start()
                keys = [(i % 8, i) for i in range(50)]
                results: dict[tuple[int, int], object] = {}

                def caller(worker):
                    for key in keys[worker::8]:
                        results[key] = transport.call("echo", "echo", key)

                run_threads(caller, 8)
                assert poll.is_alive()  # all 50 finished inside the long poll
                assert results == {key: key for key in keys}
                poll.join(10.0)
                assert not poll.is_alive()

    def test_idle_connection_to_a_restarted_server_is_replaced(self, registry):
        first = RpcServer(registry)
        host, port = first.start()
        with TcpTransport(host, port, retry=RetryPolicy.no_retry()) as transport:
            assert transport.call("echo", "echo", 1) == 1
            first.stop()  # the pooled idle connection now reads EOF
            with RpcServer(registry, host=host, port=port):
                assert transport.call("echo", "echo", 2) == 2
            assert transport.connections_opened == 2

    def test_concurrent_bulk_and_small_calls_stay_correct(self, registry):
        # Bulk replies travel as out-of-band segments while small calls
        # run beside them on the same transport.
        with RpcServer(registry) as server:
            host, port = server.address
            with TcpTransport(host, port, pool_size=4) as transport:
                bulk: dict[int, bytes] = {}

                def fetch(i):
                    payload = bytes([i]) * (100_000 + i)
                    bulk[i] = transport.call("echo", "echo", payload)

                sums: list[int] = []

                def add_up():
                    sums.extend(transport.call("echo", "add", i, 1) for i in range(30))

                small = threading.Thread(target=add_up)
                small.start()
                run_threads(fetch, 6)
                small.join(30.0)
                assert not small.is_alive()
                assert bulk == {i: bytes([i]) * (100_000 + i) for i in range(6)}
                assert sums == list(range(1, 31))

    def test_sequential_calls_dial_one_connection(self, registry):
        with RpcServer(registry) as server:
            host, port = server.address
            with TcpTransport(host, port) as transport:
                for i in range(40):
                    assert transport.call("echo", "echo", i) == i
                assert transport.connections_opened == 1

    def test_k_concurrent_callers_dial_at_most_k(self, registry):
        # More callers than cores and a short switch interval: a lost
        # update in the pool or in the server's counters shows up here.
        callers, calls = 8, 25
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with RpcServer(registry) as server:
                host, port = server.address
                with TcpTransport(host, port, pool_size=callers) as transport:
                    barrier = threading.Barrier(callers)
                    results: dict[tuple[int, int], object] = {}

                    def caller(worker):
                        barrier.wait()
                        for i in range(calls):
                            key = (worker, i)
                            results[key] = transport.call("echo", "echo", key)

                    run_threads(caller, callers)
                    assert results == {key: key for key in results}
                    assert len(results) == callers * calls
                    assert 1 <= transport.connections_opened <= callers
            assert server.requests_served == callers * calls
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_stop_and_close_leave_no_thread_and_no_fd(self, registry):
        threads_before = set(threading.enumerate())
        fds_before = len(os.listdir("/proc/self/fd"))
        server = RpcServer(registry)
        host, port = server.start()
        transport = TcpTransport(host, port, pool_size=4)
        barrier = threading.Barrier(4)

        def caller(_worker):
            barrier.wait()
            for i in range(10):
                transport.call("echo", "echo", i)

        run_threads(caller, 4)
        assert transport.connections_opened >= 1
        transport.close()
        server.stop()
        assert set(threading.enumerate()) - threads_before == set()
        assert len(os.listdir("/proc/self/fd")) == fds_before


    def test_stop_joins_a_connection_thread_already_out_of_the_set(self, registry):
        # A connection thread leaves the connection set on client EOF a
        # moment before it exits; a stop() in that moment must join it.
        served: list[threading.Thread] = []
        leaving = threading.Event()

        class LingeringServer(RpcServer):
            def _serve(self, sock):
                served.append(threading.current_thread())
                super()._serve(sock)
                leaving.set()
                time.sleep(0.3)

        server = LingeringServer(registry)
        host, port = server.start()
        transport = TcpTransport(host, port)
        assert transport.call("echo", "echo", 7) == 7
        transport.close()
        assert leaving.wait(5)
        server.stop()
        assert served and not any(thread.is_alive() for thread in served)
