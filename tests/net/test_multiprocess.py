"""Real multi-process cluster over TCP: spawn, SIGKILL, detect, recover.

Each storage node runs as its own ``scripts/run_node.py`` process with a
real socket; the head process serves the control plane, detects a
SIGKILLed node through missed heartbeats, re-replicates, and reads the
data back byte-identical.  This is the paper's failure story with
nothing simulated.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import KB, BlobSeer, BlobSeerConfig
from repro.core.errors import ProviderUnavailableError
from repro.bsfs import BSFS
from repro.net import (
    CONTROL_SERVICE,
    ClusterConfig,
    ControlService,
    RecoveryCoordinator,
    RpcServer,
    ServiceRegistry,
    connect_datanode,
    connect_provider,
)

RUN_NODE = Path(__file__).resolve().parents[2] / "scripts" / "run_node.py"
BLOCK = 16 * KB
FAST = ClusterConfig(heartbeat_interval=0.1, max_missed_heartbeats=3)


def spawn_node(kind: str, node_id: int, *, control: tuple[str, int] | None = None):
    """Start one node process and wait for its READY handshake."""
    argv = [
        sys.executable,
        str(RUN_NODE),
        "--kind",
        kind,
        "--node-id",
        str(node_id),
        "--node-host",
        f"node-{node_id}",
        "--heartbeat-interval",
        str(FAST.heartbeat_interval),
        "--block-report-every",
        "3",
    ]
    if control is not None:
        argv += ["--control", f"{control[0]}:{control[1]}"]
    process = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(RUN_NODE.parent.parent),
    )
    line = process.stdout.readline().strip()
    if not line.startswith("READY "):
        process.kill()
        stderr = process.stderr.read()
        raise RuntimeError(f"node process failed to start: {line!r}\n{stderr}")
    _ready, host, port = line.split()
    return process, host, int(port)


def reap(processes):
    for process in processes:
        if process.poll() is None:
            process.terminate()
    for process in processes:
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
        process.stdout.close()
        process.stderr.close()


@pytest.mark.timeout(120)
class TestMultiProcessCluster:
    def test_sigkilled_provider_is_detected_and_data_survives(self):
        registry = FAST.make_registry()
        control = ControlService(registry)
        services = ServiceRegistry()
        services.register(CONTROL_SERVICE, control)
        processes, stubs = [], []
        with RpcServer(services) as control_server:
            try:
                for node_id in range(3):
                    process, host, port = spawn_node(
                        "provider", node_id, control=control_server.address
                    )
                    processes.append(process)
                    stubs.append(connect_provider(host, port, config=FAST))

                config = BlobSeerConfig(
                    page_size=4 * KB,
                    num_providers=3,
                    num_metadata_providers=3,
                    replication=2,
                    rng_seed=7,
                )
                bs = BlobSeer(config, providers=stubs)
                fs = BSFS(blobseer=bs, default_block_size=BLOCK)
                coordinator = RecoveryCoordinator(
                    registry, blobseer=bs, control=control
                )

                payload = bytes(range(256)) * 128  # 32 KiB
                fs.write_file("/durable.bin", payload)
                for name in ("node-0", "node-1", "node-2"):
                    assert registry.is_alive(name)

                victim = processes[1]
                os.kill(victim.pid, signal.SIGKILL)
                victim.wait(timeout=10)

                with coordinator.monitor():
                    assert registry.await_death("node-1", timeout=30.0)

                assert coordinator.recoveries
                name, kind, repaired = coordinator.recoveries[0]
                assert (name, kind) == ("node-1", "provider")
                assert repaired >= 1
                assert 1 not in bs.provider_manager.provider_ids

                # The surviving processes hold every page: byte-identical.
                assert fs.read_file("/durable.bin") == payload
            finally:
                for stub in stubs:
                    stub.close()
                reap(processes)

    def test_reads_fail_over_per_key_before_the_death_is_declared(self):
        # No control plane: nothing declares the killed node dead, so the
        # read itself must route around it.  Its bulk call fails as a
        # whole and every key of that call comes from its second replica.
        processes, stubs = [], []
        try:
            for node_id in range(3):
                process, host, port = spawn_node("provider", node_id)
                processes.append(process)
                stubs.append(connect_provider(host, port, config=FAST))
            config = BlobSeerConfig(
                page_size=4 * KB,
                num_providers=3,
                num_metadata_providers=1,
                replication=2,
                read_replica_policy="first",
                rng_seed=11,
            )
            bs = BlobSeer(config, providers=stubs)
            blob = bs.create_blob()
            payload = bytes(range(251)) * 256  # ~63 KiB: 16 pages
            bs.append(blob, payload)
            descriptors = bs.metadata_manager.lookup(
                bs.version_manager.version_info(blob).root, 0, 16
            ).values()
            failing_over = sum(d.providers[0] == 1 for d in descriptors)
            assert failing_over > 0

            failed_calls: list[int] = []
            get_pages = stubs[1].get_pages

            def watched(keys):
                try:
                    return get_pages(keys)
                except ProviderUnavailableError:
                    failed_calls.append(len(keys))
                    raise

            stubs[1].get_pages = watched
            served_before = sum(stubs[i].stats().pages_read for i in (0, 2))
            os.kill(processes[1].pid, signal.SIGKILL)
            processes[1].wait(timeout=10)

            assert bs.read(blob, 0, len(payload)) == payload
            assert failed_calls == [failing_over]
            served = sum(stubs[i].stats().pages_read for i in (0, 2)) - served_before
            assert served == 16  # each page exactly once, by a live replica
        finally:
            for stub in stubs:
                stub.close()
            reap(processes)

    def test_writes_place_around_a_killed_provider_the_load_view_still_lists(self):
        # No control plane, and the load view (warmed by a first write)
        # still lists the killed node: the next write's put to it fails,
        # its pages are placed again on the survivors, and every later
        # allocation re-probes the dead node instead of trusting it.
        processes, stubs = [], []
        try:
            for node_id in range(3):
                process, host, port = spawn_node("provider", node_id)
                processes.append(process)
                stubs.append(connect_provider(host, port, config=FAST))
            page = 4 * KB
            config = BlobSeerConfig(
                page_size=page,
                num_providers=3,
                num_metadata_providers=1,
                replication=1,
                rng_seed=13,
            )
            bs = BlobSeer(config, providers=stubs)
            bs.append(bs.create_blob(), bytes(6 * page))  # warms the view

            failed_puts: list[int] = []
            put_pages = stubs[1].put_pages

            def watched(items):
                try:
                    return put_pages(items)
                except ProviderUnavailableError:
                    failed_puts.append(len(items))
                    raise

            stubs[1].put_pages = watched
            os.kill(processes[1].pid, signal.SIGKILL)
            processes[1].wait(timeout=10)

            blob = bs.create_blob()
            expected = bytearray()
            versions = []
            for i in range(10):
                chunk = bytes([i + 1]) * (2 * page + 300 * (i + 1))
                if i % 2 == 0 or len(expected) < 4 * page:
                    versions.append(bs.append(blob, chunk))
                    expected += chunk
                else:
                    offset = (i * page) % (len(expected) - 3 * page)
                    offset -= offset % page
                    versions.append(bs.write(blob, offset, chunk))
                    expected[offset : offset + len(chunk)] = chunk
            assert versions == list(range(1, 11))
            assert failed_puts  # the stale entry was used, and survived
            assert bs.read_all(blob) == bytes(expected)
        finally:
            for stub in stubs:
                stub.close()
            reap(processes)

    def test_block_reports_reach_the_control_plane(self):
        registry = FAST.make_registry()
        control = ControlService(registry)
        services = ServiceRegistry()
        services.register(CONTROL_SERVICE, control)
        processes, stubs = [], []
        with RpcServer(services) as control_server:
            try:
                process, host, port = spawn_node(
                    "datanode", 0, control=control_server.address
                )
                processes.append(process)
                stub = connect_datanode(host, port, config=FAST)
                stubs.append(stub)
                stub.write_block(7, b"reported")

                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    report = registry.last_report("node-0")
                    if report and 7 in report:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("block report never arrived")
                assert stub.read_block(7) == b"reported"
            finally:
                for stub in stubs:
                    stub.close()
                reap(processes)

    def test_sigterm_is_a_clean_deregister_not_a_death(self):
        registry = FAST.make_registry()
        control = ControlService(registry)
        services = ServiceRegistry()
        services.register(CONTROL_SERVICE, control)
        deaths = []
        registry.on_death(deaths.append)
        with RpcServer(services) as control_server:
            process, _host, _port = spawn_node(
                "provider", 0, control=control_server.address
            )
            try:
                assert registry.is_alive("node-0")
                process.terminate()  # SIGTERM: the node deregisters itself
                process.wait(timeout=30)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and "node-0" in registry.alive_nodes():
                    time.sleep(0.05)
                time.sleep(4 * FAST.heartbeat_interval)
                registry.check()
                assert deaths == []  # no false positive from clean shutdown
            finally:
                reap([process])
