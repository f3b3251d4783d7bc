"""Cluster harness: node processes over TCP plus the head-side deployment.

One :class:`Cluster` is one deployment of the benchmark's fixed shape.
The head (this process) owns the control endpoint, the version manager,
the namespace / namenode and the job service; storage lives in child
processes reached through the public ``connect_*`` stubs:

* ``"bsfs"`` — 3 ``scripts/run_node.py --kind provider`` processes and
  1 metadata-provider process (``metadata_node.py``);
* ``"hdfs"`` — 3 ``scripts/run_node.py --kind datanode`` processes.

Every child runs in its own session (so a terminal's Ctrl-C reaches only
the head, which then tears the children down), binds an ephemeral port
and announces it with a ``READY`` line that is awaited with a timeout.
:meth:`Cluster.close` runs on success, on any exception (context
manager), on SIGINT/SIGTERM (``run.py`` turns them into exceptions) and
from ``atexit``; it closes the job service and the stubs *before*
terminating the nodes, and escalates SIGTERM to SIGKILL so no node and no
bound port outlives a failed run.
"""

from __future__ import annotations

import atexit
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.api import Session, connect
from repro.bsfs import BSFS
from repro.core import KB, MB, BlobSeer, BlobSeerConfig
from repro.hdfs import HDFS
from repro.mapreduce.service import JobService
from repro.net import (
    CONTROL_SERVICE,
    ClusterConfig,
    ControlService,
    RpcServer,
    ServiceRegistry,
    connect_datanode,
    connect_metadata,
    connect_provider,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
RUN_NODE = REPO_ROOT / "scripts" / "run_node.py"
METADATA_NODE = Path(__file__).resolve().parent / "metadata_node.py"

NUM_STORAGE_NODES = 3
PAGE_SIZE = 256 * KB
BLOCK_SIZE = 4 * MB
#: Per-stream and shared block-cache capacities: 8 blocks x 4 MiB makes the
#: shared cache 32 MiB by construction (the cold workloads are sized 2x it).
CACHE_BLOCKS = 2
SHARED_CACHE_BLOCKS = 8
#: Closed loop: never more client threads or tracker slots than cores.
CLIENT_THREADS = 2
READY_TIMEOUT_S = 60.0
TERMINATE_TIMEOUT_S = 10.0


class NodeStartError(RuntimeError):
    """A node process exited or stayed silent instead of printing READY."""


class NodeProcess:
    """One child process and the address it announced."""

    def __init__(self, name: str, argv: list[str]) -> None:
        self.name = name
        self.process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=str(REPO_ROOT),
            start_new_session=True,
        )
        self.address: tuple[str, int] | None = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def await_ready(self, deadline: float) -> tuple[str, int]:
        """Block until the READY line arrives, the child dies or time is up."""
        stdout = self.process.stdout
        assert stdout is not None
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise NodeStartError(f"{self.name}: no READY within the timeout")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(stdout.fileno(), 4096)
            if not chunk:
                assert self.process.stderr is not None
                self.process.wait()
                stderr = self.process.stderr.read().decode(errors="replace")
                raise NodeStartError(
                    f"{self.name}: exited with {self.process.returncode} "
                    f"before READY\n{stderr}"
                )
            line += chunk
        fields = line.decode().split()
        if len(fields) != 3 or fields[0] != "READY":
            raise NodeStartError(f"{self.name}: unexpected handshake {line!r}")
        self.address = (fields[1], int(fields[2]))
        return self.address

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()

    def reap(self, deadline: float) -> None:
        """Wait for exit; SIGKILL the child's whole process group if late."""
        try:
            self.process.wait(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.process.wait()
        for pipe in (self.process.stdout, self.process.stderr):
            if pipe is not None:
                pipe.close()


class Cluster:
    """A running deployment: node processes, stubs, file system, session."""

    def __init__(self, kind: str) -> None:
        if kind not in ("bsfs", "hdfs"):
            raise ValueError(f"unknown deployment kind {kind!r}")
        self.kind = kind
        self.config = ClusterConfig()
        self.nodes: list[NodeProcess] = []
        self.fs: BSFS | HDFS | None = None
        self.service: JobService | None = None
        self.session: Session | None = None
        self._control_server: RpcServer | None = None
        self._stubs: list = []
        self._closed = False

    # -- start ------------------------------------------------------------------------
    def start(self) -> "Cluster":
        """Spawn the nodes, await READY, connect stubs, build the head side."""
        atexit.register(self.close)
        try:
            self._start()
        except BaseException:
            self.close()
            raise
        return self

    def _start(self) -> None:
        registry = ServiceRegistry()
        registry.register(
            CONTROL_SERVICE, ControlService(self.config.make_registry())
        )
        self._control_server = RpcServer(registry)
        host, port = self._control_server.start()
        control = f"{host}:{port}"

        storage_kind = "provider" if self.kind == "bsfs" else "datanode"
        # Spawn everything first, then collect the handshakes: interpreter
        # start-up of the children overlaps instead of adding up.
        for node_id in range(NUM_STORAGE_NODES):
            self.nodes.append(
                NodeProcess(
                    f"{storage_kind}-{node_id}",
                    [
                        sys.executable,
                        str(RUN_NODE),
                        "--kind",
                        storage_kind,
                        "--node-id",
                        str(node_id),
                        "--control",
                        control,
                    ],
                )
            )
        if self.kind == "bsfs":
            self.nodes.append(
                NodeProcess(
                    "metadata-0",
                    [
                        sys.executable,
                        str(METADATA_NODE),
                        "--node-id",
                        "0",
                        "--control",
                        control,
                    ],
                )
            )
        deadline = time.monotonic() + READY_TIMEOUT_S
        for node in self.nodes:
            node.await_ready(deadline)

        storage = self.nodes[:NUM_STORAGE_NODES]
        if self.kind == "bsfs":
            providers = [
                connect_provider(*node.address, config=self.config)
                for node in storage
            ]
            self._stubs.extend(providers)
            metadata = connect_metadata(
                *self.nodes[-1].address, config=self.config
            )
            self._stubs.append(metadata)
            blobseer = BlobSeer(
                BlobSeerConfig(
                    page_size=PAGE_SIZE,
                    replication=1,
                    num_providers=NUM_STORAGE_NODES,
                    num_metadata_providers=1,
                ),
                providers=providers,
                metadata_providers=[metadata],
            )
            self.fs = BSFS(
                blobseer=blobseer,
                default_block_size=BLOCK_SIZE,
                cache_blocks=CACHE_BLOCKS,
                shared_cache_blocks=SHARED_CACHE_BLOCKS,
            )
        else:
            datanodes = [
                connect_datanode(*node.address, config=self.config)
                for node in storage
            ]
            self._stubs.extend(datanodes)
            self.fs = HDFS(
                datanodes=datanodes,
                default_block_size=BLOCK_SIZE,
                default_replication=1,
            )
        # One tracker per client thread, co-named with the first storage
        # nodes so data-local scheduling is possible.  (Without ``hosts``
        # the factory would derive one tracker per storage node.)
        hosts = [stub.host for stub in self._stubs[:CLIENT_THREADS]]
        self.service = JobService.local(self.fs, hosts=hosts, slots_per_tracker=1)
        self.session = connect(self.fs, service=self.service)

    # -- stop -------------------------------------------------------------------------
    def close(self) -> None:
        """Tear down head side first, then the nodes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        try:
            if self.service is not None:
                self.service.join(timeout=TERMINATE_TIMEOUT_S)
            if self.fs is not None:
                blobseer = getattr(self.fs, "blobseer", None)
                # BlobSeer.close joins the transfer pool and closes the
                # provider stubs; HDFS.close only joins its pool.
                (blobseer if blobseer is not None else self.fs).close()
            for stub in self._stubs:
                stub.close()
        finally:
            for node in self.nodes:
                node.terminate()
            deadline = time.monotonic() + TERMINATE_TIMEOUT_S
            for node in self.nodes:
                node.reap(deadline)
            if self._control_server is not None:
                self._control_server.stop()

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- outside view of the node processes ---------------------------------------------
    def node_pids(self) -> dict[str, int]:
        return {node.name: node.pid for node in self.nodes}

    def calls_retried(self) -> int:
        """RPCs that needed a retry so far, over every stub's transport."""
        return sum(stub.transport.calls_retried for stub in self._stubs)
