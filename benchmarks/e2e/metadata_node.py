#!/usr/bin/env python3
"""Launch one BlobSeer metadata provider as its own OS process.

``scripts/run_node.py`` has no ``metadata`` kind, so the benchmark brings
its own launcher: the same contract (``READY <host> <port>`` on stdout
once the RPC server is bound, clean deregister on SIGTERM/SIGINT), around
``NodeServer(MetadataProvider(i))``.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.core.dht import MetadataProvider  # noqa: E402
from repro.net.cluster import ClusterConfig, NodeServer  # noqa: E402
from repro.net.tcp import TcpTransport  # noqa: E402
from repro.net.transport import RetryPolicy  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--node-id", type=int, required=True)
    parser.add_argument("--control", required=True, metavar="HOST:PORT")
    args = parser.parse_args(argv)

    config = ClusterConfig()
    host, _, port = args.control.rpartition(":")
    node_name = f"metadata-{args.node_id}"
    # Same heartbeat channel as run_node.py: fail fast, the next beat is
    # the retry.
    control = TcpTransport(
        host,
        int(port),
        local=node_name,
        timeout=config.rpc_timeout,
        retry=RetryPolicy.no_retry(),
        pool_size=1,
        wire=config.wire_config(),
    )
    server = NodeServer(
        MetadataProvider(args.node_id), control=control, config=config
    )
    # Handlers before READY: the harness may SIGTERM us the instant it
    # reads the line.
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    bound_host, bound_port = server.start()
    print(f"READY {bound_host} {bound_port}", flush=True)

    stop.wait()
    server.stop(deregister=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
