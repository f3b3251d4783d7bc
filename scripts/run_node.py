#!/usr/bin/env python3
"""Launch one storage node as its own OS process.

This is the worker-process entry point of the service layer: it builds a
:class:`~repro.core.provider.DataProvider` or an HDFS
:class:`~repro.hdfs.datanode.DataNode`, serves it over TCP through a
:class:`~repro.net.cluster.NodeServer`, and (when ``--control`` is
given) heartbeats the head process so the liveness registry can detect
this process dying — ``kill -9`` on this PID is the real-world event the
missed-heartbeat detector exists for.

The process prints one line, ``READY <host> <port>``, once the RPC
server is bound (the tests and launch scripts wait for it), then serves
until SIGTERM/SIGINT.

Examples:
    # a BlobSeer data provider, ephemeral port, no control plane
    python scripts/run_node.py --kind provider --node-id 0

    # an HDFS datanode heartbeating a control endpoint every 100 ms
    python scripts/run_node.py --kind datanode --node-id 2 \
        --control 127.0.0.1:45000 --heartbeat-interval 0.1
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading

# Allow running straight from a checkout without installing the package.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core.provider import DataProvider  # noqa: E402
from repro.hdfs.datanode import DataNode  # noqa: E402
from repro.net.cluster import ClusterConfig, NodeServer  # noqa: E402
from repro.net.transport import RetryPolicy  # noqa: E402
from repro.net.tcp import TcpTransport  # noqa: E402


def parse_address(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    return host, int(port)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--kind",
        choices=("provider", "datanode"),
        required=True,
        help="which storage node to run",
    )
    parser.add_argument(
        "--node-id", type=int, required=True, help="numeric node id"
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--rack", default=None, help="rack label (default: derived from id)"
    )
    parser.add_argument(
        "--node-host",
        default=None,
        help="logical host name of the node (default: provider-N/datanode-N)",
    )
    parser.add_argument(
        "--control",
        type=parse_address,
        default=None,
        metavar="HOST:PORT",
        help="control endpoint to register with and heartbeat",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.5,
        help="seconds between heartbeats",
    )
    parser.add_argument(
        "--block-report-every",
        type=int,
        default=5,
        help="every n-th heartbeat carries a full block report",
    )
    args = parser.parse_args(argv)

    if args.kind == "provider":
        node = DataProvider(
            args.node_id, rack=args.rack, host=args.node_host
        )
    else:
        node = DataNode(args.node_id, host=args.node_host, rack=args.rack)

    config = ClusterConfig(
        heartbeat_interval=args.heartbeat_interval,
        block_report_every=args.block_report_every,
    )
    control = None
    if args.control is not None:
        control_host, control_port = args.control
        # Heartbeats fail fast: the next beat is the retry, and a slow
        # control endpoint must not back the pump up.
        control = TcpTransport(
            control_host,
            control_port,
            local=node.host,
            timeout=config.rpc_timeout,
            retry=RetryPolicy.no_retry(),
            pool_size=1,
            wire=config.wire_config(),
        )

    server = NodeServer(
        node, host=args.host, port=args.port, control=control, config=config
    )
    # Handlers must be in place before READY is printed: a supervisor may
    # SIGTERM us the instant it reads the line, and the default action
    # would kill the process without the clean deregister.
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    host, port = server.start()
    print(f"READY {host} {port}", flush=True)

    stop.wait()
    server.stop(deregister=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
