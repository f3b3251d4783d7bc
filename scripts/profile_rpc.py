#!/usr/bin/env python3
"""cProfile harness for the RPC call path.

Profiles the client side of a tight call loop against an in-process
:class:`~repro.net.tcp.RpcServer` (or the loopback transport) and prints
the hottest functions, so codec and transport changes can be judged by
where the time actually goes rather than end-to-end numbers alone.
With ``--threads N`` the calls are split over N concurrent callers
sharing one transport; the profile then covers the first caller (each
caller owns its own connection, so the others run the same path).

Examples:
    # 2000 small echo calls over TCP
    python scripts/profile_rpc.py --calls 2000

    # 1 MiB bulk payloads over TCP
    python scripts/profile_rpc.py --payload 1048576 --calls 200

    # metadata records: a put_many-shaped root-to-leaf path of tree nodes
    python scripts/profile_rpc.py --payload tree --calls 2000

    # 8 concurrent callers sharing one TCP transport
    python scripts/profile_rpc.py --threads 8 --calls 2000

    # the loopback codec path only (no sockets)
    python scripts/profile_rpc.py --transport loopback --calls 5000
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import threading

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core.metadata import NodeKey, TreeNode  # noqa: E402
from repro.core.pages import PageDescriptor, PageKey  # noqa: E402
from repro.net.service import ServiceRegistry  # noqa: E402
from repro.net.tcp import RpcServer, TcpTransport  # noqa: E402
from repro.net.transport import LoopbackTransport, RetryPolicy  # noqa: E402


class EchoService:
    """Minimal service: the profile should show codec + transport, not work."""

    def echo(self, value):
        return value


#: Depth of the ``--payload tree`` path: a tree of capacity 64 pages.
TREE_DEPTH = 7
#: Extents of the path's leaf: four appends shared its page.
LEAF_EXTENTS = 4


def tree_payload() -> list[tuple[str, TreeNode]]:
    """What one append's ``put_many`` carries: ``(dht key, node)`` for each
    node of a new root-to-leaf path, whose untouched siblings point at an
    older version and whose leaf lists several extents."""
    page, version = 256 * 1024, 9
    keys = [NodeKey(1, version, 0, 1 << level) for level in reversed(range(TREE_DEPTH))]
    nodes = []
    for key, child in zip(keys, keys[1:]):
        sibling = NodeKey(1, version - 1, child.hi, key.hi)
        nodes.append(TreeNode(key, left=child, right=sibling))
    step = page // LEAF_EXTENTS
    extents = tuple(
        PageDescriptor(PageKey(1, version - i, 0), (i % 3,), step, page - (i + 1) * step)
        for i in reversed(range(LEAF_EXTENTS))
    )
    nodes.append(TreeNode(keys[-1], extents=extents))
    return [(node.key.dht_key(), node) for node in nodes]


def payload_arg(value: str) -> str | int:
    """``--payload``: a byte count, or ``tree``."""
    if value == "tree":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a byte count or 'tree', got {value!r}"
        ) from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--transport",
        choices=("tcp", "loopback"),
        default="tcp",
        help="which client transport to profile",
    )
    parser.add_argument(
        "--calls", type=int, default=2000, help="number of round trips"
    )
    parser.add_argument(
        "--payload",
        type=payload_arg,
        default=0,
        help="bytes payload per call (0 = a small tuple), or 'tree' for a "
        "put_many-shaped list of metadata tree nodes",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="concurrent callers splitting the calls (default: 1)",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        help="pstats sort key (default: cumulative)",
    )
    parser.add_argument(
        "--limit", type=int, default=25, help="rows of the report to print"
    )
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")

    registry = ServiceRegistry()
    registry.register("echo", EchoService())
    if args.payload == "tree":
        payload = tree_payload()
    else:
        payload = os.urandom(args.payload) if args.payload else ("ping", 42)

    def calls(transport, count: int) -> None:
        for _ in range(count):
            assert transport.call("echo", "echo", payload) == payload

    def run(transport) -> None:
        # The profiled thread makes its share of the calls while the
        # other callers make theirs beside it.
        share = args.calls // args.threads
        others = [
            threading.Thread(target=calls, args=(transport, share))
            for _ in range(args.threads - 1)
        ]
        for thread in others:
            thread.start()
        calls(transport, args.calls - share * len(others))
        for thread in others:
            thread.join()

    profiler = cProfile.Profile()
    if args.transport == "loopback":
        transport = LoopbackTransport(registry)
        # Warm once (lazy imports, first-call setup), then measure.
        transport.call("echo", "echo", payload)
        profiler.runcall(run, transport)
        transport.close()
    else:
        with RpcServer(registry) as server:
            host, port = server.address
            transport = TcpTransport(
                host,
                port,
                pool_size=args.threads,
                retry=RetryPolicy.no_retry(),
            )
            transport.call("echo", "echo", payload)
            profiler.runcall(run, transport)
            transport.close()

    stats = pstats.Stats(profiler)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    if args.payload == "tree":
        shape = f"payload=tree ({len(payload)} nodes)"
    else:
        mb = args.calls * args.payload / 1e6
        shape = f"payload={args.payload}B (~{mb:.1f} MB total one-way)"
    print(f"# {args.transport} calls={args.calls} threads={args.threads} {shape}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
