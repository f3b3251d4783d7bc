"""A3 (ablation) — cost and distribution of the metadata plane.

Measures the metadata side of BlobSeer's design: how many segment-tree
nodes a write creates as the blob grows (logarithmic in the blob size for a
fixed-size write, thanks to structural sharing), how long building and
traversing the tree takes, and how evenly the metadata spreads over the
DHT's metadata providers — the decentralisation the paper credits for
avoiding a metadata bottleneck under heavy concurrency.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.analysis import ExperimentReport, coefficient_of_variation
from repro.core import KB, MB, BlobSeer, BlobSeerConfig

EXPERIMENT = "A3"

BLOB_SIZES = (1 * MB, 4 * MB, 16 * MB, 64 * MB)
PAGE_SIZE = 64 * KB
WRITE_SIZE = 256 * KB


def _run():
    report = ExperimentReport(
        EXPERIMENT,
        "Metadata ablation: per-write tree cost vs. blob size "
        f"(page {PAGE_SIZE // KB} KiB, write {WRITE_SIZE // KB} KiB)",
    )
    rows = []
    for blob_size in BLOB_SIZES:
        service = BlobSeer(
            BlobSeerConfig(
                page_size=PAGE_SIZE,
                num_providers=8,
                num_metadata_providers=8,
            )
        )
        blob = service.create_blob()
        # Build the blob in large appends, then measure one small overwrite.
        chunk = 4 * MB
        written = 0
        while written < blob_size:
            service.append(blob, b"\x11" * min(chunk, blob_size - written))
            written += min(chunk, blob_size - written)
        started = time.perf_counter()
        version = service.write(blob, 0, b"\x22" * WRITE_SIZE)
        write_elapsed = time.perf_counter() - started
        new_nodes = service.metadata_manager.nodes_created_by(blob, version)
        started = time.perf_counter()
        service.read(blob, 0, WRITE_SIZE)
        read_elapsed = time.perf_counter() - started
        distribution = service.dht.distribution()
        row = {
            "blob_size_MiB": blob_size // MB,
            "total_pages": blob_size // PAGE_SIZE,
            "tree_nodes_created_by_small_write": new_nodes,
            "small_write_ms": round(write_elapsed * 1000, 3),
            "small_read_ms": round(read_elapsed * 1000, 3),
            "metadata_providers": len(distribution),
            "dht_balance_cv": round(
                coefficient_of_variation(list(map(float, distribution.values()))), 3
            ),
        }
        rows.append(row)
        report.add_row(row)
    report.note(
        "tree nodes per small write grow logarithmically with the blob size "
        "(structural sharing), not linearly."
    )
    return report, rows


def test_bench_metadata(benchmark):
    report, rows = run_once(benchmark, _run)
    report.print()
    nodes = [row["tree_nodes_created_by_small_write"] for row in rows]
    pages = [row["total_pages"] for row in rows]
    # Logarithmic growth: 64x more pages must cost far less than 64x more nodes.
    assert nodes[-1] <= nodes[0] + 10
    assert pages[-1] == 64 * pages[0]
    # Metadata is spread over every metadata provider.
    assert all(row["metadata_providers"] == 8 for row in rows)
