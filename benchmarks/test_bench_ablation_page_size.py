"""A2 (ablation) — sensitivity to the BlobSeer page size.

The page is BlobSeer's unit of data management; its size trades metadata
volume (smaller pages -> more segment-tree leaves and DHT entries) against
striping granularity.  This ablation writes and reads the same data through
the functional BlobSeer implementation at several page sizes and reports
in-process throughput together with the number of metadata tree nodes
created — the quantities that justify the paper's 64 KiB default (with the
BSFS cache batching application records into whole blocks).
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.analysis import ExperimentReport
from repro.core import KB, MB, BlobSeer, BlobSeerConfig

EXPERIMENT = "A2"

PAGE_SIZES = (4 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB)
DATA_SIZE = 8 * MB


def _run():
    report = ExperimentReport(
        EXPERIMENT, f"Page-size ablation (functional BlobSeer, {DATA_SIZE // MB} MiB blob)"
    )
    rows = []
    payload = b"\xAB" * DATA_SIZE
    for page_size in PAGE_SIZES:
        service = BlobSeer(
            BlobSeerConfig(page_size=page_size, num_providers=8)
        )
        blob = service.create_blob()
        started = time.perf_counter()
        service.append(blob, payload)
        write_elapsed = time.perf_counter() - started
        started = time.perf_counter()
        data = service.read_all(blob)
        read_elapsed = time.perf_counter() - started
        assert data == payload
        info = service.version_manager.version_info(blob)
        tree_nodes = service.metadata_manager.count_nodes(info.root)
        row = {
            "page_size_KiB": page_size // KB,
            "write_MBps": round(DATA_SIZE / MB / write_elapsed, 2),
            "read_MBps": round(DATA_SIZE / MB / read_elapsed, 2),
            "pages": DATA_SIZE // page_size,
            "metadata_tree_nodes": tree_nodes,
            "dht_entries": sum(service.dht.distribution().values()),
        }
        rows.append(row)
        report.add_row(row)
    return report, rows


def test_bench_ablation_page_size(benchmark):
    report, rows = run_once(benchmark, _run)
    report.print()
    # Metadata volume must shrink monotonically as pages grow.
    nodes = [row["metadata_tree_nodes"] for row in rows]
    assert nodes == sorted(nodes, reverse=True)
