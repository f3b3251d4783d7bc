"""F5 (extension) — version GC under churn: bounded space vs linear growth.

BlobSeer never overwrites data: every page write publishes a new snapshot
and keeps the old pages, so a churn-heavy workload (repeated in-place
updates of the same small working set) grows provider usage *linearly* with
the number of updates even though the live data never grows.  The
``repro.versions`` collector converts a retention policy into reclaimed
space; this benchmark measures what that costs and what it buys:

* ``gc-off`` — the seed behaviour: provider usage grows with every update;
* ``gc-on``  — keep-last retention with periodic collections: usage stays
  bounded by the retention window whatever the churn volume.

The ``churn_MBps`` column (update throughput *including* the collector's
share of the loop) is the perf-gate metric: CI compares it against the
committed baseline via ``scripts/check_bench.py``.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.analysis import ExperimentReport
from repro.core import KB, MB, BlobSeer, BlobSeerConfig
from repro.core.provider import total_bytes_stored

EXPERIMENT = "F5"

PAGE = 64 * KB
ROUNDS = 96
COLLECT_EVERY = 16
KEEP_LAST = 4


def _stored(client: BlobSeer) -> int:
    return total_bytes_stored(client.provider_manager.providers)


def _scenario(gc_on: bool) -> dict:
    client = BlobSeer(
        BlobSeerConfig(
            page_size=PAGE,
            num_providers=8,
            num_metadata_providers=4,
            replication=1,
            max_versions_kept=KEEP_LAST if gc_on else None,
        )
    )
    blob = client.create_blob()
    payload = b"\xab" * PAGE
    peak = 0
    started = time.perf_counter()
    for round_index in range(ROUNDS):
        client.write(blob, 0, payload)
        if gc_on and (round_index + 1) % COLLECT_EVERY == 0:
            client.gc.collect(blob)
        peak = max(peak, _stored(client))
    if gc_on:
        client.gc.collect(blob)
    elapsed = time.perf_counter() - started
    totals = client.gc.describe()["totals"]
    return {
        "scenario": "gc-on" if gc_on else "gc-off",
        "rounds": ROUNDS,
        "churn_MBps": round(ROUNDS * PAGE / MB / elapsed, 2),
        "peak_stored_MB": round(peak / MB, 3),
        "final_stored_MB": round(_stored(client) / MB, 3),
        "bytes_reclaimed_MB": round(totals["bytes_reclaimed"] / MB, 3),
        "live_versions": len(client.versions(blob)),
    }


def _run():
    report = ExperimentReport(
        EXPERIMENT,
        "Version GC under churn: bounded space vs linear growth — reduced scale",
    )
    rows = {row["scenario"]: row for row in (_scenario(False), _scenario(True))}
    report.add_rows([rows["gc-off"], rows["gc-on"]])
    report.note(
        f"one churn round = one {PAGE // KB} KB in-place page update; "
        f"gc-on keeps the last {KEEP_LAST} versions and collects every "
        f"{COLLECT_EVERY} rounds"
    )
    report.note(
        "gc-off stores every round forever (linear growth); gc-on is "
        "bounded by the retention window"
    )
    return report, rows


def test_bench_version_gc(benchmark):
    report, rows = run_once(benchmark, _run)
    report.print()
    off, on = rows["gc-off"], rows["gc-on"]
    # Without GC every update is kept: linear in the churn volume.
    assert off["final_stored_MB"] * MB == ROUNDS * PAGE
    # With GC the space is bounded by the retention window, not the
    # churn volume: final usage is keep-last pages, peak adds at most one
    # collection interval of garbage.
    assert on["final_stored_MB"] * MB <= KEEP_LAST * PAGE
    assert on["peak_stored_MB"] * MB <= (KEEP_LAST + COLLECT_EVERY) * PAGE
    assert on["bytes_reclaimed_MB"] > 0
    assert on["live_versions"] <= KEEP_LAST + 1  # + version 0
    assert off["churn_MBps"] > 0 and on["churn_MBps"] > 0
