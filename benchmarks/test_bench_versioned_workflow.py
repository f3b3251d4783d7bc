"""E7 (extension, §V) — versioning-enabled concurrent MapReduce workflows.

Section V proposes exposing BlobSeer's versioning to the MapReduce
framework so that "complex MapReduce workflows [can] run in parallel, on
different snapshots of the same original dataset".  This benchmark runs on
the functional stack (real bytes, real threads):

* a producer keeps appending to the dataset;
* two analysis jobs run concurrently, pinned to a snapshot taken before the
  producer started;
* we measure snapshot cost (it must be O(1) — BlobSeer versions *are*
  snapshots) and verify snapshot isolation (the jobs see exactly the
  snapshot content, whatever the producer does meanwhile).
"""

from __future__ import annotations

import threading
import time

from conftest import run_once

from repro.analysis import ExperimentReport
from repro.bsfs import BSFS
from repro.core import KB, BlobSeerConfig
from repro.mapreduce import JobService
from repro.mapreduce.applications import make_distributed_grep_job, make_wordcount_job
from repro.workloads import write_text_file

EXPERIMENT = "E7"
DATASET = "/warehouse/events.log"


def _pin_to_snapshot(bsfs: BSFS, job, snapshot: int, snapshot_size: int) -> None:
    """Make a job read the dataset as it was at ``snapshot``."""
    from repro.mapreduce.splitter import TextInputFormat

    class _SnapshotView:
        def __init__(self, inner):
            self._inner = inner

        def status(self, path):
            status = self._inner.status(path)
            return type(status)(
                path=status.path,
                is_dir=status.is_dir,
                size=min(snapshot_size, status.size),
                block_size=status.block_size,
                replication=status.replication,
                modification_time=status.modification_time,
            )

        def open(self, path, **kwargs):
            return self._inner.open(path, version=snapshot)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    class SnapshotInputFormat(TextInputFormat):
        def get_splits(self, fs, conf):
            return [
                split
                for split in super().get_splits(_SnapshotView(fs), conf)
                if split.offset < snapshot_size
            ]

        def create_reader(self, fs, split):
            return super().create_reader(_SnapshotView(fs), split)

    job.input_format = SnapshotInputFormat(split_size=64 * KB)


def _run():
    bsfs = BSFS(
        config=BlobSeerConfig(page_size=16 * KB, num_providers=12),
        default_block_size=128 * KB,
    )
    write_text_file(bsfs, DATASET, num_lines=6000, seed=7)
    report = ExperimentReport(
        EXPERIMENT, "Versioned workflow: concurrent jobs over one snapshot"
    )

    snapshot_started = time.perf_counter()
    snapshot = bsfs.snapshot(DATASET)
    snapshot_cost = time.perf_counter() - snapshot_started
    snapshot_size = bsfs.size(DATASET)
    baseline_lines = bsfs.read_file(DATASET).decode().count("\n")

    stop = threading.Event()

    def producer() -> None:
        while not stop.is_set():
            bsfs.concurrent_append(DATASET, b"live status=new record\n" * 50)

    producer_thread = threading.Thread(target=producer)
    producer_thread.start()

    service = JobService.local(bsfs, slots_per_tracker=2)
    grep_job = make_distributed_grep_job(
        "status=new", [DATASET], output_dir="/jobs/grep-snap", split_size=64 * KB
    )
    wordcount_job = make_wordcount_job(
        [DATASET], output_dir="/jobs/wc-snap", split_size=64 * KB
    )
    _pin_to_snapshot(bsfs, grep_job, snapshot, snapshot_size)
    _pin_to_snapshot(bsfs, wordcount_job, snapshot, snapshot_size)

    results = {}
    started = time.perf_counter()

    def run_job(name, job):
        results[name] = service.submit(job).wait()

    threads = [
        threading.Thread(target=run_job, args=("grep", grep_job)),
        threading.Thread(target=run_job, args=("wordcount", wordcount_job)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    concurrent_elapsed = time.perf_counter() - started
    stop.set()
    producer_thread.join()

    grown_size = bsfs.size(DATASET)
    report.add_row(
        {
            "metric": "snapshot cost (s)",
            "value": round(snapshot_cost, 6),
            "comment": "versions are snapshots: O(1)",
        }
    )
    report.add_row(
        {
            "metric": "concurrent jobs elapsed (s)",
            "value": round(concurrent_elapsed, 3),
            "comment": "grep + wordcount pinned to the snapshot",
        }
    )
    report.add_row(
        {
            "metric": "snapshot matches of 'status=new'",
            "value": results["grep"].counter("grep.matches"),
            "comment": "0 expected: producer's records are invisible",
        }
    )
    report.add_row(
        {
            "metric": "bytes appended concurrently",
            "value": grown_size - snapshot_size,
            "comment": "live file keeps growing during the workflow",
        }
    )
    report.add_row(
        {
            "metric": "snapshot line count seen by wordcount",
            "value": results["wordcount"].counter("map_input_records"),
            "comment": f"equals the {baseline_lines} lines at snapshot time",
        }
    )
    return report, results, baseline_lines, grown_size, snapshot_size


def test_bench_versioned_workflow(benchmark):
    report, results, baseline_lines, grown_size, snapshot_size = run_once(benchmark, _run)
    report.print()
    assert results["grep"].counter("grep.matches") == 0
    assert results["wordcount"].counter("map_input_records") == baseline_lines
    assert grown_size > snapshot_size
