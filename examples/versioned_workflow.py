#!/usr/bin/env python3
"""Versioning-enabled MapReduce workflows over BSFS (the §V extension).

Run with::

    python examples/versioned_workflow.py

Section V of the paper proposes integrating BlobSeer's versioning into the
MapReduce framework: "a storage layer that supports versioning enables
complex MapReduce workflows to run in parallel, on different snapshots of
the same original dataset".  This example demonstrates exactly that with
the functional stack:

1. a dataset file is written to BSFS and a snapshot of it is taken;
2. a producer keeps appending new records to the same file;
3. two analysis jobs (grep and wordcount) run *concurrently with the
   producer*, each pinned to the snapshot, and therefore see a stable,
   consistent input even though the live file keeps growing;
4. a final job runs against the latest version and sees the new records.
"""

from __future__ import annotations

import threading

from repro.bsfs import BSFS
from repro.core import KB, BlobSeerConfig
from repro.fs import copy_uri, get_filesystem
from repro.mapreduce import JobService
from repro.mapreduce.applications import make_distributed_grep_job, make_wordcount_job
from repro.mapreduce.splitter import TextInputFormat

#: The BSFS deployment running the workflow, addressed by URI.
STORAGE = "bsfs://workflow"
DATASET = "/warehouse/events.log"


class SnapshotInputFormat(TextInputFormat):
    """A TextInputFormat that reads a fixed BSFS snapshot of every input file.

    The snapshot's size is used for splitting and every record reader opens
    the file pinned to that version, so a concurrently appending producer
    never disturbs the job.
    """

    def __init__(self, bsfs: BSFS, version: int, size: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self._bsfs = bsfs
        self._version = version
        self._size = size

    def get_splits(self, fs, conf):
        splits = super().get_splits(fs, conf)
        # Clamp the splits to the snapshot size (the live file may be longer).
        return [s for s in splits if s.offset < self._size]

    def create_reader(self, fs, split):
        snapshot_fs = _SnapshotView(self._bsfs, self._version, self._size)
        return super().create_reader(snapshot_fs, split)


class _SnapshotView:
    """Minimal FileSystem view delegating to BSFS but pinning a version."""

    def __init__(self, bsfs: BSFS, version: int, size: int) -> None:
        self._bsfs = bsfs
        self._version = version
        self._size = size

    def status(self, path: str):
        status = self._bsfs.status(path)
        return type(status)(
            path=status.path,
            is_dir=status.is_dir,
            size=min(self._size, status.size) if not status.is_dir else 0,
            block_size=status.block_size,
            replication=status.replication,
            modification_time=status.modification_time,
        )

    def open(self, path: str, **kwargs):
        return self._bsfs.open(path, version=self._version)

    def __getattr__(self, name):
        return getattr(self._bsfs, name)


def main() -> None:
    bsfs: BSFS = get_filesystem(
        STORAGE,
        config=BlobSeerConfig(page_size=64 * KB, num_providers=8),
        default_block_size=256 * KB,
    )
    with bsfs.create(DATASET) as out:
        for i in range(5000):
            out.write(f"event base record {i} status=ok\n".encode())
    snapshot = bsfs.snapshot(DATASET)
    snapshot_size = bsfs.status(DATASET).size
    print(f"dataset written: {snapshot_size} bytes, snapshot version {snapshot}")

    stop = threading.Event()

    def producer() -> None:
        batch = 0
        while not stop.is_set() and batch < 50:
            payload = "".join(
                f"event live record {batch}-{i} status=new\n" for i in range(50)
            ).encode()
            bsfs.concurrent_append(DATASET, payload)
            batch += 1

    producer_thread = threading.Thread(target=producer)
    producer_thread.start()

    service = JobService.local(bsfs, slots_per_tracker=2)
    input_format = SnapshotInputFormat(bsfs, snapshot, snapshot_size, split_size=128 * KB)

    grep_job = make_distributed_grep_job(
        "status=ok", [DATASET], output_dir="/jobs/grep-snapshot", split_size=128 * KB
    )
    grep_job.input_format = input_format
    wordcount_job = make_wordcount_job(
        [DATASET], output_dir="/jobs/wc-snapshot", split_size=128 * KB
    )
    wordcount_job.input_format = input_format

    results = {}

    def run_job(name, job):
        results[name] = service.submit(job).wait()

    threads = [
        threading.Thread(target=run_job, args=("grep", grep_job)),
        threading.Thread(target=run_job, args=("wordcount", wordcount_job)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    producer_thread.join()

    grep_matches = results["grep"].counter("grep.matches")
    print(
        f"grep over snapshot     : {grep_matches} matches "
        f"(expected 5000 — the producer's concurrent appends are invisible)"
    )
    print(
        f"wordcount over snapshot: {results['wordcount'].counter('wordcount.words')} words"
    )

    live_size = bsfs.status(DATASET).size
    print(f"live file meanwhile grew to {live_size} bytes "
          f"({live_size - snapshot_size} bytes appended concurrently)")

    final_grep = make_distributed_grep_job(
        "status=new",
        [f"{STORAGE}{DATASET}"],
        output_dir=f"{STORAGE}/jobs/grep-live",
        split_size=128 * KB,
    )
    final_result = service.submit(final_grep).wait()
    print(
        f"grep over latest version: {final_result.counter('grep.matches')} new records visible"
    )

    # Stage the live dataset out to local disk with one URI-to-URI copy.
    exported = copy_uri(f"{STORAGE}{DATASET}", "file://workflow/exports/events.log")
    print(f"exported {exported} bytes to file://workflow/exports/events.log")


if __name__ == "__main__":
    main()
