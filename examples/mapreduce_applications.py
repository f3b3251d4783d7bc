#!/usr/bin/env python3
"""Run the paper's MapReduce applications over every URI-addressed backend.

Run with::

    python examples/mapreduce_applications.py

This is the functional (in-process) counterpart of experiments E4/E5: the
same Hadoop-style engine executes Random Text Writer (massively parallel
writes to different files) and Distributed Grep (concurrent reads from one
big file) over each storage backend, and prints job statistics side by
side.

The storage layer is selected **purely by a URI string**: edit ``BACKENDS``
below to add or drop a backend — no imports, no constructors.  That is the
paper's drop-in-substitution claim (BSFS for HDFS under Hadoop) made
literal: the scheme registry (:mod:`repro.fs.registry`) resolves
``bsfs://``, ``hdfs://`` and ``file://`` to live file systems, and the job
configurations address their inputs and outputs with the same URIs.

Data sizes are kept small so the example runs in seconds; the paper-scale
comparison lives in the benchmark suite.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.core import KB, MB, BlobSeerConfig
from repro.fs import get_filesystem
from repro.mapreduce import JobService
from repro.mapreduce.applications import (
    make_distributed_grep_job,
    make_random_text_writer_job,
    make_wordcount_job,
)
from repro.workloads import write_text_file

#: The whole storage story of this example: one URI string per backend.
BACKENDS = ("bsfs://apps", "hdfs://apps", "file://apps")

#: Factory options applied the first time each deployment is instantiated
#: (laptop-friendly sizes; omit to accept each backend's defaults).
BACKEND_OPTIONS = {
    "bsfs://apps": dict(
        config=BlobSeerConfig(page_size=64 * KB, num_providers=16),
        default_block_size=1 * MB,
    ),
    "hdfs://apps": dict(
        num_datanodes=16, default_block_size=1 * MB, default_replication=2
    ),
    "file://apps": dict(default_block_size=1 * MB),
}


def run_random_text_writer(uri: str, rows) -> None:
    service = JobService.local(uri, slots_per_tracker=2)
    job = make_random_text_writer_job(
        output_dir=f"{uri}/jobs/random-text",
        num_map_tasks=8,
        bytes_per_map=256 * KB,
    )
    result = service.submit(job).wait()
    fs = service.fs
    written = sum(s.size for s in fs.list_files("/jobs/random-text"))
    rows.append(
        {
            "job": "random-text-writer",
            "system": fs.scheme,
            "elapsed_s": round(result.elapsed, 3),
            "maps": result.map_tasks,
            "reduces": result.reduce_tasks,
            "output_bytes": written,
            "locality": round(result.locality.locality_ratio, 2),
        }
    )


def run_distributed_grep(uri: str, rows) -> None:
    write_text_file(
        get_filesystem(uri), "/jobs/grep-input.txt", num_lines=20000, seed=42
    )
    service = JobService.local(uri, slots_per_tracker=2)
    job = make_distributed_grep_job(
        "hellbender|lithograph",
        [f"{uri}/jobs/grep-input.txt"],
        output_dir=f"{uri}/jobs/grep-out",
        split_size=256 * KB,
    )
    result = service.submit(job).wait()
    matches = result.counter("grep.matches")
    rows.append(
        {
            "job": "distributed-grep",
            "system": service.fs.scheme,
            "elapsed_s": round(result.elapsed, 3),
            "maps": result.map_tasks,
            "reduces": result.reduce_tasks,
            "output_bytes": matches,
            "locality": round(result.locality.locality_ratio, 2),
        }
    )


def run_wordcount(uri: str, rows) -> None:
    service = JobService.local(uri, slots_per_tracker=2)
    job = make_wordcount_job(
        [f"{uri}/jobs/grep-input.txt"],
        output_dir=f"{uri}/jobs/wc-out",
        num_reduce_tasks=2,
        split_size=256 * KB,
    )
    result = service.submit(job).wait()
    rows.append(
        {
            "job": "wordcount",
            "system": service.fs.scheme,
            "elapsed_s": round(result.elapsed, 3),
            "maps": result.map_tasks,
            "reduces": result.reduce_tasks,
            "output_bytes": result.counter("wordcount.words"),
            "locality": round(result.locality.locality_ratio, 2),
        }
    )


def main() -> None:
    rows: list[dict] = []
    for uri in BACKENDS:
        # Instantiate each deployment once, with example-sized options; all
        # later code addresses it through the URI alone.
        get_filesystem(uri, **BACKEND_OPTIONS.get(uri, {}))
        run_random_text_writer(uri, rows)
        run_distributed_grep(uri, rows)
        run_wordcount(uri, rows)
    print(
        format_table(
            rows,
            title="MapReduce applications over URI-selected backends (functional engine)",
        )
    )
    print(
        "\nNote: in-process timings mostly reflect the Python engine; the storage-"
        "layer comparison at the paper's scale is produced by the benchmark suite."
    )


if __name__ == "__main__":
    main()
