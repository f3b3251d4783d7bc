"""Time-travel MapReduce: jobs that read a pinned storage snapshot (AS OF).

A job configured with ``snapshot_version`` must read byte-stable input even
while appenders keep publishing new versions of the input file — its result
must be identical to running the same job on a quiesced copy of the
snapshot.  The jobtracker leases the snapshots for the duration of the job
and releases them afterwards, so the version GC cannot retire the versions
mid-job.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.bsfs import BSFS
from repro.core import KB, BlobSeerConfig, VersionRetiredError
from repro.fs.errors import UnsupportedOperationError
from repro.mapreduce import JobConf, JobService
from repro.mapreduce.applications import make_wordcount_job
from repro.workloads import write_text_file

from ..conftest import TEST_BLOCK_SIZE


def as_of(job, version):
    """The same job, reading its inputs AS OF ``version``."""
    return dataclasses.replace(
        job, conf=dataclasses.replace(job.conf, snapshot_version=version)
    )


def output_bytes(fs, result) -> bytes:
    return b"".join(fs.read_file(path) for path in sorted(result.output_paths))


class TestAsOfJobs:
    def test_as_of_job_matches_quiesced_copy_under_appends(self, any_fs):
        fs = any_fs
        write_text_file(fs, "/input/live.txt", num_lines=2000, seed=3)
        token = fs.snapshot("/input/live.txt")
        # Quiesced copy: the snapshot's bytes, frozen in a separate file.
        fs.write_file("/input/frozen.txt", fs.read_file("/input/live.txt"))

        def appender() -> None:
            for i in range(10):
                try:
                    with fs.append("/input/live.txt") as stream:
                        stream.write(b"noise %d noise\n" % i * 50)
                except UnsupportedOperationError:
                    return  # HDFS: no appends, stability is a passthrough

        thread = threading.Thread(target=appender)
        thread.start()
        try:
            live = JobService.local(fs, slots_per_tracker=2).submit(
                as_of(
                    make_wordcount_job(
                        ["/input/live.txt"],
                        output_dir="/wc-live",
                        num_reduce_tasks=2,
                        split_size=8 * KB,
                    ),
                    token,
                )
            ).wait()
        finally:
            thread.join()
        frozen = JobService.local(fs, slots_per_tracker=2).submit(
            make_wordcount_job(
                ["/input/frozen.txt"],
                output_dir="/wc-frozen",
                num_reduce_tasks=2,
                split_size=8 * KB,
            )
        ).wait()
        assert live.succeeded and frozen.succeeded
        assert output_bytes(fs, live) == output_bytes(fs, frozen)
        assert live.counter("map_input_records") == 2000

    def test_at_suffix_names_the_snapshot_inline(self, bsfs: BSFS):
        write_text_file(bsfs, "/in.txt", num_lines=500, seed=5)
        token = bsfs.snapshot("/in.txt")
        before = bsfs.read_file("/in.txt")
        with bsfs.append("/in.txt") as stream:
            stream.write(b"extra line\n" * 200)
        result = JobService.local(bsfs, slots_per_tracker=2).submit(
            make_wordcount_job(
                [f"/in.txt@v{token}"], output_dir="/wc-suffix", split_size=8 * KB
            )
        ).wait()
        assert result.succeeded
        words = sum(len(line.split()) for line in before.decode().splitlines())
        produced = 0
        for path in result.output_paths:
            for line in bsfs.read_file(path).decode().splitlines():
                produced += int(line.split("\t")[1])
        assert produced == words

    def test_per_path_snapshot_mapping(self, bsfs: BSFS):
        write_text_file(bsfs, "/a.txt", num_lines=100, seed=1)
        write_text_file(bsfs, "/b.txt", num_lines=100, seed=2)
        token = bsfs.snapshot("/a.txt")
        with bsfs.append("/a.txt") as stream:
            stream.write(b"appended appended\n" * 100)
        conf = JobConf(
            name="mixed",
            input_paths=("/a.txt", "/b.txt"),
            snapshot_version={"/a.txt": token},
        )
        # /a.txt reads its snapshot, /b.txt the current state.
        assert conf.version_for("/a.txt") == token
        assert conf.version_for("/b.txt") is None
        job = as_of(
            make_wordcount_job(
                ["/a.txt", "/b.txt"], output_dir="/wc-mixed", split_size=8 * KB
            ),
            {"/a.txt": token},
        )
        result = JobService.local(bsfs, slots_per_tracker=2).submit(job).wait()
        assert result.succeeded
        # 100 lines of /a.txt (AS OF) + 100 of /b.txt (current): the 100
        # appended lines on /a.txt are invisible to the job.
        assert result.counter("map_input_records") == 200


class TestJobtrackerLeases:
    def test_pins_are_taken_and_released_around_the_job(self, bsfs: BSFS):
        write_text_file(bsfs, "/leased.txt", num_lines=300, seed=7)
        token = bsfs.snapshot("/leased.txt")
        taken_before = bsfs.blobseer.pins.describe()["pins_taken"]
        result = JobService.local(bsfs, slots_per_tracker=2).submit(
            as_of(
                make_wordcount_job(
                    ["/leased.txt"], output_dir="/wc-leased", split_size=8 * KB
                ),
                token,
            )
        ).wait()
        assert result.succeeded
        info = bsfs.blobseer.pins.describe()
        assert info["pins_taken"] > taken_before
        assert info["active_pins"] == 0  # every lease released in finally

    def test_job_on_a_retired_version_fails_fast(self):
        fs = BSFS(
            config=BlobSeerConfig(
                page_size=4 * KB,
                num_providers=4,
                num_metadata_providers=2,
                replication=1,
                max_versions_kept=1,
            ),
            default_block_size=TEST_BLOCK_SIZE,
        )
        write_text_file(fs, "/gone.txt", num_lines=100, seed=9)
        token = fs.snapshot("/gone.txt")
        for i in range(3):
            with fs.append("/gone.txt") as stream:
                stream.write(b"churn\n" * 50)
        blob = fs.namespace.record("/gone.txt").blob_id
        fs.blobseer.gc.collect(blob)
        job = as_of(
            make_wordcount_job(
                ["/gone.txt"], output_dir="/wc-gone", split_size=8 * KB
            ),
            token,
        )
        with pytest.raises(VersionRetiredError):
            JobService.local(fs, slots_per_tracker=2).submit(job).wait()
