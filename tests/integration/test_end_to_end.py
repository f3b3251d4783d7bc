"""End-to-end integration tests across the whole stack.

These tests chain the layers the way a user of the library would: BlobSeer
under BSFS, BSFS/HDFS under the MapReduce engine, concurrent clients,
version-pinned workflows, and failure injection with replication.
"""

from __future__ import annotations

import threading

from repro.bsfs import BSFS
from repro.core import KB, BlobSeer, BlobSeerConfig
from repro.hdfs import HDFS
from repro.mapreduce import JobService
from repro.mapreduce.applications import (
    make_distributed_grep_job,
    make_random_text_writer_job,
    make_wordcount_job,
)
from repro.mapreduce.shuffle import SingleFileOutputFormat
from repro.workloads import write_text_file


class TestChainedJobs:
    def test_random_text_writer_output_feeds_wordcount(self, any_fs):
        service = JobService.local(any_fs, slots_per_tracker=2)
        generate = make_random_text_writer_job(
            output_dir="/pipeline/text", num_map_tasks=3, bytes_per_map=16 * KB
        )
        first = service.submit(generate).wait()
        assert first.succeeded
        count = make_wordcount_job(
            ["/pipeline/text"], output_dir="/pipeline/wc", num_reduce_tasks=2,
            split_size=8 * KB,
        )
        second = service.submit(count).wait()
        total_words = second.counter("wordcount.words")
        # Every word generated by the first job is counted by the second.
        reference = sum(
            len(any_fs.read_file(f.path).decode().split())
            for f in any_fs.list_files("/pipeline/text")
        )
        # WordCount counts the key column too (key<TAB>sentence lines).
        assert total_words == reference
        assert second.succeeded

    def test_grep_then_wordcount_over_same_input(self, any_fs):
        write_text_file(any_fs, "/shared/input.txt", num_lines=2000, seed=11)
        service = JobService.local(any_fs, slots_per_tracker=2)
        grep = make_distributed_grep_job(
            "unaccessible", ["/shared/input.txt"], output_dir="/shared/grep", split_size=8 * KB
        )
        wordcount = make_wordcount_job(
            ["/shared/input.txt"], output_dir="/shared/wc", split_size=8 * KB
        )
        grep_result = service.submit(grep).wait()
        wc_result = service.submit(wordcount).wait()
        text = any_fs.read_file("/shared/input.txt").decode()
        assert grep_result.counter("grep.matches") == text.count("unaccessible")
        assert wc_result.counter("wordcount.words") == len(text.split())


class TestSingleSharedOutputFile:
    def test_reducers_share_one_output_file_on_bsfs(self, bsfs):
        write_text_file(bsfs, "/in.txt", num_lines=1500, seed=2)
        service = JobService.local(bsfs, slots_per_tracker=2)
        job = make_wordcount_job(
            ["/in.txt"], output_dir="/wc-single", num_reduce_tasks=4, split_size=8 * KB
        )
        job.output_format = SingleFileOutputFormat(filename="all-reducers.txt")
        result = service.submit(job).wait()
        assert result.succeeded
        merged = bsfs.read_file("/wc-single/all-reducers.txt").decode()
        reference = {}
        for line in bsfs.read_file("/in.txt").decode().splitlines():
            for word in line.split():
                reference[word] = reference.get(word, 0) + 1
        produced = {}
        for line in merged.splitlines():
            word, count = line.split("\t")
            produced[word] = int(count)
        assert produced == reference


class TestVersionedWorkflow:
    def test_job_pinned_to_snapshot_ignores_concurrent_appends(self, bsfs):
        write_text_file(bsfs, "/events.log", num_lines=1000, seed=5)
        snapshot_version = bsfs.snapshot("/events.log")
        snapshot_size = bsfs.size("/events.log")

        stop = threading.Event()

        def producer() -> None:
            while not stop.is_set():
                bsfs.concurrent_append("/events.log", b"live appended line\n" * 20)

        thread = threading.Thread(target=producer)
        thread.start()
        try:
            with bsfs.open("/events.log", version=snapshot_version) as stream:
                snapshot_content = stream.read()
        finally:
            stop.set()
            thread.join()
        assert len(snapshot_content) == snapshot_size
        assert b"live appended line" not in snapshot_content
        assert bsfs.size("/events.log") > snapshot_size
        # The snapshot is still intact after the producer stopped.
        with bsfs.open("/events.log", version=snapshot_version) as stream:
            assert stream.read() == snapshot_content


class TestFailureInjection:
    def test_job_completes_after_provider_failure_with_replication(self):
        bsfs = BSFS(
            config=BlobSeerConfig(
                page_size=4 * KB,
                num_providers=6,
                num_metadata_providers=3,
                replication=2,
            ),
            default_block_size=16 * KB,
        )
        write_text_file(bsfs, "/critical.txt", num_lines=2000, seed=13)
        # Kill one data provider after the data was written.
        bsfs.blobseer.provider_manager.providers[2].fail()
        service = JobService.local(bsfs, slots_per_tracker=2)
        job = make_wordcount_job(["/critical.txt"], output_dir="/wc-ft", split_size=8 * KB)
        result = service.submit(job).wait()
        assert result.succeeded
        assert result.counter("map_input_records") == 2000

    def test_hdfs_read_after_datanode_failure_with_replication(self):
        hdfs = HDFS(num_datanodes=6, racks=3, default_block_size=16 * KB, default_replication=3)
        payload = b"resilient " * 20000
        hdfs.write_file("/replicated.bin", payload)
        hdfs.datanodes[0].fail()
        hdfs.datanodes[1].fail()
        assert hdfs.read_file("/replicated.bin") == payload

    def test_blobseer_repair_then_read_under_failures(self):
        service = BlobSeer(
            BlobSeerConfig(page_size=4 * KB, num_providers=6, replication=2)
        )
        blob = service.create_blob()
        payload = bytes(range(256)) * 400
        service.append(blob, payload)
        service.provider_manager.providers[0].fail()
        service.repair(blob)
        service.provider_manager.providers[1].fail()
        assert service.read_all(blob) == payload


class TestCrossFileSystemStaging:
    def test_copy_dataset_from_hdfs_to_bsfs_and_grep(self, hdfs, bsfs):
        from repro.fs import copy_path

        write_text_file(hdfs, "/dataset.txt", num_lines=1000, seed=21)
        copy_path(hdfs, "/dataset.txt", bsfs, "/dataset.txt")
        service = JobService.local(bsfs, slots_per_tracker=2)
        job = make_distributed_grep_job(
            "roughcast", ["/dataset.txt"], output_dir="/grep-out", split_size=8 * KB
        )
        result = service.submit(job).wait()
        expected = hdfs.read_file("/dataset.txt").decode().count("roughcast")
        assert result.counter("grep.matches") == expected
