"""End-to-end jobs over the spill-based overlapped shuffle.

Covers the acceptance criteria of the shuffle subsystem: byte-identical
output with the in-memory shuffle on every registered backend, external
merge of partitions larger than one segment, the single-output-file (§V)
job mode with its per-backend fallback, and per-task failure capture.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import KB
from repro.mapreduce import Job, JobConf, JobService
from repro.mapreduce.applications import make_wordcount_job
from repro.workloads import write_text_file


def spill_conf(job, **overrides):
    """Clone ``job`` with spill_to_fs enabled (plus extra conf overrides)."""
    return replace(job, conf=replace(job.conf, spill_to_fs=True, **overrides))


def read_parts(fs, paths) -> dict[str, bytes]:
    """Output content keyed by part-file basename (output dirs differ)."""
    return {path.rsplit("/", 1)[-1]: fs.read_file(path) for path in paths}


class TestSpillShuffleEquivalence:
    @pytest.mark.parametrize(
        "num_trackers, slots", [(None, 2), (1, 1)], ids=["many-slots", "one-slot"]
    )
    def test_wordcount_byte_identical_to_in_memory(self, any_fs, num_trackers, slots):
        write_text_file(any_fs, "/in/data.txt", num_lines=2000, seed=11)
        service = JobService.local(any_fs, num_trackers=num_trackers, slots_per_tracker=slots)
        memory_job = make_wordcount_job(
            ["/in/data.txt"], output_dir="/wc-mem", num_reduce_tasks=3,
            split_size=8 * KB,
        )
        memory_result = service.submit(memory_job).wait()
        spill_job = spill_conf(
            make_wordcount_job(
                ["/in/data.txt"], output_dir="/wc-spill", num_reduce_tasks=3,
                split_size=8 * KB,
            ),
            shuffle_segment_size=2 * KB,
        )
        spill_result = service.submit(spill_job).wait()
        assert memory_result.succeeded and spill_result.succeeded
        assert read_parts(any_fs, memory_result.output_paths) == read_parts(
            any_fs, spill_result.output_paths
        )
        assert spill_result.shuffle is not None
        assert spill_result.shuffle["segments_spilled"] > 0
        assert (
            spill_result.shuffle["segments_fetched"]
            == spill_result.shuffle["segments_spilled"]
        )
        assert spill_result.counter("map_spilled_bytes") > 0
        assert spill_result.counter(
            "reduce_shuffle_records"
        ) == memory_result.counter("reduce_shuffle_records")
        # Intermediate segments are deleted once the job completes.
        assert not any_fs.exists("/wc-spill/_shuffle")

    def test_partition_larger_than_segment_size_merges_externally(self, any_fs):
        write_text_file(any_fs, "/in/big.txt", num_lines=1500, seed=23)
        service = JobService.local(any_fs, slots_per_tracker=2)
        job = spill_conf(
            make_wordcount_job(
                ["/in/big.txt"], output_dir="/wc-ext", num_reduce_tasks=1,
                split_size=16 * KB,
            ),
            # Tiny segments: the single reduce partition spans many sorted
            # runs and must be reassembled by the external k-way merge.
            shuffle_segment_size=512,
        )
        result = service.submit(job).wait()
        assert result.succeeded
        assert result.shuffle["segments_spilled"] > result.map_tasks
        reference: dict[str, int] = {}
        for line in any_fs.read_file("/in/big.txt").decode().splitlines():
            for word in line.split():
                reference[word] = reference.get(word, 0) + 1
        produced: dict[str, int] = {}
        for part in result.output_paths:
            for line in any_fs.read_file(part).decode().splitlines():
                word, count = line.split("\t")
                produced[word] = int(count)
        assert produced == reference

    def test_map_only_job_ignores_spill_flag(self, bsfs):
        from repro.mapreduce.applications import make_random_text_writer_job

        job = spill_conf(
            make_random_text_writer_job(
                output_dir="/rtw-spill", num_map_tasks=2, bytes_per_map=4 * KB, seed=3
            )
        )
        result = JobService.local(bsfs).submit(job).wait()
        assert result.succeeded
        assert result.shuffle is None


class TestSingleOutputFile:
    def wordcount(self, fs, output_dir, *, spill=False):
        if not fs.exists("/in/single.txt"):
            write_text_file(fs, "/in/single.txt", num_lines=800, seed=31)
        job = make_wordcount_job(
            ["/in/single.txt"], output_dir=output_dir, num_reduce_tasks=4,
            split_size=8 * KB,
        )
        conf = replace(job.conf, single_output_file=True, spill_to_fs=spill)
        return JobService.local(fs).submit(replace(job, conf=conf)).wait()

    @pytest.mark.parametrize("spill", [False, True])
    def test_all_reducers_share_one_file_on_bsfs(self, bsfs, spill):
        result = self.wordcount(bsfs, "/wc-single", spill=spill)
        assert result.succeeded
        assert result.reduce_tasks == 4
        assert result.output_paths == ["/wc-single/output.txt"]
        reference: dict[str, int] = {}
        for line in bsfs.read_file("/in/single.txt").decode().splitlines():
            for word in line.split():
                reference[word] = reference.get(word, 0) + 1
        produced: dict[str, int] = {}
        for line in bsfs.read_file("/wc-single/output.txt").decode().splitlines():
            word, count = line.split("\t")
            produced[word] = int(count)
        assert produced == reference

    def test_rerun_truncates_instead_of_appending(self, bsfs):
        # Regression: rerunning a single_output_file job into the same
        # output directory used to append to the previous run's shared
        # file, silently doubling the output.
        first = self.wordcount(bsfs, "/wc-rerun")
        first_content = bsfs.read_file("/wc-rerun/output.txt")
        second = self.wordcount(bsfs, "/wc-rerun")
        assert first.succeeded and second.succeeded
        second_content = bsfs.read_file("/wc-rerun/output.txt")
        assert sorted(second_content.splitlines()) == sorted(
            first_content.splitlines()
        )

    def test_rerun_with_bad_input_preserves_previous_output(self, bsfs):
        # Truncation must not happen before the inputs are validated: a
        # rerun pointing at a missing input path fails without destroying
        # the previous run's shared output file.
        first = self.wordcount(bsfs, "/wc-keep")
        assert first.succeeded
        before = bsfs.read_file("/wc-keep/output.txt")
        assert before
        bad_job = make_wordcount_job(
            ["/in/does-not-exist.txt"], output_dir="/wc-keep", num_reduce_tasks=4
        )
        bad_job = replace(
            bad_job, conf=replace(bad_job.conf, single_output_file=True)
        )
        with pytest.raises(Exception):
            JobService.local(bsfs).submit(bad_job).wait()
        assert bsfs.read_file("/wc-keep/output.txt") == before

    def test_local_fs_supports_the_shared_file_too(self, local_fs):
        result = self.wordcount(local_fs, "/wc-single")
        assert result.succeeded
        assert result.output_paths == ["/wc-single/output.txt"]

    def test_falls_back_to_part_files_on_hdfs(self, hdfs):
        # HDFS has no concurrent_append: the job still succeeds, with the
        # standard per-reducer part files.
        result = self.wordcount(hdfs, "/wc-single")
        assert result.succeeded
        assert len(result.output_paths) == 4
        assert all(p.rsplit("/", 1)[-1].startswith("part-r-") for p in result.output_paths)


class TestTaskFailureHandling:
    def make_crashing_job(self, output_dir, *, crash_in="map", **conf_overrides):
        def crashing_mapper(key, value, context):
            raise RuntimeError("deliberate mapper crash")

        def crashing_reducer(key, values, context):
            raise RuntimeError("deliberate reducer crash")

        conf = JobConf(
            name="crash",
            input_paths=("/in/crash.txt",),
            output_dir=output_dir,
            num_reduce_tasks=2,
            split_size=4 * KB,
            **conf_overrides,
        )
        job = Job(conf=conf)
        if crash_in == "map":
            return replace(job, mapper=crashing_mapper)
        return replace(job, reducer=crashing_reducer)

    @pytest.mark.parametrize("spill", [False, True])
    def test_crashing_mapper_fails_job_without_raising(self, any_fs, spill):
        write_text_file(any_fs, "/in/crash.txt", num_lines=400, seed=41)
        job = self.make_crashing_job("/crash-out", crash_in="map", spill_to_fs=spill)
        result = JobService.local(any_fs).submit(job).wait()
        assert not result.succeeded
        failed_maps = [t for t in result.failed_tasks if t.kind == "map"]
        assert failed_maps
        assert "deliberate mapper crash" in failed_maps[0].error
        assert failed_maps[0].task_id in result.summary()["failed_tasks"]
        if spill:
            # The aborted shuffle propagates to the waiting reducers, which
            # are recorded as failed too instead of hanging forever.
            failed_reduces = [t for t in result.failed_tasks if t.kind == "reduce"]
            assert failed_reduces
            assert "aborted" in failed_reduces[0].error
        else:
            # Barrier mode skips the reduce phase outright on map failure.
            assert result.reduce_tasks == 0

    def test_crashing_reducer_records_the_reduce_task(self, bsfs):
        write_text_file(bsfs, "/in/crash.txt", num_lines=400, seed=41)
        job = self.make_crashing_job("/crash-red", crash_in="reduce")
        result = JobService.local(bsfs).submit(job).wait()
        assert not result.succeeded
        assert {task.kind for task in result.failed_tasks} == {"reduce"}
        assert "deliberate reducer crash" in result.failed_tasks[0].error

    def test_base_exception_in_mapper_aborts_instead_of_hanging(self, bsfs):
        # Regression: a mapper raising a BaseException (SystemExit,
        # KeyboardInterrupt) escaped the per-task handler without aborting
        # the shuffle, leaving the overlapped reducers blocked forever.
        import threading

        write_text_file(bsfs, "/in/crash.txt", num_lines=400, seed=41)

        def exiting_mapper(key, value, context):
            raise SystemExit(3)

        job = self.make_crashing_job("/crash-exit", spill_to_fs=True)
        job = replace(job, mapper=exiting_mapper)
        service = JobService.local(bsfs)
        outcome: list[BaseException] = []

        def run() -> None:
            try:
                service.submit(job).wait()
            except BaseException as exc:
                outcome.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=30.0)
        assert not runner.is_alive(), "submit().wait() hung on a BaseException"
        assert outcome and isinstance(outcome[0], SystemExit)

    def test_spill_mode_failure_cleans_shuffle_dir(self, bsfs):
        write_text_file(bsfs, "/in/crash.txt", num_lines=400, seed=41)
        job = self.make_crashing_job("/crash-spill", crash_in="map", spill_to_fs=True)
        result = JobService.local(bsfs).submit(job).wait()
        assert not result.succeeded
        assert not bsfs.exists("/crash-spill/_shuffle")
