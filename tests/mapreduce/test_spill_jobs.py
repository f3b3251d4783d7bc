"""End-to-end jobs over the shuffle, which spills through the file system.

Covers the acceptance criteria of the shuffle subsystem: output equal, byte
for byte, to a plain-Python reference on every registered backend, external
merge of partitions of more runs than one merge pass takes, one spill file
per map read by range, the single-output-file (§V) job mode with its
per-backend fallback, and per-task failure capture.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import replace

import pytest

from repro.core import KB
import repro.mapreduce.tasktracker as tasktracker
from repro.mapreduce import Job, JobConf, JobService, hash_partitioner
from repro.mapreduce.applications import make_wordcount_job
from repro.mapreduce.shuffle_service import DEFAULT_MERGE_FACTOR, ShuffleService
from repro.workloads import write_text_file


def read_parts(fs, paths) -> dict[str, bytes]:
    """Output content keyed by part-file basename (output dirs differ)."""
    return {path.rsplit("/", 1)[-1]: fs.read_file(path) for path in paths}


def reference_wordcount_parts(text: str, num_partitions: int) -> dict[str, bytes]:
    """A plain-Python word count laid out the way the job writes it: one
    ``part-r-*`` file per :func:`hash_partitioner` partition, words ordered
    by ``repr``."""
    counts = Counter(text.split())
    parts: dict[str, bytes] = {}
    for partition in range(num_partitions):
        words = sorted(
            (w for w in counts if hash_partitioner(w, num_partitions) == partition),
            key=repr,
        )
        parts[f"part-r-{partition:05d}"] = "".join(
            f"{word}\t{counts[word]}\n" for word in words
        ).encode()
    return parts


class TestSpillShuffleEquivalence:
    @pytest.mark.parametrize(
        "num_trackers, slots", [(None, 2), (1, 1)], ids=["many-slots", "one-slot"]
    )
    def test_wordcount_byte_identical_to_reference(self, any_fs, num_trackers, slots):
        write_text_file(any_fs, "/in/data.txt", num_lines=2000, seed=11)
        service = JobService.local(any_fs, num_trackers=num_trackers, slots_per_tracker=slots)
        job = make_wordcount_job(
            ["/in/data.txt"], output_dir="/wc-spill", num_reduce_tasks=3,
            split_size=8 * KB,
        )
        result = service.submit(job).wait()
        assert result.succeeded
        text = any_fs.read_file("/in/data.txt").decode()
        assert read_parts(any_fs, result.output_paths) == reference_wordcount_parts(
            text, 3
        )
        assert result.shuffle is not None
        # One spill file per map; a reducer fetches a segment of each.
        assert result.shuffle["segments_spilled"] == result.map_tasks
        assert result.shuffle["segments_fetched"] == 3 * result.map_tasks
        assert result.counter("map_spilled_bytes") > 0
        # Every spilled record reaches a reducer exactly once.
        assert result.counter("reduce_shuffle_records") == result.shuffle[
            "records_spilled"
        ]
        # Intermediate segments are deleted once the job completes.
        assert not any_fs.exists("/wc-spill/_shuffle")

    def test_spill_to_fs_false_is_rejected(self):
        with pytest.raises(ValueError, match="one shuffle"):
            JobConf(name="in-memory", spill_to_fs=False)

    def test_partition_of_more_runs_than_the_merge_factor_merges_externally(
        self, any_fs, monkeypatch
    ):
        write_text_file(any_fs, "/in/big.txt", num_lines=1500, seed=23)
        service = JobService.local(any_fs, slots_per_tracker=2)
        job = make_wordcount_job(
            ["/in/big.txt"], output_dir="/wc-ext", num_reduce_tasks=1,
            split_size=2 * KB,
        )
        # Small splits: the single reduce partition spans more sorted runs
        # than one merge pass takes, and the streaming reduce must cascade
        # them through intermediate on-storage merges.
        monkeypatch.setattr(tasktracker, "WORKER_REDUCE_MAX_BYTES", 0)
        result = service.submit(job).wait()
        assert result.succeeded
        assert result.map_tasks > DEFAULT_MERGE_FACTOR
        assert result.shuffle["merge_passes"] > 0
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

    def test_map_only_job_has_no_shuffle(self, bsfs):
        from repro.mapreduce.applications import make_random_text_writer_job

        job = make_random_text_writer_job(
            output_dir="/rtw-spill", num_map_tasks=2, bytes_per_map=4 * KB, seed=3
        )
        result = JobService.local(bsfs).submit(job).wait()
        assert result.succeeded
        assert result.shuffle is None


class FailingSpill:
    """A spill stream that writes its first partition, then fails: a map
    attempt whose storage breaks mid-file."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self._writes = 0

    def __enter__(self):
        self._stream.__enter__()
        return self

    def __exit__(self, *exc_info):
        return self._stream.__exit__(*exc_info)

    def write(self, data) -> int:
        self._writes += 1
        if self._writes > 1:
            raise RuntimeError("storage failed mid-spill")
        return self._stream.write(data)


class TestSpillLayout:
    """One spill file per map attempt; each reducer reads exactly its own
    byte range of each map's file."""

    REDUCERS = 3

    def run(self, fs, monkeypatch, output_dir, *, failing_path=None):
        """Run a word count, recording the shuffle's file writes, range
        reads and final index (partition → segments)."""
        written: list[str] = []
        reads: list[tuple[str, int, int]] = []
        index: list[list] = []
        open_write, open_read = fs.open_write, fs.open_read

        def recording_open_write(path, **kwargs):
            stream = open_write(path, **kwargs)
            if "/_shuffle/map-" not in path:
                return stream
            written.append(path)
            return FailingSpill(stream) if path == failing_path else stream

        def recording_open_read(path, *, offset=0, length=None, **kwargs):
            if "/_shuffle/" in path:
                reads.append((path, offset, length))
            return open_read(path, offset=offset, length=length, **kwargs)

        cleanup = ShuffleService.cleanup

        def indexed_cleanup(service):
            index.extend(list(segments) for segments in service._segments)
            cleanup(service)

        monkeypatch.setattr(fs, "open_write", recording_open_write)
        monkeypatch.setattr(fs, "open_read", recording_open_read)
        monkeypatch.setattr(ShuffleService, "cleanup", indexed_cleanup)
        job = make_wordcount_job(
            ["/in/layout.txt"], output_dir=output_dir,
            num_reduce_tasks=self.REDUCERS, split_size=4 * KB,
        )
        result = JobService.local(fs).submit(job).wait()
        monkeypatch.undo()
        assert result.succeeded
        text = fs.read_file("/in/layout.txt").decode()
        assert read_parts(fs, result.output_paths) == reference_wordcount_parts(
            text, self.REDUCERS
        )
        return result, written, reads, index

    @staticmethod
    def assert_reads_tile_the_index(reads, index) -> None:
        """Every shuffle read lies inside one indexed segment, and the reads
        of each segment cover it exactly once."""
        read_bytes = Counter()
        for path, offset, length in reads:
            [segment] = [
                s for segments in index for s in segments
                if s.path == path and s.offset <= offset
                and offset + length <= s.offset + s.bytes
            ]
            read_bytes[segment] += length
        segments = [s for segments in index for s in segments]
        assert read_bytes == Counter({s: s.bytes for s in segments})

    def test_one_file_per_map_and_each_reducer_reads_its_range(
        self, any_fs, monkeypatch
    ):
        write_text_file(any_fs, "/in/layout.txt", num_lines=600, seed=17)
        result, written, reads, index = self.run(any_fs, monkeypatch, "/layout")
        maps = result.map_tasks
        assert maps > 2
        assert sorted(written) == [
            f"/layout/_shuffle/map-{m:05d}-a00.out" for m in range(maps)
        ]
        assert result.shuffle["segments_spilled"] == maps
        # Every reducer has a segment of every map's file, in its own
        # partition's place within it.
        for partition, segments in enumerate(index):
            assert sorted(s.map_index for s in segments) == list(range(maps))
            assert {s.partition for s in segments} == {partition}
        self.assert_reads_tile_the_index(reads, index)

    def test_a_map_retried_after_a_failed_spill_is_read_from_the_winner(
        self, any_fs, monkeypatch
    ):
        write_text_file(any_fs, "/in/layout.txt", num_lines=600, seed=17)
        loser = "/layout-retry/_shuffle/map-00001-a00.out"
        result, written, reads, index = self.run(
            any_fs, monkeypatch, "/layout-retry", failing_path=loser
        )
        assert result.retries == 1
        [failed] = result.failed_tasks
        assert (failed.task_id, failed.attempt) == ("map-00001", 0)
        assert "mid-spill" in failed.error
        winner = "/layout-retry/_shuffle/map-00001-a01.out"
        assert written.count(loser) == 1 and winner in written
        assert len(written) == result.map_tasks + 1
        map_one = [s for segments in index for s in segments if s.map_index == 1]
        assert len(map_one) == self.REDUCERS
        assert {s.path for s in map_one} == {winner}
        assert loser not in {path for path, _offset, _length in reads}
        self.assert_reads_tile_the_index(reads, index)


class TestSingleOutputFile:
    def wordcount(self, fs, output_dir):
        if not fs.exists("/in/single.txt"):
            write_text_file(fs, "/in/single.txt", num_lines=800, seed=31)
        job = make_wordcount_job(
            ["/in/single.txt"], output_dir=output_dir, num_reduce_tasks=4,
            split_size=8 * KB,
        )
        conf = replace(job.conf, single_output_file=True)
        return JobService.local(fs).submit(replace(job, conf=conf)).wait()

    def test_all_reducers_share_one_file_on_bsfs(self, bsfs):
        result = self.wordcount(bsfs, "/wc-single")
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

    def test_crashing_mapper_fails_job_without_raising(self, any_fs):
        write_text_file(any_fs, "/in/crash.txt", num_lines=400, seed=41)
        job = self.make_crashing_job("/crash-out", crash_in="map")
        result = JobService.local(any_fs).submit(job).wait()
        assert not result.succeeded
        failed_maps = [t for t in result.failed_tasks if t.kind == "map"]
        assert failed_maps
        assert "deliberate mapper crash" in failed_maps[0].error
        assert failed_maps[0].task_id in result.summary()["failed_tasks"]
        # The aborted shuffle propagates to the waiting reducers, which are
        # recorded as failed too instead of hanging forever.
        failed_reduces = [t for t in result.failed_tasks if t.kind == "reduce"]
        assert failed_reduces
        assert "aborted" in failed_reduces[0].error

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

        job = self.make_crashing_job("/crash-exit")
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
        job = self.make_crashing_job("/crash-spill", crash_in="map")
        result = JobService.local(bsfs).submit(job).wait()
        assert not result.succeeded
        assert not bsfs.exists("/crash-spill/_shuffle")


def shuffle_threads() -> list[str]:
    """Names of the live threads of per-job ``shuffle-*`` prefetch engines."""
    return [t.name for t in threading.enumerate() if t.name.startswith("shuffle-")]


class TestShuffleThreads:
    """Every job with reducers builds its own prefetch engine; no thread of
    it may outlive the job, however the job ends."""

    def job(self, output_dir, *, mapper=None, reducer=None):
        job = make_wordcount_job(
            ["/in/threads.txt"], output_dir=output_dir, num_reduce_tasks=2,
            split_size=4 * KB,
        )
        if mapper is not None:
            job = replace(job, mapper=mapper)
        if reducer is not None:
            job = replace(job, reducer=reducer)
        return job

    @pytest.fixture
    def service(self, bsfs):
        write_text_file(bsfs, "/in/threads.txt", num_lines=400, seed=41)
        assert shuffle_threads() == []
        return JobService.local(bsfs, num_trackers=1, slots_per_tracker=1)

    def test_succeeded_job(self, service):
        seen: list[str] = []
        base = self.job("/threads-ok")

        def reducer(key, values, context):
            seen.extend(shuffle_threads())
            base.reducer(key, values, context)

        result = service.submit(replace(base, reducer=reducer)).wait()
        assert result.succeeded
        assert seen  # the engine did run prefetches during the job
        assert shuffle_threads() == []

    def test_failed_job(self, service):
        def mapper(key, value, context):
            # The first split maps and spills; every later one crashes.
            if key >= 4 * KB:
                raise RuntimeError("deliberate mapper crash")
            context.emit("word", 1)

        result = service.submit(self.job("/threads-failed", mapper=mapper)).wait()
        assert not result.succeeded
        assert shuffle_threads() == []

    def test_cancelled_job(self, service):
        started = threading.Event()
        cancelled = threading.Event()
        base = self.job("/threads-cancelled")

        def mapper(key, value, context):
            # The first split maps and spills; the second holds its slot
            # until the job is cancelled.
            if key >= 4 * KB and not started.is_set():
                started.set()
                assert cancelled.wait(timeout=30)
            base.mapper(key, value, context)

        handle = service.submit(replace(base, mapper=mapper))
        assert started.wait(timeout=10)
        assert handle.cancel() is True
        cancelled.set()
        result = handle.wait(timeout=60)
        assert not result.succeeded
        assert any("cancelled" in str(r.error) for r in result.failed_tasks)
        assert shuffle_threads() == []
