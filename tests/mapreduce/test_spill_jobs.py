"""End-to-end jobs over the shuffle, which spills through the file system.

Covers the acceptance criteria of the shuffle subsystem: output equal, byte
for byte, to a plain-Python reference on every registered backend, one
spill file per map whose segments reducers read with one range read each
as the maps commit, the single-output-file (§V) job mode with its
per-backend fallback, and per-task failure capture.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import replace

import pytest

from repro.core import KB
from repro.mapreduce import Job, JobConf, JobService, hash_partitioner
from repro.mapreduce.applications import make_wordcount_job
from repro.mapreduce.shuffle_service import ShuffleService
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

    def test_partition_of_more_runs_than_one_merge_pass_merges_in_one_pass(self, any_fs):
        write_text_file(any_fs, "/in/big.txt", num_lines=1500, seed=23)
        service = JobService.local(any_fs, slots_per_tracker=2)
        job = make_wordcount_job(
            ["/in/big.txt"], output_dir="/wc-ext", num_reduce_tasks=1,
            split_size=2 * KB,
        )
        # Small splits: the single reduce partition spans more sorted runs
        # than Hadoop's default io.sort.factor (32) merges in one pass; the
        # reducer reads them all and merges them at once.
        result = service.submit(job).wait()
        assert result.succeeded
        assert result.map_tasks > 32
        assert result.shuffle["segments_fetched"] == result.map_tasks
        text = any_fs.read_file("/in/big.txt").decode()
        assert read_parts(any_fs, result.output_paths) == reference_wordcount_parts(
            text, 1
        )

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
    byte range of each map's file, with one range read as the map commits.

    The word count runs without its combiner, so every segment is larger
    than 64 KiB (several frames) and is still read with one range read.
    """

    REDUCERS = 3
    LINES = 11000
    SPLIT = 256 * KB

    def run(self, fs, monkeypatch, output_dir, *, failing_path=None, hold_last_map=False):
        """Run a word count, recording the shuffle's file writes, completed
        range reads and final index (partition → segments).

        Each read is ``(path, offset, length, early)``: ``early`` tells
        whether it completed before the last map opened its spill file.
        With ``hold_last_map`` the last split's mapper waits until some
        read of map 0's file completed.
        """
        written: list[str] = []
        reads: list[tuple[str, int, int, bool]] = []
        index: list[list] = []
        maps = -(-fs.status("/in/layout.txt").size // self.SPLIT)
        last_spill = f"{output_dir}/_shuffle/map-{maps - 1:05d}-a00.out"
        last_spill_opened = threading.Event()
        map_zero_read = threading.Event()
        open_write, open_read = fs.open_write, fs.open_read

        def recording_open_write(path, **kwargs):
            stream = open_write(path, **kwargs)
            if "/_shuffle/map-" not in path:
                return stream
            written.append(path)
            if path == last_spill:
                last_spill_opened.set()
            return FailingSpill(stream) if path == failing_path else stream

        def recording_open_read(path, *, offset=0, length=None, **kwargs):
            chunks = open_read(path, offset=offset, length=length, **kwargs)
            if "/_shuffle/" not in path:
                return chunks

            def recorded():
                yield from chunks
                reads.append((path, offset, length, not last_spill_opened.is_set()))
                if "/_shuffle/map-00000-" in path:
                    map_zero_read.set()

            return recorded()

        cleanup = ShuffleService.cleanup

        def indexed_cleanup(service):
            index.extend(list(segments) for segments in service._segments)
            cleanup(service)

        monkeypatch.setattr(fs, "open_write", recording_open_write)
        monkeypatch.setattr(fs, "open_read", recording_open_read)
        monkeypatch.setattr(ShuffleService, "cleanup", indexed_cleanup)
        job = make_wordcount_job(
            ["/in/layout.txt"], output_dir=output_dir,
            num_reduce_tasks=self.REDUCERS, split_size=self.SPLIT,
        )
        job = replace(job, combiner=None)
        if hold_last_map:
            last_split = (maps - 1) * self.SPLIT
            mapper = job.mapper

            def holding_mapper(key, value, context):
                if key >= last_split:
                    assert map_zero_read.wait(timeout=30)
                mapper(key, value, context)

            job = replace(job, mapper=holding_mapper)
        result = JobService.local(fs).submit(job).wait()
        monkeypatch.undo()
        assert result.succeeded
        text = fs.read_file("/in/layout.txt").decode()
        assert read_parts(fs, result.output_paths) == reference_wordcount_parts(
            text, self.REDUCERS
        )
        segments = [s for segments in index for s in segments]
        assert min(s.bytes for s in segments) > 64 * KB
        return result, written, reads, index

    @staticmethod
    def assert_reads_tile_the_index(reads, index) -> None:
        """Each indexed segment is read with exactly one range read of
        exactly its bytes, and nothing else of the shuffle is read."""
        segments = [(s.path, s.offset, s.bytes) for segments in index for s in segments]
        assert sorted(read[:3] for read in reads) == sorted(segments)

    def test_one_file_per_map_and_each_reducer_reads_its_range(
        self, any_fs, monkeypatch
    ):
        write_text_file(any_fs, "/in/layout.txt", num_lines=self.LINES, seed=17)
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

    def test_a_reducer_reads_a_range_while_the_last_map_runs(self, any_fs, monkeypatch):
        write_text_file(any_fs, "/in/layout.txt", num_lines=self.LINES, seed=17)
        result, _written, reads, index = self.run(
            any_fs, monkeypatch, "/layout-held", hold_last_map=True
        )
        assert result.map_tasks > 2
        map_zero = {(s.path, s.offset, s.bytes) for segments in index for s in segments
                    if s.map_index == 0}
        early_reads = {read[:3] for read in reads if read[3]}
        assert early_reads & map_zero
        self.assert_reads_tile_the_index(reads, index)

    def test_a_map_retried_after_a_failed_spill_is_read_from_the_winner(
        self, any_fs, monkeypatch
    ):
        write_text_file(any_fs, "/in/layout.txt", num_lines=self.LINES, seed=17)
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
        assert loser not in {read[0] for read in reads}
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

    def test_a_map_failing_after_another_spilled_aborts_the_reducers(self, bsfs):
        write_text_file(bsfs, "/in/crash.txt", num_lines=400, seed=41)

        def mapper(key, value, context):
            # The first split maps and spills; every later one crashes.
            if key >= 4 * KB:
                raise RuntimeError("deliberate mapper crash")
            context.emit("word", 1)

        job = replace(self.make_crashing_job("/crash-later"), mapper=mapper)
        service = JobService.local(bsfs, num_trackers=1, slots_per_tracker=1)
        result = service.submit(job).wait()
        assert not result.succeeded
        failed_reduces = [t for t in result.failed_tasks if t.kind == "reduce"]
        assert {t.task_id for t in failed_reduces} == {"reduce-00000", "reduce-00001"}
        assert all("aborted" in t.error for t in failed_reduces)
        assert not bsfs.exists("/crash-later/_shuffle")

    def test_cancelling_a_job_aborts_its_waiting_reducers(self, bsfs):
        write_text_file(bsfs, "/in/crash.txt", num_lines=400, seed=41)
        started = threading.Event()
        cancelled = threading.Event()
        base = make_wordcount_job(
            ["/in/crash.txt"], output_dir="/crash-cancel", num_reduce_tasks=2,
            split_size=4 * KB,
        )

        def mapper(key, value, context):
            # The first split maps and spills; the second holds its slot
            # until the job is cancelled.
            if key >= 4 * KB and not started.is_set():
                started.set()
                assert cancelled.wait(timeout=30)
            base.mapper(key, value, context)

        service = JobService.local(bsfs, num_trackers=1, slots_per_tracker=1)
        handle = service.submit(replace(base, mapper=mapper))
        assert started.wait(timeout=10)
        assert handle.cancel() is True
        cancelled.set()
        result = handle.wait(timeout=60)
        assert not result.succeeded
        assert any("cancelled" in str(r.error) for r in result.failed_tasks)
        failed_reduces = [t for t in result.failed_tasks if t.kind == "reduce"]
        assert {t.task_id for t in failed_reduces} == {"reduce-00000", "reduce-00001"}
        assert not bsfs.exists("/crash-cancel/_shuffle")

    def test_spill_mode_failure_cleans_shuffle_dir(self, bsfs):
        write_text_file(bsfs, "/in/crash.txt", num_lines=400, seed=41)
        job = self.make_crashing_job("/crash-spill", crash_in="map")
        result = JobService.local(bsfs).submit(job).wait()
        assert not result.succeeded
        assert not bsfs.exists("/crash-spill/_shuffle")


class TestShuffleThreads:
    """Reducers fetch the shuffle on threads of the job's reduce pool,
    blocked while maps run; no such thread may outlive the job, however
    the job ends."""

    def job(self, output_dir, *, mapper=None):
        job = make_wordcount_job(
            ["/in/threads.txt"], output_dir=output_dir, num_reduce_tasks=2,
            split_size=4 * KB,
        )
        return job if mapper is None else replace(job, mapper=mapper)

    @pytest.fixture
    def service(self, bsfs):
        write_text_file(bsfs, "/in/threads.txt", num_lines=400, seed=41)
        return JobService.local(bsfs, num_trackers=1, slots_per_tracker=1)

    @pytest.fixture
    def fetchers(self, monkeypatch) -> list[threading.Thread]:
        """The threads that called :meth:`ShuffleService.fetch_segments`."""
        threads: list[threading.Thread] = []
        fetch_segments = ShuffleService.fetch_segments

        def recording_fetch_segments(service, partition):
            threads.append(threading.current_thread())
            return fetch_segments(service, partition)

        monkeypatch.setattr(ShuffleService, "fetch_segments", recording_fetch_segments)
        return threads

    def test_succeeded_job(self, service, fetchers):
        result = service.submit(self.job("/threads-ok")).wait()
        assert result.succeeded
        assert len(fetchers) == 2
        assert not any(thread.is_alive() for thread in fetchers)

    def test_failed_job(self, service, fetchers):
        def mapper(key, value, context):
            # The first split maps and spills; every later one crashes.
            if key >= 4 * KB:
                raise RuntimeError("deliberate mapper crash")
            context.emit("word", 1)

        result = service.submit(self.job("/threads-failed", mapper=mapper)).wait()
        assert not result.succeeded
        assert fetchers
        assert not any(thread.is_alive() for thread in fetchers)

    def test_cancelled_job(self, service, fetchers):
        started = threading.Event()
        cancelled = threading.Event()
        base = self.job("/threads-cancelled")

        def mapper(key, value, context):
            # The first split maps and spills; the second holds its slot
            # until the job is cancelled, with both reducers waiting.
            if key >= 4 * KB:
                started.set()
                assert cancelled.wait(timeout=30)
            base.mapper(key, value, context)

        handle = service.submit(replace(base, mapper=mapper))
        assert started.wait(timeout=10)
        assert handle.cancel() is True
        cancelled.set()
        result = handle.wait(timeout=60)
        assert not result.succeeded
        assert fetchers
        assert not any(thread.is_alive() for thread in fetchers)
