"""Tests for the jobtracker/tasktracker/scheduler engine and the applications."""

from __future__ import annotations

import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import KB
from repro.mapreduce import (
    Job,
    JobConf,
    JobService,
    JobTracker,
    LocalityAwareScheduler,
    TaskTracker,
)
from repro.mapreduce.applications import (
    make_distributed_grep_job,
    make_random_text_writer_job,
    make_sort_job,
    make_wordcount_job,
)
from repro.mapreduce.job import Counters, identity_mapper, identity_reducer
from repro.mapreduce.jobtracker import JobResult
from repro.mapreduce.phase import _RetryingPhase
from repro.mapreduce.scheduler import LocalityStats
from repro.mapreduce.tasktracker import TaskResult
from repro.mapreduce.splitter import InputSplit
from repro.workloads import write_text_file


class TestJobConf:
    def test_validation(self):
        with pytest.raises(ValueError):
            JobConf(name="bad", num_reduce_tasks=-1)
        with pytest.raises(ValueError):
            JobConf(name="bad", num_map_tasks=0)
        with pytest.raises(ValueError):
            JobConf(name="bad", split_size=0)

    def test_map_only_flag_and_properties(self):
        conf = JobConf(name="j", num_reduce_tasks=0, properties={"x": 1})
        assert conf.is_map_only
        assert conf.get("x") == 1
        assert conf.get("missing", "default") == "default"


class TestCounters:
    def test_increment_get_merge(self):
        counters = Counters()
        counters.increment("a")
        counters.increment("a", 4)
        other = Counters()
        other.increment("a", 10)
        other.increment("b")
        counters.merge(other)
        assert counters.get("a") == 15
        assert counters.get("b") == 1
        assert counters.get("missing") == 0
        assert counters.as_dict() == {"a": 15, "b": 1}


class TestScheduler:
    def make_splits(self, hosts_list):
        return [
            InputSplit(i, f"/f{i}", 0, 100, hosts=tuple(hosts))
            for i, hosts in enumerate(hosts_list)
        ]

    def test_prefers_node_local_trackers(self):
        trackers = [TaskTracker(f"node-{i}", slots=2) for i in range(4)]
        scheduler = LocalityAwareScheduler(trackers)
        splits = self.make_splits([["node-1"], ["node-2"], ["node-3"], ["node-0"]])
        assignments = scheduler.assign(splits)
        for assignment in assignments:
            assert assignment.tracker.host in assignment.split.hosts
            assert assignment.locality == "node-local"
        assert scheduler.stats.locality_ratio == 1.0

    def test_falls_back_to_least_loaded_for_remote_splits(self):
        trackers = [TaskTracker(f"node-{i}", slots=1) for i in range(3)]
        scheduler = LocalityAwareScheduler(trackers)
        splits = self.make_splits([["elsewhere"]] * 6)
        assignments = scheduler.assign(splits)
        per_tracker = {}
        for assignment in assignments:
            per_tracker[assignment.tracker.host] = per_tracker.get(assignment.tracker.host, 0) + 1
            assert assignment.locality == "remote"
        assert set(per_tracker.values()) == {2}

    def test_saturated_local_tracker_spills_to_others(self):
        trackers = [TaskTracker("hot", slots=1), TaskTracker("cold-1", slots=1), TaskTracker("cold-2", slots=1)]
        scheduler = LocalityAwareScheduler(trackers)
        splits = self.make_splits([["hot"]] * 9)
        assignments = scheduler.assign(splits)
        hot_count = sum(1 for a in assignments if a.tracker.host == "hot")
        assert hot_count < 9  # not everything piled on the one local tracker

    def test_requires_trackers(self):
        with pytest.raises(ValueError):
            LocalityAwareScheduler([])

    def test_round_robin_is_thread_safe(self):
        # Regression: the shared cycle iterator used to be advanced from
        # concurrent reduce worker threads without a lock; under contention
        # picks could be lost or duplicated.  With the lock, N*k picks land
        # exactly k times on each of the N trackers.
        trackers = [TaskTracker(f"node-{i}") for i in range(5)]
        scheduler = LocalityAwareScheduler(trackers)
        picks_per_thread = 200
        num_threads = 8
        barrier = threading.Barrier(num_threads)
        picked: list[list[str]] = [[] for _ in range(num_threads)]

        def worker(index: int) -> None:
            barrier.wait()
            for _ in range(picks_per_thread):
                picked[index].append(scheduler.pick_tracker_round_robin().host)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counts = Counter(host for row in picked for host in row)
        expected = num_threads * picks_per_thread // len(trackers)
        assert counts == {f"node-{i}": expected for i in range(5)}


class TestTaskTracker:
    def test_slot_accounting(self):
        tracker = TaskTracker("host", slots=2)
        assert tracker.free_slots == 2
        with pytest.raises(ValueError):
            TaskTracker("bad", slots=0)


class TestLocalClusterTopology:
    @staticmethod
    def three_provider_bsfs():
        from repro.bsfs import BSFS
        from repro.core import BlobSeerConfig

        return BSFS(
            config=BlobSeerConfig(
                page_size=4 * KB, num_providers=3, num_metadata_providers=1
            )
        )

    def test_default_is_one_tracker_per_storage_node(self):
        fs = self.three_provider_bsfs()
        providers = [p.host for p in fs.blobseer.provider_manager.providers]
        assert [t.host for t in JobService.local(fs).tracker.trackers] == providers

    @pytest.mark.parametrize("count", [2, 5])
    def test_explicit_count_is_exact_and_round_robin(self, count):
        fs = self.three_provider_bsfs()
        providers = [p.host for p in fs.blobseer.provider_manager.providers]
        trackers = JobService.local(fs, num_trackers=count).tracker.trackers
        assert [t.host for t in trackers] == [
            providers[i % len(providers)] for i in range(count)
        ]

    def test_job_service_honours_the_count(self):
        service = JobService.local(self.three_provider_bsfs(), num_trackers=2)
        assert len(service.tracker.trackers) == 2

    def test_without_storage_nodes_trackers_are_named(self, local_fs):
        assert [t.host for t in JobService.local(local_fs).tracker.trackers] == [
            f"tracker-{i}" for i in range(4)
        ]
        assert [
            t.host for t in JobService.local(local_fs, num_trackers=2).tracker.trackers
        ] == ["tracker-0", "tracker-1"]


class TestEndToEndJobs:
    def prepare_input(self, fs) -> str:
        write_text_file(fs, "/input/data.txt", num_lines=3000, seed=3)
        return "/input/data.txt"

    @pytest.mark.parametrize(
        "num_trackers, slots", [(None, 2), (1, 1)], ids=["many-slots", "one-slot"]
    )
    def test_wordcount_matches_reference(self, any_fs, num_trackers, slots):
        path = self.prepare_input(any_fs)
        reference: dict[str, int] = {}
        for line in any_fs.read_file(path).decode().splitlines():
            for word in line.split():
                reference[word] = reference.get(word, 0) + 1
        service = JobService.local(any_fs, num_trackers=num_trackers, slots_per_tracker=slots)
        job = make_wordcount_job([path], output_dir="/wc", num_reduce_tasks=3, split_size=8 * KB)
        result = service.submit(job).wait()
        assert result.succeeded
        assert result.map_tasks > 1
        assert result.reduce_tasks == 3
        produced: dict[str, int] = {}
        for part in result.output_paths:
            for line in any_fs.read_file(part).decode().splitlines():
                word, count = line.split("\t")
                produced[word] = int(count)
        assert produced == reference
        assert result.counter("map_input_records") == 3000

    def test_distributed_grep_counts_matches(self, any_fs):
        path = self.prepare_input(any_fs)
        text = any_fs.read_file(path).decode()
        expected = text.count("hellbender")
        service = JobService.local(any_fs, slots_per_tracker=2)
        job = make_distributed_grep_job("hellbender", [path], output_dir="/grep", split_size=8 * KB)
        result = service.submit(job).wait()
        assert result.counter("grep.matches") == expected
        output = b"".join(any_fs.read_file(p) for p in result.output_paths).decode()
        if expected:
            assert f"hellbender\t{expected}" in output

    def test_random_text_writer_is_map_only_and_writes_files(self, any_fs):
        service = JobService.local(any_fs, slots_per_tracker=2)
        job = make_random_text_writer_job(
            output_dir="/rtw", num_map_tasks=3, bytes_per_map=20 * KB, seed=9
        )
        result = service.submit(job).wait()
        assert result.reduce_tasks == 0
        assert result.map_tasks == 3
        files = any_fs.list_files("/rtw")
        assert len(files) == 3
        total = sum(f.size for f in files)
        assert total >= 3 * 20 * KB
        assert result.counter("random_text.bytes_generated") > 0

    def test_sort_job_produces_sorted_output(self, bsfs):
        records = [f"{key:04d}\tvalue-{key}" for key in range(200, 0, -1)]
        bsfs.write_file("/sort-in.txt", ("\n".join(records) + "\n").encode())
        service = JobService.local(bsfs, slots_per_tracker=2)
        job = make_sort_job(["/sort-in.txt"], output_dir="/sorted", num_reduce_tasks=1, split_size=2 * KB)
        result = service.submit(job).wait()
        output = bsfs.read_file(result.output_paths[0]).decode().splitlines()
        keys = [line.split("\t")[0] for line in output]
        assert keys == sorted(keys)
        assert len(output) == 200

    def test_locality_is_achieved_on_bsfs(self, bsfs):
        path = self.prepare_input(bsfs)
        service = JobService.local(bsfs, slots_per_tracker=2)
        job = make_wordcount_job([path], output_dir="/wc-loc", split_size=8 * KB)
        result = service.submit(job).wait()
        assert result.locality.total == result.map_tasks
        assert result.locality.locality_ratio > 0.5

    def test_identity_job_round_trips_records(self, bsfs):
        bsfs.write_file("/id.txt", b"a\nb\nc\n")
        service = JobService.local(bsfs)
        job = Job(
            conf=JobConf(name="identity", input_paths=("/id.txt",), output_dir="/id-out"),
            mapper=identity_mapper,
            reducer=identity_reducer,
        )
        result = service.submit(job).wait()
        output = bsfs.read_file(result.output_paths[0])
        assert output.count(b"\n") == 3

    def test_grep_requires_pattern(self):
        with pytest.raises(ValueError):
            make_distributed_grep_job("", ["/x"])

    def test_jobtracker_requires_trackers(self, bsfs):
        with pytest.raises(ValueError):
            JobTracker(bsfs, [])


class TestRetryingPhase:
    """The phase orchestrator on its own: attempts, commits, the wait."""

    @staticmethod
    def result(index: int, attempt: int, **fields) -> TaskResult:
        return TaskResult(
            task_id=f"t-{index}",
            tracker_host="h0",
            kind="map",
            duration=0.0,
            records_in=0,
            records_out=0,
            attempt=attempt,
            **fields,
        )

    def phase(self, total: int, execute) -> _RetryingPhase:
        tracker = TaskTracker("h0", slots=2)
        return _RetryingPhase(
            total=total,
            max_attempts=3,
            execute=execute,
            pick_tracker=lambda index, attempt, banned: tracker,
            make_failure=lambda index, attempt, exc: self.result(
                index, attempt, succeeded=False, error=str(exc)
            ),
        )

    def test_finish_blocks_until_the_last_attempt_reports(self):
        release = threading.Event()

        def execute(index, attempt, tracker):
            if index == 1:
                release.wait(timeout=10)
            return self.result(index, attempt), True, False

        phase = self.phase(2, execute)
        finished = threading.Event()

        def finish() -> None:
            phase.finish()
            finished.set()

        with ThreadPoolExecutor(max_workers=2) as pool:
            phase.start(pool)
            waiter = threading.Thread(target=finish)
            waiter.start()
            assert not finished.wait(timeout=0.2)
            release.set()
            assert finished.wait(timeout=10)
            waiter.join()
        assert phase.succeeded
        assert sorted(r.task_id for r in phase.results) == ["t-0", "t-1"]

    def test_a_failed_attempt_is_retried_and_only_one_commits(self):
        commits = []

        def execute(index, attempt, tracker):
            if attempt == 0:
                return self.result(index, 0, succeeded=False, error="boom"), True, False
            commits.append(phase.try_commit(index, attempt))
            commits.append(phase.try_commit(index, attempt + 10))
            return self.result(index, attempt), True, False

        phase = self.phase(1, execute)
        with ThreadPoolExecutor(max_workers=1) as pool:
            results = phase.run(pool)
        assert [(r.attempt, r.succeeded) for r in results] == [(0, False), (1, True)]
        assert commits == [True, False]

    def test_summary_reports_attempts_and_retries_only(self):
        job_result = JobResult(
            job_name="j",
            succeeded=True,
            elapsed=0.0,
            map_tasks=1,
            reduce_tasks=0,
            counters=Counters(),
            locality=LocalityStats(),
            task_results=[
                self.result(0, 0, succeeded=False, error="x"),
                self.result(0, 1),
            ],
        )
        summary = job_result.summary()
        assert summary["task_attempts"] == 2 and summary["retries"] == 1
        assert summary["failed_tasks"] == ["t-0"]
        assert "speculative" not in summary
