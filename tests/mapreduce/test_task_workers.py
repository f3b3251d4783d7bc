"""Task compute in worker processes: same results as in-thread, and recovery.

A job whose map or reduce side pickles computes those tasks in the shared
worker pool (:data:`repro.mapreduce.task_workers.workers`); any other job
computes them on the slot thread.  Either way a reduce computes over its
partition's segments, read whole as the maps committed.  The placements
must be indistinguishable in output, counters and shuffle statistics, a
worker that dies must cost only a retry, and a process that ran a job must
still be able to exit.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import types
from dataclasses import replace

import pytest

from repro.core import KB
from repro.fs import LocalFS
from repro.mapreduce import JobService, identity_reducer
from repro.mapreduce.applications import (
    make_distributed_grep_job,
    make_random_text_writer_job,
    make_sort_job,
    make_wordcount_job,
)
from repro.mapreduce.shuffle import hash_partitioner
from repro.mapreduce.task_workers import workers
from repro.workloads import write_text_file

INPUT = "/in/workers.txt"
#: Shuffle statistics that do not depend on timing.
SHUFFLE_KEYS = (
    "segments_spilled",
    "bytes_spilled",
    "records_spilled",
    "segments_fetched",
    "maps_completed",
)


def make_job(app, output_dir):
    if app == "wordcount":
        return make_wordcount_job(
            [INPUT], output_dir=output_dir, num_reduce_tasks=2, split_size=4 * KB
        )
    if app == "grep":
        return make_distributed_grep_job(
            r"[a-z]*ing", [INPUT], output_dir=output_dir, split_size=4 * KB
        )
    if app == "random_text_writer":
        return make_random_text_writer_job(
            output_dir=output_dir, num_map_tasks=3, bytes_per_map=8 * KB, seed=5
        )
    return make_sort_job([INPUT], output_dir=output_dir, num_reduce_tasks=2, split_size=4 * KB)


def in_thread(job):
    """``job`` with a closure mapper and reducer: they cannot be pickled, so
    every task stays on its slot thread."""
    mapper, reducer = job.mapper, job.reducer
    return replace(
        job,
        mapper=lambda key, value, context: mapper(key, value, context),
        reducer=lambda key, values, context: reducer(key, values, context),
    )


def with_property(job, name, value):
    properties = {**job.conf.properties, name: value}
    return replace(job, conf=replace(job.conf, properties=properties))


def read_output(fs, result):
    return {path.rsplit("/", 1)[-1]: fs.read_file(path) for path in result.output_paths}


def emitted_pids(fs, result):
    """The process ids ``_pid_mapper``/``_pid_reducer`` saw (the job keeps
    every value)."""
    return {
        int(line.split(b"\t")[1])
        for output in read_output(fs, result).values()
        for line in output.splitlines()
    }


def _pid_mapper(key, value, context):
    context.emit("pid", os.getpid())


def _pid_reducer(key, values, context):
    context.emit(key, os.getpid())


def _raising_mapper(key, value, context):
    raise ValueError("the mapper gave up in its worker")


def _raising_reducer(key, values, context):
    raise ValueError("the reducer gave up in its worker")


def _crash_once(context):
    """Kill the worker process on the first call of the whole job only;
    ``False`` on every later call."""
    try:
        fd = os.open(context.job_conf.get("crash_marker"), os.O_CREAT | os.O_EXCL)
    except FileExistsError:
        return False
    os.close(fd)
    os._exit(1)


def _crash_once_mapper(key, value, context):
    _crash_once(context)
    context.emit(value, 1)


def _crash_once_reducer(key, values, context):
    _crash_once(context)
    context.emit(key, sum(values))


@pytest.mark.parametrize("app", ["wordcount", "grep", "sort", "random_text_writer"])
def test_workers_and_tracker_threads_produce_the_same_job(any_fs, app):
    write_text_file(any_fs, INPUT, num_lines=400, seed=11)
    service = JobService.local(any_fs)
    shipped = service.submit(make_job(app, "/out-workers")).wait()
    local = service.submit(in_thread(make_job(app, "/out-thread"))).wait()
    assert shipped.succeeded and local.succeeded
    assert shipped.map_tasks > 1
    assert shipped.summary()["map_attempts_in_workers"] == shipped.map_tasks
    assert shipped.summary()["reduce_attempts_in_workers"] == shipped.reduce_tasks
    assert local.summary()["map_attempts_in_workers"] == 0
    assert local.summary()["reduce_attempts_in_workers"] == 0
    assert read_output(any_fs, shipped) == read_output(any_fs, local)
    assert shipped.counters.as_dict() == local.counters.as_dict()
    assert (shipped.shuffle is None) == (app == "random_text_writer")
    for key in SHUFFLE_KEYS if shipped.shuffle else ():
        assert shipped.shuffle[key] == local.shuffle[key], key


def test_a_picklable_mapper_runs_in_another_process(bsfs):
    write_text_file(bsfs, INPUT, num_lines=200, seed=3)
    job = replace(
        make_job("wordcount", "/out-pid"),
        mapper=_pid_mapper,
        combiner=None,
        reducer=identity_reducer,
    )
    result = JobService.local(bsfs).submit(job).wait()
    assert result.succeeded
    pids = emitted_pids(bsfs, result)
    assert pids and os.getpid() not in pids


def test_a_picklable_reducer_runs_in_another_process(bsfs):
    write_text_file(bsfs, INPUT, num_lines=200, seed=3)
    job = replace(make_job("wordcount", "/out-reduce-pid"), reducer=_pid_reducer)
    result = JobService.local(bsfs).submit(job).wait()
    assert result.succeeded
    assert result.summary()["reduce_attempts_in_workers"] == result.reduce_tasks == 2
    pids = emitted_pids(bsfs, result)
    assert pids and os.getpid() not in pids


def test_a_closure_mapper_runs_on_the_tracker_thread(bsfs):
    write_text_file(bsfs, INPUT, num_lines=200, seed=3)
    seen = []

    def mapper(key, value, context):
        seen.append(os.getpid())
        context.emit(value, 1)

    result = JobService.local(bsfs).submit(
        replace(make_job("wordcount", "/out-closure"), mapper=mapper)
    ).wait()
    assert result.succeeded
    assert result.summary()["map_attempts_in_workers"] == 0
    assert seen and set(seen) == {os.getpid()}


def test_a_closure_reducer_runs_on_the_tracker_thread(bsfs):
    write_text_file(bsfs, INPUT, num_lines=200, seed=3)
    seen = []

    def reducer(key, values, context):
        seen.append(os.getpid())
        context.emit(key, sum(values))

    result = JobService.local(bsfs).submit(
        replace(make_job("wordcount", "/out-closure-reduce"), reducer=reducer)
    ).wait()
    assert result.succeeded
    assert result.summary()["map_attempts_in_workers"] == result.map_tasks
    assert result.summary()["reduce_attempts_in_workers"] == 0
    assert seen and set(seen) == {os.getpid()}


@pytest.mark.parametrize("side", ["mapper", "reducer"])
def test_a_worker_error_reaches_the_failed_tasks(bsfs, side):
    write_text_file(bsfs, INPUT, num_lines=200, seed=3)
    raising = _raising_mapper if side == "mapper" else _raising_reducer
    job = replace(make_job("wordcount", "/out-raise"), **{side: raising})
    job = replace(job, conf=replace(job.conf, max_task_attempts=2))
    result = JobService.local(bsfs).submit(job).wait()
    assert not result.succeeded
    assert result.failed_tasks
    message = f"ValueError: the {side} gave up in its worker"
    assert all(message in r.error for r in result.failed_tasks)


def test_the_pool_starts_with_the_first_map_and_outlives_services(bsfs):
    write_text_file(bsfs, INPUT, num_lines=200, seed=3)
    workers.shutdown()
    first = JobService.local(bsfs)
    assert multiprocessing.active_children() == []
    first.submit(make_job("grep", "/out-first")).wait()
    started = {child.pid for child in multiprocessing.active_children()}
    assert 0 < len(started) <= workers.size
    second = JobService.local(bsfs).submit(make_job("grep", "/out-second")).wait()
    assert second.summary()["map_attempts_in_workers"] == second.map_tasks
    # Reused: the first job's workers still serve (more may have started).
    assert started <= {child.pid for child in multiprocessing.active_children()}


@pytest.mark.parametrize("side", ["mapper", "reducer"])
def test_a_dead_worker_costs_a_retry_and_a_new_pool(bsfs, tmp_path, side):
    write_text_file(bsfs, INPUT, num_lines=400, seed=5)
    service = JobService.local(bsfs)
    crashing = _crash_once_mapper if side == "mapper" else _crash_once_reducer
    job = replace(make_job("wordcount", "/out-before"), **{side: crashing})
    # With the marker already there, nothing crashes: the reference run.
    (tmp_path / "crashed-before").touch()
    reference = service.submit(
        with_property(job, "crash_marker", str(tmp_path / "crashed-before"))
    ).wait()
    assert reference.summary()["map_attempts_in_workers"] == reference.map_tasks
    assert reference.summary()["reduce_attempts_in_workers"] == reference.reduce_tasks
    workers_before = {child.pid for child in multiprocessing.active_children()}
    assert workers_before

    job = replace(job, conf=replace(job.conf, output_dir="/out-crash"))
    result = service.submit(with_property(job, "crash_marker", str(tmp_path / "crashed"))).wait()
    assert (tmp_path / "crashed").exists()
    assert result.succeeded
    assert result.retries >= 1
    # Only the winning attempts count, but a retried reduce fetches again.
    counters = result.counters.as_dict()
    expected = reference.counters.as_dict()
    assert counters.pop("shuffle_segments_fetched") >= expected.pop("shuffle_segments_fetched")
    assert counters == expected
    assert read_output(bsfs, result) == read_output(bsfs, reference)
    # The broken pool's workers were reaped; the retries ran on new ones.
    workers_after = {child.pid for child in multiprocessing.active_children()}
    assert workers_after and workers_after.isdisjoint(workers_before)

    workers.shutdown()
    assert multiprocessing.active_children() == []


def test_a_mapper_from_main_runs_on_the_tracker_thread(bsfs, monkeypatch):
    # A worker cannot import an interactive ``__main__`` (here: pytest's),
    # so even a mapper that pickles by name must not be shipped from it.
    mapper = types.FunctionType(_pid_mapper.__code__, globals(), "_main_mapper")
    mapper.__module__, mapper.__qualname__ = "__main__", "_main_mapper"
    monkeypatch.setattr(sys.modules["__main__"], "_main_mapper", mapper, raising=False)
    write_text_file(bsfs, INPUT, num_lines=200, seed=3)
    job = replace(
        make_job("wordcount", "/out-main"),
        mapper=mapper,
        combiner=None,
        reducer=identity_reducer,
    )
    result = JobService.local(bsfs).submit(job).wait()
    assert result.succeeded
    assert result.summary()["map_attempts_in_workers"] == 0
    assert emitted_pids(bsfs, result) == {os.getpid()}


def test_a_partition_of_many_runs_reduces_whole_in_either_placement(any_fs):
    write_text_file(any_fs, INPUT, num_lines=400, seed=11)
    service = JobService.local(any_fs)
    job = make_job("sort", "/out-many-workers")
    # More maps, so more sorted runs per partition, than Hadoop's default
    # io.sort.factor (32) merges in one pass.
    job = replace(job, conf=replace(job.conf, split_size=KB))
    shipped = service.submit(job).wait()
    local = service.submit(
        in_thread(replace(job, conf=replace(job.conf, output_dir="/out-many-thread")))
    ).wait()
    assert shipped.succeeded and local.succeeded
    assert shipped.map_tasks > 32
    assert shipped.summary()["reduce_attempts_in_workers"] == shipped.reduce_tasks
    assert local.summary()["reduce_attempts_in_workers"] == 0
    # A reducer fetches at most one segment per map, so the other one
    # fetched at least the rest: both merge more than 32 runs.
    assert shipped.shuffle["segments_fetched"] - shipped.map_tasks > 32
    for key in SHUFFLE_KEYS:
        assert shipped.shuffle[key] == local.shuffle[key], key
    assert read_output(any_fs, shipped) == read_output(any_fs, local)
    assert shipped.counters.as_dict() == local.counters.as_dict()


def test_shipped_reducers_share_one_output_file_in_contiguous_runs(bsfs):
    write_text_file(bsfs, INPUT, num_lines=400, seed=11)
    service = JobService.local(bsfs)
    job = make_wordcount_job([INPUT], output_dir="/out-parts", num_reduce_tasks=3, split_size=4 * KB)
    parts = service.submit(job).wait()
    shared = service.submit(
        replace(job, conf=replace(job.conf, output_dir="/out-shared", single_output_file=True))
    ).wait()
    assert parts.succeeded and shared.succeeded
    assert shared.summary()["reduce_attempts_in_workers"] == shared.reduce_tasks == 3
    assert shared.output_paths == ["/out-shared/output.txt"]
    lines = bsfs.read_file(shared.output_paths[0]).splitlines(keepends=True)
    # Each reducer's output is one run of lines, in its own sorted order.
    partitions = [hash_partitioner(line.split(b"\t")[0].decode(), 3) for line in lines]
    runs = [p for i, p in enumerate(partitions) if i == 0 or partitions[i - 1] != p]
    assert sorted(runs) == [0, 1, 2]
    by_partition = {
        int(path[-5:]): bsfs.read_file(path) for path in parts.output_paths
    }
    start = 0
    for partition in runs:
        block = by_partition[partition]
        assert b"".join(lines[start : start + block.count(b"\n")]) == block
        start += block.count(b"\n")
    assert start == len(lines)


def _run_job_in_child(root, report):
    """Run one shipped job on LocalFS in this (spawned) process; report
    whether it succeeded and the pids of this process's workers."""
    fs = LocalFS(root=root)
    write_text_file(fs, INPUT, num_lines=200, seed=3)
    result = JobService.local(fs).submit(make_job("wordcount", "/out-child")).wait()
    summary = result.summary()
    report.put(
        (
            result.succeeded,
            summary["map_attempts_in_workers"] + summary["reduce_attempts_in_workers"],
            [child.pid for child in multiprocessing.active_children()],
        )
    )


def _pid_exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_a_job_in_a_spawn_child_lets_the_child_exit(tmp_path):
    context = multiprocessing.get_context("spawn")
    report = context.Queue()
    child = context.Process(target=_run_job_in_child, args=(str(tmp_path / "fs"), report))
    child.start()
    worker_pids = []
    try:
        succeeded, in_workers, worker_pids = report.get(timeout=60)
        child.join(timeout=30)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            for pid in [child.pid, *worker_pids]:
                os.kill(pid, 9)
            child.join()
        report.close()
        report.join_thread()
    assert succeeded
    assert in_workers > 0 and worker_pids
    deadline = time.monotonic() + 5
    while any(map(_pid_exists, worker_pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_pid_exists, worker_pids))
