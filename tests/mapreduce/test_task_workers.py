"""Map compute in worker processes: same results as in-thread, and recovery.

A job whose map side pickles computes its maps in the shared worker pool
(:data:`repro.mapreduce.task_workers.map_workers`); any other job computes
them on the tracker thread.  The two placements must be indistinguishable
in output, counters and shuffle statistics, and a worker that dies must
cost only a retry.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import types
from dataclasses import replace

import pytest

from repro.core import KB
from repro.mapreduce import JobService, identity_reducer
from repro.mapreduce.applications import (
    make_distributed_grep_job,
    make_sort_job,
    make_wordcount_job,
)
from repro.mapreduce.task_workers import map_workers
from repro.workloads import write_text_file

INPUT = "/in/workers.txt"
#: Shuffle statistics that do not depend on timing.
SHUFFLE_KEYS = (
    "segments_spilled",
    "bytes_spilled",
    "records_spilled",
    "segments_fetched",
    "merge_passes",
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
    return make_sort_job([INPUT], output_dir=output_dir, num_reduce_tasks=2, split_size=4 * KB)


def in_thread(job):
    """``job`` with a closure mapper: it cannot be pickled, so it stays in-thread."""
    mapper = job.mapper
    return replace(job, mapper=lambda key, value, context: mapper(key, value, context))


def with_property(job, name, value):
    properties = {**job.conf.properties, name: value}
    return replace(job, conf=replace(job.conf, properties=properties))


def read_output(fs, result):
    return {path.rsplit("/", 1)[-1]: fs.read_file(path) for path in result.output_paths}


def emitted_pids(fs, result):
    """The process ids ``_pid_mapper`` saw (the job keeps every value)."""
    return {
        int(line.split(b"\t")[1])
        for output in read_output(fs, result).values()
        for line in output.splitlines()
    }


def _pid_mapper(key, value, context):
    context.emit("pid", os.getpid())


def _raising_mapper(key, value, context):
    raise ValueError("the mapper gave up in its worker")


def _crash_once_mapper(key, value, context):
    """Kill the worker process on the first call of the whole job only."""
    try:
        fd = os.open(context.job_conf.get("crash_marker"), os.O_CREAT | os.O_EXCL)
    except FileExistsError:
        context.emit(value, 1)
        return
    os.close(fd)
    os._exit(1)


@pytest.mark.parametrize("app", ["wordcount", "grep", "sort"])
def test_workers_and_tracker_threads_produce_the_same_job(any_fs, app):
    write_text_file(any_fs, INPUT, num_lines=400, seed=11)
    service = JobService.local(any_fs)
    shipped = service.submit(make_job(app, "/out-workers")).wait()
    local = service.submit(in_thread(make_job(app, "/out-thread"))).wait()
    assert shipped.succeeded and local.succeeded
    assert shipped.map_tasks > 1
    assert shipped.summary()["map_attempts_in_workers"] == shipped.map_tasks
    assert local.summary()["map_attempts_in_workers"] == 0
    assert read_output(any_fs, shipped) == read_output(any_fs, local)
    assert shipped.counters.as_dict() == local.counters.as_dict()
    for key in SHUFFLE_KEYS:
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


def test_a_worker_error_reaches_the_failed_tasks(bsfs):
    write_text_file(bsfs, INPUT, num_lines=200, seed=3)
    job = replace(make_job("wordcount", "/out-raise"), mapper=_raising_mapper)
    job = replace(job, conf=replace(job.conf, max_task_attempts=2))
    result = JobService.local(bsfs).submit(job).wait()
    assert not result.succeeded
    assert result.failed_tasks
    assert all(
        "ValueError: the mapper gave up in its worker" in r.error
        for r in result.failed_tasks
    )


def test_the_pool_starts_with_the_first_map_and_outlives_services(bsfs):
    write_text_file(bsfs, INPUT, num_lines=200, seed=3)
    map_workers.shutdown()
    first = JobService.local(bsfs)
    assert multiprocessing.active_children() == []
    first.submit(make_job("grep", "/out-first")).wait()
    workers = {child.pid for child in multiprocessing.active_children()}
    assert 0 < len(workers) <= map_workers.size
    second = JobService.local(bsfs).submit(make_job("grep", "/out-second")).wait()
    assert second.summary()["map_attempts_in_workers"] == second.map_tasks
    # Reused: the first job's workers still serve (more may have started).
    assert workers <= {child.pid for child in multiprocessing.active_children()}


def test_a_dead_worker_costs_a_retry_and_a_new_pool(bsfs, tmp_path):
    write_text_file(bsfs, INPUT, num_lines=400, seed=5)
    service = JobService.local(bsfs)
    reference = service.submit(make_job("wordcount", "/out-before")).wait()
    assert reference.summary()["map_attempts_in_workers"] == reference.map_tasks
    workers_before = {child.pid for child in multiprocessing.active_children()}
    assert workers_before

    job = replace(make_job("wordcount", "/out-crash"), mapper=_crash_once_mapper)
    job = with_property(job, "crash_marker", str(tmp_path / "crashed"))
    result = service.submit(job).wait()
    assert (tmp_path / "crashed").exists()
    assert result.succeeded
    assert result.retries >= 1
    assert result.counter("map_input_records") == reference.counter("map_input_records")
    # The broken pool's workers were reaped; the retries ran on new ones.
    workers_after = {child.pid for child in multiprocessing.active_children()}
    assert workers_after and workers_after.isdisjoint(workers_before)

    map_workers.shutdown()
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
