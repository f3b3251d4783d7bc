"""Chaos testing: random faults at a 10% rate still yield correct output.

Each run pairs a fault-free reference execution with a chaos execution
under a seeded :meth:`FaultPlan.random` — 10% of first attempts crash and
10% straggle — over the paper's evaluation workloads (wordcount,
distributed grep, sort) on every registered backend.  Because random
faults only ever hit attempt 0, the bounded retry budget must always
converge to output identical to the fault-free run.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import KB
from repro.mapreduce import FaultPlan, JobService
from repro.mapreduce.applications import (
    make_distributed_grep_job,
    make_sort_job,
    make_wordcount_job,
)
from repro.workloads import write_text_file

CHAOS_RATE = 0.1
INPUT = "/in/chaos.txt"


def make_job(app, output_dir, *, spill):
    if app == "wordcount":
        job = make_wordcount_job(
            [INPUT], output_dir=output_dir, num_reduce_tasks=3, split_size=4 * KB
        )
    elif app == "grep":
        job = make_distributed_grep_job(
            r"[a-z]*ing",
            [INPUT],
            output_dir=output_dir,
            num_reduce_tasks=3,
            split_size=4 * KB,
        )
    else:
        job = make_sort_job(
            [INPUT],
            output_dir=output_dir,
            num_reduce_tasks=3,
            split_size=4 * KB,
        )
    return replace(job, conf=replace(job.conf, spill_to_fs=spill))


def read_output(fs, result):
    return {path.rsplit("/", 1)[-1]: fs.read_file(path) for path in result.output_paths}


@pytest.mark.parametrize("spill", [False, True])
@pytest.mark.parametrize("app", ["wordcount", "grep", "sort"])
def test_chaos_run_matches_fault_free_output(any_fs, app, spill):
    write_text_file(any_fs, INPUT, num_lines=700, seed=77)
    service = JobService.local(any_fs)
    reference = service.submit(make_job(app, "/chaos-ref", spill=spill)).wait()
    assert reference.succeeded
    plan = FaultPlan.random(seed=101, failure_rate=CHAOS_RATE, delay_rate=CHAOS_RATE, delay=0.02)
    result = service.submit(make_job(app, "/chaos-out", spill=spill), fault_plan=plan).wait()
    assert result.succeeded, result.summary()
    assert read_output(any_fs, result) == read_output(any_fs, reference)
    # The plan interfered for real: this seed injects faults into the run.
    assert plan.injected_failures + plan.injected_delays > 0
    assert result.retries >= plan.injected_failures


def test_chaos_schedule_is_deterministic_across_runs(bsfs):
    write_text_file(bsfs, INPUT, num_lines=500, seed=77)
    outcomes = []
    for attempt in range(2):
        plan = FaultPlan.random(seed=55, failure_rate=CHAOS_RATE)
        result = JobService.local(bsfs).submit(
            make_job("wordcount", f"/chaos-det-{attempt}", spill=False),
            fault_plan=plan,
        ).wait()
        assert result.succeeded
        failed = sorted((r.task_id, r.attempt) for r in result.failed_tasks)
        outcomes.append((failed, plan.injected_failures))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] > 0
