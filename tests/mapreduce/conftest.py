"""Shared fixtures for the MapReduce tests."""

from __future__ import annotations

import pytest

import repro.mapreduce.tasktracker as tasktracker
from repro.mapreduce.shuffle_service import DEFAULT_MERGE_FACTOR

#: Split size of the "many-runs" recovery runs: small enough that their jobs
#: have more maps, and so more sorted runs per partition, than one merge
#: pass takes.
MANY_RUNS_SPLIT = 1024


@pytest.fixture(params=["few-runs", "many-runs"])
def run_layout(request, monkeypatch) -> dict:
    """Conf overrides for the faulty run of a recovery test.

    "few-runs" keeps the test's own splits.  "many-runs" cuts the input
    into more maps than :data:`DEFAULT_MERGE_FACTOR` and makes every reduce
    merge streaming readers, so reducers cascade many sorted runs through
    intermediate on-storage merges while failed attempts are retried.
    """
    if request.param == "few-runs":
        return {}
    monkeypatch.setattr(tasktracker, "WORKER_REDUCE_MAX_BYTES", 0)
    return {"split_size": MANY_RUNS_SPLIT}


def assert_run_layout(result, reference, overrides: dict) -> None:
    """Check ``result`` spilled one file per map with output, as the
    fault-free ``reference`` did at the same splits; with many runs, check
    its reducers cascaded them."""
    shuffle = result.shuffle
    assert shuffle["segments_spilled"] <= result.map_tasks
    if not overrides:
        assert shuffle["segments_spilled"] == reference.shuffle["segments_spilled"]
    else:
        assert shuffle["segments_spilled"] > DEFAULT_MERGE_FACTOR
        assert shuffle["merge_passes"] > 0
