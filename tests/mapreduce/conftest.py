"""Shared fixtures for the MapReduce tests."""

from __future__ import annotations

import pytest

#: Split size of the "many-runs" recovery runs: small enough that their jobs
#: have more than :data:`MANY_RUNS` maps, and so sorted runs per partition.
MANY_RUNS_SPLIT = 1024

#: Sorted runs a "many-runs" reducer merges at least: as many as Hadoop's
#: default ``io.sort.factor`` takes in one merge pass.
MANY_RUNS = 32


@pytest.fixture(params=["few-runs", "many-runs"])
def run_layout(request) -> dict:
    """Conf overrides for the faulty run of a recovery test.

    "few-runs" keeps the test's own splits.  "many-runs" cuts the input
    into more than :data:`MANY_RUNS` maps, so every reducer reads and merges
    that many segments in one pass while failed attempts are retried.
    """
    if request.param == "few-runs":
        return {}
    return {"split_size": MANY_RUNS_SPLIT}


def assert_run_layout(result, reference, overrides: dict) -> None:
    """Check ``result`` spilled one file per map with output, as the
    fault-free ``reference`` did at the same splits; with many runs, check
    there were more than :data:`MANY_RUNS` of them."""
    shuffle = result.shuffle
    assert shuffle["segments_spilled"] <= result.map_tasks
    if not overrides:
        assert shuffle["segments_spilled"] == reference.shuffle["segments_spilled"]
    else:
        assert shuffle["segments_spilled"] > MANY_RUNS
