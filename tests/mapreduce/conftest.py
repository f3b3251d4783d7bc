"""Shared fixtures for the MapReduce tests."""

from __future__ import annotations

import pytest

from repro.mapreduce import JobConf

DEFAULT_SEGMENT_SIZE = JobConf.shuffle_segment_size


@pytest.fixture(params=[DEFAULT_SEGMENT_SIZE, 32], ids=["one-segment", "many-segments"])
def segment_size(request) -> int:
    """Shuffle segment size of the faulty run in recovery tests.

    The default size spills each non-empty map partition as one segment;
    32 B cuts it into many, so reducers merge many sorted runs while
    failed attempts are retried.
    """
    return request.param


def assert_segment_layout(result, reference, segment_size: int) -> None:
    """Check ``result`` spilled as many segments as the fault-free
    ``reference`` run at the default size, or more at a smaller size."""
    spilled = result.shuffle["segments_spilled"]
    baseline = reference.shuffle["segments_spilled"]
    if segment_size == DEFAULT_SEGMENT_SIZE:
        assert spilled == baseline
    else:
        assert spilled > baseline
