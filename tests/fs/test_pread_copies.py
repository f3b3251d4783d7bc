"""Positional reads on BSFS and HDFS copy each byte at most once.

A BSFS ``pread`` served by the block cache hands out the cached block
itself, one slice of it, or one join over views of several blocks; an
HDFS ``pread`` returns a lone datanode chunk as it came and joins several
chunks once.  Checked by identity, by traced allocation, and against a
plain slice of the file's bytes.
"""

from __future__ import annotations

import itertools
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import KB

BLOCK = 16 * KB  # the block size of the ``bsfs`` and ``hdfs`` fixtures
#: Five whole blocks and a short last one.
DATA = bytes(range(256)) * (5 * BLOCK // 256) + b"tail"
#: Object headers, views and lists a read may allocate besides its bytes.
SLACK = 4 * KB

#: ``(offset, size)`` reads: inside a block, whole blocks, across blocks,
#: the short last block, and past the end of the file.
READS = [
    (100, 5 * KB),
    (BLOCK, BLOCK),
    (BLOCK - 3 * KB, 6 * KB),
    (BLOCK, 3 * BLOCK),
    (3 * KB, 4 * BLOCK),
    (0, len(DATA)),
    (4 * BLOCK + 100, 2 * BLOCK),
]


def traced_peak(call):
    """``call()``'s result and the peak bytes it allocated while running."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base


def datanode_copies(hdfs, path: str, offset: int, size: int) -> int:
    """Bytes an in-process datanode slices out for a ``pread``: a block the
    read covers only in part is copied, a whole block is handed over as
    stored.  Over TCP these are the bytes received off the wire."""
    copied, block_start, end = 0, 0, offset + size
    for meta in hdfs.namenode.file_blocks(path):
        covered = min(end, block_start + meta.length) - max(offset, block_start)
        if 0 < covered < meta.length:
            copied += covered
        block_start += meta.length
    return copied


class TestBSFSPread:
    def test_a_whole_cached_block_is_the_cached_object(self, bsfs):
        bsfs.write_file("/whole.bin", DATA)
        blob_id = bsfs.namespace.record("/whole.bin").blob_id
        with bsfs.open("/whole.bin") as stream:
            first = stream.pread(BLOCK, BLOCK)
            again = stream.pread(BLOCK, BLOCK)
            cached = bsfs.block_store.get((blob_id, stream.version, 1))
        assert first == DATA[BLOCK : 2 * BLOCK]
        assert first is cached and again is cached

    @pytest.mark.parametrize("offset,size", READS)
    def test_a_cached_read_allocates_at_most_its_size(self, bsfs, offset, size):
        bsfs.write_file("/traced.bin", DATA)
        with bsfs.open("/traced.bin") as stream:
            stream.read()  # every block is cached from here on
            data, peak = traced_peak(lambda: stream.pread(offset, size))
        assert data == DATA[offset : offset + size]
        assert peak <= len(data) + SLACK, f"{peak} bytes for a {len(data)}-byte read"


class TestHDFSPread:
    @pytest.mark.parametrize("offset,size", READS)
    def test_a_read_allocates_at_most_its_size(self, hdfs, offset, size):
        hdfs.write_file("/traced.bin", DATA)
        with hdfs.open("/traced.bin") as stream:
            data, peak = traced_peak(lambda: stream.pread(offset, size))
        assert data == DATA[offset : offset + size]
        fetched = datanode_copies(hdfs, "/traced.bin", offset, size)
        assert peak <= fetched + len(data) + SLACK, (
            f"{peak} bytes for a {len(data)}-byte read of {fetched} fetched bytes"
        )

    def test_a_read_of_one_whole_block_is_the_stored_block(self, hdfs):
        hdfs.write_file("/whole.bin", DATA, replication=1)
        meta = hdfs.namenode.file_blocks("/whole.bin")[2]
        stored = hdfs.namenode.datanode(meta.locations[0]).read_block(meta.block_id)
        with hdfs.open("/whole.bin") as stream:
            assert stream.pread(2 * BLOCK, BLOCK) is stored


#: Reads drawn across block boundaries, past the end and of size 0.
read_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(DATA) + BLOCK),
        st.integers(min_value=0, max_value=3 * BLOCK),
    ),
    min_size=1,
    max_size=8,
)
differential = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestPreadMatchesASlice:
    paths = itertools.count()

    @differential
    @given(reads=read_lists, pinned=st.booleans())
    def test_bsfs(self, bsfs, reads, pinned):
        path = f"/diff-{next(self.paths)}.bin"
        bsfs.write_file(path, DATA)
        version = bsfs.snapshot(path)
        bsfs.concurrent_append(path, b"appended after the snapshot")
        expected = DATA if pinned else DATA + b"appended after the snapshot"
        with bsfs.open(path, version=version if pinned else None) as stream:
            for offset, size in reads:
                assert stream.pread(offset, size) == expected[offset : offset + size]

    @differential
    @given(reads=read_lists, token=st.integers(min_value=0, max_value=len(DATA)))
    def test_hdfs(self, hdfs, reads, token):
        if not hdfs.exists("/diff.bin"):
            hdfs.write_file("/diff.bin", DATA)
        with hdfs.open("/diff.bin", version=token) as stream:
            for offset, size in reads:
                assert stream.pread(offset, size) == DATA[:token][offset : offset + size]
