"""Unit tests for partitioning, grouping and output formats."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.errors import UnsupportedOperationError
from repro.mapreduce.shuffle import (
    MapOutputCollector,
    SingleFileOutputFormat,
    TextOutputFormat,
    group_by_key,
    hash_partitioner,
)


class TestHashPartitioner:
    def test_deterministic_and_in_range(self):
        for key in ["a", "b", 42, ("x", 1), "word"]:
            partition = hash_partitioner(key, 7)
            assert 0 <= partition < 7
            assert hash_partitioner(key, 7) == partition

    def test_single_partition(self):
        assert hash_partitioner("anything", 1) == 0
        assert hash_partitioner("anything", 0) == 0

    @settings(max_examples=50, deadline=None)
    @given(keys=st.lists(st.text(), min_size=20, max_size=100), partitions=st.integers(2, 8))
    def test_property_reasonable_spread(self, keys, partitions):
        assignments = {hash_partitioner(k, partitions) for k in set(keys)}
        assert assignments <= set(range(partitions))


class TestMapOutputCollector:
    def test_collect_partitions_by_key(self):
        collector = MapOutputCollector(3)
        for i in range(30):
            collector.collect(f"key-{i}", i)
        partitions = collector.partitions()
        assert sum(len(p) for p in partitions) == 30
        assert collector.records_collected == 30
        for partition_index, pairs in enumerate(partitions):
            for key, _value in pairs:
                assert hash_partitioner(key, 3) == partition_index

    def test_partitions_sorted_by_key(self):
        collector = MapOutputCollector(1)
        for key in ["zebra", "apple", "mango"]:
            collector.collect(key, 1)
        keys = [k for k, _ in collector.partitions()[0]]
        assert keys == sorted(keys)

    def test_combiner_reduces_volume(self):
        def combiner(key, values, context):
            context.emit(key, sum(values))

        collector = MapOutputCollector(2, combiner=combiner)
        for _ in range(10):
            collector.collect("hot", 1)
        collector.collect("cold", 1)
        partitions = collector.partitions()
        flattened = [pair for partition in partitions for pair in partition]
        assert sorted(flattened) == [("cold", 1), ("hot", 10)]

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            MapOutputCollector(0)


class TestMergeAndGroup:
    def test_group_by_key_preserves_value_order(self):
        pairs = [("k", 1), ("j", 9), ("k", 2), ("k", 3)]
        grouped = dict(group_by_key(pairs))
        assert grouped == {"k": [1, 2, 3], "j": [9]}
        assert [k for k, _ in group_by_key(pairs)] == ["j", "k"]


class TestTextOutputFormat:
    def test_writes_part_file(self, bsfs):
        fmt = TextOutputFormat()
        path = fmt.write_batches(bsfs, "/out", 3, fmt.encode([("a", 1), ("b", 2)]))
        assert path == "/out/part-r-00003"
        assert bsfs.read_file(path) == b"a\t1\nb\t2\n"

    def test_map_only_prefix(self, bsfs):
        fmt = TextOutputFormat()
        path = fmt.write_batches(bsfs, "/out", 0, fmt.encode([("k", "v")]), map_only=True)
        assert path == "/out/part-m-00000"

    def test_bytes_keys_and_custom_separator(self, bsfs):
        fmt = TextOutputFormat(separator=b",")
        path = fmt.write_batches(bsfs, "/out", 0, fmt.encode([(b"raw", 7)]))
        assert bsfs.read_file(path) == b"raw,7\n"


def encode_part_by_part(pairs, separator: bytes, batch_bytes: int) -> list[bytes]:
    """Output batches built by encoding every key and value on its own:
    what :meth:`TextOutputFormat.encode` must stay byte-identical to."""

    def encode(value) -> bytes:
        return value if isinstance(value, bytes) else str(value).encode("utf-8")

    batches, lines, size = [], [], 0
    for key, value in pairs:
        lines.append(encode(key) + separator + encode(value) + b"\n")
        size += len(lines[-1])
        if size >= batch_bytes:
            batches.append(b"".join(lines))
            lines, size = [], 0
    if lines:
        batches.append(b"".join(lines))
    return batches


def text_format(separator: bytes, batch_bytes: int) -> TextOutputFormat:
    """A text output format whose batches end at ``batch_bytes``, so the
    batch cutting shows at sizes a test can afford."""
    fmt = TextOutputFormat(separator=separator)
    fmt._batch_bytes = batch_bytes
    return fmt


class Formatted(str):
    """A ``str`` that formats differently from its ``str()``."""

    def __format__(self, spec: str) -> str:
        return "formatted"


FIELDS = st.one_of(st.text(), st.binary(), st.integers(), st.floats(allow_nan=False))
SEPARATORS = [b"\t", b",", b"::", "\u00e9".encode(), b"\xff", b""]


class TestLineEncoding:
    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(FIELDS, FIELDS), max_size=40),
        separator=st.sampled_from(SEPARATORS),
        batch_bytes=st.integers(min_value=1, max_value=64),
    )
    def test_matches_encoding_part_by_part(self, pairs, separator, batch_bytes):
        fmt = text_format(separator, batch_bytes)
        assert list(fmt.encode(pairs)) == encode_part_by_part(pairs, separator, batch_bytes)

    @pytest.mark.parametrize("separator", SEPARATORS)
    @pytest.mark.parametrize(
        "pairs",
        [
            [("word", "7"), ("naïve", "日本語"), ("", "")],
            [(b"raw", b"\x00\xff"), ("text", b"bytes"), (b"bytes", "text")],
            [(1, 2), ("k", 3), (4.5, "v"), (("t", 1), None)],
            [(Formatted("key"), "v"), ("k", Formatted("value"))],
            [(f"key-{i:03d}", "é" * (i % 5)) for i in range(100)],
        ],
        ids=["str", "bytes", "int-and-mixed", "str-subclass", "many"],
    )
    @pytest.mark.parametrize("batch_bytes", [1, 10, 1 << 20])
    def test_batches_match_encoding_part_by_part(self, pairs, separator, batch_bytes):
        fmt = text_format(separator, batch_bytes)
        assert list(fmt.encode(pairs)) == encode_part_by_part(pairs, separator, batch_bytes)


class TestSingleFileOutputFormat:
    def test_all_tasks_append_to_one_file_on_bsfs(self, bsfs):
        fmt = SingleFileOutputFormat(filename="merged.txt")
        for task in range(4):
            fmt.write_batches(bsfs, "/merged-out", task, fmt.encode([(f"task{task}", task)]))
        content = bsfs.read_file("/merged-out/merged.txt").decode()
        for task in range(4):
            assert f"task{task}\t{task}" in content

    def test_rejected_on_hdfs(self, hdfs):
        fmt = SingleFileOutputFormat()
        with pytest.raises(UnsupportedOperationError):
            fmt.write_batches(hdfs, "/merged-out", 0, fmt.encode([("k", 1)]))
