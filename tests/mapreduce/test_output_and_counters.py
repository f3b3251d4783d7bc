"""Batched output formats and job counters against independent references."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from repro.core import KB
from repro.mapreduce import JobService
from repro.mapreduce.applications import (
    make_distributed_grep_job,
    make_sort_job,
    make_wordcount_job,
)
from repro.mapreduce.shuffle import (
    OUTPUT_BATCH_BYTES,
    SingleFileOutputFormat,
    TextOutputFormat,
)


def reference_line(key, value, separator=b"\t") -> bytes:
    def encode(item) -> bytes:
        return item if isinstance(item, bytes) else str(item).encode("utf-8")

    return encode(key) + separator + encode(value) + b"\n"


MIXED_PAIRS = [
    ("word", 3),
    (b"raw-key", b"raw\tvalue"),
    (7, 2.5),
    (("tuple", 1), None),
    ("unicode-é", "ü"),
    ("", ""),
]


class TestOutputFormatsMatchLineEncoder:
    def test_part_files(self, any_fs):
        fmt = TextOutputFormat()
        path = fmt.write_batches(any_fs, "/out", 3, fmt.encode(iter(MIXED_PAIRS * 50)))
        assert path == "/out/part-r-00003"
        expected = b"".join(reference_line(k, v) for k, v in MIXED_PAIRS * 50)
        assert any_fs.read_file(path) == expected

    def test_shared_file(self, bsfs):
        fmt = SingleFileOutputFormat()
        fmt.prepare(bsfs, "/shared")
        path = fmt.write_batches(bsfs, "/shared", 0, fmt.encode(iter(MIXED_PAIRS * 50)))
        expected = b"".join(reference_line(k, v) for k, v in MIXED_PAIRS * 50)
        assert bsfs.read_file(path) == expected


class _SpyStream:
    def __init__(self, writes: list[tuple[int, bytes]], consumed: list[int]) -> None:
        self._writes = writes
        self._consumed = consumed

    def write(self, data) -> int:
        self._writes.append((self._consumed[0], bytes(data)))
        return len(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        pass


class _SpyFS:
    """Records every write (and how many pairs were consumed before it)."""

    scheme = "spy"

    def __init__(self, consumed: list[int]) -> None:
        self.writes: list[tuple[int, bytes]] = []
        self._consumed = consumed

    def mkdirs(self, path: str) -> None:
        pass

    def open_write(self, path: str, **_kwargs) -> _SpyStream:
        return _SpyStream(self.writes, self._consumed)

    def exists(self, path: str) -> bool:
        return True

    def concurrent_append(self, path: str, data) -> int:
        self.writes.append((self._consumed[0], bytes(data)))
        return 0


class TestOutputBatches:
    TOTAL = 60_000  # ~3.7 MiB of lines: several batches

    def pairs(self, consumed: list[int]):
        for i in range(self.TOTAL):
            consumed[0] += 1
            yield f"key-{i:06d}", "v" * (i % 100)

    def test_lazy_bounded_writes_at_line_boundaries(self):
        fmt = TextOutputFormat()
        consumed = [0]
        fs = _SpyFS(consumed)
        fmt.write_batches(fs, "/out", 0, fmt.encode(self.pairs(consumed)))
        longest = max(
            len(reference_line(f"key-{i:06d}", "v" * (i % 100))) for i in range(100)
        )
        assert len(fs.writes) >= 3
        assert all(len(data) <= OUTPUT_BATCH_BYTES + longest for _c, data in fs.writes)
        assert all(data.endswith(b"\n") for _c, data in fs.writes)
        # The generator is consumed as the output is written, not up front.
        assert fs.writes[0][0] < self.TOTAL / 2
        expected = b"".join(
            reference_line(f"key-{i:06d}", "v" * (i % 100)) for i in range(self.TOTAL)
        )
        assert b"".join(data for _c, data in fs.writes) == expected

    def test_shared_output_goes_out_in_one_append(self):
        # Over 4 MiB of encode batches, one concurrent_append: a failed
        # attempt leaves nothing in the shared file for its retry to duplicate.
        fmt = SingleFileOutputFormat()
        consumed = [0]
        fs = _SpyFS(consumed)
        pairs = itertools.chain(self.pairs(consumed), self.pairs(consumed))
        fmt.write_batches(fs, "/out", 0, fmt.encode(pairs))
        assert len(fs.writes) == 1
        expected = 2 * b"".join(
            reference_line(f"key-{i:06d}", "v" * (i % 100)) for i in range(self.TOTAL)
        )
        assert len(expected) > 4 * 1024 * 1024
        assert fs.writes[0][1] == expected


# -- job counters ---------------------------------------------------------------------

GREP_PATTERN = r"\b[a-d]\w*"
SPLIT = 4 * KB


def owned_lines(data: bytes, split_size: int) -> list[list[bytes]]:
    """Each split's lines by Hadoop's rule, computed from line offsets.

    A line starting at offset ``p > 0`` belongs to the split covering byte
    ``p - 1`` (a split owns the line starting exactly at its end).
    """
    splits: list[list[bytes]] = [[] for _ in range(-(-len(data) // split_size))]
    offset = 0
    for line in data.split(b"\n")[:-1]:  # the file ends with a newline
        splits[max(offset - 1, 0) // split_size].append(line)
        offset += len(line) + 1
    return splits


def map_outputs(name: str, lines: list[bytes]) -> list[tuple]:
    if name == "grep":
        return [
            (m.group(0), 1)
            for line in lines
            for m in re.finditer(GREP_PATTERN, line.decode())
        ]
    if name == "wordcount":
        return [(word, 1) for line in lines for word in line.decode().split()]
    return [tuple(line.decode().split("\t", 1)) for line in lines]


def expected_counters(name: str, data: bytes) -> dict[str, int]:
    per_split = [map_outputs(name, lines) for lines in owned_lines(data, SPLIT)]
    emitted = sum(len(out) for out in per_split)
    if name == "sort":  # no combiner: every emitted pair is shuffled
        shuffled = emitted
        output = emitted
    else:  # the combiner folds each split's pairs to one per key
        shuffled = sum(len({key for key, _v in out}) for out in per_split)
        output = len({key for out in per_split for key, _v in out})
    return {
        "map_input_records": data.count(b"\n"),
        "map_output_records": emitted,
        "reduce_shuffle_records": shuffled,
        "reduce_input_records": shuffled,
        "reduce_output_records": output,
    }


def make_job(name: str, path: str, output_dir: str):
    if name == "grep":
        return make_distributed_grep_job(
            GREP_PATTERN, [path], output_dir=output_dir, split_size=SPLIT,
            num_reduce_tasks=2,
        )
    if name == "wordcount":
        return make_wordcount_job(
            [path], output_dir=output_dir, split_size=SPLIT, num_reduce_tasks=2
        )
    return make_sort_job([path], output_dir=output_dir, split_size=SPLIT, num_reduce_tasks=2)


class TestJobCounters:
    @pytest.fixture
    def text(self) -> bytes:
        rng = random.Random(5)
        words = ["alpha", "bravo", "charlie", "delta", "echo", "fox", "golf", "", "b"]
        lines = []
        for i in range(900):
            line = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 9)))
            if i % 3 == 0:
                line = f"key{rng.randrange(50):02d}\t{line}"
            lines.append(line.encode())
        return b"\n".join(lines) + b"\n"

    @pytest.mark.parametrize("name", ["grep", "sort", "wordcount"])
    def test_every_counter_matches_an_independent_count(self, bsfs, text, name):
        bsfs.write_file("/in/text.txt", text)
        job = make_job(name, "/in/text.txt", f"/out-{name}")
        result = JobService.local(bsfs, num_trackers=2).submit(job).wait()
        assert result.succeeded
        assert result.map_tasks == -(-len(text) // SPLIT) > 3
        expected = expected_counters(name, text)
        assert {key: result.counter(key) for key in expected} == expected
        lines = b"".join(bsfs.read_file(p) for p in result.output_paths).splitlines()
        assert len(lines) == expected["reduce_output_records"]
