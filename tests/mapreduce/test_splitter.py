"""Unit and property tests for input splitting and the line record reader."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import KB
from repro.mapreduce.job import JobConf
from repro.mapreduce.splitter import (
    InputSplit,
    LineRecordReader,
    SyntheticInputFormat,
    TextInputFormat,
)


def write_lines(fs, path: str, lines: list[bytes], newline_at_end: bool = True) -> None:
    body = b"\n".join(lines) + (b"\n" if newline_at_end else b"")
    fs.write_file(path, body)


class TestTextInputFormatSplits:
    def test_one_split_per_block_by_default(self, bsfs):
        bsfs.write_file("/in.txt", b"x" * (40 * KB))  # block size 16 KiB
        conf = JobConf(name="j", input_paths=("/in.txt",), output_dir="/out")
        splits = TextInputFormat().get_splits(bsfs, conf)
        assert [s.length for s in splits] == [16 * KB, 16 * KB, 8 * KB]
        assert [s.offset for s in splits] == [0, 16 * KB, 32 * KB]
        assert all(s.path == "/in.txt" for s in splits)

    def test_explicit_split_size(self, bsfs):
        bsfs.write_file("/in.txt", b"x" * (10 * KB))
        conf = JobConf(
            name="j", input_paths=("/in.txt",), output_dir="/out", split_size=3 * KB
        )
        splits = TextInputFormat().get_splits(bsfs, conf)
        assert len(splits) == 4
        assert sum(s.length for s in splits) == 10 * KB

    def test_directory_input_expands_to_files(self, bsfs):
        bsfs.write_file("/dir/a.txt", b"a" * 100)
        bsfs.write_file("/dir/nested/b.txt", b"b" * 100)
        conf = JobConf(name="j", input_paths=("/dir",), output_dir="/out")
        splits = TextInputFormat().get_splits(bsfs, conf)
        assert {s.path for s in splits} == {"/dir/a.txt", "/dir/nested/b.txt"}

    def test_empty_files_produce_no_splits(self, bsfs):
        bsfs.write_file("/empty.txt", b"")
        conf = JobConf(name="j", input_paths=("/empty.txt",), output_dir="/out")
        assert TextInputFormat().get_splits(bsfs, conf) == []

    def test_splits_carry_block_hosts(self, bsfs):
        bsfs.write_file("/in.txt", b"x" * (32 * KB))
        conf = JobConf(name="j", input_paths=("/in.txt",), output_dir="/out")
        splits = TextInputFormat().get_splits(bsfs, conf)
        assert all(split.hosts for split in splits)

    def test_split_ids_unique_across_files(self, bsfs):
        bsfs.write_file("/a.txt", b"a" * (20 * KB))
        bsfs.write_file("/b.txt", b"b" * (20 * KB))
        conf = JobConf(name="j", input_paths=("/a.txt", "/b.txt"), output_dir="/out")
        splits = TextInputFormat().get_splits(bsfs, conf)
        ids = [s.split_id for s in splits]
        assert len(set(ids)) == len(ids)


class TestLineRecordReader:
    def test_every_line_read_exactly_once_across_splits(self, any_fs):
        lines = [f"line-{i:05d}".encode() for i in range(500)]
        write_lines(any_fs, "/lines.txt", lines)
        conf = JobConf(
            name="j", input_paths=("/lines.txt",), output_dir="/out", split_size=777
        )
        fmt = TextInputFormat()
        collected: list[bytes] = []
        for split in fmt.get_splits(any_fs, conf):
            for _offset, line in fmt.create_reader(any_fs, split):
                collected.append(line)
        assert collected == lines

    def test_offsets_match_byte_positions(self, bsfs):
        lines = [b"alpha", b"beta", b"gamma"]
        write_lines(bsfs, "/off.txt", lines)
        split = InputSplit(0, "/off.txt", 0, bsfs.size("/off.txt"))
        records = list(LineRecordReader(bsfs, split))
        assert records == [(0, b"alpha"), (6, b"beta"), (11, b"gamma")]

    def test_file_without_trailing_newline(self, bsfs):
        write_lines(bsfs, "/nonl.txt", [b"one", b"two"], newline_at_end=False)
        split = InputSplit(0, "/nonl.txt", 0, bsfs.size("/nonl.txt"))
        assert [line for _o, line in LineRecordReader(bsfs, split)] == [b"one", b"two"]

    def test_small_read_chunks_do_not_change_results(self, bsfs):
        lines = [f"record {i} with some text".encode() for i in range(50)]
        write_lines(bsfs, "/chunky.txt", lines)
        size = bsfs.size("/chunky.txt")
        split_a = InputSplit(0, "/chunky.txt", 0, size // 2)
        split_b = InputSplit(1, "/chunky.txt", size // 2, size - size // 2)
        collected = []
        for split in (split_a, split_b):
            reader = LineRecordReader(bsfs, split, read_chunk=7)
            collected.extend(line for _o, line in reader)
        assert collected == lines

    def test_synthetic_split_rejected(self, bsfs):
        with pytest.raises(ValueError):
            LineRecordReader(bsfs, InputSplit(0, None, 0, 0))

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        lines=st.lists(
            st.binary(min_size=0, max_size=30).filter(lambda b: b"\n" not in b),
            min_size=1,
            max_size=60,
        ),
        split_size=st.integers(min_value=1, max_value=400),
        trailing=st.booleans(),
    )
    def test_property_split_reassembly_is_lossless(self, lines, split_size, trailing, bsfs):
        path = f"/prop-{abs(hash((tuple(lines), split_size, trailing))) % 10**9}.txt"
        if bsfs.exists(path):
            bsfs.delete(path)
        write_lines(bsfs, path, lines, newline_at_end=trailing)
        fmt = TextInputFormat(split_size=split_size)
        conf = JobConf(name="p", input_paths=(path,), output_dir="/out", split_size=split_size)
        collected: list[bytes] = []
        for split in fmt.get_splits(bsfs, conf):
            collected.extend(line for _o, line in fmt.create_reader(bsfs, split))
        expected = list(lines)
        if not trailing and expected and expected[-1] == b"":
            # A trailing empty line without a final newline does not exist as a record.
            expected = expected[:-1]
        assert collected == expected


def reference_records(data: bytes) -> list[tuple[int, bytes]]:
    """Every ``(offset, line)`` of ``data``, computed without the reader."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # a final newline ends the last line; it starts none
    records, offset = [], 0
    for line in lines:
        records.append((offset, line))
        offset += len(line) + 1
    return records


class TestLineRecordReaderMatchesReference:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        # Empty lines, lines longer than the read chunk, and files with or
        # without a final newline.
        lines=st.lists(
            st.binary(min_size=0, max_size=40).filter(lambda b: b"\n" not in b),
            min_size=0,
            max_size=40,
        ),
        trailing=st.booleans(),
        read_chunk=st.integers(min_value=1, max_value=16),
        data=st.data(),
    )
    def test_splits_together_yield_every_line_once(
        self, lines, trailing, read_chunk, data, local_fs
    ):
        body = b"\n".join(lines) + (b"\n" if trailing and lines else b"")
        path = f"/ref-{abs(hash((body, read_chunk))) % 10**9}.txt"
        local_fs.write_file(path, body, overwrite=True)
        # Random split boundaries, not just a uniform split size.
        drawn = data.draw(st.lists(st.integers(1, max(len(body), 1)), max_size=8))
        cuts = sorted({cut for cut in drawn if cut < len(body)})
        bounds = [0, *cuts, len(body)]
        records = []
        for index, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            split = InputSplit(index, path, lo, hi - lo)
            records.extend(LineRecordReader(local_fs, split, read_chunk=read_chunk))
        expected = reference_records(body)
        assert records == expected
        offsets = [offset for offset, _line in records]
        assert len(offsets) == len(set(offsets))


def split_reference(data: bytes, lo: int, hi: int) -> list[tuple[int, bytes]]:
    """The records Hadoop's rule gives the split ``[lo, hi)``: every line
    starting in ``(lo, hi]``, and the first line too when ``lo`` is 0."""
    return [
        (offset, line)
        for offset, line in reference_records(data)
        if lo < offset <= hi or offset == lo == 0
    ]


@pytest.fixture(params=["bsfs", "hdfs"])
def counted(request, bsfs, hdfs, monkeypatch):
    """A backend whose fetches, read-ahead included, add their byte count
    to the returned list."""
    fetched: list[int] = []
    if request.param == "bsfs":
        read_range = bsfs.blobseer._read_range

        def counting_range(info, page_size, offset, size):
            fetched.append(size)
            return read_range(info, page_size, offset, size)

        monkeypatch.setattr(bsfs.blobseer, "_read_range", counting_range)
        return bsfs, fetched
    read_block = hdfs._read_block

    def counting_block(meta, offset, length, client_host):
        fetched.append(length)
        return read_block(meta, offset, length, client_host)

    monkeypatch.setattr(hdfs, "_read_block", counting_block)
    return hdfs, fetched


class TestBoundedSplitReads:
    """A split reads its own range, then only as far as its last line ends."""

    CHUNK = 16 * KB  # the reader's chunk: one read-ahead window

    def read(self, fs, path, lo, hi, version=None, read_chunk=CHUNK):
        split = InputSplit(0, path, lo, hi - lo, version=version)
        return list(LineRecordReader(fs, split, read_chunk=read_chunk))

    def test_a_split_fetches_at_most_its_length_and_one_window(self, counted):
        fs, fetched = counted
        body = b"".join(b"line %06d of the input\n" % i for i in range(12_000))
        fs.write_file("/in.txt", body)
        split_size = 64 * KB
        for lo in range(0, len(body) - split_size, split_size):
            fetched.clear()
            records = self.read(fs, "/in.txt", lo, lo + split_size)
            assert records == split_reference(body, lo, lo + split_size)
            assert sum(fetched) <= split_size + self.CHUNK, (lo, fetched)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=3 * KB), min_size=1, max_size=40),
        cut=st.integers(min_value=1, max_value=16 * KB),
    )
    def test_random_splits_yield_the_reference_records(self, counted, lines, cut):
        fs, _ = counted
        body = b"".join(b"%d" % n + b"x" * n + b"\n" for n in lines)
        path = f"/rand-{abs(hash((tuple(lines), cut))) % 10**9}.txt"
        if not fs.exists(path):
            fs.write_file(path, body)
        records = []
        for lo in range(0, len(body), cut):
            hi = min(lo + cut, len(body))
            part = self.read(fs, path, lo, hi, read_chunk=4 * KB)
            assert part == split_reference(body, lo, hi)
            records.extend(part)
        assert records == reference_records(body)

    def test_a_split_ending_on_a_newline_owns_the_next_line(self, counted):
        fs, _ = counted
        fs.write_file("/exact.txt", b"aaa\nbbb\nccc\n")
        assert self.read(fs, "/exact.txt", 0, 4) == [(0, b"aaa"), (4, b"bbb")]
        assert self.read(fs, "/exact.txt", 4, 12) == [(8, b"ccc")]

    def test_a_line_longer_than_the_tail_piece_is_read_whole(self, counted):
        fs, _ = counted
        long_line = b"z" * (300 * KB)
        fs.write_file("/long.txt", b"short\n" + long_line + b"\nafter\n")
        records = self.read(fs, "/long.txt", 0, 100, read_chunk=1024 * KB)
        assert records == [(0, b"short"), (6, long_line)]

    def test_a_split_inside_one_line_reads_only_its_range(self, counted):
        fs, fetched = counted
        fs.write_file("/one-line.txt", b"q" * (200 * KB) + b"\nnext\n")
        fetched.clear()
        assert self.read(fs, "/one-line.txt", 10 * KB, 30 * KB) == []
        assert sum(fetched) <= 20 * KB

    def test_an_as_of_split_stops_at_its_snapshot(self, bsfs):
        bsfs.write_file("/grow.txt", b"one\ntwo\nthr")
        version = bsfs.snapshot("/grow.txt")
        bsfs.concurrent_append("/grow.txt", b"ee\nfour\n")
        assert self.read(bsfs, "/grow.txt", 0, 5, version=version) == [
            (0, b"one"),
            (4, b"two"),
        ]
        assert self.read(bsfs, "/grow.txt", 5, 12, version=version) == [(8, b"thr")]
        assert self.read(bsfs, "/grow.txt", 5, 12) == [(8, b"three")]


class TestReaderSizeBoundary:
    def test_reader_respects_a_clamped_status_size(self, bsfs):
        # Regression: the streaming reader must bound its byte stream by
        # the size ``status`` reports, not by how many bytes ``open_read``
        # could produce.  Snapshot views (benchmarks/E7) clamp ``status``
        # to a snapshot size while delegating the byte stream — records
        # appended past the snapshot must stay invisible.
        path = "/in/growing.txt"
        write_lines(bsfs, path, [b"one", b"two"], newline_at_end=True)
        snapshot_size = bsfs.size(path)  # 8: "one\ntwo\n"
        bsfs.concurrent_append(path, b"three\n")

        class ClampedView:
            def status(self, p):
                status = bsfs.status(p)
                return type(status)(
                    path=status.path,
                    is_dir=status.is_dir,
                    size=min(snapshot_size, status.size),
                    block_size=status.block_size,
                    replication=status.replication,
                    modification_time=status.modification_time,
                )

            def __getattr__(self, name):
                return getattr(bsfs, name)

        split = InputSplit(split_id=0, path=path, offset=0, length=snapshot_size)
        records = [
            line for _offset, line in LineRecordReader(ClampedView(), split)
        ]
        assert records == [b"one", b"two"]


class TestSkipScanMemory:
    def test_skip_phase_buffers_at_most_one_chunk(self, bsfs):
        # Review finding: a split starting inside a huge newline-free run
        # must not accumulate everything up to the next newline while
        # skipping its leading partial line — the scanned bytes are
        # dropped chunk by chunk.  Measured by peak traced allocation: the
        # pre-fix reader buffered the whole 4 MiB run (peak >= 4 MiB).
        import tracemalloc

        path = "/in/one-line.bin"
        run = 4 * 1024 * KB  # 4 MiB without a single newline
        bsfs.write_file(path, b"q" * run)
        split = InputSplit(split_id=1, path=path, offset=10, length=100)
        reader = LineRecordReader(bsfs, split, read_chunk=64 * KB)
        tracemalloc.start()
        try:
            records = list(reader)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records == []  # no newline at or after the offset
        assert peak < 2 * 1024 * KB, f"skip scan buffered ~{peak} bytes"

    def test_skip_scan_yields_line_after_giant_run(self, bsfs):
        path = "/in/one-line2.bin"
        run = 100 * KB
        bsfs.write_file(path, b"q" * run + b"\ntail-line\n")
        # Split covering the newline: owns the record starting after it.
        split = InputSplit(split_id=1, path=path, offset=10, length=run)
        records = [
            line
            for _offset, line in LineRecordReader(bsfs, split, read_chunk=4 * KB)
        ]
        assert records == [b"tail-line"]


class TestSyntheticInputFormat:
    def test_one_split_per_map_task(self, bsfs):
        conf = JobConf(name="gen", output_dir="/out", num_reduce_tasks=0, num_map_tasks=5)
        splits = SyntheticInputFormat().get_splits(bsfs, conf)
        assert len(splits) == 5
        assert all(s.is_synthetic for s in splits)

    def test_reader_yields_single_record(self, bsfs):
        fmt = SyntheticInputFormat()
        split = fmt.get_splits(bsfs, JobConf(name="g", output_dir="/o", num_map_tasks=3, num_reduce_tasks=0))[2]
        records = list(fmt.create_reader(bsfs, split))
        assert records == [(2, 2)]
