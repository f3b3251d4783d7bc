"""Unit tests for the spill-based overlapped shuffle service."""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.mapreduce.shuffle import group_sorted_pairs
from repro.mapreduce.shuffle_service import (
    SegmentReader,
    ShuffleAbortedError,
    FRAME_BYTES,
    ShuffleService,
    SpilledSegment,
    _LENGTH,
    encode_segment,
)


def make_service(fs, *, num_maps=2, num_partitions=2, **kwargs):
    return ShuffleService(
        fs,
        num_maps=num_maps,
        num_partitions=num_partitions,
        shuffle_dir="/job/_shuffle",
        **kwargs,
    )


def spill(service, map_index, partitions, **kwargs):
    """Encode ``partitions`` as a map task does, then spill them."""
    segments = [encode_segment(pairs) for pairs in partitions]
    return service.spill_map_output(map_index, segments, **kwargs)


class TestSpillAndMerge:
    def test_spill_fetch_roundtrip(self, any_fs):
        service = make_service(any_fs, num_maps=2, num_partitions=2)
        spill(service, 0, [[("a", 1), ("b", 2)], [("x", 9)]])
        spill(service, 1, [[("a", 3)], []])
        assert list(service.merged_pairs(0)) == [("a", 1), ("a", 3), ("b", 2)]
        assert list(service.merged_pairs(1)) == [("x", 9)]

    def test_merge_is_stable_in_map_order_for_equal_keys(self, bsfs):
        service = make_service(bsfs, num_maps=3, num_partitions=1)
        # Publish out of map order: merge must still order equal keys by map.
        spill(service, 2, [[("k", "from-map-2")]])
        spill(service, 0, [[("k", "from-map-0")]])
        spill(service, 1, [[("k", "from-map-1")]])
        values = [value for _key, value in service.merged_pairs(0)]
        assert values == ["from-map-0", "from-map-1", "from-map-2"]

    def test_a_large_partition_is_one_segment_of_many_frames(self, bsfs):
        service = make_service(bsfs, num_maps=1, num_partitions=1)
        pairs = [(f"key-{i:05d}", f"value-{i:05d}" * 4) for i in range(5000)]
        spill(service, 0, [pairs])
        [segment] = spilled_segments(service)
        assert len(read_frames(bsfs, segment)) > 2
        assert service.files_spilled == 1
        assert service.bytes_spilled == segment.bytes > 3 * FRAME_BYTES
        merged = list(service.merged_pairs(0))
        assert merged == pairs
        assert service.segments_fetched == 1

    def test_cascaded_merge_bounds_open_runs(self, bsfs):
        # More sorted runs than merge_factor: the earliest runs must be
        # cascaded through intermediate on-storage merges while the final
        # output stays identical to a flat merge.
        service = make_service(bsfs, num_maps=4, num_partitions=1, merge_factor=3)
        expected = []
        for map_index in range(4):
            pairs = sorted(
                ((f"key-{map_index}-{i:03d}", i) for i in range(40)),
                key=lambda kv: repr(kv[0]),
            )
            expected.extend(pairs)
            spill(service, map_index, [pairs])
        assert service.files_spilled == 4
        merged = list(service.merged_pairs(0))
        assert merged == sorted(expected, key=lambda kv: repr(kv[0]))
        assert service.merge_passes > 0
        assert service.stats()["merge_passes"] == service.merge_passes

    def test_cascaded_merge_keeps_equal_keys_in_map_order(self, bsfs):
        service = make_service(bsfs, num_maps=6, num_partitions=1, merge_factor=2)
        for map_index in range(6):
            spill(service, map_index, [[("k", f"map-{map_index}")]])
        values = [value for _key, value in service.merged_pairs(0)]
        assert values == [f"map-{i}" for i in range(6)]
        assert service.merge_passes > 0

    def test_prefetch_budget_caps_eager_reads(self, bsfs):
        service = make_service(bsfs, num_maps=1, num_partitions=1, prefetch_budget=0)
        pairs = sorted(
            ((f"key-{i:03d}", "v" * 30) for i in range(30)),
            key=lambda kv: repr(kv[0]),
        )
        spill(service, 0, [pairs])
        # No eager prefetch I/O, but the merge still reads everything.
        assert list(service.merged_pairs(0)) == pairs

    def test_prefetch_budget_is_refunded_as_readers_are_consumed(self, bsfs):
        # The budget caps live fetched-but-unmerged buffers, not the job's
        # lifetime prefetch volume: consuming each partition's readers hands
        # the bytes back, so later partitions prefetch again.
        chunk = 4 * 1024
        service = make_service(
            bsfs, num_maps=1, num_partitions=4,
            prefetch_budget=2 * chunk, fetch_chunk_size=chunk,
        )
        pairs = sorted(
            ((f"key-{i:03d}", "v" * 30) for i in range(20)),
            key=lambda kv: repr(kv[0]),
        )
        spill(service, 0, [pairs, pairs, pairs, pairs])
        for partition in range(4):
            assert list(service.merged_pairs(partition)) == pairs
        # Every reader released its reservation: the budget is whole again.
        assert service._prefetch_remaining == 2 * chunk

    def test_a_map_spills_every_partition_into_one_file(self, any_fs):
        service = make_service(any_fs, num_maps=2, num_partitions=3)
        spill(service, 0, [[("a", 1)], [], [("c", 3), ("d", 4)]])
        spill(service, 1, [[], [], []])  # no output: no file
        [file] = any_fs.list_files("/job/_shuffle")
        assert file.size == service.bytes_spilled > 0
        assert service.files_spilled == 1
        first, third = spilled_segments(service, 0) + spilled_segments(service, 2)
        assert spilled_segments(service, 1) == []
        assert (first.path, third.path) == (file.path, file.path)
        assert (first.offset, third.offset) == (0, first.bytes)
        assert first.bytes + third.bytes == file.size
        assert (first.records, third.records) == (1, 2)
        assert list(service.merged_pairs(2)) == [("c", 3), ("d", 4)]

    def test_a_retried_attempt_writes_its_own_file(self, any_fs):
        service = make_service(any_fs, num_maps=1, num_partitions=1)
        spill(service, 0, [[("k", "v")]], attempt=2)
        [file] = any_fs.list_files("/job/_shuffle")
        assert file.path.endswith("map-00000-a02.out")

    def test_cleanup_removes_the_shuffle_dir(self, any_fs):
        service = make_service(any_fs, num_maps=1, num_partitions=1)
        spill(service, 0, [[("k", "v")]])
        service.cleanup()
        assert not any_fs.exists("/job/_shuffle")

    def test_spill_validates_partition_count(self, bsfs):
        service = make_service(bsfs, num_maps=1, num_partitions=2)
        with pytest.raises(ValueError):
            spill(service, 0, [[("k", 1)]])

    def test_constructor_validation(self, bsfs):
        with pytest.raises(ValueError):
            make_service(bsfs, num_partitions=0)
        with pytest.raises(ValueError):
            make_service(bsfs, num_maps=-1)


class TestOverlap:
    def test_fetch_starts_before_last_map_completes(self, bsfs):
        # Deterministic overlap: a consumer thread fetches partition 0 while
        # the test thread holds back the second map until the first segment
        # was fetched.
        service = make_service(bsfs, num_maps=2, num_partitions=1)
        fetched_first = threading.Event()
        merged: list = []

        def consume() -> None:
            for reader in service.fetch_segments(0):
                merged.extend(reader)
                fetched_first.set()

        consumer = threading.Thread(target=consume)
        consumer.start()
        spill(service, 0, [[("a", 1)]])
        assert fetched_first.wait(timeout=10.0)
        spill(service, 1, [[("b", 2)]])
        consumer.join(timeout=10.0)
        assert not consumer.is_alive()
        assert merged == [("a", 1), ("b", 2)]
        assert service.overlapped
        stats = service.stats()
        assert stats["overlapped"]
        assert stats["first_fetch_time"] < stats["last_map_done_time"]

    def test_abort_unblocks_waiting_fetchers(self, bsfs):
        service = make_service(bsfs, num_maps=2, num_partitions=1)
        spill(service, 0, [[("a", 1)]])
        failure: list[BaseException] = []

        def consume() -> None:
            try:
                list(service.fetch_segments(0))
            except ShuffleAbortedError as exc:
                failure.append(exc)

        consumer = threading.Thread(target=consume)
        consumer.start()
        service.abort(RuntimeError("map 1 crashed"))
        consumer.join(timeout=10.0)
        assert not consumer.is_alive()
        assert len(failure) == 1
        assert "map 1 crashed" in str(failure[0])


class TestSegmentReader:
    def test_truncated_segment_raises(self, bsfs):
        service = make_service(bsfs, num_maps=1, num_partitions=1)
        spill(service, 0, [[("key", "value")]])
        [segment] = [
            SpilledSegment(
                map_index=0,
                partition=0,
                path=f.path,
                offset=0,
                bytes=f.size,
                records=1,
            )
            for f in bsfs.list_files("/job/_shuffle")
        ]
        truncated_path = "/job/_shuffle/truncated"
        bsfs.write_file(truncated_path, bsfs.read_file(segment.path)[:-2])
        bad = replace(segment, path=truncated_path, bytes=segment.bytes - 2)
        with pytest.raises(ValueError, match="truncated"):
            list(SegmentReader(bsfs, bad))

    def test_small_chunk_size_still_decodes_frames(self, bsfs):
        service = make_service(bsfs, num_maps=1, num_partitions=1)
        pairs = [(f"key-{i}", list(range(i))) for i in range(20)]
        spill(service, 0, [sorted(pairs, key=lambda kv: repr(kv[0]))])
        readers = list(service.fetch_segments(0))
        decoded = []
        for reader in readers:
            # chunk smaller than one frame forces multi-chunk frame assembly
            small = SegmentReader(bsfs, reader.segment, chunk_size=7)
            decoded.extend(small)
        assert sorted(decoded, key=lambda kv: repr(kv[0])) == sorted(
            pairs, key=lambda kv: repr(kv[0])
        )


def read_frames(fs, segment: SpilledSegment) -> list[bytes]:
    """The raw frames (length prefix included) of one segment."""
    data = fs.read_file(segment.path)[segment.offset : segment.offset + segment.bytes]
    frames, pos = [], 0
    while pos < len(data):
        end = pos + _LENGTH.size + _LENGTH.unpack_from(data, pos)[0]
        frames.append(data[pos:end])
        pos = end
    assert pos == len(data)
    return frames


def spilled_segments(service, partition: int = 0) -> list[SpilledSegment]:
    with service._cond:
        return list(service._segments[partition])


def prefetched(fs, segment: SpilledSegment) -> SegmentReader:
    """A reader whose first chunk was already fetched, as the service does."""
    reader = SegmentReader(fs, segment)
    reader.prefetch()
    return reader


class TestFrameCodec:
    def test_round_trip_of_mixed_key_types(self, bsfs):
        service = make_service(bsfs, num_maps=1, num_partitions=1)
        pairs = sorted(
            [("text", 1), (b"raw", b"\x00\xff"), (7, 7.5), (("t", 2), [1, 2])]
            * 30,
            key=lambda kv: repr(kv[0]),
        )
        spill(service, 0, [pairs])
        assert service.records_spilled == len(pairs)
        decoded = []
        for segment in spilled_segments(service):
            decoded.extend(SegmentReader(bsfs, segment, chunk_size=5))
        assert decoded == pairs
        assert list(service.merged_pairs(0)) == pairs

    @pytest.mark.parametrize("merge_factor", [2, 32])
    def test_equal_keys_across_frames_and_segments_keep_map_order(
        self, bsfs, merge_factor
    ):
        service = make_service(
            bsfs, num_maps=3, num_partitions=1, merge_factor=merge_factor
        )
        for map_index in (2, 0, 1):  # published out of map order
            pairs = [("k", (map_index, i)) for i in range(150)]
            pairs.append(("z", (map_index, 0)))
            spill(service, map_index, [pairs])
        # Every map's run is one segment of several frames.
        segments = spilled_segments(service)
        assert len(segments) == 3
        assert all(len(read_frames(bsfs, s)) > 1 for s in segments)
        merged = list(service.merged_pairs(0))
        assert merged == [
            ("k", (m, i)) for m in range(3) for i in range(150)
        ] + [("z", (m, 0)) for m in range(3)]
        assert (service.merge_passes > 0) == (merge_factor == 2)

    def test_segment_truncated_mid_frame_raises(self, bsfs):
        service = make_service(bsfs, num_maps=1, num_partitions=1)
        pairs = [(f"key-{i:04d}", "v" * 20) for i in range(200)]
        spill(service, 0, [pairs])
        [segment] = spilled_segments(service)
        frames = read_frames(bsfs, segment)
        assert len(frames) >= 2
        cut = len(frames[0]) + len(frames[1]) // 2
        bsfs.write_file("/job/_shuffle/cut", bsfs.read_file(segment.path)[:cut])
        reader = SegmentReader(
            bsfs, SpilledSegment(0, 0, "/job/_shuffle/cut", 0, cut, len(pairs))
        )
        decoded = []
        with pytest.raises(ValueError, match="truncated"):
            for pair in reader:
                decoded.append(pair)
        assert decoded == pairs[: len(decoded)]  # the whole first frame

    def test_segment_shorter_than_its_recorded_size_raises(self, any_fs):
        # Cut at a frame boundary: every frame left decodes, so only the
        # recorded size can tell that the rest of the segment is missing.
        service = make_service(any_fs, num_maps=1, num_partitions=1)
        pairs = [(f"key-{i:04d}", "v" * 20) for i in range(200)]
        spill(service, 0, [pairs])
        [segment] = spilled_segments(service)
        frames = read_frames(any_fs, segment)
        assert len(frames) >= 2
        any_fs.write_file("/job/_shuffle/short", frames[0])
        short = replace(segment, path="/job/_shuffle/short")
        for reader in (SegmentReader(any_fs, short), prefetched(any_fs, short)):
            decoded = []
            with pytest.raises(ValueError, match="truncated"):
                for pair in reader:
                    decoded.append(pair)
            assert decoded == pairs[: len(decoded)]

    def test_a_segment_cut_off_its_shared_file_raises(self, any_fs):
        # The file keeps partition 0 whole but stops inside partition 1's
        # range: only partition 1's readers can tell, and every read path
        # (streamed, prefetched, read whole) must.
        service = make_service(any_fs, num_maps=1, num_partitions=2)
        pairs = [(f"key-{i:04d}", "v" * 20) for i in range(200)]
        spill(service, 0, [pairs, pairs])
        [first] = spilled_segments(service, 0)
        [second] = spilled_segments(service, 1)
        data = any_fs.read_file(first.path)
        any_fs.write_file("/job/_shuffle/short", data[: second.offset + second.bytes // 2])
        first, second = (replace(s, path="/job/_shuffle/short") for s in (first, second))
        assert list(SegmentReader(any_fs, first, chunk_size=100)) == pairs
        assert SegmentReader(any_fs, first).read_all() == data[: first.bytes]
        for reader in (SegmentReader(any_fs, second), prefetched(any_fs, second)):
            with pytest.raises(ValueError, match="truncated"):
                list(reader)
        for reader in (SegmentReader(any_fs, second), prefetched(any_fs, second)):
            with pytest.raises(ValueError, match="truncated"):
                reader.read_all()

    @pytest.mark.parametrize("chunk_size", [100, 4096, 64 * 1024])
    def test_a_reader_reads_only_its_own_range(self, any_fs, monkeypatch, chunk_size):
        service = make_service(any_fs, num_maps=1, num_partitions=3)
        # Each partition is larger than the prefetch chunk.
        parts = [[(f"{p}-{i:04d}", f"value-{i:04d}" * 3) for i in range(3000)] for p in range(3)]
        spill(service, 0, parts)
        segments = [spilled_segments(service, p)[0] for p in range(3)]
        reads: list[tuple[int, int]] = []
        open_read = any_fs.open_read

        def recording_open_read(path, *, offset=0, length=None, **kwargs):
            reads.append((offset, length))
            return open_read(path, offset=offset, length=length, **kwargs)

        monkeypatch.setattr(any_fs, "open_read", recording_open_read)
        for segment, pairs in zip(segments, parts):
            end = segment.offset + segment.bytes
            reads.clear()
            assert list(prefetched(any_fs, segment)) == pairs
            assert list(SegmentReader(any_fs, segment, chunk_size=chunk_size)) == pairs
            assert all(segment.offset <= at and at + n <= end for at, n in reads)
            reads.clear()
            payload = prefetched(any_fs, segment).read_all()
            assert payload == encode_segment(pairs)[0]
            # The prefetch and the rest tile the range exactly.
            (first, head), (rest, tail) = reads
            assert first == segment.offset and rest == first + head
            assert rest + tail == end

    def test_segment_within_one_chunk_is_opened_once(self, any_fs, monkeypatch):
        service = make_service(any_fs, num_maps=4, num_partitions=2)
        for map_index in range(4):
            spill(service, map_index, [[("a", map_index)], [("b", map_index)]])
        opened: list[str] = []
        open_read = any_fs.open_read

        def counting_open_read(path, **kwargs):
            opened.append(path)
            return open_read(path, **kwargs)

        monkeypatch.setattr(any_fs, "open_read", counting_open_read)
        merged = [list(service.merged_pairs(p)) for p in range(2)]
        assert merged == [
            [("a", m) for m in range(4)],
            [("b", m) for m in range(4)],
        ]
        segments = spilled_segments(service, 0) + spilled_segments(service, 1)
        assert all(s.bytes < 64 * 1024 for s in segments)
        assert sorted(opened) == sorted(s.path for s in segments)


class TestGroupSortedPairs:
    def test_groups_adjacent_equal_keys(self):
        pairs = [("a", 1), ("a", 2), ("b", 3), ("c", 4), ("c", 5)]
        assert list(group_sorted_pairs(pairs)) == [
            ("a", [1, 2]),
            ("b", [3]),
            ("c", [4, 5]),
        ]

    def test_empty_stream(self):
        assert list(group_sorted_pairs([])) == []

    def test_streams_lazily(self):
        # The grouper must not exhaust the iterator up front.
        def generator():
            yield ("a", 1)
            yield ("a", 2)
            yield ("b", 3)
            raise AssertionError("consumed past the first group")

        groups = group_sorted_pairs(generator())
        assert next(groups) == ("a", [1, 2])
