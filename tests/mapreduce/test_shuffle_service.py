"""Unit tests for the spill-based overlapped shuffle service."""

from __future__ import annotations

import threading

import pytest

from repro.mapreduce.shuffle import group_sorted_pairs
from repro.mapreduce.shuffle_service import (
    SegmentReader,
    ShuffleAbortedError,
    ShuffleService,
    SpilledSegment,
    _LENGTH,
)


def make_service(fs, *, num_maps=2, num_partitions=2, segment_size=1024, **kwargs):
    return ShuffleService(
        fs,
        num_maps=num_maps,
        num_partitions=num_partitions,
        shuffle_dir="/job/_shuffle",
        segment_size=segment_size,
        **kwargs,
    )


class TestSpillAndMerge:
    def test_spill_fetch_roundtrip(self, any_fs):
        service = make_service(any_fs, num_maps=2, num_partitions=2)
        service.spill_map_output(0, [[("a", 1), ("b", 2)], [("x", 9)]])
        service.spill_map_output(1, [[("a", 3)], []])
        assert list(service.merged_pairs(0)) == [("a", 1), ("a", 3), ("b", 2)]
        assert list(service.merged_pairs(1)) == [("x", 9)]

    def test_merge_is_stable_in_map_order_for_equal_keys(self, bsfs):
        service = make_service(bsfs, num_maps=3, num_partitions=1)
        # Publish out of map order: merge must still order equal keys by map.
        service.spill_map_output(2, [[("k", "from-map-2")]])
        service.spill_map_output(0, [[("k", "from-map-0")]])
        service.spill_map_output(1, [[("k", "from-map-1")]])
        values = [value for _key, value in service.merged_pairs(0)]
        assert values == ["from-map-0", "from-map-1", "from-map-2"]

    def test_large_partition_splits_into_multiple_segments(self, bsfs):
        service = make_service(bsfs, num_maps=1, num_partitions=1, segment_size=256)
        pairs = [(f"key-{i:04d}", "v" * 40) for i in range(100)]
        service.spill_map_output(0, [pairs])
        assert service.segments_spilled > 1
        assert service.bytes_spilled > 256
        merged = list(service.merged_pairs(0))
        assert merged == pairs
        assert service.segments_fetched == service.segments_spilled

    def test_cascaded_merge_bounds_open_runs(self, bsfs):
        # More sorted runs than merge_factor: the earliest runs must be
        # cascaded through intermediate on-storage merges while the final
        # output stays identical to a flat merge.
        service = make_service(
            bsfs, num_maps=4, num_partitions=1, segment_size=128, merge_factor=3
        )
        expected = []
        for map_index in range(4):
            pairs = sorted(
                ((f"key-{map_index}-{i:03d}", i) for i in range(40)),
                key=lambda kv: repr(kv[0]),
            )
            expected.extend(pairs)
            service.spill_map_output(map_index, [pairs])
        assert service.segments_spilled > 3
        merged = list(service.merged_pairs(0))
        assert merged == sorted(expected, key=lambda kv: repr(kv[0]))
        assert service.merge_passes > 0
        assert service.stats()["merge_passes"] == service.merge_passes

    def test_cascaded_merge_keeps_equal_keys_in_map_order(self, bsfs):
        service = make_service(
            bsfs, num_maps=6, num_partitions=1, segment_size=1, merge_factor=2
        )
        for map_index in range(6):
            service.spill_map_output(map_index, [[("k", f"map-{map_index}")]])
        values = [value for _key, value in service.merged_pairs(0)]
        assert values == [f"map-{i}" for i in range(6)]
        assert service.merge_passes > 0

    def test_prefetch_budget_caps_eager_reads(self, bsfs):
        service = make_service(
            bsfs, num_maps=1, num_partitions=1, segment_size=64,
            prefetch_budget=0,
        )
        pairs = sorted(
            ((f"key-{i:03d}", "v" * 30) for i in range(30)),
            key=lambda kv: repr(kv[0]),
        )
        service.spill_map_output(0, [pairs])
        # No eager prefetch I/O, but the merge still reads everything.
        assert list(service.merged_pairs(0)) == pairs

    def test_prefetch_budget_is_refunded_as_readers_are_consumed(self, bsfs):
        # The budget caps live fetched-but-unmerged buffers, not the job's
        # lifetime prefetch volume: consuming each partition's readers hands
        # the bytes back, so later partitions prefetch again.
        chunk = 4 * 1024
        service = make_service(
            bsfs, num_maps=1, num_partitions=4, segment_size=64,
            prefetch_budget=2 * chunk, fetch_chunk_size=chunk,
        )
        pairs = sorted(
            ((f"key-{i:03d}", "v" * 30) for i in range(20)),
            key=lambda kv: repr(kv[0]),
        )
        service.spill_map_output(0, [pairs, pairs, pairs, pairs])
        for partition in range(4):
            assert list(service.merged_pairs(partition)) == pairs
        # Every reader released its reservation: the budget is whole again.
        assert service._prefetch_remaining == 2 * chunk

    def test_segments_are_real_files_on_the_backend(self, any_fs):
        service = make_service(any_fs, num_maps=1, num_partitions=1)
        service.spill_map_output(0, [[("k", "v")]])
        files = any_fs.list_files("/job/_shuffle")
        assert len(files) == 1
        assert files[0].size == service.bytes_spilled > 0

    def test_cleanup_removes_the_shuffle_dir(self, any_fs):
        service = make_service(any_fs, num_maps=1, num_partitions=1)
        service.spill_map_output(0, [[("k", "v")]])
        service.cleanup()
        assert not any_fs.exists("/job/_shuffle")

    def test_spill_validates_partition_count(self, bsfs):
        service = make_service(bsfs, num_maps=1, num_partitions=2)
        with pytest.raises(ValueError):
            service.spill_map_output(0, [[("k", 1)]])

    def test_constructor_validation(self, bsfs):
        with pytest.raises(ValueError):
            make_service(bsfs, num_partitions=0)
        with pytest.raises(ValueError):
            make_service(bsfs, segment_size=0)
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
        service.spill_map_output(0, [[("a", 1)]])
        assert fetched_first.wait(timeout=10.0)
        service.spill_map_output(1, [[("b", 2)]])
        consumer.join(timeout=10.0)
        assert not consumer.is_alive()
        assert merged == [("a", 1), ("b", 2)]
        assert service.overlapped
        stats = service.stats()
        assert stats["overlapped"]
        assert stats["first_fetch_time"] < stats["last_map_done_time"]

    def test_abort_unblocks_waiting_fetchers(self, bsfs):
        service = make_service(bsfs, num_maps=2, num_partitions=1)
        service.spill_map_output(0, [[("a", 1)]])
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
        service.spill_map_output(0, [[("key", "value")]])
        [segment] = [
            SpilledSegment(
                map_index=0,
                partition=0,
                sequence=0,
                path=f.path,
                bytes=f.size,
                records=1,
            )
            for f in bsfs.list_files("/job/_shuffle")
        ]
        truncated_path = "/job/_shuffle/truncated"
        bsfs.write_file(truncated_path, bsfs.read_file(segment.path)[:-2])
        bad = SpilledSegment(
            map_index=0,
            partition=0,
            sequence=0,
            path=truncated_path,
            bytes=segment.bytes - 2,
            records=1,
        )
        with pytest.raises(ValueError, match="truncated"):
            list(SegmentReader(bsfs, bad))

    def test_small_chunk_size_still_decodes_frames(self, bsfs):
        service = make_service(bsfs, num_maps=1, num_partitions=1)
        pairs = [(f"key-{i}", list(range(i))) for i in range(20)]
        service.spill_map_output(0, [sorted(pairs, key=lambda kv: repr(kv[0]))])
        readers = list(service.fetch_segments(0))
        decoded = []
        for reader in readers:
            # chunk smaller than one frame forces multi-chunk frame assembly
            small = SegmentReader(bsfs, reader.segment, chunk_size=7)
            decoded.extend(small)
        assert sorted(decoded, key=lambda kv: repr(kv[0])) == sorted(
            pairs, key=lambda kv: repr(kv[0])
        )


def read_frames(fs, path: str) -> list[bytes]:
    """The raw frames (length prefix included) of one segment file."""
    data, frames, pos = fs.read_file(path), [], 0
    while pos < len(data):
        end = pos + _LENGTH.size + _LENGTH.unpack_from(data, pos)[0]
        frames.append(data[pos:end])
        pos = end
    assert pos == len(data)
    return frames


def spilled_segments(service, partition: int = 0) -> list[SpilledSegment]:
    with service._cond:
        return list(service._segments[partition])


class TestFrameCodec:
    def test_round_trip_of_mixed_key_types(self, bsfs):
        service = make_service(bsfs, num_maps=1, num_partitions=1, segment_size=200)
        pairs = sorted(
            [("text", 1), (b"raw", b"\x00\xff"), (7, 7.5), (("t", 2), [1, 2])]
            * 30,
            key=lambda kv: repr(kv[0]),
        )
        service.spill_map_output(0, [pairs])
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
            bsfs,
            num_maps=3,
            num_partitions=1,
            segment_size=300,
            merge_factor=merge_factor,
        )
        for map_index in (2, 0, 1):  # published out of map order
            pairs = [("k", (map_index, i)) for i in range(150)]
            pairs.append(("z", (map_index, 0)))
            service.spill_map_output(map_index, [pairs])
        # Every map's run spans several segments of several frames.
        segments = spilled_segments(service)
        assert len(segments) > 3 * 2
        assert any(len(read_frames(bsfs, s.path)) > 1 for s in segments)
        merged = list(service.merged_pairs(0))
        assert merged == [
            ("k", (m, i)) for m in range(3) for i in range(150)
        ] + [("z", (m, 0)) for m in range(3)]
        assert (service.merge_passes > 0) == (merge_factor == 2)

    def test_segment_truncated_mid_frame_raises(self, bsfs):
        service = make_service(bsfs, num_maps=1, num_partitions=1, segment_size=10**6)
        pairs = [(f"key-{i:04d}", "v" * 20) for i in range(200)]
        service.spill_map_output(0, [pairs])
        [segment] = spilled_segments(service)
        frames = read_frames(bsfs, segment.path)
        assert len(frames) >= 2
        cut = len(frames[0]) + len(frames[1]) // 2
        bsfs.write_file("/job/_shuffle/cut", bsfs.read_file(segment.path)[:cut])
        reader = SegmentReader(
            bsfs, SpilledSegment(0, 0, 0, "/job/_shuffle/cut", cut, len(pairs))
        )
        decoded = []
        with pytest.raises(ValueError, match="truncated"):
            for pair in reader:
                decoded.append(pair)
        assert decoded == pairs[: len(decoded)]  # the whole first frame

    @pytest.mark.parametrize("segment_size", [1, 100, 4096, 64 * 1024])
    def test_segments_exceed_the_size_by_at_most_one_frame(self, bsfs, segment_size):
        service = make_service(
            bsfs, num_maps=1, num_partitions=1, segment_size=segment_size
        )
        # Record sizes vary, so frame sizing keeps adapting.
        pairs = [(f"key-{i:05d}", "v" * (i % 97)) for i in range(3000)]
        service.spill_map_output(0, [pairs])
        segments = spilled_segments(service)
        for index, segment in enumerate(segments):
            frames = read_frames(bsfs, segment.path)
            assert sum(map(len, frames)) == segment.bytes
            assert segment.bytes - len(frames[-1]) < segment_size
            if index < len(segments) - 1:
                assert segment.bytes >= segment_size
        assert list(service.merged_pairs(0)) == pairs


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
