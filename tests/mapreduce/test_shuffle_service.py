"""Unit tests for the spill-based overlapped shuffle service."""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.mapreduce.shuffle import group_sorted_pairs
from repro.mapreduce.shuffle_service import (
    ShuffleAbortedError,
    FRAME_BYTES,
    ShuffleService,
    SpilledSegment,
    _LENGTH,
    decode_segment,
    encode_segment,
)


def make_service(fs, *, num_maps=2, num_partitions=2):
    return ShuffleService(
        fs,
        num_maps=num_maps,
        num_partitions=num_partitions,
        shuffle_dir="/job/_shuffle",
    )


def spill(service, map_index, partitions, **kwargs):
    """Encode ``partitions`` as a map task does, then spill them."""
    segments = [encode_segment(pairs) for pairs in partitions]
    return service.spill_map_output(map_index, segments, **kwargs)


def merged(service, partition: int) -> list:
    """``partition`` fetched and merged as a slot-thread reduce does."""
    return list(service.merged_pairs(service.partition_payloads(partition)))


class TestSpillAndMerge:
    def test_spill_fetch_roundtrip(self, any_fs):
        service = make_service(any_fs, num_maps=2, num_partitions=2)
        spill(service, 0, [[("a", 1), ("b", 2)], [("x", 9)]])
        spill(service, 1, [[("a", 3)], []])
        assert merged(service, 0) == [("a", 1), ("a", 3), ("b", 2)]
        assert merged(service, 1) == [("x", 9)]

    def test_merge_is_stable_in_map_order_for_equal_keys(self, bsfs):
        service = make_service(bsfs, num_maps=3, num_partitions=1)
        # Publish out of map order: merge must still order equal keys by map.
        spill(service, 2, [[("k", "from-map-2")]])
        spill(service, 0, [[("k", "from-map-0")]])
        spill(service, 1, [[("k", "from-map-1")]])
        values = [value for _key, value in merged(service, 0)]
        assert values == ["from-map-0", "from-map-1", "from-map-2"]

    def test_a_large_partition_is_one_segment_of_many_frames(self, bsfs):
        service = make_service(bsfs, num_maps=1, num_partitions=1)
        pairs = [(f"key-{i:05d}", f"value-{i:05d}" * 4) for i in range(5000)]
        spill(service, 0, [pairs])
        [segment] = spilled_segments(service)
        assert len(read_frames(bsfs, segment)) > 2
        assert service.files_spilled == 1
        assert service.bytes_spilled == segment.bytes > 3 * FRAME_BYTES
        assert merged(service, 0) == pairs
        assert service.segments_fetched == 1

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
        assert merged(service, 2) == [("c", 3), ("d", 4)]

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
        pairs: list = []

        def consume() -> None:
            for _map_index, payload in service.fetch_segments(0):
                pairs.extend(decode_segment(payload))
                fetched_first.set()

        consumer = threading.Thread(target=consume)
        consumer.start()
        spill(service, 0, [[("a", 1)]])
        assert fetched_first.wait(timeout=10.0)
        spill(service, 1, [[("b", 2)]])
        consumer.join(timeout=10.0)
        assert not consumer.is_alive()
        assert pairs == [("a", 1), ("b", 2)]
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


def cut_spill_file(fs, service, size: int) -> bytes:
    """Point the index at a copy of the (one) spill file that lost all but
    its first ``size`` bytes; the recorded ranges stay.  Returns the whole
    file."""
    [path] = {s.path for p in range(len(service._segments)) for s in spilled_segments(service, p)}
    data = fs.read_file(path)
    fs.write_file("/job/_shuffle/cut", data[:size])
    with service._cond:
        for segments in service._segments:
            segments[:] = [replace(s, path="/job/_shuffle/cut") for s in segments]
    return data


class TestFrameCodec:
    """Segments round-trip through their file; a reducer reads each one
    with one range read of exactly its bytes."""

    def test_round_trip_of_mixed_key_types(self, bsfs):
        service = make_service(bsfs, num_maps=1, num_partitions=1)
        pairs = sorted(
            [("text", 1), (b"raw", b"\x00\xff"), (7, 7.5), (("t", 2), [1, 2])]
            * 30,
            key=lambda kv: repr(kv[0]),
        )
        spill(service, 0, [pairs])
        assert service.records_spilled == len(pairs)
        [payload] = service.partition_payloads(0)
        assert list(decode_segment(payload)) == pairs
        assert list(service.merged_pairs([payload])) == pairs

    def test_records_larger_than_a_frame_round_trip(self, any_fs):
        # Each record outgrows FRAME_BYTES, so every frame holds one record.
        service = make_service(any_fs, num_maps=1, num_partitions=1)
        pairs = [(f"key-{i}", bytes([i]) * (FRAME_BYTES + 1)) for i in range(4)]
        spill(service, 0, [pairs])
        [segment] = spilled_segments(service)
        assert len(read_frames(any_fs, segment)) == len(pairs)
        assert merged(service, 0) == pairs

    @pytest.mark.parametrize("num_maps", [2, 32])
    def test_equal_keys_across_frames_and_segments_keep_map_order(self, bsfs, num_maps):
        service = make_service(bsfs, num_maps=num_maps, num_partitions=1)
        # Published out of map order: the odd maps first, last map first.
        for map_index in sorted(range(num_maps), key=lambda m: (m % 2 == 0, -m)):
            pairs = [("k", (map_index, i)) for i in range(150)]
            pairs.append(("z", (map_index, 0)))
            spill(service, map_index, [pairs])
        # Every map's run is one segment of several frames.
        segments = spilled_segments(service)
        assert len(segments) == num_maps
        assert [s.map_index for s in segments] != list(range(num_maps))
        assert all(len(read_frames(bsfs, s)) > 1 for s in segments)
        assert merged(service, 0) == [
            ("k", (m, i)) for m in range(num_maps) for i in range(150)
        ] + [("z", (m, 0)) for m in range(num_maps)]

    def test_truncated_segment_raises(self, any_fs):
        # Two bytes short: the last frame is cut in the middle.
        service = make_service(any_fs, num_maps=1, num_partitions=1)
        spill(service, 0, [[("key", "value")]])
        cut_spill_file(any_fs, service, service.bytes_spilled - 2)
        with pytest.raises(ValueError, match="truncated shuffle segment"):
            service.partition_payloads(0)

    def test_segment_truncated_mid_frame_raises(self, bsfs):
        # Cut inside the second frame: the first frame is whole, but a
        # reducer reads the range whole, so no record of it reaches a merge.
        service = make_service(bsfs, num_maps=1, num_partitions=1)
        pairs = [(f"key-{i:04d}", "v" * 20) for i in range(200)]
        spill(service, 0, [pairs])
        [segment] = spilled_segments(service)
        frames = read_frames(bsfs, segment)
        assert len(frames) >= 2
        cut_spill_file(bsfs, service, len(frames[0]) + len(frames[1]) // 2)
        fetched = []
        with pytest.raises(ValueError, match="truncated shuffle segment"):
            for item in service.fetch_segments(0):
                fetched.append(item)
        assert fetched == []

    def test_segment_shorter_than_its_recorded_size_raises(self, any_fs):
        # Cut at a frame boundary: every frame left decodes, so only the
        # recorded size can tell that the rest of the segment is missing.
        service = make_service(any_fs, num_maps=1, num_partitions=1)
        pairs = [(f"key-{i:04d}", "v" * 20) for i in range(200)]
        spill(service, 0, [pairs])
        [segment] = spilled_segments(service)
        frames = read_frames(any_fs, segment)
        assert len(frames) >= 2
        cut_spill_file(any_fs, service, len(frames[0]))
        with pytest.raises(ValueError, match="truncated shuffle segment"):
            service.partition_payloads(0)

    def test_a_segment_cut_off_its_shared_file_raises(self, any_fs):
        # The file keeps partition 0 whole but stops inside partition 1's
        # range: only partition 1's reducer can tell, and it must.
        service = make_service(any_fs, num_maps=1, num_partitions=2)
        pairs = [(f"key-{i:04d}", "v" * 20) for i in range(200)]
        spill(service, 0, [pairs, pairs])
        [first] = spilled_segments(service, 0)
        [second] = spilled_segments(service, 1)
        data = cut_spill_file(any_fs, service, second.offset + second.bytes // 2)
        assert service.partition_payloads(0) == [data[: first.bytes]]
        with pytest.raises(ValueError, match="truncated shuffle segment"):
            service.partition_payloads(1)

    @pytest.mark.parametrize("segment_bytes", [100, 4096, 64 * 1024])
    def test_a_reader_reads_only_its_own_range(self, any_fs, monkeypatch, segment_bytes):
        # Partitions from below one frame to above one 64 KiB chunk of a
        # streaming read: each is read with one range read of its bytes.
        service = make_service(any_fs, num_maps=1, num_partitions=3)
        records = segment_bytes // 20 + 1
        parts = [
            [(f"{p}-{i:05d}", f"value-{i:05d}" * 2) for i in range(records)]
            for p in range(3)
        ]
        spill(service, 0, parts)
        reads: list[tuple[int, int]] = []
        open_read = any_fs.open_read

        def recording_open_read(path, *, offset=0, length=None, **kwargs):
            reads.append((offset, length))
            return open_read(path, offset=offset, length=length, **kwargs)

        monkeypatch.setattr(any_fs, "open_read", recording_open_read)
        for partition, pairs in enumerate(parts):
            [segment] = spilled_segments(service, partition)
            assert segment.bytes > segment_bytes
            reads.clear()
            assert service.partition_payloads(partition) == [encode_segment(pairs)[0]]
            assert reads == [(segment.offset, segment.bytes)]

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
        assert [merged(service, p) for p in range(2)] == [
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
