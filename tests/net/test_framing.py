"""Frame codec: round-trips, incremental decoding, protocol violations."""

from __future__ import annotations

import random
import socket
import threading
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.errors import FrameError, FrameTooLargeError, TruncatedFrameError
from repro.net.framing import (
    CODEC_ZLIB,
    DIRECT_CUTOFF,
    FLAG_BATCH,
    HEADER,
    MAGIC,
    META,
    TABLE_ENTRY,
    WIRE_VERSION,
    ScatterParser,
    encode_frame,
    recv_frame,
)

KB = 1024


def wire(segments, **kwargs) -> bytes:
    """Join a scatter list into contiguous wire bytes (test helper)."""
    return b"".join(bytes(part) for part in encode_frame(segments, **kwargs))


def v1_frame(payload: bytes) -> bytes:
    """A frame of the retired single-blob layout: header + raw payload."""
    return HEADER.pack(MAGIC, 1, len(payload)) + payload


def half_random_bulk() -> bytes:
    """256 KiB that zlib halves: compressed, it is still a bulk segment."""
    return random.Random(7).randbytes(128 * KB) + b"\0" * (128 * KB)


class TestRoundTrip:
    def test_single_frame(self):
        parser = ScatterParser()
        (frame,) = parser.feed(wire([b"hello"]))
        assert frame.segments == [b"hello"]
        assert parser.at_boundary
        assert parser.pending_bytes == 0

    def test_empty_payload(self):
        (frame,) = ScatterParser().feed(wire([b""]))
        assert frame.segments == [b""]

    def test_back_to_back_frames_in_one_feed(self):
        stream = wire([b"one"]) + wire([b"two"]) + wire([b"three"])
        frames = ScatterParser().feed(stream)
        assert [f.segments for f in frames] == [[b"one"], [b"two"], [b"three"]]

    @given(payloads=st.lists(st.binary(max_size=2048), max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_many_payloads_round_trip(self, payloads):
        stream = b"".join(wire([p]) for p in payloads)
        parser = ScatterParser()
        assert [f.segments[0] for f in parser.feed(stream)] == payloads
        parser.eof()  # stream ends exactly on a frame boundary

    @given(
        payloads=st.lists(st.binary(max_size=512), min_size=1, max_size=6),
        chunk=st.integers(min_value=1, max_value=17),
    )
    @settings(max_examples=50, deadline=None)
    def test_byte_dribble_reassembles(self, payloads, chunk):
        # However the stream is fragmented, the parser reassembles the
        # exact payload sequence — the property TCP delivery depends on.
        stream = b"".join(wire([p]) for p in payloads)
        parser = ScatterParser()
        out = []
        for start in range(0, len(stream), chunk):
            out.extend(f.segments[0] for f in parser.feed(stream[start : start + chunk]))
        assert out == payloads
        assert parser.frames_decoded == len(payloads)


class TestRejection:
    def test_bad_magic_rejected(self):
        stream = bytearray(wire([b"x"]))
        stream[0] ^= 0xFF
        with pytest.raises(FrameError, match="magic"):
            ScatterParser().feed(bytes(stream))

    def test_bad_version_rejected(self):
        stream = bytearray(wire([b"x"]))
        stream[1] = WIRE_VERSION + 1
        with pytest.raises(FrameError, match="version"):
            ScatterParser().feed(bytes(stream))

    def test_v1_frame_rejected(self):
        with pytest.raises(FrameError, match="version"):
            ScatterParser().feed(v1_frame(b"hello"))

    def test_garbage_rejected(self):
        with pytest.raises(FrameError):
            ScatterParser().feed(b"GET / HTTP/1.1\r\n\r\n")

    def test_oversized_announcement_rejected_before_buffering(self):
        # The length field announces more than the cap: rejected from the
        # header alone, without waiting for (or buffering) the body.
        stream = HEADER.pack(MAGIC, WIRE_VERSION, 1024 * 1024)
        parser = ScatterParser(max_frame=1024)
        with pytest.raises(FrameTooLargeError) as excinfo:
            parser.feed(stream)
        assert excinfo.value.announced == 1024 * 1024
        assert excinfo.value.limit == 1024

    def test_encode_refuses_oversized_payload(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame([b"x" * 2048], max_frame=1024)

    def test_truncated_stream_detected_at_eof(self):
        stream = wire([b"hello world"])
        parser = ScatterParser()
        parser.feed(stream[:-3])
        assert parser.pending_bytes > 0
        assert not parser.at_boundary
        with pytest.raises(TruncatedFrameError):
            parser.eof()

    def test_truncated_header_detected_at_eof(self):
        parser = ScatterParser()
        parser.feed(wire([b"payload"])[:3])
        with pytest.raises(TruncatedFrameError):
            parser.eof()

    def test_unknown_segment_codec_rejected(self):
        stream = bytearray(wire([b"abc"]))
        stream[HEADER.size + META.size + TABLE_ENTRY.size - 1] = 2
        with pytest.raises(FrameError, match="codec"):
            ScatterParser().feed(bytes(stream))

    @given(junk=st.binary(min_size=HEADER.size, max_size=128))
    @settings(max_examples=50, deadline=None)
    def test_random_junk_never_decodes_silently(self, junk):
        # Random bytes either raise FrameError or stay pending; any frame
        # that does come out is exactly the decode of a validly-headed
        # region of the input — junk never invents payloads.
        parser = ScatterParser(max_frame=1 << 16)
        try:
            frames = parser.feed(junk)
        except FrameError:
            return
        position = 0
        for frame in frames:
            magic, version, length = HEADER.unpack_from(junk, position)
            assert magic == MAGIC and version == WIRE_VERSION
            end = position + HEADER.size + length
            (again,) = ScatterParser().feed(junk[position:end])
            assert again.segments == frame.segments
            position = end


class TestV2RoundTrip:
    def test_multi_segment_frame(self):
        segments = [b"head", b"x" * 100, b"", b"tail"]
        parser = ScatterParser()
        (frame,) = parser.feed(wire(segments))
        assert frame.segments == segments
        assert not frame.is_batch
        assert parser.at_boundary and parser.pending_bytes == 0

    def test_batch_flag_round_trips(self):
        (frame,) = ScatterParser().feed(
            wire([b"msg-1", b"msg-2"], flags=FLAG_BATCH)
        )
        assert frame.is_batch
        assert frame.segments == [b"msg-1", b"msg-2"]

    def test_encode_scatter_list_is_copy_free_for_bulk(self):
        bulk = b"z" * (256 * KB)
        parts = encode_frame([b"head", bulk])
        # The caller's buffer object itself rides in the scatter list.
        assert any(part is bulk for part in parts)

    @given(
        segments=st.lists(
            st.binary(max_size=2 * KB), min_size=1, max_size=8
        ),
        chunk=st.integers(min_value=1, max_value=23),
    )
    @settings(max_examples=50, deadline=None)
    def test_dribble_reassembles_exact_segments(self, segments, chunk):
        stream = wire(segments)
        parser = ScatterParser()
        frames = []
        for start in range(0, len(stream), chunk):
            frames.extend(parser.feed(stream[start : start + chunk]))
        assert [f.segments for f in frames] == [segments]
        parser.eof()

    @given(
        segments=st.lists(
            st.binary(max_size=4 * KB), min_size=1, max_size=6
        ),
        compress_threshold=st.one_of(
            st.none(), st.integers(min_value=1, max_value=8 * KB)
        ),
        chunk=st.integers(min_value=1, max_value=4 * KB),
    )
    @settings(max_examples=50, deadline=None)
    def test_compression_flag_round_trips(
        self, segments, compress_threshold, chunk
    ):
        # Whatever subset of segments the threshold compresses, the
        # receiver reconstructs the originals bit-for-bit.
        stream = wire(segments, compress_threshold=compress_threshold)
        parser = ScatterParser()
        frames = []
        for start in range(0, len(stream), chunk):
            frames.extend(parser.feed(stream[start : start + chunk]))
        assert [f.segments for f in frames] == [segments]

    def test_compression_shrinks_compressible_wire(self):
        bulk = b"a" * (512 * KB)
        compressed = wire([b"head", bulk], compress_threshold=KB)
        raw = wire([b"head", bulk])
        assert len(compressed) < len(raw) // 10

    def test_incompressible_segments_travel_raw(self):
        # Already-compressed bytes would *grow* under zlib: the encoder
        # must keep them raw rather than flag a larger segment.
        bulk = zlib.compress(b"b" * (64 * KB), 9)
        stream = wire([bulk], compress_threshold=16)
        (frame,) = ScatterParser().feed(stream)
        assert frame.segments == [bulk]
        assert len(stream) < len(bulk) + 64  # header + table only

    def test_direct_receive_path_matches_feed_path(self):
        bulk = bytes(range(256)) * (4 * KB)  # 1 MiB, above direct cutoff
        stream = wire([b"head", bulk, b"tail"])
        parser = ScatterParser()
        frames = list(parser.feed(stream[: 4 * KB]))
        position = 4 * KB
        while position < len(stream):
            target = parser.wants_direct()
            if target is not None:
                take = min(len(target), 100 * KB, len(stream) - position)
                target[:take] = stream[position : position + take]
                frames.extend(parser.advance_direct(take))
            else:
                take = min(KB, len(stream) - position)
                frames.extend(parser.feed(stream[position : position + take]))
            position += take
        assert [f.segments for f in frames] == [[b"head", bulk, b"tail"]]
        assert parser.at_boundary

    def test_corrupt_compressed_segment_raises(self):
        stream = bytearray(wire([b"c" * (8 * KB)], compress_threshold=16))
        stream[-1] ^= 0xFF  # flip a bit inside the zlib stream
        with pytest.raises(FrameError):
            ScatterParser().feed(bytes(stream))

    def test_plain_batch_and_compressed_frames_interleave_on_one_stream(self):
        bulk = b"z" * (4 * KB)
        stream = (
            wire([b"plain"])
            + wire([b"msg-1", b"msg-2"], flags=FLAG_BATCH)
            + wire([b"head", bulk], compress_threshold=KB)
            + wire([b"last"])
        )
        parser = ScatterParser()
        frames = []
        for start in range(0, len(stream), 7):
            frames.extend(parser.feed(stream[start : start + 7]))
        assert [f.segments for f in frames] == [
            [b"plain"],
            [b"msg-1", b"msg-2"],
            [b"head", bulk],
            [b"last"],
        ]
        assert [f.is_batch for f in frames] == [False, True, False, False]
        parser.eof()

    def test_compressed_bulk_segment_on_the_direct_path(self):
        # A compressed segment still large enough for the direct receive
        # path is inflated when its preallocated buffer fills.
        stream = wire([b"head", half_random_bulk()], compress_threshold=KB)
        size, seg_flags = TABLE_ENTRY.unpack_from(
            stream, HEADER.size + META.size + TABLE_ENTRY.size
        )
        assert seg_flags == CODEC_ZLIB and size >= DIRECT_CUTOFF
        parser = ScatterParser()
        frames = []
        for start in range(0, len(stream), 4 * KB):
            frames.extend(parser.feed(stream[start : start + 4 * KB]))
        assert [f.segments for f in frames] == [[b"head", half_random_bulk()]]
        assert parser.at_boundary

    def test_segment_table_must_sum_to_frame_length(self):
        stream = bytearray(wire([b"abc", b"defg"]))
        stream[HEADER.size + 3 + 3] += 1  # inflate segment 0's table entry
        with pytest.raises(FrameError, match="table"):
            ScatterParser().feed(bytes(stream))


class TestDecoderLinearity:
    def test_small_frame_burst_compaction_is_linear(self):
        # The old decoder deleted the buffer prefix per decoded frame, so
        # a burst of n frames arriving in one read cost O(n^2) bytes of
        # memmove.  Offset draining must keep total compaction work below
        # the bytes that actually flowed through the buffer.
        frames = 20_000
        stream = b"".join(wire([b"ping-%d" % i]) for i in range(frames))
        parser = ScatterParser()
        out = parser.feed(stream)  # the whole burst in one feed
        assert len(out) == frames
        assert parser.bytes_compacted <= len(stream)

    def test_chunked_burst_stays_linear_too(self):
        frames = 20_000
        stream = b"".join(wire([b"op-%d" % i]) for i in range(frames))
        parser = ScatterParser()
        count = 0
        for start in range(0, len(stream), 4 * KB):
            count += len(parser.feed(stream[start : start + 4 * KB]))
        assert count == frames
        assert parser.bytes_compacted <= len(stream)

    def test_peak_memory_bounded_while_draining(self):
        # Like the WriteAggregator linearity test: dribbling many small
        # frames through one parser must not accumulate memory beyond
        # the frames in flight.
        stream = b"".join(wire([b"x" * 32]) for _ in range(20_000))
        parser = ScatterParser()
        tracemalloc.start()
        try:
            for start in range(0, len(stream), 4 * KB):
                parser.feed(stream[start : start + 4 * KB])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parser.frames_decoded == 20_000
        assert peak < 2 * KB * KB, f"peak {peak} bytes suggests buffer pile-up"


class TestRecvFrame:
    """Exact-framed socket reads: the threaded client's receive path."""

    @staticmethod
    def _pair():
        left, right = socket.socketpair()
        left.settimeout(5.0)
        right.settimeout(5.0)
        return left, right

    @staticmethod
    def _send(sock, data: bytes):
        sender = threading.Thread(target=sock.sendall, args=(data,))
        sender.start()
        return sender

    def test_back_to_back_frames(self):
        left, right = self._pair()
        try:
            left.sendall(wire([b"hello"]) + wire([b"world"]))
            assert recv_frame(right).segments == [b"hello"]
            assert recv_frame(right).segments == [b"world"]
        finally:
            left.close()
            right.close()

    def test_v2_small_frame_one_gulp(self):
        left, right = self._pair()
        try:
            left.sendall(wire([b"head", b"tail"]))
            frame = recv_frame(right)
            assert frame.segments == [b"head", b"tail"]
        finally:
            left.close()
            right.close()

    def test_v2_bulk_segments_land_as_exact_bytes(self):
        # Above the gulp cutoff each segment is read straight into its
        # own buffer: the returned bytes must match and be independent.
        bulk = bytes(range(256)) * (512 * KB // 256)
        left, right = self._pair()
        try:
            sender = self._send(left, wire([b"head", bulk]))
            frame = recv_frame(right)
            sender.join()
            assert frame.segments[0] == b"head"
            assert frame.segments[1] == bulk
            assert isinstance(frame.segments[1], bytes)
        finally:
            left.close()
            right.close()

    def test_compressed_segment_decodes_transparently(self):
        payload = b"ab" * (64 * KB)
        stream = wire([b"head", payload], compress_threshold=KB)
        assert len(stream) < len(payload)  # compression engaged on the wire
        left, right = self._pair()
        try:
            sender = self._send(left, stream)
            frame = recv_frame(right)
            sender.join()
            assert frame.segments == [b"head", payload]
        finally:
            left.close()
            right.close()

    def test_compressed_bulk_segment_read_per_segment(self):
        # Above the gulp cutoff, a compressed segment is read exactly at
        # its stored size and inflated after the read.
        stream = wire([b"head", half_random_bulk()], compress_threshold=KB)
        left, right = self._pair()
        try:
            sender = self._send(left, stream)
            frame = recv_frame(right)
            sender.join()
            assert frame.segments == [b"head", half_random_bulk()]
        finally:
            left.close()
            right.close()

    def test_batch_flag_survives(self):
        left, right = self._pair()
        try:
            left.sendall(wire([b"msg-1", b"msg-2"], flags=FLAG_BATCH))
            frame = recv_frame(right)
            assert frame.is_batch
            assert frame.segments == [b"msg-1", b"msg-2"]
        finally:
            left.close()
            right.close()

    def test_unknown_segment_codec_rejected(self):
        stream = bytearray(wire([b"abc"]))
        stream[HEADER.size + META.size + TABLE_ENTRY.size - 1] = 2
        left, right = self._pair()
        try:
            left.sendall(bytes(stream))
            with pytest.raises(FrameError, match="codec"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_clean_eof_at_boundary_returns_none(self):
        left, right = self._pair()
        try:
            left.sendall(wire([b"last"]))
            left.close()
            assert recv_frame(right).segments == [b"last"]
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_eof_mid_frame_raises_truncated(self):
        left, right = self._pair()
        try:
            left.sendall(wire([b"x" * 1000])[:40])
            left.close()
            with pytest.raises(TruncatedFrameError):
                recv_frame(right)
        finally:
            right.close()

    def test_junk_stream_raises_frame_error(self):
        left, right = self._pair()
        try:
            left.sendall(b"GET / HTTP/1.1\r\n")
            with pytest.raises(FrameError, match="magic"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_v1_frame_rejected(self):
        left, right = self._pair()
        try:
            left.sendall(v1_frame(b"hello"))
            with pytest.raises(FrameError, match="version"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_oversized_frame_rejected(self):
        left, right = self._pair()
        try:
            left.sendall(wire([b"y" * 2048]))
            with pytest.raises(FrameTooLargeError):
                recv_frame(right, max_frame=KB)
        finally:
            left.close()
            right.close()
