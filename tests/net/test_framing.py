"""Frame codec: round-trips, whole-frame decoding, protocol violations."""

from __future__ import annotations

import array
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.errors import FrameError, FrameTooLargeError, TruncatedFrameError
from repro.net.framing import (
    DEFAULT_MAX_FRAME,
    HEADER,
    MAGIC,
    META,
    TABLE_ENTRY,
    WIRE_VERSION,
    decode_frame,
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


def recv_one(data: bytes, *, max_frame: int = DEFAULT_MAX_FRAME):
    """``recv_frame`` over a socketpair whose sender writes ``data``, then closes."""
    left, right = socket.socketpair()
    right.settimeout(5.0)

    def send() -> None:
        try:
            left.sendall(data)
            left.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the reader gave up early on a bad frame

    sender = threading.Thread(target=send)
    sender.start()
    try:
        return recv_frame(right, max_frame=max_frame)
    finally:
        right.close()
        sender.join()
        left.close()


@pytest.fixture(params=["decode_frame", "recv_frame"])
def decode(request):
    """Both whole-frame decoders, one stream-free, one over a socket."""
    if request.param == "decode_frame":
        return decode_frame
    return recv_one


class TestRoundTrip:
    def test_single_frame(self, decode):
        assert decode(wire([b"hello"])).segments == [b"hello"]

    def test_empty_payload(self, decode):
        assert decode(wire([b""])).segments == [b""]

    @given(payload=st.binary(max_size=2048))
    @settings(max_examples=50, deadline=None)
    def test_many_payloads_round_trip(self, payload):
        assert decode_frame(wire([payload])).segments == [payload]


class TestV2RoundTrip:
    def test_multi_segment_frame(self, decode):
        segments = [b"head", b"x" * 100, b"", b"tail"]
        assert decode(wire(segments)).segments == segments

    @given(segments=st.lists(st.binary(max_size=4 * KB), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_segment_lists_round_trip(self, segments):
        assert decode_frame(wire(segments)).segments == segments

    def test_encode_scatter_list_is_copy_free_for_bulk(self):
        bulk = b"z" * (256 * KB)
        parts = encode_frame([b"head", bulk])
        # The caller's buffer object itself rides in the scatter list.
        assert any(part is bulk for part in parts)

    def test_segments_travel_raw_with_zero_flags(self):
        # The wire is header + table + the segments' own bytes, and every
        # table entry carries flag byte 0.
        segments = [b"head", b"a" * (64 * KB)]
        stream = wire(segments)
        table = HEADER.size + META.size
        assert len(stream) == table + 2 * TABLE_ENTRY.size + sum(map(len, segments))
        entries = list(
            TABLE_ENTRY.iter_unpack(stream[table : table + 2 * TABLE_ENTRY.size])
        )
        assert entries == [(len(s), 0) for s in segments]
        assert stream.endswith(b"head" + b"a" * (64 * KB))

    def test_segment_table_must_sum_to_frame_length(self, decode):
        stream = bytearray(wire([b"abc", b"defg"]))
        stream[HEADER.size + 3 + 3] += 1  # inflate segment 0's table entry
        with pytest.raises(FrameError, match="table"):
            decode(bytes(stream))

    # Bit 0 was the retired batch envelope; every frame flag is reserved.
    @pytest.mark.parametrize("flags", [0x01, 0x02, 0x80])
    def test_frame_flags_are_reserved(self, decode, flags):
        stream = bytearray(wire([b"msg-1", b"msg-2"]))
        stream[HEADER.size] = flags
        with pytest.raises(FrameError, match="frame flags"):
            decode(bytes(stream))

    def test_memoryview_segments_are_framed_by_their_byte_size(self, decode):
        words = memoryview(array.array("I", range(1000)))
        frame = decode(wire([b"head", words]))
        assert frame.segments == [b"head", words.tobytes()]


class TestRejection:
    """Every violation, through both decoders."""

    def test_bad_magic_rejected(self, decode):
        stream = bytearray(wire([b"x"]))
        stream[0] ^= 0xFF
        with pytest.raises(FrameError, match="magic"):
            decode(bytes(stream))

    def test_bad_version_rejected(self, decode):
        stream = bytearray(wire([b"x"]))
        stream[1] = WIRE_VERSION + 1
        with pytest.raises(FrameError, match="version"):
            decode(bytes(stream))

    def test_v1_frame_rejected(self, decode):
        with pytest.raises(FrameError, match="version"):
            decode(v1_frame(b"hello"))

    def test_garbage_rejected(self, decode):
        with pytest.raises(FrameError, match="magic"):
            decode(b"GET / HTTP/1.1\r\n\r\n")

    def test_oversized_announcement_rejected_before_buffering(self, decode):
        # The length field announces more than the cap: rejected from the
        # header alone, without waiting for (or buffering) the body.
        stream = HEADER.pack(MAGIC, WIRE_VERSION, 1024 * 1024)
        with pytest.raises(FrameTooLargeError) as excinfo:
            decode(stream, max_frame=1024)
        assert excinfo.value.announced == 1024 * 1024
        assert excinfo.value.limit == 1024

    def test_oversized_frame_rejected(self, decode):
        with pytest.raises(FrameTooLargeError):
            decode(wire([b"y" * 2048]), max_frame=KB)

    def test_encode_refuses_oversized_payload(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame([b"x" * 2048], max_frame=1024)

    def test_truncated_stream_detected_at_eof(self, decode):
        with pytest.raises(TruncatedFrameError):
            decode(wire([b"hello world"])[:-3])

    def test_truncated_header_detected_at_eof(self, decode):
        with pytest.raises(TruncatedFrameError):
            decode(wire([b"payload"])[:3])

    def test_truncated_bulk_frame_rejected(self, decode):
        # Above the one-gulp cutoff recv_frame reads per segment; a
        # stream that ends inside a bulk segment is still caught.
        with pytest.raises(TruncatedFrameError):
            decode(wire([b"head", b"b" * (256 * KB)])[:-1])

    # 0x01 was the retired zlib codec id; segment flags are reserved.
    @pytest.mark.parametrize("seg_flags", [0x01, 0x02, 0x80])
    def test_unknown_segment_codec_rejected(self, decode, seg_flags):
        stream = bytearray(wire([b"abc"]))
        stream[HEADER.size + META.size + TABLE_ENTRY.size - 1] = seg_flags
        with pytest.raises(FrameError, match="segment flags"):
            decode(bytes(stream))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(FrameError, match="trail"):
            decode_frame(wire([b"one"]) + b"\x00")

    @given(junk=st.binary(min_size=HEADER.size, max_size=128))
    @settings(max_examples=50, deadline=None)
    def test_random_junk_never_decodes_silently(self, junk):
        # Random bytes raise FrameError unless they are exactly one
        # validly-headed frame: junk never invents payloads.
        try:
            frame = decode_frame(junk, max_frame=1 << 16)
        except FrameError:
            return
        magic, version, length = HEADER.unpack_from(junk, 0)
        assert magic == MAGIC and version == WIRE_VERSION
        assert HEADER.size + length == len(junk)
        flags, nseg = META.unpack_from(junk, HEADER.size)
        assert flags == 0 and len(frame.segments) == nseg

    @given(junk=st.binary(min_size=HEADER.size, max_size=128))
    @settings(max_examples=30, deadline=None)
    def test_random_junk_never_decodes_silently_over_a_socket(self, junk):
        # A frame read off the stream is exactly the decode of its
        # validly-headed prefix; anything else raises FrameError.
        try:
            frame = recv_one(junk, max_frame=1 << 16)
        except FrameError:
            return
        magic, version, length = HEADER.unpack_from(junk, 0)
        assert magic == MAGIC and version == WIRE_VERSION
        prefix = junk[: HEADER.size + length]
        assert decode_frame(prefix).segments == frame.segments


class TestRecvFrame:
    """Exact-framed socket reads: the receive path of both TCP ends."""

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

    def test_small_and_bulk_frames_interleave_on_one_stream(self):
        # A bulk frame (read per segment) between two small ones (read in
        # one gulp) leaves the stream aligned on frame boundaries.
        bulk = b"z" * (256 * KB)
        stream = wire([b"plain"]) + wire([b"head", bulk]) + wire([b"last"])
        left, right = self._pair()
        try:
            sender = self._send(left, stream)
            assert recv_frame(right).segments == [b"plain"]
            assert recv_frame(right).segments == [b"head", bulk]
            assert recv_frame(right).segments == [b"last"]
            sender.join()
            left.close()
            assert recv_frame(right) is None
        finally:
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

    def test_clean_eof_at_boundary_returns_none(self):
        left, right = self._pair()
        try:
            left.sendall(wire([b"last"]))
            left.close()
            assert recv_frame(right).segments == [b"last"]
            assert recv_frame(right) is None
        finally:
            right.close()
