"""Frame codec: round-trips, whole-frame decoding, protocol violations."""

from __future__ import annotations

import random
import socket
import threading
import zlib

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


def half_random_bulk() -> bytes:
    """256 KiB that zlib halves: compressed, it is still a bulk segment."""
    return random.Random(7).randbytes(128 * KB) + b"\0" * (128 * KB)


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

    @given(
        segments=st.lists(st.binary(max_size=4 * KB), min_size=1, max_size=6),
        compress_threshold=st.one_of(
            st.none(), st.integers(min_value=1, max_value=8 * KB)
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_compression_flag_round_trips(self, segments, compress_threshold):
        # Whatever subset of segments the threshold compresses, the
        # receiver reconstructs the originals bit-for-bit.
        stream = wire(segments, compress_threshold=compress_threshold)
        assert decode_frame(stream).segments == segments

    def test_encode_scatter_list_is_copy_free_for_bulk(self):
        bulk = b"z" * (256 * KB)
        parts = encode_frame([b"head", bulk])
        # The caller's buffer object itself rides in the scatter list.
        assert any(part is bulk for part in parts)

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
        assert decode_frame(stream).segments == [bulk]
        assert len(stream) < len(bulk) + 64  # header + table only

    def test_corrupt_compressed_segment_raises(self, decode):
        stream = bytearray(wire([b"c" * (8 * KB)], compress_threshold=16))
        stream[-1] ^= 0xFF  # flip a bit inside the zlib stream
        with pytest.raises(FrameError):
            decode(bytes(stream))

    def test_segment_table_must_sum_to_frame_length(self, decode):
        stream = bytearray(wire([b"abc", b"defg"]))
        stream[HEADER.size + 3 + 3] += 1  # inflate segment 0's table entry
        with pytest.raises(FrameError, match="table"):
            decode(bytes(stream))

    def test_retired_batch_flag_rejected(self, decode):
        stream = bytearray(wire([b"msg-1", b"msg-2"]))
        stream[HEADER.size] = 0x01  # bit 0: the retired batch envelope
        with pytest.raises(FrameError, match="flags"):
            decode(bytes(stream))


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

    def test_unknown_segment_codec_rejected(self, decode):
        stream = bytearray(wire([b"abc"]))
        stream[HEADER.size + META.size + TABLE_ENTRY.size - 1] = 2
        with pytest.raises(FrameError, match="codec"):
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

    def test_plain_and_compressed_frames_interleave_on_one_stream(self):
        bulk = b"z" * (4 * KB)
        stream = (
            wire([b"plain"])
            + wire([b"head", bulk], compress_threshold=KB)
            + wire([b"last"])
        )
        left, right = self._pair()
        try:
            left.sendall(stream)
            left.close()
            assert recv_frame(right).segments == [b"plain"]
            assert recv_frame(right).segments == [b"head", bulk]
            assert recv_frame(right).segments == [b"last"]
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

    def test_clean_eof_at_boundary_returns_none(self):
        left, right = self._pair()
        try:
            left.sendall(wire([b"last"]))
            left.close()
            assert recv_frame(right).segments == [b"last"]
            assert recv_frame(right) is None
        finally:
            right.close()
