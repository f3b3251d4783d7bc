"""Frame codec: the wire format of the service layer.

Every frame is a fixed header followed by a *segment table* and the
segments themselves::

    +-------+---------+------------------+-----------------+
    | magic | version | payload length   | payload bytes   |
    | 1 B   | 1 B     | 4 B big-endian   | <length> bytes  |
    +-------+---------+------------------+-----------------+

    payload := flags(1B)  nseg(2B BE)
               nseg x [ stored_length(4B BE)  seg_flags(1B) ]
               segment bytes, concatenated

    frame flags:   reserved, always 0; a frame with any flag set is a
                   framing violation
    segment flags: reserved, always 0; a segment with any flag set is a
                   framing violation

The magic byte and the version byte (:data:`WIRE_VERSION`) let a stream
that is not an RPC stream of this layout be rejected at its first frame.

A message's bulk payloads (pages, blocks) travel as their *own*
segments, so the sender can hand the original buffers to a
scatter-gather write (``sendmsg`` / ``writelines``) without ever
concatenating them into one heap-allocated frame, and the receiver can
read each bulk segment into an exactly-sized buffer.

Two decoders share the validation rules: :func:`recv_frame` reads one
whole frame from a blocking socket (both ends of a TCP connection), and
:func:`decode_frame` decodes one whole frame held in a buffer (the
loopback transport).
"""

from __future__ import annotations

import socket
import struct
from typing import Sequence

from .errors import FrameError, FrameTooLargeError, TruncatedFrameError

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "HEADER",
    "META",
    "TABLE_ENTRY",
    "DEFAULT_MAX_FRAME",
    "encode_frame",
    "decode_frame",
    "recv_frame",
    "Frame",
]

#: First byte of every frame; anything else on the stream is garbage.
MAGIC = 0xB5
#: The header's version byte; any other value is a framing violation.
WIRE_VERSION = 2
#: Frame header: magic byte, protocol version, payload length.
HEADER = struct.Struct(">BBI")
#: Payload prelude: frame flags, segment count.
META = struct.Struct(">BH")
#: One segment-table entry: stored length, segment flags.
TABLE_ENTRY = struct.Struct(">IB")
#: Default ceiling on a frame's payload (pages are <= a few MiB; 64 MiB
#: leaves room for whole-block transfers plus pickling overhead).
DEFAULT_MAX_FRAME = 64 * 1024 * 1024
#: Ceiling on a frame's segment count (sanity bound on the table).
MAX_SEGMENTS = 4096


# -- encoding --------------------------------------------------------------------------


def _nbytes(segment) -> int:
    return segment.nbytes if isinstance(segment, memoryview) else len(segment)


def encode_frame(segments: Sequence, *, max_frame: int = DEFAULT_MAX_FRAME) -> list:
    """Encode one frame as a scatter-gather list, copy-free.

    Returns ``[head, seg0, seg1, ...]`` where ``head`` is the fixed
    header plus the segment table and every other element is the
    caller's buffer itself (bytes or memoryview) — hand the list to
    ``socket.sendmsg`` / ``writer.writelines`` and the bulk payloads are
    never concatenated or copied by this layer.
    """
    if not segments:
        raise ValueError("a frame needs at least one segment")
    if len(segments) > MAX_SEGMENTS:
        raise ValueError(f"too many segments ({len(segments)} > {MAX_SEGMENTS})")
    sizes = [_nbytes(segment) for segment in segments]
    total = META.size + len(sizes) * TABLE_ENTRY.size + sum(sizes)
    if total > max_frame:
        raise FrameTooLargeError(total, max_frame)
    head = bytearray(HEADER.pack(MAGIC, WIRE_VERSION, total))
    head += META.pack(0, len(sizes))
    for size in sizes:
        head += TABLE_ENTRY.pack(size, 0)
    return [bytes(head), *segments]


# -- validation ------------------------------------------------------------------------


def _check_header(magic: int, version: int, length: int, max_frame: int) -> None:
    if magic != MAGIC:
        raise FrameError(
            f"bad frame magic 0x{magic:02X} (expected "
            f"0x{MAGIC:02X}): not an RPC stream"
        )
    if version != WIRE_VERSION:
        raise FrameError(
            f"unsupported protocol version {version} (expected {WIRE_VERSION})"
        )
    if length > max_frame:
        raise FrameTooLargeError(length, max_frame)
    if length < META.size:
        raise FrameError(f"frame of {length} bytes has no segment table")


def _check_meta(flags: int, nseg: int, length: int) -> None:
    if flags:
        raise FrameError(f"unknown frame flags 0x{flags:02X}")
    if not 1 <= nseg <= MAX_SEGMENTS:
        raise FrameError(f"frame announces {nseg} segments")
    if META.size + nseg * TABLE_ENTRY.size > length:
        raise FrameError("segment table exceeds the frame length")


def _check_table(entries: list[tuple[int, int]], length: int) -> None:
    for _, seg_flags in entries:
        if seg_flags:
            raise FrameError(f"unknown segment flags 0x{seg_flags:02X}")
    declared = (
        META.size
        + len(entries) * TABLE_ENTRY.size
        + sum(size for size, _ in entries)
    )
    if declared != length:
        raise FrameError(
            f"segment table sums to {declared} bytes but the "
            f"frame announces {length}"
        )


# -- decoding --------------------------------------------------------------------------


class Frame:
    """One decoded frame: its segments, in wire order."""

    __slots__ = ("segments",)

    def __init__(self, segments: list[bytes]) -> None:
        self.segments = segments

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame(segments={[len(s) for s in self.segments]})"


def _decode_body(body: memoryview, length: int) -> Frame:
    """Decode a whole frame payload (everything after the header)."""
    flags, nseg = META.unpack_from(body, 0)
    _check_meta(flags, nseg, length)
    offset = META.size + nseg * TABLE_ENTRY.size
    entries = list(TABLE_ENTRY.iter_unpack(body[META.size : offset]))
    _check_table(entries, length)
    segments: list[bytes] = []
    for size, _ in entries:
        segments.append(bytes(body[offset : offset + size]))
        offset += size
    return Frame(segments)


def decode_frame(buffer, *, max_frame: int = DEFAULT_MAX_FRAME) -> Frame:
    """Decode the one whole frame ``buffer`` holds.

    Raises :class:`TruncatedFrameError` when the buffer ends before the
    frame does, and :class:`FrameError` when bytes trail it or any
    header, table or segment check fails.
    """
    view = memoryview(buffer)
    if view.nbytes < HEADER.size:
        raise TruncatedFrameError(
            f"{view.nbytes} bytes cannot hold a {HEADER.size}-byte frame header"
        )
    magic, version, length = HEADER.unpack_from(view, 0)
    _check_header(magic, version, length, max_frame)
    end = HEADER.size + length
    if view.nbytes < end:
        raise TruncatedFrameError(
            f"frame announces {length} bytes but only {view.nbytes - HEADER.size} follow"
        )
    if view.nbytes > end:
        raise FrameError(f"{view.nbytes - end} bytes trail the frame")
    return _decode_body(view[HEADER.size : end], length)


# -- exact-framed socket reads ---------------------------------------------------------

#: Frames no larger than this are read by :func:`recv_frame` in one gulp
#: (two syscalls for a whole small-op frame); larger frames get
#: per-segment reads so every bulk segment lands in its own buffer.
_GULP_CUTOFF = 64 * 1024


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Exactly ``count`` bytes from a blocking socket, as one ``bytes``.

    ``MSG_WAITALL`` makes the kernel assemble the full run into a single
    allocation — for a bulk segment this is the *only* user-space copy
    of the payload, and the resulting immutable ``bytes`` is adopted
    as-is by the pickle-5 out-of-band decode path.
    """
    data = sock.recv(count, socket.MSG_WAITALL)
    if len(data) == count:
        return data
    if not data:
        raise TruncatedFrameError("stream ended inside a frame")
    # MSG_WAITALL can return short (signals, huge reads): finish by hand.
    parts = [data]
    got = len(data)
    while got < count:
        more = sock.recv(count - got, socket.MSG_WAITALL)
        if not more:
            raise TruncatedFrameError("stream ended inside a frame")
        parts.append(more)
        got += len(more)
    return b"".join(parts)


def recv_frame(
    sock: socket.socket, *, max_frame: int = DEFAULT_MAX_FRAME
) -> Frame | None:
    """Read one whole frame from a blocking socket, minimally copied.

    The stream's self-describing layout makes exact reads possible: the
    fixed header announces the frame length, the segment table announces
    every segment's size.  Small frames arrive in one gulp; each bulk
    segment of a large frame is read with ``MSG_WAITALL`` straight into
    its own immutable ``bytes`` — no accumulation buffer, no re-slicing,
    no materialization copy.

    Returns ``None`` on a clean end-of-stream at a frame boundary.
    Raises :class:`FrameError` (stream corrupt) or
    :class:`TruncatedFrameError` (peer died mid-frame) otherwise.
    """
    header = sock.recv(HEADER.size, socket.MSG_WAITALL)
    if not header:
        return None
    if len(header) < HEADER.size:
        header += _recv_exact(sock, HEADER.size - len(header))
    magic, version, length = HEADER.unpack(header)
    _check_header(magic, version, length, max_frame)
    if length <= _GULP_CUTOFF:
        return _decode_body(memoryview(_recv_exact(sock, length)), length)
    flags, nseg = META.unpack(_recv_exact(sock, META.size))
    _check_meta(flags, nseg, length)
    table = _recv_exact(sock, nseg * TABLE_ENTRY.size)
    entries = list(TABLE_ENTRY.iter_unpack(table))
    _check_table(entries, length)
    return Frame([_recv_exact(sock, size) if size else b"" for size, _ in entries])
