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

    frame flags:   bit 0 = FLAG_BATCH — every segment is one complete
                   encoded message (small-op coalescing envelope)
    segment flags: bits 0-3 = codec id of a compressed segment
                   (0 = raw, 1 = zlib)

The magic byte and the version byte (:data:`WIRE_VERSION`) let a stream
that is not an RPC stream of this layout be rejected at its first frame.

A message's bulk payloads (pages, blocks) travel as their *own*
segments, so the sender can hand the original buffers to a
scatter-gather write (``sendmsg`` / ``writelines``) without ever
concatenating them into one heap-allocated frame, and the receiver can
place each bulk segment into an exactly-sized buffer instead of
re-slicing a grow-and-compact accumulation buffer.

Two decoders share the validation rules: :func:`recv_frame` reads whole
frames from a blocking socket (the threaded client), and
:class:`ScatterParser` decodes incrementally (the asyncio server and the
loopback transport).  The parser accepts arbitrary chunk boundaries via
:meth:`ScatterParser.feed` (small data is absorbed into an offset-drained
buffer — amortized O(1) per byte, no per-frame prefix deletion) and,
while a bulk segment is pending, exposes the exact remaining region of
that segment's buffer via :meth:`ScatterParser.wants_direct` so the
caller can ``recv_into`` it with no intermediate copy.
"""

from __future__ import annotations

import socket
import struct
import zlib
from typing import Sequence

from .errors import FrameError, FrameTooLargeError, TruncatedFrameError

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "HEADER",
    "META",
    "TABLE_ENTRY",
    "FLAG_BATCH",
    "DEFAULT_MAX_FRAME",
    "encode_frame",
    "recv_frame",
    "Frame",
    "ScatterParser",
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
#: Frame flag: every segment is one complete encoded message.
FLAG_BATCH = 0x01
#: Low nibble of a segment's flags: codec id (0 = uncompressed).
SEG_CODEC_MASK = 0x0F
#: Codec id of a zlib-compressed segment, the only codec.
CODEC_ZLIB = 1
#: Default ceiling on a frame's payload (pages are <= a few MiB; 64 MiB
#: leaves room for whole-block transfers plus pickling overhead).
DEFAULT_MAX_FRAME = 64 * 1024 * 1024
#: Ceiling on a frame's segment count (sanity bound on the table).
MAX_SEGMENTS = 4096
#: Segments at least this large are received straight into an
#: exactly-sized buffer instead of through the chunk accumulation path.
DIRECT_CUTOFF = 64 * 1024


# -- encoding --------------------------------------------------------------------------


def _nbytes(segment) -> int:
    return segment.nbytes if isinstance(segment, memoryview) else len(segment)


def encode_frame(
    segments: Sequence,
    *,
    flags: int = 0,
    max_frame: int = DEFAULT_MAX_FRAME,
    compress_threshold: int | None = None,
) -> list:
    """Encode one frame as a scatter-gather list, copy-free.

    Returns ``[head, seg0, seg1, ...]`` where ``head`` is the fixed
    header plus the segment table and every other element is the
    caller's buffer itself (bytes or memoryview) — hand the list to
    ``socket.sendmsg`` / ``writer.writelines`` and the bulk payloads are
    never concatenated or copied by this layer.

    Segments of at least ``compress_threshold`` bytes are compressed
    with zlib and flagged, but only when that actually shrinks them —
    incompressible pages travel raw.
    """
    if not segments:
        raise ValueError("a frame needs at least one segment")
    if len(segments) > MAX_SEGMENTS:
        raise ValueError(f"too many segments ({len(segments)} > {MAX_SEGMENTS})")
    out: list = []
    entries: list[tuple[int, int]] = []
    total = META.size + len(segments) * TABLE_ENTRY.size
    for segment in segments:
        size = _nbytes(segment)
        seg_flags = 0
        if compress_threshold is not None and size >= compress_threshold:
            # Level 1: the wire codec trades ratio for speed — threshold
            # compression exists to win on fat, compressible payloads, not
            # to stall the event loop grinding incompressible pages.
            packed = zlib.compress(segment, 1)
            if len(packed) < size:
                segment, size, seg_flags = packed, len(packed), CODEC_ZLIB
        entries.append((size, seg_flags))
        out.append(segment)
        total += size
    if total > max_frame:
        raise FrameTooLargeError(total, max_frame)
    head = bytearray(HEADER.pack(MAGIC, WIRE_VERSION, total))
    head += META.pack(flags, len(entries))
    for size, seg_flags in entries:
        head += TABLE_ENTRY.pack(size, seg_flags)
    out.insert(0, bytes(head))
    return out


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


def _check_meta(nseg: int, length: int) -> None:
    if not 1 <= nseg <= MAX_SEGMENTS:
        raise FrameError(f"frame announces {nseg} segments")
    if META.size + nseg * TABLE_ENTRY.size > length:
        raise FrameError("segment table exceeds the frame length")


def _check_table(entries: list[tuple[int, int]], length: int) -> None:
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


def _decode_stored(segment: bytes, seg_flags: int, limit: int) -> bytes:
    """Undo a segment's codec flag (bomb-guarded by ``limit``)."""
    code = seg_flags & SEG_CODEC_MASK
    if not code:
        return segment
    if code != CODEC_ZLIB:
        raise FrameError(f"unknown segment codec id {code}")
    decomp = zlib.decompressobj()
    try:
        out = decomp.decompress(segment, limit + 1)
    except zlib.error as exc:
        raise FrameError(f"corrupt compressed segment: {exc!r}") from exc
    if len(out) > limit or not decomp.eof:
        raise FrameError(
            f"compressed segment inflates past the {limit}-byte frame limit"
        )
    return out


# -- decoding --------------------------------------------------------------------------


class Frame:
    """One decoded frame: its flags and segments."""

    __slots__ = ("flags", "segments")

    def __init__(self, flags: int, segments: list[bytes]) -> None:
        self.flags = flags
        self.segments = segments

    @property
    def is_batch(self) -> bool:
        """True when every segment is one complete encoded message."""
        return bool(self.flags & FLAG_BATCH)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(s) for s in self.segments]
        return f"Frame(flags=0x{self.flags:02X}, segments={sizes})"


#: Parser stages, in stream order.
_HEADER, _META, _TABLE, _SEGMENT = range(4)
#: Compact the accumulation buffer once this many bytes are drained.
_COMPACT_AT = 64 * 1024


class ScatterParser:
    """Incremental scatter-gather frame parser.

    Not thread-safe: each connection owns exactly one parser (frames of
    one stream are sequential by construction).  Two input paths exist:

    * :meth:`feed` — arbitrary chunks from any byte source.  Small data
      (headers, tables, sub-cutoff segments) accumulates in an
      offset-drained buffer: the read offset advances per frame and the
      buffer is compacted only once a threshold of dead prefix builds
      up, so decoding *n* small frames costs O(n), not O(n²).
    * :meth:`wants_direct` / :meth:`advance_direct` — while a bulk
      segment (>= ``direct_cutoff``) is incomplete, the parser exposes
      the exact remaining region of that segment's preallocated buffer,
      so a socket reader can ``recv_into`` it and the payload is written
      in place with zero intermediate copies.

    A malformed stream (bad magic, unknown version, oversized
    announcement, inconsistent segment table) raises
    :class:`FrameError`; the parser — and the connection feeding it —
    is unusable afterwards.
    """

    __slots__ = (
        "max_frame",
        "direct_cutoff",
        "_buf",
        "_off",
        "_stage",
        "_length",
        "_flags",
        "_table",
        "_segments",
        "_seg_index",
        "_direct",
        "_direct_view",
        "_direct_filled",
        "_pending",
        "_broken",
        "frames_decoded",
        "bytes_compacted",
    )

    def __init__(
        self,
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        direct_cutoff: int = DIRECT_CUTOFF,
    ) -> None:
        if max_frame < 1:
            raise ValueError("max_frame must be positive")
        if direct_cutoff < 1:
            raise ValueError("direct_cutoff must be positive")
        self.max_frame = max_frame
        self.direct_cutoff = direct_cutoff
        self._buf = bytearray()
        self._off = 0
        self._stage = _HEADER
        self._length = 0
        self._flags = 0
        self._table: list[tuple[int, int]] = []
        self._segments: list[bytes] = []
        self._seg_index = 0
        self._direct: bytearray | None = None
        self._direct_view: memoryview | None = None
        self._direct_filled = 0
        #: Bytes absorbed towards the next, still-incomplete frame.
        self._pending = 0
        self._broken = False
        #: Total frames decoded (monitoring/tests).
        self.frames_decoded = 0
        #: Bytes moved by buffer compaction — the copy-work metric the
        #: linearity regression test asserts on (the old decoder's
        #: per-frame prefix deletion made this quadratic in a burst).
        self.bytes_compacted = 0

    # -- introspection -----------------------------------------------------------------
    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next, still-incomplete frame."""
        return self._pending

    @property
    def at_boundary(self) -> bool:
        """True when the stream may end here without truncating a frame."""
        return self._pending == 0

    # -- direct (scatter-receive) path -------------------------------------------------
    def wants_direct(self) -> memoryview | None:
        """The exact region a pending bulk segment still needs, if any.

        When non-``None``, the caller should ``recv_into`` this view and
        report progress through :meth:`advance_direct`.  Feeding through
        :meth:`feed` remains correct meanwhile — mixed use is safe.
        """
        if self._direct_view is None:
            return None
        return self._direct_view[self._direct_filled :]

    def advance_direct(self, nbytes: int) -> list[Frame]:
        """Record ``nbytes`` received into :meth:`wants_direct`'s view."""
        if self._direct is None:
            raise RuntimeError("no bulk segment is pending direct receive")
        self._check_usable()
        self._direct_filled += nbytes
        self._pending += nbytes
        frames: list[Frame] = []
        if self._direct_filled >= len(self._direct):
            self._finish_direct(frames)
            self._run(frames)
        return frames

    # -- chunked path ------------------------------------------------------------------
    def feed(self, data) -> list[Frame]:
        """Absorb one chunk and return every frame it completes."""
        self._check_usable()
        frames: list[Frame] = []
        view = memoryview(data)
        if self._direct is not None:
            # A bulk segment is mid-receive: route its remainder straight
            # into the preallocated buffer, never through the small buffer.
            need = len(self._direct) - self._direct_filled
            take = min(need, view.nbytes)
            self._direct_view[self._direct_filled : self._direct_filled + take] = (
                view[:take]
            )
            self._direct_filled += take
            self._pending += take
            view = view[take:]
            if self._direct_filled >= len(self._direct):
                self._finish_direct(frames)
            elif view.nbytes == 0:
                return frames
        if view.nbytes:
            self._buf += view
            self._pending += view.nbytes
        self._run(frames)
        return frames

    def eof(self) -> None:
        """Signal end of stream; raises if it ends inside a frame."""
        if self._pending:
            raise TruncatedFrameError(
                f"stream ended with {self._pending} bytes of an incomplete frame"
            )

    # -- internals ---------------------------------------------------------------------
    def _check_usable(self) -> None:
        if self._broken:
            raise FrameError("parser is unusable after a protocol violation")

    def _fail(self, error: FrameError) -> FrameError:
        self._broken = True
        return error

    def _available(self) -> int:
        return len(self._buf) - self._off

    def _run(self, frames: list[Frame]) -> None:
        try:
            self._parse(frames)
        except FrameError as exc:
            raise self._fail(exc) from None
        finally:
            self._compact()

    def _parse(self, frames: list[Frame]) -> None:
        while True:
            if self._stage == _HEADER:
                if self._available() < HEADER.size:
                    return
                magic, version, length = HEADER.unpack_from(self._buf, self._off)
                _check_header(magic, version, length, self.max_frame)
                self._off += HEADER.size
                self._length = length
                self._segments = []
                self._stage = _META
            elif self._stage == _META:
                if self._available() < META.size:
                    return
                flags, nseg = META.unpack_from(self._buf, self._off)
                _check_meta(nseg, self._length)
                self._off += META.size
                self._flags = flags
                self._table = []
                self._stage = _TABLE
                self._seg_index = nseg  # reuse as "entries still to read"
            elif self._stage == _TABLE:
                need = self._seg_index * TABLE_ENTRY.size
                if self._available() < need:
                    return
                for _ in range(self._seg_index):
                    entry = TABLE_ENTRY.unpack_from(self._buf, self._off)
                    self._table.append(entry)
                    self._off += TABLE_ENTRY.size
                _check_table(self._table, self._length)
                self._seg_index = 0
                self._stage = _SEGMENT
            else:  # _SEGMENT
                if self._seg_index >= len(self._table):
                    self._emit(frames)
                    continue
                size, seg_flags = self._table[self._seg_index]
                available = self._available()
                if available < size:
                    if size >= self.direct_cutoff:
                        # Bulk segment: preallocate its exact buffer, move
                        # what already arrived, and let the caller receive
                        # the remainder straight into it.
                        self._direct = bytearray(size)
                        self._direct_view = memoryview(self._direct)
                        self._direct_view[:available] = memoryview(self._buf)[
                            self._off : self._off + available
                        ]
                        self._direct_filled = available
                        self._off += available
                    return
                segment = bytes(
                    memoryview(self._buf)[self._off : self._off + size]
                )
                self._off += size
                self._store_segment(segment, seg_flags)

    def _finish_direct(self, frames: list[Frame]) -> None:
        size, seg_flags = self._table[self._seg_index]
        segment = bytes(self._direct)
        self._direct = None
        self._direct_view = None
        self._direct_filled = 0
        try:
            self._store_segment(segment, seg_flags)
            if self._seg_index >= len(self._table):
                self._emit(frames)
        except FrameError as exc:
            raise self._fail(exc) from None

    def _store_segment(self, segment: bytes, seg_flags: int) -> None:
        self._segments.append(
            _decode_stored(segment, seg_flags, self.max_frame)
        )
        self._seg_index += 1

    def _emit(self, frames: list[Frame]) -> None:
        frames.append(Frame(self._flags, self._segments))
        self._pending -= HEADER.size + self._length
        self._segments = []
        self._stage = _HEADER
        self.frames_decoded += 1

    def _compact(self) -> None:
        if self._off == len(self._buf):
            if self._off:
                self._buf.clear()
                self._off = 0
        elif self._off >= _COMPACT_AT:
            self.bytes_compacted += len(self._buf) - self._off
            del self._buf[: self._off]
            self._off = 0


# -- exact-framed socket reads ---------------------------------------------------------

#: Frames no larger than this are read by :func:`recv_frame` in one gulp
#: (two syscalls for a whole small-op or batch frame); larger frames get
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
    no materialization copy.  This is the receive path of the threaded
    client; the asyncio server uses :class:`ScatterParser`.

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
        body = memoryview(_recv_exact(sock, length))
        flags, nseg = META.unpack_from(body, 0)
        _check_meta(nseg, length)
        offset = META.size + nseg * TABLE_ENTRY.size
        entries = list(TABLE_ENTRY.iter_unpack(body[META.size : offset]))
        _check_table(entries, length)
        segments: list[bytes] = []
        for size, seg_flags in entries:
            segments.append(
                _decode_stored(
                    bytes(body[offset : offset + size]), seg_flags, max_frame
                )
            )
            offset += size
        return Frame(flags, segments)
    flags, nseg = META.unpack(_recv_exact(sock, META.size))
    _check_meta(nseg, length)
    table = _recv_exact(sock, nseg * TABLE_ENTRY.size)
    entries = list(TABLE_ENTRY.iter_unpack(table))
    _check_table(entries, length)
    segments = []
    for size, seg_flags in entries:
        data = _recv_exact(sock, size) if size else b""
        segments.append(_decode_stored(data, seg_flags, max_frame))
    return Frame(flags, segments)
