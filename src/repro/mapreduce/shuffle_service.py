"""The shuffle: map output spills through the storage layer.

As in the paper's Hadoop, map output is materialised and reducers fetch
it; here it goes through the job's :class:`~repro.fs.interface.FileSystem`
(any registered backend — ``bsfs://``, ``hdfs://``, ``file://``), so
shuffle I/O exercises the storage layer under measurement:

* each map attempt *spills* its partitioned, sorted, combiner-applied
  output as **one file** holding every partition in partition order (the
  layout of Hadoop's ``file.out``; cf. Dean & Ghemawat, OSDI 2004, §3.1).
  Each partition is one *segment* of that file, encoded by
  :func:`encode_segment` on the map side (in a worker process when the job
  allows) and written by the tracker thread; the service keeps the index,
  ``(map, partition) → (path, offset, bytes, records)``, in memory;
* reduce tasks *fetch* their segments as soon as the producing map
  completes — before the last map finishes — overlapping shuffle I/O with
  the map phase exactly as Hadoop's copier threads do; a reducer reads only
  its own byte range of each map's file, many reducers sharing one file
  through offset reads, the access pattern BSFS is built for;
* a reduce task reads a partition of at most
  :data:`~repro.mapreduce.tasktracker.WORKER_REDUCE_MAX_BYTES` whole
  (:meth:`SegmentReader.read_all`) and hands the bytes to a task worker
  process, which merges the decoded runs with :func:`merge_runs`; a larger
  partition is merged on its slot thread over streaming segment readers
  (:meth:`ShuffleService.merged_pairs`), so a reduce partition larger than
  memory still reduces.

Segments are sequences of length-prefixed frames: each frame is
``4-byte big-endian length + pickle([(key, value), ...])``, one pickle for a
batch of records of about :data:`FRAME_BYTES`.  A map's partition is sorted
by ``repr(key)`` when it is spilled, so it is one sorted run, and the stable
k-way merge over segments ordered by map index yields the partition sorted
by ``repr(key)``, with the values of equal keys in map order — the order a
stable sort by ``repr(key)`` of every map's output, concatenated in map
order, gives.

One caveat: grouping relies on equal keys having equal ``repr`` (true for
the usual str/bytes/int/tuple keys).  A job mixing keys that compare equal
but print differently (``1`` and ``True``) may get more than one reducer
call for them, because such keys need not be adjacent in ``repr`` order.
"""

from __future__ import annotations

import heapq
import pickle
import struct
import threading
import time
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable, Iterator

from ..core.transfer import TransferEngine, default_engine
from ..fs import path as fspath
from ..fs.errors import FileSystemError
from ..fs.interface import FileSystem

__all__ = [
    "decode_segment",
    "encode_segment",
    "merge_runs",
    "ShuffleAbortedError",
    "SpilledSegment",
    "SegmentReader",
    "ShuffleService",
]

#: Target size of one frame: the records of a frame are pickled, and
#: unpickled, with one call.
FRAME_BYTES = 64 * 1024

#: Maximum sorted runs merged in one pass (Hadoop's ``io.sort.factor``
#: idea): more runs cascade through intermediate on-storage merges, keeping
#: open streams and merge memory bounded however large the partition is.
DEFAULT_MERGE_FACTOR = 32

#: Cap on the bytes held in fetched-but-not-yet-merged segment buffers at
#: any moment.  Readers refund the budget as the merge consumes them, so it
#: bounds live memory, not the job's total prefetch volume.
DEFAULT_PREFETCH_BUDGET = 8 * 1024 * 1024

#: Big-endian 4-byte frame length prefix.
_LENGTH = struct.Struct(">I")


def _frames(pairs: Iterable[Any], budget: int) -> Iterator[tuple[int, bytes]]:
    """Encode ``pairs`` as ``(records, length-prefixed frame)`` items.

    The first frame holds one record; every later one holds as many as fit
    ``budget`` bytes at its predecessor's bytes per record.
    """
    pairs = iter(pairs)
    count = 1
    while batch := list(islice(pairs, count)):
        payload = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        yield len(batch), _LENGTH.pack(len(payload)) + payload
        count = max(1, budget * len(batch) // len(payload))


def encode_segment(pairs: Iterable[Any]) -> tuple[bytes, int]:
    """One map partition's sorted pairs as ``(length-prefixed frames,
    records)``: the segment it spills.  Runs on the map side (in a worker
    process when the job's map side pickles); the shuffle service only
    writes the result."""
    frames: list[bytes] = []
    records = 0
    for count, frame in _frames(pairs, FRAME_BYTES):
        frames.append(frame)
        records += count
    return b"".join(frames), records


def decode_segment(payload: bytes) -> Iterator[Any]:
    """The records of one encoded segment, in order."""
    view = memoryview(payload)
    offset = 0
    while offset < len(view):
        end = offset + _LENGTH.size + _LENGTH.unpack_from(view, offset)[0]
        yield from pickle.loads(view[offset + _LENGTH.size : end])
        offset = end


def _key_repr(pair: tuple[Any, Any]) -> str:
    return repr(pair[0])


def merge_runs(runs: Iterable[Iterable[tuple[Any, Any]]]) -> Iterator[tuple[Any, Any]]:
    """Stable k-way merge of sorted runs by ``repr(key)``.

    Given the runs in map order, the values of equal keys come out in map
    order.
    """
    return heapq.merge(*runs, key=_key_repr)


class ShuffleAbortedError(RuntimeError):
    """Raised to waiting reduce fetchers when a map task failed."""


@dataclass(frozen=True, slots=True)
class SpilledSegment:
    """One map task's output for one reduce partition: the byte range
    ``[offset, offset + bytes)`` of its spill file."""

    map_index: int
    partition: int
    path: str
    offset: int
    bytes: int
    records: int


class SegmentReader:
    """Streaming, bounded-memory record iterator over one spilled segment.

    Every storage read stays inside the segment's byte range of its spill
    file, so reducers sharing one map's file never read each other's
    partitions.  Resource discipline matters because one reduce partition
    has a segment per map, and a job may have thousands of maps:

    * the storage stream is opened *lazily* — constructing a reader costs
      nothing on the backend, so collecting every segment of a partition
      does not accumulate open file handles;
    * :meth:`prefetch` is a single open-read-close of the first chunk (the
      reduce-side "fetch" that overlaps the map phase) — it leaves data in
      the buffer but no handle open; the shuffle service runs prefetches
      *asynchronously* on its transfer engine, so many segments fetch in
      parallel while the merge is still consuming earlier ones
      (:meth:`attach_prefetch` hands the reader the in-flight future);
    * during iteration at most ``chunk_size`` bytes of undecoded data (plus
      one frame) are held via the backend's streaming ``open_read``, and
      the stream is closed when exhausted.
    """

    def __init__(
        self,
        fs: FileSystem,
        segment: SpilledSegment,
        *,
        chunk_size: int = 64 * 1024,
        on_release: Any = None,
    ) -> None:
        self.segment = segment
        self._fs = fs
        self._chunks = None  # lazily opened streaming read iterator
        self._chunk_size = max(chunk_size, _LENGTH.size)
        self._buffer = bytearray()
        self._offset = 0  # next byte of the segment to read
        self._on_release = on_release
        self._prefetched_bytes = 0
        self._prefetch_future = None

    def attach_prefetch(self, future) -> None:
        """Record the in-flight async prefetch of this reader."""
        self._prefetch_future = future

    def _resolve_prefetch(self) -> None:
        """Wait for an in-flight async prefetch before touching the buffer."""
        future, self._prefetch_future = self._prefetch_future, None
        if future is not None:
            future.result()

    def prefetch(self) -> int:
        """Open-read-close the first chunk from storage; returns bytes read.

        Runs as soon as the producing map completes, overlapping shuffle
        reads with the still-running map phase without keeping a stream
        open while the reader waits its turn in the merge.  Bytes are
        committed to the buffer only on success, so a failed prefetch
        leaves the reader clean for a plain (error-reporting) read.
        """
        if self._offset or self._chunks is not None:
            return 0
        fetched: list[memoryview] = []
        got = 0
        chunks = self._open(
            min(self._chunk_size, self.segment.bytes), chunk_size=self._chunk_size
        )
        try:
            for chunk in chunks:
                fetched.append(chunk)
                got += len(chunk)
        finally:
            close = getattr(chunks, "close", None)
            if close is not None:
                close()
        for chunk in fetched:
            self._buffer += chunk
        self._offset += got
        self._prefetched_bytes = got
        return got

    def _release_prefetch(self) -> None:
        """Hand the prefetched bytes back to their accountant (once).

        Called when iteration starts (the buffer stops being
        "fetched-but-unmerged" and becomes bounded merge memory) so the
        service's prefetch budget tracks *live* fetch buffers instead of
        depleting over the job's lifetime.
        """
        if self._prefetched_bytes and self._on_release is not None:
            released, self._prefetched_bytes = self._prefetched_bytes, 0
            self._on_release(released)

    def _open(self, length: int, **kwargs: Any) -> Iterator[memoryview]:
        """Stream ``length`` bytes of the segment from the next unread one."""
        return self._fs.open_read(
            self.segment.path,
            offset=self.segment.offset + self._offset,
            length=length,
            **kwargs,
        )

    def _truncated(self) -> ValueError:
        segment = self.segment
        return ValueError(
            f"truncated shuffle segment: {segment.bytes} bytes at "
            f"{segment.offset} of {segment.path!r}"
        )

    def _read_chunk(self) -> bytes:
        """The next chunk of the segment; ``b""`` once its recorded size is
        read, so a segment the prefetch read whole is opened only once."""
        remaining = self.segment.bytes - self._offset
        if remaining <= 0:
            return b""
        if self._chunks is None:
            # Resume the streaming read where the prefetch stopped; the
            # backend's open_read applies its own read-ahead from here on.
            self._chunks = self._open(remaining, chunk_size=self._chunk_size)
        chunk = next(self._chunks, b"")
        if not chunk:
            raise self._truncated()
        self._offset += len(chunk)
        return chunk

    def _fill(self, needed: int) -> bool:
        while len(self._buffer) < needed:
            chunk = self._read_chunk()
            if not chunk:
                return False
            self._buffer += chunk
        return True

    def read_all(self) -> bytes:
        """The whole segment: the prefetched first chunk, then the rest in
        one streaming range read.  The reader is spent afterwards."""
        self._resolve_prefetch()
        self._release_prefetch()
        parts: list[Any] = [self._buffer]
        remaining = self.segment.bytes - self._offset
        if remaining > 0:
            parts.extend(self._open(remaining))
        payload = b"".join(parts)
        self._buffer = bytearray()
        self._offset = self.segment.bytes
        if len(payload) != self.segment.bytes:
            raise self._truncated()
        return payload

    def close(self) -> None:
        """Release the storage stream and any prefetch accounting (idempotent)."""
        self._resolve_prefetch()
        self._release_prefetch()
        if self._chunks is not None:
            close = getattr(self._chunks, "close", None)
            if close is not None:
                close()
            self._chunks = None

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        self._resolve_prefetch()
        self._release_prefetch()
        try:
            while True:
                if not self._fill(_LENGTH.size):
                    if self._buffer:
                        raise self._truncated()
                    return
                end = _LENGTH.size + _LENGTH.unpack_from(self._buffer)[0]
                if not self._fill(end):
                    raise self._truncated()
                with memoryview(self._buffer)[_LENGTH.size : end] as payload:
                    frame = pickle.loads(payload)
                del self._buffer[:end]
                yield from frame
        finally:
            self.close()


class ShuffleService:
    """Coordinates spilled map segments between map and reduce tasks.

    Map side: :meth:`spill_map_output` writes one map task's encoded
    per-partition segments as one file through the file system and
    publishes their byte ranges.
    Reduce side: :meth:`fetch_segments` blocks until segments appear and
    yields them as the producing maps complete; :meth:`partition_readers`
    collects a whole partition, which a reduce either reads whole
    (:meth:`SegmentReader.read_all`) or merges as streams
    (:meth:`merged_pairs`).

    All mutable state is guarded by one condition variable; the service is
    meant to be driven by many concurrent map and reduce worker threads.
    """

    def __init__(
        self,
        fs: FileSystem,
        *,
        num_maps: int,
        num_partitions: int,
        shuffle_dir: str,
        fetch_chunk_size: int = 64 * 1024,
        merge_factor: int = DEFAULT_MERGE_FACTOR,
        prefetch_budget: int = DEFAULT_PREFETCH_BUDGET,
        transfer: TransferEngine | None = None,
    ) -> None:
        if num_maps < 0:
            raise ValueError("num_maps cannot be negative")
        if num_partitions < 1:
            raise ValueError("num_partitions must be at least 1")
        if merge_factor < 2:
            raise ValueError("merge_factor must be at least 2")
        self._fs = fs
        # Prefetches run asynchronously on a transfer engine, so segment
        # fetches of one reducer overlap both the map phase and the merge.
        # Deliberately NOT the file system's own engine: a prefetch blocks
        # on the backend's nested streaming read (which submits page
        # fetches to the backend engine), so running it on that same
        # bounded pool could deadlock it against its own children.
        self._transfer = transfer or default_engine()
        self._num_maps = num_maps
        self._num_partitions = num_partitions
        self._dir = fspath.normalize(shuffle_dir)
        self._fetch_chunk_size = fetch_chunk_size
        self._merge_factor = merge_factor
        self._prefetch_remaining = max(prefetch_budget, 0)
        self._cond = threading.Condition()
        # The index: per partition, every map's segment, as maps complete.
        self._segments: list[list[SpilledSegment]] = [
            [] for _ in range(num_partitions)
        ]
        self._merge_runs = 0
        self._maps_done = 0
        self._error: BaseException | None = None
        self._first_fetch: float | None = None
        self._last_map_done: float | None = None
        self.files_spilled = 0
        self.bytes_spilled = 0
        self.records_spilled = 0
        self.segments_fetched = 0
        self.merge_passes = 0
        fs.mkdirs(self._dir)

    # -- map side --------------------------------------------------------------------
    def spill_map_output(
        self,
        map_index: int,
        segments: list[tuple[bytes, int]],
        *,
        attempt: int = 0,
    ) -> tuple[int, int]:
        """Write one map attempt's encoded partitions as one file and
        publish their byte ranges.

        ``segments`` holds, per partition, the ``(frames, records)``
        :func:`encode_segment` built.  They are written through one stream
        in partition order; a map with no output writes no file.  Once the
        file is closed the map is marked complete and waiting reducers are
        woken.  Returns ``(bytes, records)`` spilled.

        The attempt id is part of the path, so a retried map never
        overwrites its predecessor's file.  A map publishes once: attempts
        of one task never overlap (a retry starts only after its
        predecessor failed, and an attempt cannot fail once it has
        spilled), so no second attempt of a completed map ever reaches the
        index.
        """
        if len(segments) != self._num_partitions:
            raise ValueError(
                f"map {map_index} spilled {len(segments)} partitions, "
                f"expected {self._num_partitions}"
            )
        path = fspath.join(self._dir, f"map-{map_index:05d}-a{attempt:02d}.out")
        spilled: list[SpilledSegment] = []
        offset = 0
        for partition, (payload, records) in enumerate(segments):
            if payload:
                spilled.append(
                    SpilledSegment(map_index, partition, path, offset, len(payload), records)
                )
                offset += len(payload)
        if spilled:
            # Intermediate data is transient; replication 1 matches
            # Hadoop's unreplicated map-output spills.
            with self._fs.open_write(path, overwrite=True, replication=1) as stream:
                for payload, _records in segments:
                    if payload:
                        stream.write(payload)
        total_records = sum(segment.records for segment in spilled)
        with self._cond:
            for segment in spilled:
                self._segments[segment.partition].append(segment)
            self._maps_done += 1
            self._last_map_done = time.monotonic()
            self.files_spilled += bool(spilled)
            self.bytes_spilled += offset
            self.records_spilled += total_records
            self._cond.notify_all()
        return offset, total_records

    def _refund_prefetch(self, amount: int) -> None:
        """Credit consumed prefetch bytes back to the budget."""
        with self._cond:
            self._prefetch_remaining += amount

    def abort(self, exc: BaseException) -> None:
        """Record a map-side failure and wake every waiting reduce fetcher."""
        with self._cond:
            if self._error is None:
                self._error = exc
            self._cond.notify_all()

    # -- reduce side -----------------------------------------------------------------
    def fetch_segments(self, partition: int) -> Iterator[SegmentReader]:
        """Yield prefetched readers for ``partition`` as maps complete.

        Blocks between batches until another map finishes (or the shuffle is
        aborted); returns once every map completed and every published
        segment was delivered.  The prefetch inside the loop is what starts
        reduce-side storage reads *before* the last map finishes.
        """
        delivered = 0
        while True:
            with self._cond:
                while (
                    self._error is None
                    and delivered >= len(self._segments[partition])
                    and self._maps_done < self._num_maps
                ):
                    self._cond.wait()
                if self._error is not None:
                    raise ShuffleAbortedError(
                        f"shuffle aborted by a failed map task: {self._error!r}"
                    ) from self._error
                batch = list(self._segments[partition][delivered:])
                delivered += len(batch)
                finished = (
                    self._maps_done >= self._num_maps
                    and delivered >= len(self._segments[partition])
                )
            for segment in batch:
                reader = SegmentReader(
                    self._fs,
                    segment,
                    chunk_size=self._fetch_chunk_size,
                    on_release=self._refund_prefetch,
                )
                # Reserve budget for a full chunk up front (atomically, so
                # concurrent reducers cannot oversubscribe the cap), then
                # return whatever the prefetch did not actually read.  The
                # budget caps *live* fetched-but-unmerged buffers: readers
                # refund it once merging starts consuming them, so eager
                # reads keep flowing however much the job shuffles in total.
                with self._cond:
                    if self._prefetch_remaining >= self._fetch_chunk_size:
                        reserved = self._fetch_chunk_size
                        self._prefetch_remaining -= reserved
                    else:
                        reserved = 0
                if reserved > 0:
                    # The prefetch itself runs on the transfer engine so
                    # many segments fetch in parallel while this generator
                    # (and the merge behind it) keeps moving; the reader
                    # joins the future before first use.
                    reader.attach_prefetch(
                        self._transfer.submit(self._prefetch_one, reader, reserved)
                    )
                with self._cond:
                    if self._first_fetch is None:
                        self._first_fetch = time.monotonic()
                    self.segments_fetched += 1
                yield reader
            if finished:
                return

    def _prefetch_one(self, reader: SegmentReader, reserved: int) -> int:
        """Engine-side body of one async segment prefetch.

        Never lets an exception escape into the future: a failed prefetch
        just refunds its reservation and leaves the reader clean, so the
        real (diagnosable) error surfaces from the merge's own read.
        """
        fetched = 0
        try:
            fetched = reader.prefetch()
        except BaseException:
            fetched = 0
        with self._cond:
            self._prefetch_remaining += max(reserved - fetched, 0)
        return fetched

    def partition_readers(self, partition: int) -> list[SegmentReader]:
        """Every segment reader of ``partition``, in map order; blocks until
        every map completed (fetching overlaps the map phase meanwhile)."""
        return sorted(
            self.fetch_segments(partition), key=lambda reader: reader.segment.map_index
        )

    def merged_pairs(
        self, partition: int, readers: list[SegmentReader] | None = None
    ) -> Iterator[tuple[Any, Any]]:
        """External k-way merge over every segment of ``partition``.

        ``readers`` are the partition's :meth:`partition_readers` (fetched
        here when not given): fetching overlaps the map phase, and the
        merge itself starts once all maps completed.  The pairs come out
        sorted by ``repr(key)`` with the values of equal keys in map order
        (see :func:`merge_runs`).

        When a partition spans more than ``merge_factor`` segments, the
        earliest runs are cascaded through intermediate on-storage merges
        (Hadoop's multi-pass merge): at most ``merge_factor`` streams are
        ever open at once, so file handles and merge memory stay bounded
        however large the partition is.  Prepending each intermediate run
        preserves the stable equal-key order, since it holds the earliest
        maps' records.
        """
        if readers is None:
            readers = self.partition_readers(partition)
        while len(readers) > self._merge_factor:
            batch, readers = readers[: self._merge_factor], readers[self._merge_factor :]
            intermediate = self._merge_to_segment(partition, batch)
            readers.insert(
                0,
                SegmentReader(
                    self._fs, intermediate, chunk_size=self._fetch_chunk_size
                ),
            )
        return merge_runs(readers)

    def _merge_to_segment(
        self, partition: int, readers: list[SegmentReader]
    ) -> SpilledSegment:
        """Merge up to ``merge_factor`` sorted runs into one on-storage run,
        a file of its own read from offset 0.

        Runs are named by a service-wide counter, never by (partition,
        round): attempts of the same reduce partition (a retry after a
        failed attempt) each cascade into their own files instead of
        overwriting each other's mid-read.
        """
        with self._cond:
            run_id = self._merge_runs
            self._merge_runs += 1
        path = fspath.join(self._dir, f"merge-part-{partition:05d}-run-{run_id:04d}")
        records = 0
        total = 0
        merged = merge_runs(readers)
        with self._fs.open_write(path, overwrite=True, replication=1) as stream:
            for count, frame in _frames(merged, FRAME_BYTES):
                stream.write(frame)
                records += count
                total += len(frame)
        with self._cond:
            self.merge_passes += 1
        return SpilledSegment(
            map_index=-1,  # precedes every real map, matching its content
            partition=partition,
            path=path,
            offset=0,
            bytes=total,
            records=records,
        )

    # -- lifecycle / reporting -------------------------------------------------------
    def cleanup(self) -> None:
        """Delete every spill file (the whole shuffle directory)."""
        try:
            if self._fs.exists(self._dir):
                self._fs.delete(self._dir, recursive=True)
        except FileSystemError:
            pass

    @property
    def overlapped(self) -> bool:
        """Whether some reduce fetch started before the last map finished."""
        return (
            self._first_fetch is not None
            and self._last_map_done is not None
            and self._first_fetch < self._last_map_done
        )

    def stats(self) -> dict:
        """JSON-friendly snapshot of the shuffle's I/O and overlap behaviour."""
        with self._cond:
            return {
                # Spill files written; the key keeps the name the
                # end-to-end benchmark reads.
                "segments_spilled": self.files_spilled,
                "bytes_spilled": self.bytes_spilled,
                "records_spilled": self.records_spilled,
                "segments_fetched": self.segments_fetched,
                "merge_passes": self.merge_passes,
                "maps_completed": self._maps_done,
                "first_fetch_time": self._first_fetch,
                "last_map_done_time": self._last_map_done,
                "overlapped": self.overlapped,
            }
