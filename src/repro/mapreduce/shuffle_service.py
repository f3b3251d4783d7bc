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
* a reduce task reads its segment of each map's file as soon as that map
  commits — before the last map finishes — with one range read
  (:meth:`ShuffleService.fetch_segments`), overlapping shuffle I/O with the
  map phase as Hadoop's copier threads do; many reducers share one map's
  file through offset reads, the access pattern BSFS is built for;
* once every map committed, the reduce merges its partition's segments in
  map order with :func:`merge_runs`, in a task worker process when the job
  allows and on its slot thread otherwise
  (:meth:`ShuffleService.merged_pairs`).

A reduce partition is held in memory, as a map's whole output already is
on the map side; the reduce's output is built in memory too, so reading
the partition by streams would not bound a reduce's memory.

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

from ..fs import path as fspath
from ..fs.errors import FileSystemError
from ..fs.interface import FileSystem

__all__ = [
    "decode_segment",
    "encode_segment",
    "merge_runs",
    "ShuffleAbortedError",
    "SpilledSegment",
    "ShuffleService",
]

#: Target size of one frame: the records of a frame are pickled, and
#: unpickled, with one call.
FRAME_BYTES = 64 * 1024

#: Big-endian 4-byte frame length prefix.
_LENGTH = struct.Struct(">I")


def encode_segment(pairs: Iterable[Any]) -> tuple[bytes, int]:
    """One map partition's sorted pairs as ``(length-prefixed frames,
    records)``: the segment it spills.  Runs on the map side (in a worker
    process when the job's map side pickles); the shuffle service only
    writes the result.

    The first frame holds one record; every later one holds as many as fit
    :data:`FRAME_BYTES` at its predecessor's bytes per record.
    """
    frames: list[bytes] = []
    records = 0
    pairs = iter(pairs)
    count = 1
    while batch := list(islice(pairs, count)):
        payload = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        frames.append(_LENGTH.pack(len(payload)) + payload)
        records += len(batch)
        count = max(1, FRAME_BYTES * len(batch) // len(payload))
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


class ShuffleService:
    """Coordinates spilled map segments between map and reduce tasks.

    Map side: :meth:`spill_map_output` writes one map task's encoded
    per-partition segments as one file through the file system and
    publishes their byte ranges.
    Reduce side: :meth:`fetch_segments` reads a partition's segment of each
    map's file as that map commits; :meth:`partition_payloads` collects
    them in map order once every map committed, and :meth:`merged_pairs`
    merges them on the calling thread.

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
    ) -> None:
        if num_maps < 0:
            raise ValueError("num_maps cannot be negative")
        if num_partitions < 1:
            raise ValueError("num_partitions must be at least 1")
        self._fs = fs
        self._num_maps = num_maps
        self._num_partitions = num_partitions
        self._dir = fspath.normalize(shuffle_dir)
        self._cond = threading.Condition()
        # The index: per partition, every map's segment, as maps complete.
        self._segments: list[list[SpilledSegment]] = [
            [] for _ in range(num_partitions)
        ]
        self._maps_done = 0
        self._error: BaseException | None = None
        self._first_fetch: float | None = None
        self._last_map_done: float | None = None
        self.files_spilled = 0
        self.bytes_spilled = 0
        self.records_spilled = 0
        self.segments_fetched = 0
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

    def abort(self, exc: BaseException) -> None:
        """Record a map-side failure and wake every waiting reduce fetcher."""
        with self._cond:
            if self._error is None:
                self._error = exc
            self._cond.notify_all()

    # -- reduce side -----------------------------------------------------------------
    def fetch_segments(self, partition: int) -> Iterator[tuple[int, bytes]]:
        """Read ``partition``'s segment of each map's file as that map
        commits, and yield ``(map index, segment bytes)`` in commit order.

        Blocks until another map commits (or the shuffle is aborted, which
        raises :class:`ShuffleAbortedError`); returns once every map
        committed and each of their segments was read.  Reading inside the
        loop is what overlaps reduce-side storage reads with the map phase.
        """
        delivered = 0
        while True:
            with self._cond:
                segments = self._segments[partition]
                while (
                    self._error is None
                    and delivered == len(segments)
                    and self._maps_done < self._num_maps
                ):
                    self._cond.wait()
                if self._error is not None:
                    raise ShuffleAbortedError(
                        f"shuffle aborted by a failed map task: {self._error!r}"
                    ) from self._error
                if delivered == len(segments):
                    return
                segment = segments[delivered]
                delivered += 1
                if self._first_fetch is None:
                    self._first_fetch = time.monotonic()
                self.segments_fetched += 1
            yield segment.map_index, self._read(segment)

    def _read(self, segment: SpilledSegment) -> bytes:
        """The bytes of ``segment``, read with one range read of its file.

        Raises ``ValueError`` when the file holds fewer bytes than the
        index records: every frame that did arrive may decode, so only the
        recorded size can tell that the rest is missing.
        """
        payload = b"".join(
            self._fs.open_read(segment.path, offset=segment.offset, length=segment.bytes)
        )
        if len(payload) != segment.bytes:
            raise ValueError(
                f"truncated shuffle segment: {segment.bytes} bytes at "
                f"{segment.offset} of {segment.path!r}"
            )
        return payload

    def partition_payloads(self, partition: int) -> list[bytes]:
        """Every segment of ``partition``, in map order.

        Blocks until every map committed; :meth:`fetch_segments` reads each
        segment as its map commits meanwhile.
        """
        fetched = dict(self.fetch_segments(partition))
        return [fetched[map_index] for map_index in sorted(fetched)]

    def merged_pairs(self, payloads: list[bytes]) -> Iterator[tuple[Any, Any]]:
        """The records of a partition's segments, given in map order, as
        one run sorted by ``repr(key)`` with the values of equal keys in map
        order (see :func:`merge_runs`).  A reduce that computes on its slot
        thread merges here; a task worker merges the same way."""
        return merge_runs(decode_segment(payload) for payload in payloads)

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
                "maps_completed": self._maps_done,
                "first_fetch_time": self._first_fetch,
                "last_map_done_time": self._last_map_done,
                "overlapped": self.overlapped,
            }
