"""Input splitting and record reading.

Hadoop splits each input file into chunk-sized *input splits* and runs one
map task per split; the paper's microbenchmarks mirror this (clients reading
non-overlapping parts of the same huge file correspond to the map phase).
This module reproduces the two input formats the reproduction needs:

* :class:`TextInputFormat` — line-oriented records over file splits, with
  Hadoop's boundary convention: a split skips its first (partial) line
  unless it starts at offset zero, and reads past its end to finish its
  last line, so every line of the file is processed exactly once no matter
  how the file is split;
* :class:`SyntheticInputFormat` — inputless splits for generator jobs such
  as Random Text Writer, where each map task produces data rather than
  consuming it.

Both formats' readers separate I/O from compute: ``fetch()`` reads what
the split needs from storage (on the task tracker's thread) and returns a
picklable iterable of records, so the per-record work — for text,
:func:`cut_lines` — can run in a map worker process
(:mod:`repro.mapreduce.task_workers`).  Iterating a reader does both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from ..fs.interface import FileSystem
from ..fs.path import split_as_of
from .job import JobConf

__all__ = [
    "InputSplit",
    "LineRecordReader",
    "SplitBytes",
    "cut_lines",
    "TextInputFormat",
    "SyntheticInputFormat",
]


@dataclass(frozen=True, slots=True)
class InputSplit:
    """One unit of map-side work."""

    split_id: int
    path: str | None
    offset: int
    length: int
    hosts: tuple[str, ...] = ()
    #: Storage snapshot the split reads (``AS OF`` jobs); ``None`` reads
    #: the file's current state.  Stamped by the input format from the
    #: job's ``snapshot_version`` or an ``@vN`` path suffix.
    version: int | None = None

    @property
    def is_synthetic(self) -> bool:
        """Whether the split carries no input file (generator jobs)."""
        return self.path is None


def cut_lines(data: bytes, start: int, end: int) -> Iterator[tuple[int, bytes]]:
    """The ``(byte offset, line)`` records of the split ``[start, end)``.

    ``data`` holds the file's bytes from ``start`` on, at least up to the
    newline ending the split's last line (or to the end of the file).
    Hadoop's convention decides ownership: a split owns every line that
    starts in ``(start, end]``, plus the first line of the file when
    ``start`` is 0.  The line starting exactly at ``end`` is this split's
    because the next split always skips its first (possibly complete)
    line, which its predecessor finishes.  So every line of the file is
    read exactly once however the file is split.
    """
    if start > 0 and data.find(b"\n", 0, end - start) < 0:
        return  # no line starts in (start, end]
    lines = data.split(b"\n")
    # What follows the last newline: the file's final line when it has no
    # newline, else empty or a line starting past ``end``.
    last = lines.pop()
    offset = start
    if start > 0:
        offset += len(lines[0]) + 1  # the previous split's line
        del lines[0]
    for line in lines:
        if offset > end:
            return
        yield offset, line
        offset += len(line) + 1
    if last and offset <= end:
        yield offset, last


@dataclass(frozen=True)
class SplitBytes:
    """A fetched text split: iterating it cuts its records (:func:`cut_lines`)."""

    data: bytes
    start: int
    end: int

    def __iter__(self) -> Iterator[tuple[int, bytes]]:
        return cut_lines(self.data, self.start, self.end)


class LineRecordReader:
    """Reads the ``(byte offset, line)`` records of one split, Hadoop-style.

    :meth:`fetch` does the storage I/O: it streams the split's own byte
    range through the file system's ``open_read`` (BSFS fetches pages
    concurrently, HDFS prefetches block chunks), then, past the split's
    end, only finishes its last line, in bounded pieces
    (:attr:`_TAIL_PIECE`, doubling up to ``read_chunk``), so read-ahead
    never fetches the next split's bytes.  Cutting the fetched bytes into
    records is the pure :func:`cut_lines`, which a map task may run in a
    worker process.
    """

    #: First piece read past the split's end to finish the last line.
    _TAIL_PIECE = 64 * 1024

    def __init__(
        self,
        fs: FileSystem,
        split: InputSplit,
        *,
        read_chunk: int = 1024 * 1024,
    ) -> None:
        if split.path is None:
            raise ValueError("LineRecordReader needs a file-backed split")
        self._fs = fs
        self._split = split
        self._read_chunk = read_chunk

    def fetch(self) -> SplitBytes:
        """The split's bytes: ``[start, end)``, then up to the first newline
        at or after ``end``, within the split's snapshot size (an ``AS OF``
        job reads the same bytes however many appends land concurrently).
        """
        split = self._split
        if split.version is None:
            # Current-state split: bound by the size ``status`` reports
            # (wrapping views may clamp it; see the size-boundary tests).
            file_size = self._fs.status(split.path).size
        else:
            file_size = self._fs.snapshot_size(split.path, split.version)
        end = min(split.offset + split.length, file_size)
        start = min(split.offset, file_size)
        read = functools.partial(self._fs.open_read, split.path, version=split.version)
        data = b"".join(read(offset=start, length=end - start, chunk_size=self._read_chunk))
        if start > 0 and b"\n" not in data:
            return SplitBytes(data, start, end)  # owns no line: no tail
        tail: list[bytes] = []
        piece = min(self._TAIL_PIECE, self._read_chunk)
        position = end
        while position < file_size:
            length = min(piece, file_size - position)
            tail.append(b"".join(read(offset=position, length=length, chunk_size=length)))
            position += length
            if b"\n" in tail[-1]:
                break
            piece = min(2 * piece, self._read_chunk)
        if tail:
            data = b"".join((data, *tail))
        return SplitBytes(data, start, end)

    def __iter__(self) -> Iterator[tuple[int, bytes]]:
        return iter(self.fetch())


class TextInputFormat:
    """Computes file splits and produces line record readers."""

    def __init__(self, *, split_size: int | None = None) -> None:
        self._split_size = split_size

    def get_splits(self, fs: FileSystem, conf: JobConf) -> list[InputSplit]:
        """One split per ``split_size`` bytes of every input file.

        The split size defaults to the file's block size so splits align
        with storage blocks (the property locality-aware scheduling relies
        on); hosts come from the file system's block-location primitive.

        Splits of an ``AS OF`` job are sized against the pinned snapshot
        (an ``@vN`` path suffix wins over the job's ``snapshot_version``),
        so concurrent appends change neither the split set nor the bytes
        the map tasks read.
        """
        splits: list[InputSplit] = []
        split_id = 0
        for path in conf.input_paths:
            bare, suffix_version = split_as_of(path)
            status = fs.status(bare)
            if status.is_dir:
                files = [s.path for s in fs.list_files(bare, recursive=True)]
            else:
                files = [bare]
            for file_path in files:
                version = suffix_version
                if version is None:
                    version = conf.version_for(file_path)
                file_status = fs.status(file_path)
                size = fs.snapshot_size(file_path, version)
                if size == 0:
                    continue
                split_size = (
                    conf.split_size
                    or self._split_size
                    or file_status.block_size
                    or size
                )
                offset = 0
                while offset < size:
                    length = min(split_size, size - offset)
                    try:
                        locations = fs.block_locations(file_path, offset, length)
                        hosts: tuple[str, ...] = tuple(
                            dict.fromkeys(
                                host for loc in locations for host in loc.hosts
                            )
                        )
                    except Exception:
                        hosts = ()
                    splits.append(
                        InputSplit(
                            split_id=split_id,
                            path=file_path,
                            offset=offset,
                            length=length,
                            hosts=hosts,
                            version=version,
                        )
                    )
                    split_id += 1
                    offset += length
        return splits

    def create_reader(self, fs: FileSystem, split: InputSplit) -> LineRecordReader:
        """Record reader for one split."""
        return LineRecordReader(fs, split)


class SyntheticInputFormat:
    """Input format for generator jobs (no input files).

    Produces ``num_map_tasks`` synthetic splits; the record reader yields a
    single ``(task index, task index)`` record per split, and the mapper is
    expected to generate its output from the job configuration (e.g. the
    number of random bytes to write).
    """

    def get_splits(self, fs: FileSystem, conf: JobConf) -> list[InputSplit]:
        """One synthetic split per requested map task."""
        num_tasks = conf.num_map_tasks or 1
        return [
            InputSplit(split_id=i, path=None, offset=i, length=0, hosts=())
            for i in range(num_tasks)
        ]

    def create_reader(self, fs: FileSystem, split: InputSplit) -> "SyntheticReader":
        """Reader of the single record identifying the synthetic task."""
        return SyntheticReader(split)


class SyntheticReader:
    """The one ``(task index, task index)`` record of a synthetic split."""

    def __init__(self, split: InputSplit) -> None:
        self._split = split

    def fetch(self) -> list[tuple[int, int]]:
        """The split's records: nothing is read from storage."""
        return [(self._split.offset, self._split.offset)]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.fetch())
