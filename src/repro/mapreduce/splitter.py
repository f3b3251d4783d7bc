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


class LineRecordReader:
    """Iterates ``(byte offset, line)`` records of one split, Hadoop-style.

    The reader streams the split's own byte range through the file
    system's ``open_read`` API: chunks arrive with backend read-ahead
    (BSFS fetches pages concurrently, HDFS prefetches block chunks), so
    record decoding overlaps with actual byte movement instead of issuing
    one blocking positional read per chunk.  Each chunk is cut into its
    complete lines with one ``bytes.split``; only a line that spans chunks
    is carried over and joined.

    Past the split's end it only finishes its last line, in bounded pieces
    (:attr:`_TAIL_PIECE`, doubling), so read-ahead never fetches the next
    split's bytes.
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

    def _chunks(self, start: int, end: int, file_size: int) -> Iterator[memoryview]:
        """The bytes of ``[start, end)``, then those past ``end`` piece by
        piece, up to the split's snapshot size: an ``AS OF`` job reads the
        same bytes however many appends land concurrently."""
        split = self._split
        read = functools.partial(self._fs.open_read, split.path, version=split.version)
        yield from read(offset=start, length=end - start, chunk_size=self._read_chunk)
        piece = min(self._TAIL_PIECE, self._read_chunk)
        while end < file_size:
            length = min(piece, file_size - end)
            yield from read(offset=end, length=length, chunk_size=length)
            end += length
            piece = min(2 * piece, self._read_chunk)

    def __iter__(self) -> Iterator[tuple[int, bytes]]:
        split = self._split
        if split.version is None:
            # Current-state split: bound by the size ``status`` reports
            # (wrapping views may clamp it; see the size-boundary tests).
            file_size = self._fs.status(split.path).size
        else:
            file_size = self._fs.snapshot_size(split.path, split.version)
        end = min(split.offset + split.length, file_size)
        start = min(split.offset, file_size)
        chunks = self._chunks(start, end, file_size)
        record_start = start  # absolute file offset of the next record
        skipping = split.offset > 0
        # Bytes of a line that spans chunks, waiting for its newline; a
        # list of parts, so a line many chunks long is joined once.
        partial: list[bytes] = []
        try:
            for chunk in chunks:
                data = bytes(chunk)
                if skipping:
                    # Skip the first (partial) line: it belongs to the
                    # previous split, which always reads past its end to
                    # finish it.  A one-byte delimiter cannot straddle
                    # chunks, so skipping never buffers anything.
                    newline = data.find(b"\n")
                    if newline < 0:
                        record_start += len(data)
                        if record_start >= end:
                            return  # the next record starts past the end
                        continue
                    skipping = False
                    record_start += newline + 1
                    if record_start > end:
                        return
                    data = data[newline + 1 :]
                # One split per chunk: every element but the last is a
                # complete line; the last is the start of the next one.
                lines = data.split(b"\n")
                if len(lines) == 1:
                    partial.append(data)
                    continue
                if partial:
                    partial.append(lines[0])
                    lines[0] = b"".join(partial)
                partial = [lines.pop()]
                # Hadoop's convention: a split also owns the record that
                # *starts* exactly at its end offset, because the next split
                # always skips its first (possibly complete) line.  Hence
                # ``<=``.
                for line in lines:
                    if record_start > end:
                        return
                    yield record_start, line
                    record_start += len(line) + 1
                if record_start > end:
                    return
            # End of file: what is left is a final line without a newline.
            last = b"".join(partial)
            if last and record_start <= end:
                yield record_start, last
        finally:
            chunks.close()


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

    def create_reader(self, fs: FileSystem, split: InputSplit):
        """Yield a single record identifying the synthetic task."""

        def _records() -> Iterator[tuple[int, int]]:
            yield split.offset, split.offset

        return _records()
