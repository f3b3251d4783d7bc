"""Shuffle phase: partitioning, sorting, grouping, and output formats.

Between the map and reduce phases Hadoop partitions every intermediate pair
by key, sorts each partition and groups values by key before handing them
to the reducer.  The map side of those steps lives here: map outputs are
collected per partition by :class:`MapOutputCollector` (combiner applied,
sorted by ``repr(key)``) and then spilled through the job's file system by
:class:`~repro.mapreduce.shuffle_service.ShuffleService`, whose merged
stream :func:`group_sorted_pairs` cuts into reducer calls.  Reduce outputs
are written back to the file system by an output format (one ``part-*``
file per reduce task,
exactly the layout the paper mentions when motivating concurrent appends —
"the MapReduce workers write the reduce output to the same file, instead of
creating several output files, as it is currently done in Hadoop").
"""

from __future__ import annotations

import binascii
import itertools
import operator
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator

from ..fs.interface import FileSystem
from ..fs import path as fspath

__all__ = [
    "hash_partitioner",
    "MapOutputCollector",
    "group_by_key",
    "group_sorted_pairs",
    "TextOutputFormat",
    "SingleFileOutputFormat",
    "OUTPUT_BATCH_BYTES",
]

#: Encoded output lines are handed to the stream in batches of at least
#: this many bytes (a batch ends at the first line boundary past it).
OUTPUT_BATCH_BYTES = 1024 * 1024


def hash_partitioner(key: Any, num_partitions: int) -> int:
    """Deterministic hash partitioner (stable across processes and runs)."""
    if num_partitions <= 1:
        return 0
    return binascii.crc32(repr(key).encode("utf-8")) % num_partitions


class MapOutputCollector:
    """Collects one map task's output, split by reduce partition.

    An optional combiner is applied when the collector is sealed, reducing
    the volume handed to the shuffle exactly like Hadoop's map-side combine.
    """

    def __init__(
        self,
        num_partitions: int,
        *,
        partitioner: Callable[[Any, int], int] = hash_partitioner,
        combiner: Callable[[Any, Iterable[Any], Any], None] | None = None,
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be at least 1")
        self._num_partitions = num_partitions
        self._partitioner = partitioner
        self._combiner = combiner
        self._partitions: list[list[tuple[Any, Any]]] = [
            [] for _ in range(num_partitions)
        ]

    def collect(self, key: Any, value: Any) -> None:
        """Add one intermediate pair."""
        partition = self._partitioner(key, self._num_partitions)
        self._partitions[partition].append((key, value))

    @property
    def records_collected(self) -> int:
        """Pairs collected so far (before the combiner)."""
        return sum(map(len, self._partitions))

    def _apply_combiner(
        self, pairs: list[tuple[Any, Any]]
    ) -> list[tuple[Any, Any]]:
        if self._combiner is None or not pairs:
            return pairs
        combined: list[tuple[Any, Any]] = []

        class _CombineContext:
            def emit(self, key: Any, value: Any) -> None:  # noqa: D401
                combined.append((key, value))

        context = _CombineContext()
        for key, values in group_by_key(pairs):
            self._combiner(key, values, context)
        return combined

    def partitions(self) -> list[list[tuple[Any, Any]]]:
        """Finalised per-partition outputs (combiner applied, sorted by key)."""
        result = []
        for pairs in self._partitions:
            combined = self._apply_combiner(pairs)
            result.append(sorted(combined, key=lambda kv: repr(kv[0])))
        return result


def group_by_key(pairs: Iterable[tuple[Any, Any]]) -> Iterator[tuple[Any, list[Any]]]:
    """Group unsorted pairs by key, preserving value order per key.

    Used by the map-side combiner, whose input is a task's raw output.
    """
    grouped: dict[Any, list[Any]] = defaultdict(list)
    order: list[Any] = []
    for key, value in pairs:
        if key not in grouped:
            order.append(key)
        grouped[key].append(value)
    for key in sorted(order, key=repr):
        yield key, grouped[key]


def group_sorted_pairs(
    pairs: Iterable[tuple[Any, Any]]
) -> Iterator[tuple[Any, list[Any]]]:
    """Group a key-sorted pair stream into ``(key, values)`` runs.

    The streaming counterpart of :func:`group_by_key` for the reduce
    side: the input (an external k-way merge over sorted segments) is
    already ordered by ``repr(key)``, so equal keys are adjacent and only
    the current key's values are ever held in memory — a reduce partition
    larger than memory still reduces.
    """
    for key, group in itertools.groupby(pairs, key=operator.itemgetter(0)):
        yield key, [value for _key, value in group]


class TextOutputFormat:
    """Writes reduce (or map-only) output as ``key\\tvalue`` text lines.

    One ``part-XXXXX`` file per task under the job's output directory —
    the standard Hadoop layout.  Output goes out in two steps: the pure
    :meth:`encode` turns pairs into batches of lines (in a task worker
    process when the job allows), and :meth:`write_batches` writes those
    bytes through the file system (on the task's slot thread).
    """

    def __init__(self, *, separator: bytes = b"\t") -> None:
        self._separator = separator
        #: A batch ends at the first line boundary at or past this size.
        self._batch_bytes = OUTPUT_BATCH_BYTES

    def output_path(self, output_dir: str, task_index: int, *, map_only: bool) -> str:
        """Path of the part file written by task ``task_index``."""
        prefix = "part-m-" if map_only else "part-r-"
        return fspath.join(output_dir, f"{prefix}{task_index:05d}")

    def encode(self, pairs: Iterable[tuple[Any, Any]]) -> Iterator[bytes]:
        """The ``key<separator>value`` lines of ``pairs``, joined into
        batches that end at the first line boundary at or past the
        format's batch size.  Lazy: a batch is built only when asked for.

        A pair of two ``str`` is formatted as one string and encoded once,
        byte-identical to encoding its parts."""
        encode, separator, limit = self._encode, self._separator, self._batch_bytes
        try:
            text_separator = separator.decode("utf-8")
        except UnicodeDecodeError:
            text_separator = None
        lines: list[bytes] = []
        size = 0
        for key, value in pairs:
            if type(key) is str and type(value) is str and text_separator is not None:
                line = f"{key}{text_separator}{value}\n".encode("utf-8")
            else:
                line = encode(key) + separator + encode(value) + b"\n"
            lines.append(line)
            size += len(line)
            if size >= limit:
                yield b"".join(lines)
                lines, size = [], 0
        if lines:
            yield b"".join(lines)

    def write_batches(
        self,
        fs: FileSystem,
        output_dir: str,
        task_index: int,
        batches: Iterable[bytes],
        *,
        map_only: bool = False,
        client_host: str | None = None,
    ) -> str:
        """Write one task's encoded batches as its part file; returns the path.

        ``batches`` may be :meth:`encode`'s lazy iterator, so a task's
        output never has to fit in memory at once.
        """
        fs.mkdirs(output_dir)
        path = self.output_path(output_dir, task_index, map_only=map_only)
        with fs.open_write(path, overwrite=True, client_host=client_host) as stream:
            for batch in batches:
                stream.write(batch)
        return path

    @staticmethod
    def _encode(value: Any) -> bytes:
        if isinstance(value, bytes):
            return value
        return str(value).encode("utf-8")


class SingleFileOutputFormat(TextOutputFormat):
    """Extension output format: every reduce task appends to one shared file.

    This is the §V "future work" scenario enabled by BlobSeer's concurrent
    appends: instead of one ``part-*`` file per reducer, all reducers append
    their output to a single file.  It requires the target file system to
    expose ``concurrent_append`` (BSFS does; HDFS raises).

    Output goes out in bounded appends: :meth:`encode` cuts batches of
    ``append_chunk_bytes`` and each batch is one ``concurrent_append``, so
    a reducer with output larger than memory still commits.  Batches end
    only at line boundaries — concurrent reducers may interleave *between*
    appends, so a line must never straddle two of them.
    """

    def __init__(
        self,
        *,
        filename: str = "output.txt",
        separator: bytes = b"\t",
        append_chunk_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        super().__init__(separator=separator)
        if append_chunk_bytes < 1:
            raise ValueError("append_chunk_bytes must be positive")
        self._filename = filename
        self._batch_bytes = append_chunk_bytes

    def shared_path(self, output_dir: str) -> str:
        """Path of the single shared output file under ``output_dir``."""
        return fspath.join(output_dir, self._filename)

    def prepare(self, fs: FileSystem, output_dir: str) -> str:
        """Create-or-truncate the shared file before any reducer appends.

        Called once per job by the jobtracker: without it, rerunning a job
        into the same output directory would *append* to the previous run's
        file (concurrent_append never truncates), silently duplicating
        output — unlike the part-file path, which overwrites.
        """
        fs.mkdirs(output_dir)
        path = self.shared_path(output_dir)
        with fs.create(path, overwrite=True):
            pass
        return path

    def write_batches(
        self,
        fs: FileSystem,
        output_dir: str,
        task_index: int,
        batches: Iterable[bytes],
        *,
        map_only: bool = False,
        client_host: str | None = None,
    ) -> str:
        """Append each batch to the shared file; returns its path."""
        concurrent_append = getattr(fs, "concurrent_append", None)
        if concurrent_append is None:
            from ..fs.errors import UnsupportedOperationError

            raise UnsupportedOperationError(
                f"{fs.scheme} cannot write a shared output file: "
                "concurrent appends are not supported"
            )
        fs.mkdirs(output_dir)
        path = self.shared_path(output_dir)
        if not fs.exists(path):
            try:
                with fs.create(path):
                    pass
            except Exception:
                # Another reducer created it concurrently; that is fine.
                pass
        for batch in batches:
            concurrent_append(path, batch)
        return path
