"""Job model for the Hadoop-style MapReduce engine.

A MapReduce computation is expressed, exactly as in the paper's description
of the model, as two user functions: ``map``, which turns an input record
into intermediate key-value pairs, and ``reduce``, which merges all values
associated with one intermediate key.  :class:`Job` bundles those functions
with a :class:`JobConf` describing inputs, output directory and task
counts; the jobtracker executes it over any
:class:`~repro.fs.interface.FileSystem` (BSFS or HDFS).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from ..fs.uri import FsUri

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fs.interface import FileSystem

__all__ = [
    "JobConf",
    "Counters",
    "TaskContext",
    "Job",
    "identity_mapper",
    "identity_reducer",
]

#: Signature of a map function: ``map(key, value, context)``.
MapFunction = Callable[[Any, Any, "TaskContext"], None]
#: Signature of a reduce function: ``reduce(key, values, context)``.
ReduceFunction = Callable[[Any, Iterable[Any], "TaskContext"], None]


@dataclass(frozen=True)
class JobConf:
    """Static configuration of one MapReduce job."""

    name: str
    input_paths: tuple[str, ...] = ()
    output_dir: str = "/output"
    num_reduce_tasks: int = 1
    num_map_tasks: int | None = None
    split_size: int | None = None
    #: Always ``True``: every shuffle spills through the job's file system
    #: (see :mod:`repro.mapreduce.shuffle_service`).  The field remains
    #: only because the end-to-end benchmark's ``sort-spill`` workload still
    #: passes ``spill_to_fs=True``; ``False`` is rejected.
    spill_to_fs: bool = True
    #: Spill threshold, in encoded bytes: a map's partition is cut into a
    #: new segment file once the buffered records reach this size (a
    #: segment may exceed it by up to one frame of records).
    shuffle_segment_size: int = 1024 * 1024
    #: Write all reduce output into one shared file via concurrent appends
    #: (the paper's §V scenario).  Falls back to per-reducer ``part-r-*``
    #: files on backends without ``concurrent_append`` (HDFS).
    single_output_file: bool = False
    #: Maximum executions of one task before the job is declared failed
    #: (Hadoop's ``mapred.map.max.attempts``).  A failed attempt is retried
    #: on a *different* tracker when the cluster has one.
    max_task_attempts: int = 4
    #: Run the job ``AS OF`` a storage snapshot: an ``int`` reads every
    #: input at that version, a mapping pins per-path versions (keys are
    #: resolved in-filesystem file paths), ``None`` reads the current
    #: state.  The jobtracker pins the snapshots for the job's duration,
    #: so a job sees byte-stable input even while clients keep appending
    #: (and the version GC cannot reclaim the snapshot mid-job).  An
    #: ``@vN`` suffix on an input path overrides this setting for that
    #: path.
    snapshot_version: int | Mapping[str, int] | None = None
    properties: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_reduce_tasks < 0:
            raise ValueError("num_reduce_tasks cannot be negative")
        if self.num_map_tasks is not None and self.num_map_tasks < 1:
            raise ValueError("num_map_tasks must be at least 1 when given")
        if self.split_size is not None and self.split_size <= 0:
            raise ValueError("split_size must be positive when given")
        if not self.spill_to_fs:
            raise ValueError(
                "spill_to_fs=False is not supported: there is one shuffle, "
                "and map output always spills through the file system"
            )
        if self.shuffle_segment_size < 1:
            raise ValueError("shuffle_segment_size must be positive")
        if self.max_task_attempts < 1:
            raise ValueError("max_task_attempts must be at least 1")
        if self.snapshot_version is not None:
            if isinstance(self.snapshot_version, int):
                if self.snapshot_version < 0:
                    raise ValueError("snapshot_version must be non-negative")
            elif isinstance(self.snapshot_version, Mapping):
                for key, value in self.snapshot_version.items():
                    if not isinstance(value, int) or value < 0:
                        raise ValueError(
                            f"snapshot_version for {key!r} must be a "
                            "non-negative int"
                        )
            else:
                raise ValueError(
                    "snapshot_version must be an int, a path→version "
                    "mapping, or None"
                )

    @property
    def is_map_only(self) -> bool:
        """Whether the job has no reduce phase (mappers write the output)."""
        return self.num_reduce_tasks == 0

    def get(self, key: str, default: Any = None) -> Any:
        """Look up a free-form job property (mirrors Hadoop's ``conf.get``)."""
        return self.properties.get(key, default)

    def version_for(self, path: str) -> int | None:
        """The pinned snapshot version for one input file, if any.

        Resolves :attr:`snapshot_version`: an ``int`` applies to every
        input, a mapping is looked up by the file's resolved path, ``None``
        means "read the current state".
        """
        if self.snapshot_version is None:
            return None
        if isinstance(self.snapshot_version, int):
            return self.snapshot_version
        return self.snapshot_version.get(path)

    def resolve_for(self, fs: "FileSystem") -> "JobConf":
        """Reduce URI inputs/outputs to plain in-filesystem paths.

        Input paths and the output directory may be full URIs
        (``bsfs://demo/data``); this validates that every URI addresses the
        file system the job actually runs on and strips it down to the path
        the storage layer understands.  Scheme-less paths pass through
        normalised, so pre-URI job configurations keep working unchanged.
        """
        inputs = tuple(_resolve_job_path(p, fs) for p in self.input_paths)
        output = _resolve_job_path(self.output_dir, fs)
        if inputs == self.input_paths and output == self.output_dir:
            return self
        return replace(self, input_paths=inputs, output_dir=output)


def _resolve_job_path(path: str, fs: "FileSystem") -> str:
    """Strip (and validate) the scheme/authority of one job path."""
    parsed = FsUri.parse(path)
    if parsed.scheme is None:
        return parsed.path
    if parsed.scheme != fs.scheme:
        raise ValueError(
            f"job path {path!r} addresses scheme {parsed.scheme!r} but the "
            f"job runs on a {fs.scheme!r} file system"
        )
    if parsed.authority and parsed.authority != fs.authority:
        # A URI naming a specific deployment must run on that deployment —
        # including when the job's fs was built directly from a constructor
        # and therefore carries no authority at all.
        raise ValueError(
            f"job path {path!r} addresses deployment {parsed.authority!r} "
            f"but the job runs on {fs.uri!r}"
        )
    return parsed.path


class Counters:
    """Thread-safe named counters, aggregated across tasks like Hadoop counters."""

    def __init__(self) -> None:
        self._values: dict[str, int] = {}
        self._lock = threading.Lock()

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self._values[name] = self._values.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        with self._lock:
            return self._values.get(name, 0)

    def merge(self, other: "Counters") -> None:
        """Fold another counter set into this one."""
        with other._lock:
            snapshot = dict(other._values)
        with self._lock:
            for name, value in snapshot.items():
                self._values[name] = self._values.get(name, 0) + value

    def as_dict(self) -> dict[str, int]:
        """Snapshot of every counter."""
        with self._lock:
            return dict(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counters({self.as_dict()!r})"


class TaskContext:
    """Execution context handed to map and reduce functions.

    Provides ``emit`` for producing output pairs and ``counters`` for
    instrumentation; also carries the task's identity and the job
    configuration so applications can read custom properties.
    """

    def __init__(
        self,
        *,
        job_conf: JobConf,
        task_id: str,
        emit: Callable[[Any, Any], None],
        counters: Counters,
    ) -> None:
        self.job_conf = job_conf
        self.task_id = task_id
        #: ``emit(key, value)`` produces one output pair.  Bound straight to
        #: the task's collector: no forwarding frame per pair.
        self.emit = emit
        self.counters = counters


def identity_mapper(key: Any, value: Any, context: TaskContext) -> None:
    """Mapper that forwards its input pair unchanged."""
    context.emit(key, value)


def identity_reducer(key: Any, values: Iterable[Any], context: TaskContext) -> None:
    """Reducer that forwards every value of the key unchanged."""
    for value in values:
        context.emit(key, value)


@dataclass
class Job:
    """A runnable MapReduce job: configuration plus user functions."""

    conf: JobConf
    mapper: MapFunction = identity_mapper
    reducer: ReduceFunction = identity_reducer
    combiner: ReduceFunction | None = None
    #: Optional custom input format instance
    #: (defaults to :class:`repro.mapreduce.splitter.TextInputFormat`).
    input_format: Any = None
    #: Optional custom output format instance
    #: (defaults to :class:`repro.mapreduce.shuffle.TextOutputFormat`).
    output_format: Any = None

    @property
    def name(self) -> str:
        """Job name (from the configuration)."""
        return self.conf.name
