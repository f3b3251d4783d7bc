"""The CPU half of map and reduce tasks, and the worker processes that run it.

Every task attempt is split in two.  The slot thread keeps all storage
I/O: a map fetches its split's bytes and, afterwards, writes the spill or
the map-only output; a reduce fetches its partition's segments and,
afterwards, writes its output.  In between runs one pure function:

* :func:`compute_map` cuts the records, runs the mapper and the combiner,
  and sorts every partition and encodes it as shuffle frames (a map-only
  job's output is encoded as output lines instead);
* :func:`compute_reduce` merges the partition's sorted runs, groups them
  by key, runs the reducer and encodes its output lines.

Each sees only its input and its job's side (:class:`MapSide`,
:class:`ReduceSide`) and returns encoded bytes, record counts and counter
deltas.

Hadoop runs every task in a child process of its tasktracker; here
:data:`workers`, one pool of worker processes per head process, plays that
part, so per-record Python work no longer competes for one interpreter
with the storage clients' threads.  A side runs in the pool when
:func:`ship` can pickle it (its functions defined at module level of an
importable module, not ``__main__``; a picklable conf and output format)
and, for a map, when its record reader can ``fetch()`` the split up front.
Any other job (closures, wrapped functions, readers that only stream) runs
the same compute in the slot thread.
"""

from __future__ import annotations

import gc
import io
import multiprocessing
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker, util
from dataclasses import dataclass
from typing import Any, Callable, Iterable, TypeVar

from .job import Counters, JobConf, TaskContext
from .shuffle import MapOutputCollector, TextOutputFormat, group_sorted_pairs
from .shuffle_service import decode_segment, encode_segment, merge_runs

__all__ = [
    "MapSide",
    "MapOutput",
    "compute_map",
    "ReduceSide",
    "ReduceOutput",
    "compute_reduce",
    "compute_reduce_segments",
    "ship",
    "run_shipped",
    "WorkerPool",
    "workers",
]

_T = TypeVar("_T")


@dataclass(frozen=True)
class MapSide:
    """What a map attempt's compute needs of its job."""

    mapper: Callable[[Any, Any, TaskContext], None]
    combiner: Callable[[Any, Iterable[Any], Any], None] | None
    conf: JobConf
    #: Reduce partitions; 0 for a map-only job.
    num_partitions: int
    #: The format a map-only job's output lines are encoded with.
    output_format: TextOutputFormat


@dataclass(frozen=True)
class MapOutput:
    """What a map attempt's compute hands back to its slot thread."""

    records_in: int
    #: Pairs the mapper emitted, before the combiner.
    records_out: int
    #: Counter increments made by the mapper and the combiner.
    counters: dict[str, int]
    #: Per partition, its sorted pairs as one spill segment:
    #: ``(length-prefixed frames, records)``.  Empty for a map-only job.
    segments: list[tuple[bytes, int]]
    #: A map-only job's output, as encoded line batches.
    batches: list[bytes]


def compute_map(side: MapSide, records: Iterable[tuple[Any, Any]], task_id: str) -> MapOutput:
    """Run the mapper over ``records``; combine, sort and encode the output."""
    counters = Counters()
    collector = MapOutputCollector(max(side.num_partitions, 1), combiner=side.combiner)
    context = TaskContext(
        job_conf=side.conf, task_id=task_id, emit=collector.collect, counters=counters
    )
    mapper = side.mapper
    records_in = 0
    for key, value in records:
        mapper(key, value, context)
        records_in += 1
    partitions = collector.partitions()
    segments: list[tuple[bytes, int]] = []
    batches: list[bytes] = []
    if side.num_partitions == 0:
        batches = list(side.output_format.encode(partitions[0]))
    else:
        segments = [encode_segment(pairs) for pairs in partitions]
    return MapOutput(
        records_in=records_in,
        records_out=collector.records_collected,
        counters=counters.as_dict(),
        segments=segments,
        batches=batches,
    )


@dataclass(frozen=True)
class ReduceSide:
    """What a reduce attempt's compute needs of its job."""

    reducer: Callable[[Any, list[Any], TaskContext], None]
    conf: JobConf
    output_format: TextOutputFormat


@dataclass(frozen=True)
class ReduceOutput:
    """What a reduce attempt's compute hands back to its slot thread."""

    #: Shuffled pairs the reducer consumed.
    records_in: int
    #: Pairs the reducer emitted.
    records_out: int
    #: Counter increments made by the reducer.
    counters: dict[str, int]
    #: The output, as encoded line batches.
    batches: list[bytes]


def compute_reduce(
    side: ReduceSide, runs: Iterable[Iterable[tuple[Any, Any]]], task_id: str
) -> ReduceOutput:
    """Merge the sorted ``runs`` (in map order), group them by key, reduce
    each group and encode the output lines."""
    counters = Counters()
    emitted: list[tuple[Any, Any]] = []
    append = emitted.append
    context = TaskContext(
        job_conf=side.conf,
        task_id=task_id,
        emit=lambda key, value: append((key, value)),
        counters=counters,
    )
    reducer = side.reducer
    records_in = 0
    for key, values in group_sorted_pairs(merge_runs(runs)):
        reducer(key, values, context)
        records_in += len(values)
    return ReduceOutput(
        records_in=records_in,
        records_out=len(emitted),
        counters=counters.as_dict(),
        batches=list(side.output_format.encode(emitted)),
    )


def compute_reduce_segments(
    side: ReduceSide, segments: list[bytes], task_id: str
) -> ReduceOutput:
    """:func:`compute_reduce` over whole encoded segments, each one run:
    what a task worker receives."""
    return compute_reduce(side, [decode_segment(payload) for payload in segments], task_id)


class _Shipper(pickle.Pickler):
    """Pickles by reference only what a worker can import.

    A worker imports the parent's ``__main__`` only when it is a file or a
    module (not an interactive session), so nothing from it is shipped.
    """

    def reducer_override(self, obj: Any) -> Any:
        if getattr(obj, "__module__", None) == "__main__":
            raise pickle.PicklingError(f"{obj!r} is defined in __main__")
        return NotImplemented


def ship(side: MapSide | ReduceSide) -> bytes | None:
    """``side`` pickled for a worker, or ``None`` when it cannot be sent
    (a closure, a lambda, a wrapped function, an unpicklable property,
    anything defined in ``__main__``)."""
    buffer = io.BytesIO()
    try:
        _Shipper(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(side)
    except (pickle.PicklingError, TypeError, AttributeError):
        return None
    return buffer.getvalue()


def run_shipped(compute: Callable[..., _T], shipped: bytes, *args: Any) -> _T:
    """Worker-side entry point: ``compute`` over the unpickled side."""
    return compute(pickle.loads(shipped), *args)


class WorkerPool:
    """A lazily started process pool that outlives jobs.

    The executor starts on the first task submitted, never when a job
    service is built, so deployment setup does not pay for it; then every
    job and job service of the process reuses it.  Workers are started with
    ``spawn``: the head process runs RPC and transfer threads, which a
    ``fork`` would copy mid-operation.  A worker that dies breaks the
    executor: every task in flight on it fails (the job tracker retries
    them as failed attempts), the broken executor is shut down with its
    workers, and the next task starts a fresh one.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        # Runs from multiprocessing's exit hook, before it joins the
        # process's children: the workers never exit on their own, so a
        # process that ran a job (the head, or a multiprocessing child)
        # would otherwise wait for them forever.  The priority is above the
        # executor queues' own finalizers (10), which would stop feeding
        # the workers their stop sentinels.
        util.Finalize(None, self._exit, exitpriority=20)

    def run(self, fn: Callable[..., _T], *args: Any) -> _T:
        """``fn(*args)`` in a worker process; ``fn`` and ``args`` must pickle."""
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    self.size, mp_context=multiprocessing.get_context("spawn")
                )
            executor = self._executor
        try:
            return executor.submit(fn, *args).result()
        except BrokenProcessPool:
            # Reap the dead executor's workers before the attempt is
            # reported failed, so a retry never overlaps a survivor.  Every
            # attempt in flight sees the same break; shutting down under
            # the lock keeps them from closing its queues twice at once
            # (the second close would hit a descriptor number the next
            # executor may already own).
            with self._lock:
                if self._executor is executor:
                    self._executor = None
                executor.shutdown(wait=True)
            raise

    def shutdown(self) -> None:
        """Stop the workers and wait for them; a later task starts new ones."""
        with self._lock:
            executor, self._executor = self._executor, None
            if executor is not None:
                executor.shutdown(wait=True)

    def _exit(self) -> None:
        """At process exit: stop the workers, then the semaphore tracker
        process ``spawn`` started, and reap it, so no helper process of the
        pool outlives its parent (an orphan is left to an init that may
        never reap it).  Only the process that started the tracker stops
        it: a multiprocessing child shares its parent's.  Collecting first
        finalizes the executor's queues, whose semaphores would otherwise
        restart the tracker as they unregister.
        """
        self.shutdown()
        tracker = resource_tracker._resource_tracker
        if tracker._pid is not None:
            gc.collect()
            tracker._stop()


#: The head process's task workers, one per core, shared by map and reduce
#: tasks.
workers = WorkerPool(os.cpu_count() or 1)
