"""The CPU half of a map task, and the worker processes that run it.

A map attempt is split in two.  The tracker thread keeps all storage I/O:
it fetches the split's bytes and, afterwards, writes the spill or the
map-only output.  In between, :func:`compute_map` cuts the records, runs
the mapper and the combiner, sorts every partition and encodes it as
shuffle frames.  That function is pure: it sees only the fetched records
and the job's map side, and returns encoded frames, record counts and
counter deltas.

Hadoop runs every task in a child process of its tasktracker; here
:data:`map_workers`, one pool of worker processes per head process, plays
that part, so per-record Python work no longer competes for one
interpreter with the storage clients' threads.  A job runs its maps in
the pool when its :class:`MapSide` pickles (mapper and combiner defined
at module level of an importable module, not ``__main__``; a picklable
conf) and its record reader can ``fetch()`` the split up front; any other
job (closures, wrapped mappers, readers that only stream) runs the same
:func:`compute_map` in the tracker thread.
"""

from __future__ import annotations

import atexit
import gc
import io
import multiprocessing
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .job import Counters, JobConf, TaskContext
from .shuffle import MapOutputCollector
from .shuffle_service import encode_segments

__all__ = ["MapSide", "MapOutput", "compute_map", "ship", "WorkerPool", "map_workers"]


@dataclass(frozen=True)
class MapSide:
    """What a map attempt's compute needs of its job."""

    mapper: Callable[[Any, Any, TaskContext], None]
    combiner: Callable[[Any, Iterable[Any], Any], None] | None
    conf: JobConf
    #: Reduce partitions; 0 for a map-only job.
    num_partitions: int


@dataclass(frozen=True)
class MapOutput:
    """What a map attempt's compute hands back to its tracker thread."""

    records_in: int
    #: Pairs the mapper emitted, before the combiner.
    records_out: int
    #: Counter increments made by the mapper and the combiner.
    counters: dict[str, int]
    #: Per partition (one for a map-only job), its sorted pairs as spill
    #: segments: ``(length-prefixed frames, records)``.
    segments: list[list[tuple[bytes, int]]]


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
    segment_size = side.conf.shuffle_segment_size
    return MapOutput(
        records_in=records_in,
        records_out=collector.records_collected,
        counters=counters.as_dict(),
        segments=[encode_segments(pairs, segment_size) for pairs in collector.partitions()],
    )


class _Shipper(pickle.Pickler):
    """Pickles by reference only what a worker can import.

    A worker imports the parent's ``__main__`` only when it is a file or a
    module (not an interactive session), so nothing from it is shipped.
    """

    def reducer_override(self, obj: Any) -> Any:
        if getattr(obj, "__module__", None) == "__main__":
            raise pickle.PicklingError(f"{obj!r} is defined in __main__")
        return NotImplemented


def ship(side: MapSide) -> bytes | None:
    """``side`` pickled for a worker, or ``None`` when it cannot be sent
    (a closure, a lambda, a wrapped function, an unpicklable property,
    anything defined in ``__main__``)."""
    buffer = io.BytesIO()
    try:
        _Shipper(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(side)
    except (pickle.PicklingError, TypeError, AttributeError):
        return None
    return buffer.getvalue()


def _compute_shipped(shipped: bytes, records: Iterable[tuple[Any, Any]], task_id: str) -> MapOutput:
    """Worker-side entry point: :func:`compute_map` of a shipped map side."""
    return compute_map(pickle.loads(shipped), records, task_id)


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

    def run_map(
        self, shipped: bytes, records: Iterable[tuple[Any, Any]], task_id: str
    ) -> MapOutput:
        """:func:`compute_map` of a shipped map side, in a worker process."""
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    self.size, mp_context=multiprocessing.get_context("spawn")
                )
                atexit.register(self._exit)
            executor = self._executor
        try:
            return executor.submit(_compute_shipped, shipped, records, task_id).result()
        except BrokenProcessPool:
            # Reap the dead executor's workers before the attempt is
            # reported failed, so a retry never overlaps a survivor.
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
        """At interpreter exit: stop the workers, then the semaphore tracker
        process ``spawn`` started, and reap it, so no helper process of the
        pool outlives the head (an orphan is left to an init that may never
        reap it).  Collecting first finalizes the executor's queues, whose
        semaphores would otherwise restart the tracker as they unregister.
        """
        self.shutdown()
        gc.collect()
        resource_tracker._resource_tracker._stop()


#: The head process's map workers, one per core.
map_workers = WorkerPool(os.cpu_count() or 1)
