"""Task trackers: the worker daemons executing map and reduce tasks.

"The framework consists of a single master jobtracker, and multiple slave
tasktrackers, one per node."  A :class:`TaskTracker` models one such slave:
it owns a host name (used for data-locality scoring), a number of task
slots, and the code that actually runs a map task over an input split or a
reduce task over a merged partition.

Each task slot is a thread of the head process, and it does all of its
task's storage I/O; the compute runs in a task worker process
(:mod:`repro.mapreduce.task_workers`), as Hadoop's tasktracker runs each
task in a child process.  A map attempt fetches its split, hands the bytes
to a worker for the record cutting, mapper, combiner, sort and encoding,
and writes back the encoded frames or output lines it receives.  A reduce
attempt reads its partition's segments whole, hands the bytes to a worker
for the merge, grouping, reducer and line encoding, and writes back the
encoded lines.  A side that cannot be pickled computes on the slot thread
instead, and so does a reduce whose partition spilled more than
:data:`WORKER_REDUCE_MAX_BYTES`: it merges streaming segment readers, so a
partition larger than memory still reduces.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..fs.interface import FileSystem
from .faults import FaultPlan
from .job import Counters
from .shuffle_service import SegmentReader, ShuffleService
from .splitter import InputSplit
from .task_workers import (
    MapSide,
    ReduceSide,
    compute_map,
    compute_reduce,
    compute_reduce_segments,
    run_shipped,
    workers,
)

__all__ = ["TaskResult", "TaskTracker"]

#: A reduce whose partition spilled at most this many bytes reads them
#: whole and computes in a task worker; a larger one merges streaming
#: segment readers on its slot thread.
WORKER_REDUCE_MAX_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True, slots=True)
class TaskResult:
    """Outcome of one task attempt execution."""

    task_id: str
    tracker_host: str
    kind: str
    duration: float
    records_in: int
    records_out: int
    locality: str = "n/a"
    output_path: str | None = None
    #: ``False`` when the task raised; ``error`` then carries the exception.
    succeeded: bool = True
    error: str | None = None
    #: Zero-based attempt number of this execution (0 = first attempt).
    attempt: int = 0
    #: ``True`` when the attempt finished fine but *lost* the race against
    #: another attempt of the same task: its output was not committed.
    discarded: bool = False
    #: The counters this attempt incremented.  The jobtracker hands every
    #: attempt its own instance and folds only the *winning* attempt's
    #: counters into the job totals (Hadoop semantics: killed and failed
    #: attempts do not pollute job counters).
    attempt_counters: Counters | None = field(default=None, repr=False)
    #: ``True`` when the attempt's compute ran in a task worker process.
    in_worker: bool = False


class TaskTracker:
    """One worker node of the MapReduce engine."""

    def __init__(self, host: str, *, slots: int = 2) -> None:
        if slots < 1:
            raise ValueError("a task tracker needs at least one slot")
        self.host = host
        self.slots = slots
        self._lock = threading.Lock()
        self._running = 0
        self.tasks_executed = 0

    # -- slot management ------------------------------------------------------------
    @property
    def running_tasks(self) -> int:
        """Number of tasks currently executing on this tracker."""
        with self._lock:
            return self._running

    @property
    def free_slots(self) -> int:
        """Number of task slots currently free."""
        with self._lock:
            return max(self.slots - self._running, 0)

    def _acquire_slot(self) -> None:
        with self._lock:
            self._running += 1

    def _release_slot(self) -> None:
        with self._lock:
            self._running = max(self._running - 1, 0)
            self.tasks_executed += 1

    # -- map tasks -------------------------------------------------------------------
    def run_map_task(
        self,
        side: MapSide,
        fs: FileSystem,
        split: InputSplit,
        *,
        shipped: bytes | None,
        reader_factory: Callable[[FileSystem, InputSplit], Any],
        counters: Counters,
        locality: str = "n/a",
        shuffle: ShuffleService | None = None,
        attempt: int = 0,
        fault_plan: FaultPlan | None = None,
        commit_check: Callable[[], bool] | None = None,
    ) -> TaskResult:
        """Execute the map function over one input split.

        This thread does the attempt's storage I/O: it fetches the split
        and afterwards writes the output.  The compute in between
        (:func:`~repro.mapreduce.task_workers.compute_map`) runs in a task
        worker process when the job's map side was ``shipped`` (it
        pickles) and the reader can fetch its records up front; otherwise
        it runs right here.

        For map-only jobs (``side.num_partitions == 0``) the encoded output
        lines are written directly to the job output directory through
        the side's output format; otherwise the encoded partitions are
        spilled as one file through ``shuffle`` (waking waiting reducers).

        ``fault_plan`` injects failures/delays before the attempt touches
        data; ``commit_check`` gates the map-only output write so that only
        one attempt of a task ever commits.
        """
        task_id = f"map-{split.split_id:05d}"
        self._acquire_slot()
        started = time.perf_counter()
        try:
            if fault_plan is not None:
                fault_plan.on_task_start(
                    kind="map",
                    index=split.split_id,
                    attempt=attempt,
                    tracker_host=self.host,
                    fs=fs,
                )
            reader = reader_factory(fs, split)
            fetch = getattr(reader, "fetch", None)
            in_worker = shipped is not None and fetch is not None
            if in_worker:
                output = workers.run(run_shipped, compute_map, shipped, fetch(), task_id)
            else:
                output = compute_map(side, reader, task_id)
            for name, value in output.counters.items():
                counters.increment(name, value)
            counters.increment("map_input_records", output.records_in)
            counters.increment("map_output_records", output.records_out)
            output_path: str | None = None
            discarded = False
            if side.num_partitions == 0:
                if commit_check is None or commit_check():
                    output_path = side.output_format.write_batches(
                        fs,
                        side.conf.output_dir,
                        split.split_id,
                        output.batches,
                        map_only=True,
                        client_host=self.host,
                    )
                else:
                    discarded = True
            else:
                assert shuffle is not None, "a job with reducers spills"
                spilled, _records = shuffle.spill_map_output(
                    split.split_id, output.segments, attempt=attempt
                )
                counters.increment("map_spilled_bytes", spilled)
            duration = time.perf_counter() - started
            return TaskResult(
                task_id=task_id,
                tracker_host=self.host,
                kind="map",
                duration=duration,
                records_in=output.records_in,
                records_out=output.records_out,
                locality=locality,
                output_path=output_path,
                attempt=attempt,
                discarded=discarded,
                attempt_counters=counters,
                in_worker=in_worker,
            )
        finally:
            self._release_slot()

    # -- reduce tasks ----------------------------------------------------------------
    def run_reduce_task(
        self,
        side: ReduceSide,
        fs: FileSystem,
        partition_index: int,
        readers: list[SegmentReader],
        *,
        shuffle: ShuffleService,
        shipped: bytes | None,
        counters: Counters,
        attempt: int = 0,
        fault_plan: FaultPlan | None = None,
        commit_check: Callable[[], bool] | None = None,
    ) -> TaskResult:
        """Execute the reduce function over one partition.

        ``readers`` are the partition's segments in map order, as
        :meth:`ShuffleService.partition_readers` delivers them once every
        map completed.  The compute
        (:func:`~repro.mapreduce.task_workers.compute_reduce`) runs in a
        task worker process over the segments read whole when the job's
        reduce side was ``shipped`` and the partition spilled at most
        :data:`WORKER_REDUCE_MAX_BYTES`; otherwise it runs right here over
        ``shuffle``'s streaming merge, without materialising the partition.

        ``commit_check`` implements the output-committer handshake: right
        before writing, the attempt asks whether it is the first of its
        task to finish — a losing (duplicate) attempt skips the write
        entirely, so retries can never duplicate reduce output, including
        on the shared single-output-file path.
        """
        task_id = f"reduce-{partition_index:05d}"
        self._acquire_slot()
        started = time.perf_counter()
        try:
            if fault_plan is not None:
                fault_plan.on_task_start(
                    kind="reduce",
                    index=partition_index,
                    attempt=attempt,
                    tracker_host=self.host,
                    fs=fs,
                )
            spilled = sum(reader.segment.bytes for reader in readers)
            in_worker = shipped is not None and spilled <= WORKER_REDUCE_MAX_BYTES
            if in_worker:
                payloads = [reader.read_all() for reader in readers]
                output = workers.run(
                    run_shipped, compute_reduce_segments, shipped, payloads, task_id
                )
            else:
                # The service's external merge is one sorted run.
                merged = shuffle.merged_pairs(partition_index, readers)
                output = compute_reduce(side, [merged], task_id)
            for name, value in output.counters.items():
                counters.increment(name, value)
            # Every shuffled pair reaches the reducer exactly once.
            counters.increment("reduce_shuffle_records", output.records_in)
            counters.increment("reduce_input_records", output.records_in)
            counters.increment("reduce_output_records", output.records_out)
            output_path: str | None = None
            discarded = False
            if commit_check is None or commit_check():
                output_path = side.output_format.write_batches(
                    fs,
                    side.conf.output_dir,
                    partition_index,
                    output.batches,
                    map_only=False,
                    client_host=self.host,
                )
            else:
                discarded = True
            duration = time.perf_counter() - started
            return TaskResult(
                task_id=task_id,
                tracker_host=self.host,
                kind="reduce",
                duration=duration,
                records_in=output.records_in,
                records_out=output.records_out,
                output_path=output_path,
                attempt=attempt,
                discarded=discarded,
                attempt_counters=counters,
                in_worker=in_worker,
            )
        finally:
            for reader in readers:
                reader.close()
            self._release_slot()
