"""Job tracker: the master orchestrating a MapReduce job end to end.

"A MapReduce job is split into a set of tasks, which are executed by the
tasktrackers, as assigned by the jobtracker.  The input data is also split
into chunks of equal size, that are stored in a distributed file system
across the cluster.  First, the map tasks are run, each processing a chunk
of the input file ...  After all the maps have finished, the tasktrackers
execute the reduce function on the map outputs."

:meth:`JobTracker.execute` follows exactly that structure: compute splits,
schedule map tasks (locality-aware), execute them in parallel threads (one
per tracker slot), shuffle, execute reduce tasks, and return a
:class:`JobResult` with timings, counters and locality statistics.  Each
task's thread keeps its storage I/O and hands its compute to a task worker
process when the job's map or reduce side pickles — the jobtracker pickles
each side once per job (see :mod:`repro.mapreduce.task_workers`).  The
engine is storage-agnostic: pass a BSFS or an HDFS instance.  Its one
caller is :class:`~repro.mapreduce.service.JobService`, which hands every
execution a :class:`JobContext` of runtime controls.

There is one shuffle, and it goes through the job's file system: each map
spills one file of sorted per-partition segments
(:mod:`repro.mapreduce.shuffle_service`), reduce tasks start *alongside*
the map phase and read their partition's byte range of each map's file,
whole, as that map commits (overlapped shuffle), then merge the segments
once the last map committed — so shuffle I/O exercises the storage backend
under measurement.  A reduce holds its partition in memory.  A map-only
job has no reduce phase: its maps write the output themselves.
``JobConf(single_output_file=True)`` makes all reducers write one shared
output file via ``concurrent_append`` — the paper's §V scenario — on
backends that support it.

Fault tolerance.  Every task is executed as a sequence of *attempts*
(bounded by ``JobConf.max_task_attempts``): a failed attempt is re-executed
on a different tracker, hosts accumulating failures are blacklisted for the
job (:class:`~repro.mapreduce.scheduler.LocalityAwareScheduler`), and a
straggler is waited for.  Attempts of one task never overlap — a retry
starts only after its predecessor failed — so exactly one attempt per task
succeeds and writes output; only a map attempt that spilled its whole
file publishes it to the shuffle index, and the file name carries the
attempt id.  Failure *injection* for all of this lives in
:mod:`repro.mapreduce.faults`.
"""

from __future__ import annotations

import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..fs import path as fspath
from ..fs.interface import FileSystem
from .faults import FaultPlan, TrackerDeadError
from .job import Counters, Job
from .phase import _RetryingPhase
from .scheduler import LocalityAwareScheduler, LocalityStats
from .shuffle import SingleFileOutputFormat, TextOutputFormat
from .shuffle_service import ShuffleAbortedError, ShuffleService
from .splitter import SyntheticInputFormat, TextInputFormat
from .task_workers import MapSide, ReduceSide, ship
from .tasktracker import TaskResult, TaskTracker

__all__ = ["JobContext", "JobResult", "JobTracker"]


@dataclass(frozen=True)
class JobContext:
    """Runtime controls the job service hands the engine for one execution.

    They live beside the job, never in its :class:`~repro.mapreduce.job.JobConf`,
    so the conf a task sees holds only what the user submitted.
    """

    #: Set by ``JobHandle.cancel``: attempts not yet started fail at once.
    cancel_event: threading.Event
    #: ``progress(phase, completed, total)``, fired as task winners commit.
    progress: Callable[[str, int, int], None]


@dataclass
class JobResult:
    """Outcome of one job execution."""

    job_name: str
    succeeded: bool
    elapsed: float
    map_tasks: int
    reduce_tasks: int
    counters: Counters
    locality: LocalityStats
    #: Every executed task *attempt*, including failed and retried ones.
    task_results: list[TaskResult] = field(default_factory=list)
    output_paths: list[str] = field(default_factory=list)
    #: Shuffle statistics (``None`` for a map-only job, which has none).
    shuffle: dict | None = None
    #: Tracker hosts blacklisted during the run (flaky/killed trackers).
    blacklisted_hosts: list[str] = field(default_factory=list)

    def counter(self, name: str) -> int:
        """Shortcut for ``result.counters.get(name)``."""
        return self.counters.get(name)

    @property
    def failed_tasks(self) -> list[TaskResult]:
        """The attempts that raised during this run (empty on success)."""
        return [r for r in self.task_results if not r.succeeded]

    @property
    def winning_tasks(self) -> list[TaskResult]:
        """The attempts that succeeded (one per completed task)."""
        return [r for r in self.task_results if r.succeeded]

    @property
    def retries(self) -> int:
        """Re-executions triggered by task failures."""
        return sum(1 for r in self.task_results if r.attempt > 0)

    def summary(self) -> dict[str, Any]:
        """JSON-friendly summary used by reports and benchmarks.

        Beyond the task counts it reports the *recovery overhead*: total
        attempts executed and retries — the numbers benchmark tables need
        to show what fault tolerance cost — and where tasks ran:
        ``map_attempts_in_workers`` and ``reduce_attempts_in_workers``
        count the attempts whose compute ran in a task worker process.
        """
        summary = {
            "job": self.job_name,
            "succeeded": self.succeeded,
            "elapsed_seconds": self.elapsed,
            "map_tasks": self.map_tasks,
            "reduce_tasks": self.reduce_tasks,
            "task_attempts": len(self.task_results),
            "retries": self.retries,
            "map_attempts_in_workers": sum(
                1 for r in self.task_results if r.kind == "map" and r.in_worker
            ),
            "reduce_attempts_in_workers": sum(
                1 for r in self.task_results if r.kind == "reduce" and r.in_worker
            ),
            "locality": self.locality.as_dict(),
            "counters": self.counters.as_dict(),
        }
        if self.blacklisted_hosts:
            summary["blacklisted_hosts"] = sorted(self.blacklisted_hosts)
        if self.shuffle is not None:
            summary["shuffle"] = self.shuffle
        failed = self.failed_tasks
        if failed:
            summary["failed_tasks"] = sorted({r.task_id for r in failed})
        return summary


def _failed_result(
    task_id: str,
    tracker_host: str,
    kind: str,
    exc: BaseException,
    *,
    locality: str = "n/a",
    attempt: int = 0,
) -> TaskResult:
    """Record one raising task attempt as a failed :class:`TaskResult`."""
    error = "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()
    return TaskResult(
        task_id=task_id,
        tracker_host=tracker_host,
        kind=kind,
        duration=0.0,
        records_in=0,
        records_out=0,
        locality=locality,
        succeeded=False,
        error=error,
        attempt=attempt,
    )


class JobTracker:
    """Master node of the MapReduce engine, driven by a job service."""

    def __init__(self, fs: FileSystem, trackers: list[TaskTracker]) -> None:
        """Create the engine over ``fs`` (job input and output: BSFS, HDFS,
        LocalFS) and its worker ``trackers`` (typically one per storage
        node, so locality is possible).

        Build one through
        :meth:`repro.mapreduce.service.JobService.local`; the service owns
        submission.
        """
        if not trackers:
            raise ValueError("a job tracker needs at least one task tracker")
        self.fs = fs
        self.trackers = list(trackers)

    def execute(
        self, job: Job, context: JobContext, fault_plan: FaultPlan | None = None
    ) -> JobResult:
        """Run ``job`` to completion on the calling thread.

        Input paths and the output directory of the job configuration may
        be URIs; they are validated against this tracker's file system and
        reduced to plain paths before splitting.

        A raising map or reduce task attempt does not abort the run: the
        failure is recorded as a :class:`TaskResult` with
        ``succeeded=False`` and the task is re-executed on a different
        tracker up to ``JobConf.max_task_attempts`` times; only a task with
        no surviving attempt fails the job
        (``JobResult(succeeded=False, ...)``).

        ``fault_plan`` injects deterministic failures, stragglers, tracker
        deaths and storage-node crashes — see :mod:`repro.mapreduce.faults`.
        """
        resolved_conf = job.conf.resolve_for(self.fs)
        if resolved_conf is not job.conf:
            job = replace(job, conf=resolved_conf)
        started = time.perf_counter()
        counters = Counters()
        scheduler = LocalityAwareScheduler(self.trackers)
        input_format = job.input_format or (
            TextInputFormat() if job.conf.input_paths else SyntheticInputFormat()
        )
        map_format, reduce_format = self._select_output_formats(job)
        splits = input_format.get_splits(self.fs, job.conf)
        assignments = scheduler.assign(splits)
        num_partitions = job.conf.num_reduce_tasks
        if isinstance(reduce_format, SingleFileOutputFormat):
            # Truncate the shared file so rerunning the job does not append
            # to a previous run's output — but only after the inputs were
            # split successfully, so a rerun with a bad input path fails
            # without destroying the existing output.
            reduce_format.prepare(self.fs, job.conf.output_dir)

        map_only = job.conf.is_map_only
        map_side = MapSide(job.mapper, job.combiner, job.conf, num_partitions, map_format)
        reduce_side = ReduceSide(job.reducer, job.conf, reduce_format)
        # Pickled once per job; ``None`` computes every such task in-thread.
        shipped_map = ship(map_side)
        shipped_reduce = None if map_only else ship(reduce_side)
        shuffle_service: ShuffleService | None = None

        def cancelled_result(
            task_id: str, kind: str, attempt: int
        ) -> tuple[TaskResult, bool]:
            failed = _failed_result(
                task_id,
                "n/a",
                kind,
                RuntimeError("job cancelled before the attempt started"),
                attempt=attempt,
            )
            return failed, False  # not retryable: the job is going away

        def make_map_placement_failure(
            index: int, attempt: int, exc: BaseException
        ) -> TaskResult:
            split_id = assignments[index].split.split_id
            return _failed_result(
                f"map-{split_id:05d}", "n/a", "map", exc, attempt=attempt
            )

        def make_reduce_placement_failure(
            index: int, attempt: int, exc: BaseException
        ) -> TaskResult:
            return _failed_result(
                f"reduce-{index:05d}", "n/a", "reduce", exc, attempt=attempt
            )

        def tracker_failed(tracker: TaskTracker, exc: Exception) -> None:
            # A killed tracker is blacklisted from the TrackerDeadError its
            # attempt raised, before the retry picks a tracker — even the
            # last one: retrying against a dead process is futile, and a
            # fully dead cluster surfaces as permanent task failures.
            if isinstance(exc, TrackerDeadError):
                scheduler.mark_dead(tracker.host)

        # -- map phase ------------------------------------------------------------
        def pick_map_tracker(
            index: int, attempt: int, banned: set[str]
        ) -> TaskTracker:
            assignment = assignments[index]
            if (
                attempt == 0
                and assignment.tracker.host not in banned
                and not scheduler.is_blacklisted(assignment.tracker.host)
            ):
                return assignment.tracker
            return scheduler.pick_tracker(exclude=banned)

        def execute_map(
            index: int, attempt: int, tracker: TaskTracker
        ) -> tuple[TaskResult, bool]:
            assignment = assignments[index]
            split = assignment.split
            task_id = f"map-{split.split_id:05d}"
            if tracker is assignment.tracker:
                locality = assignment.locality
            else:
                locality = (
                    "node-local" if tracker.host in split.hosts else "remote"
                )
            if context.cancel_event.is_set():
                return cancelled_result(task_id, "map", attempt)
            # Each attempt gets its own counter set; only the winner's is
            # folded into the job counters (see merge_winner_counters).
            attempt_counters = Counters()
            try:
                result = tracker.run_map_task(
                    map_side,
                    self.fs,
                    split,
                    shipped=shipped_map,
                    reader_factory=input_format.create_reader,
                    counters=attempt_counters,
                    locality=locality,
                    shuffle=shuffle_service,
                    attempt=attempt,
                    fault_plan=fault_plan,
                )
            except Exception as exc:
                tracker_failed(tracker, exc)
                failed = _failed_result(
                    task_id,
                    tracker.host,
                    "map",
                    exc,
                    locality=locality,
                    attempt=attempt,
                )
                return failed, True
            return result, True

        def on_map_permanent_failure(index: int, result: TaskResult) -> None:
            if shuffle_service is not None:
                # Unblock reduce fetchers waiting on a map that will never
                # complete: no surviving attempt exists.
                shuffle_service.abort(
                    RuntimeError(
                        f"{result.task_id} failed permanently: {result.error}"
                    )
                )

        completed_tasks = {"map": 0, "reduce": 0}
        progress_lock = threading.Lock()
        phase_totals = {
            "map": len(assignments),
            "reduce": num_partitions,
        }

        def merge_winner_counters(result: TaskResult) -> None:
            if result.attempt_counters is not None:
                counters.merge(result.attempt_counters)
            with progress_lock:
                completed_tasks[result.kind] += 1
                done = completed_tasks[result.kind]
            try:
                context.progress(result.kind, done, phase_totals[result.kind])
            except Exception:
                pass  # a broken observer must not fail the job

        map_phase = _RetryingPhase(
            total=len(assignments),
            max_attempts=job.conf.max_task_attempts,
            execute=execute_map,
            pick_tracker=pick_map_tracker,
            on_winner=merge_winner_counters,
            on_attempt_failed=scheduler.report_task_failure,
            on_permanent_failure=on_map_permanent_failure,
            make_failure=make_map_placement_failure,
        )

        # -- reduce phase ---------------------------------------------------------
        def pick_reduce_tracker(
            index: int, attempt: int, banned: set[str]
        ) -> TaskTracker:
            if attempt == 0 and not banned:
                return scheduler.pick_tracker_round_robin()
            return scheduler.pick_tracker(exclude=banned)

        def execute_reduce(
            index: int, attempt: int, tracker: TaskTracker
        ) -> tuple[TaskResult, bool]:
            task_id = f"reduce-{index:05d}"
            if context.cancel_event.is_set():
                return cancelled_result(task_id, "reduce", attempt)
            attempt_counters = Counters()
            try:
                assert shuffle_service is not None
                # Reads each segment as its map commits, holding no slot.
                payloads = shuffle_service.partition_payloads(index)
                result = tracker.run_reduce_task(
                    reduce_side,
                    self.fs,
                    index,
                    payloads,
                    shuffle=shuffle_service,
                    shipped=shipped_reduce,
                    counters=attempt_counters,
                    attempt=attempt,
                    fault_plan=fault_plan,
                )
            except ShuffleAbortedError as exc:
                # The shuffle is dead; retrying this reduce cannot succeed.
                failed = _failed_result(
                    task_id,
                    tracker.host,
                    "reduce",
                    exc,
                    attempt=attempt,
                )
                return failed, False
            except Exception as exc:
                tracker_failed(tracker, exc)
                failed = _failed_result(
                    task_id,
                    tracker.host,
                    "reduce",
                    exc,
                    attempt=attempt,
                )
                return failed, True
            return result, True

        reduce_phase = _RetryingPhase(
            total=num_partitions,
            max_attempts=job.conf.max_task_attempts,
            execute=execute_reduce,
            pick_tracker=pick_reduce_tracker,
            on_winner=merge_winner_counters,
            on_attempt_failed=scheduler.report_task_failure,
            make_failure=make_reduce_placement_failure,
        )

        # -- execution ------------------------------------------------------------
        # An AS OF job leases every snapshot it reads for its duration, so
        # the version GC cannot retire a snapshot while map attempts (and
        # late retries) are still streaming it.  Pinning also fails fast —
        # with a clear VersionRetiredError — if a requested snapshot was
        # already reclaimed, instead of mid-task.
        snapshot_pins = self._pin_snapshots(job, splits)
        max_workers = max(sum(t.slots for t in self.trackers), 1)
        try:
            if not map_only:
                shuffle_service = ShuffleService(
                    self.fs,
                    num_maps=len(assignments),
                    num_partitions=num_partitions,
                    shuffle_dir=fspath.join(job.conf.output_dir, "_shuffle"),
                )
            # Overlapped shuffle: reduce workers start alongside the map
            # phase and read segments as individual maps commit; the
            # separate pools keep blocked reducers from starving maps.  A
            # map-only job has no reduce tasks, so its reduce pool stays
            # empty.
            with ThreadPoolExecutor(max_workers=max(num_partitions, 1)) as reduce_pool:
                reduce_phase.start(reduce_pool)
                try:
                    with ThreadPoolExecutor(max_workers=max_workers) as map_pool:
                        map_phase.run(map_pool)
                except BaseException as exc:
                    # A SystemExit/KeyboardInterrupt escaping a map would
                    # otherwise leave the reducers blocked forever on maps
                    # that will never complete, hanging the reduce pool's
                    # shutdown below.
                    if shuffle_service is not None:
                        shuffle_service.abort(exc)
                    raise
                reduce_phase.finish()
        finally:
            for pin in snapshot_pins:
                try:
                    pin.release()
                except Exception:
                    pass
            shuffle_stats = None
            if shuffle_service is not None:
                shuffle_stats = shuffle_service.stats()
                counters.increment(
                    "shuffle_files_spilled", shuffle_service.files_spilled
                )
                counters.increment(
                    "shuffle_segments_fetched", shuffle_service.segments_fetched
                )
                shuffle_service.cleanup()

        # Results and counters are read only now, after every pool joined,
        # so the winners' on_winner callbacks have all run.
        map_results = map_phase.results
        reduce_results = reduce_phase.results
        task_results = map_results + reduce_results
        output_paths = [r.output_path for r in task_results if r.output_path]
        succeeded = map_phase.succeeded and reduce_phase.succeeded
        elapsed = time.perf_counter() - started
        return JobResult(
            job_name=job.name,
            succeeded=succeeded,
            elapsed=elapsed,
            map_tasks=len(assignments),
            reduce_tasks=len({r.task_id for r in reduce_results}),
            counters=counters,
            locality=scheduler.stats,
            task_results=task_results,
            output_paths=sorted(set(output_paths)),
            shuffle=shuffle_stats,
            blacklisted_hosts=sorted(scheduler.blacklisted_hosts),
        )

    def _pin_snapshots(self, job: Job, splits: list) -> list:
        """Lease every distinct ``(path, version)`` snapshot the job reads.

        Returns the acquired pin handles (released by the caller's
        ``finally``); a pin failing mid-way releases the ones already
        taken before re-raising, so an aborted submission leaks nothing.
        """
        pins: list = []
        seen: set[tuple[str, int]] = set()
        try:
            for split in splits:
                path = getattr(split, "path", None)
                version = getattr(split, "version", None)
                if path is None or version is None or (path, version) in seen:
                    continue
                seen.add((path, version))
                pins.append(
                    self.fs.pin(path, version, owner=f"job:{job.name}")
                )
        except Exception:
            for pin in pins:
                try:
                    pin.release()
                except Exception:
                    pass
            raise
        return pins

    def _select_output_formats(
        self, job: Job
    ) -> tuple[TextOutputFormat, TextOutputFormat]:
        """Output formats for the map and reduce sides of ``job``.

        ``single_output_file`` swaps the reduce side to
        :class:`SingleFileOutputFormat` (all reducers appending to one
        shared file — the §V scenario) when the backend supports concurrent
        appends, and falls back to per-reducer part files otherwise.  An
        explicit ``job.output_format`` always wins.
        """
        fmt = job.output_format or TextOutputFormat()
        reduce_fmt = fmt
        if (
            job.output_format is None
            and job.conf.single_output_file
            and not job.conf.is_map_only
            and hasattr(self.fs, "concurrent_append")
        ):
            reduce_fmt = SingleFileOutputFormat()
        return fmt, reduce_fmt

