"""Job service: concurrent submission over one MapReduce engine.

:class:`JobService` is the front door of a cluster, and the only way to
run a job: it drives the :class:`~repro.mapreduce.jobtracker.JobTracker`
engine.  :meth:`JobService.submit` returns a :class:`JobHandle`
immediately; ``status()``/``wait()``/``cancel()`` and progress callbacks
replace run-to-completion blocking (``submit(job).wait()`` blocks).

Submitted jobs wait in one FIFO queue and start in submission order while
fewer than ``max_concurrent_jobs`` run.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..fs.registry import get_filesystem
from .job import Job
from .jobtracker import JobContext, JobResult, JobTracker
from .tasktracker import TaskTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fs.interface import FileSystem
    from .faults import FaultPlan

__all__ = [
    "JobCancelledError",
    "JobHandle",
    "JobService",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_SUCCEEDED",
    "JOB_FAILED",
    "JOB_CANCELLED",
]

#: Job lifecycle states reported by :meth:`JobHandle.status`.
JOB_QUEUED = "QUEUED"
JOB_RUNNING = "RUNNING"
JOB_SUCCEEDED = "SUCCEEDED"
JOB_FAILED = "FAILED"
JOB_CANCELLED = "CANCELLED"

#: Signature of a progress callback: ``callback(phase, completed, total)``
#: with ``phase`` one of ``"map"``/``"reduce"``.
ProgressCallback = Callable[[str, int, int], None]


class JobCancelledError(RuntimeError):
    """Waiting on a job that was cancelled before producing a result."""


class JobHandle:
    """Live view of one submitted job.

    Returned by :meth:`JobService.submit`; thread-safe.  ``wait()``
    re-raises whatever the execution raised, so a blocking
    ``submit(...).wait()`` fails exactly as the job did.
    """

    def __init__(self, service: "JobService", job_id: int, job_name: str) -> None:
        self._service = service
        self.job_id = job_id
        self.job_name = job_name
        self._lock = threading.Lock()
        self._state = JOB_QUEUED
        self._done = threading.Event()
        self._cancel_event = threading.Event()
        self._result: JobResult | None = None
        self._error: BaseException | None = None
        self._progress_callbacks: list[ProgressCallback] = []

    # -- inspection --------------------------------------------------------------------
    def status(self) -> str:
        """Current lifecycle state (``QUEUED``/``RUNNING``/``SUCCEEDED``/
        ``FAILED``/``CANCELLED``)."""
        with self._lock:
            return self._state

    @property
    def result(self) -> JobResult | None:
        """The job's result once finished (``None`` while pending)."""
        with self._lock:
            return self._result

    def wait(self, timeout: float | None = None) -> JobResult:
        """Block until the job finishes and return its :class:`JobResult`.

        Re-raises the execution's exception if it raised; raises
        :class:`JobCancelledError` when the job was cancelled before
        running; raises :class:`TimeoutError` when ``timeout`` elapses.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.job_name!r} (id {self.job_id}) still {self.status()} after {timeout}s"
            )
        with self._lock:
            if self._error is not None:
                raise self._error
            if self._result is None:
                raise JobCancelledError(
                    f"job {self.job_name!r} (id {self.job_id}) was cancelled before it started"
                )
            return self._result

    # -- control -----------------------------------------------------------------------
    def cancel(self) -> bool:
        """Cancel the job: dequeue it if still queued, or ask a running job
        to stop launching further task attempts (already-running attempts
        finish).  Returns whether the request had any effect (``False``
        once the job already finished).
        """
        return self._service._cancel(self)

    def on_progress(self, callback: ProgressCallback) -> "JobHandle":
        """Register ``callback(phase, completed, total)``, fired as task
        winners commit (``phase`` is ``"map"`` or ``"reduce"``).  Returns
        ``self`` for chaining."""
        with self._lock:
            self._progress_callbacks.append(callback)
        return self

    # -- service internals -------------------------------------------------------------
    def _report_progress(self, phase: str, completed: int, total: int) -> None:
        with self._lock:
            callbacks = list(self._progress_callbacks)
        for callback in callbacks:
            callback(phase, completed, total)

    def _mark_running(self) -> None:
        with self._lock:
            self._state = JOB_RUNNING

    def _finish(
        self,
        result: JobResult | None,
        error: BaseException | None,
    ) -> None:
        with self._lock:
            self._result = result
            self._error = error
            if self._cancel_event.is_set():
                self._state = JOB_CANCELLED
            elif error is not None or result is None or not result.succeeded:
                self._state = JOB_FAILED
            else:
                self._state = JOB_SUCCEEDED
        self._done.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobHandle(id={self.job_id}, name={self.job_name!r}, state={self.status()})"


@dataclass
class _QueuedJob:
    """One submission waiting for a slot."""

    job: Job
    fault_plan: "FaultPlan | None"
    handle: JobHandle


class JobService:
    """Front door of a MapReduce cluster: concurrent submission, FIFO start.

    Wraps one :class:`~repro.mapreduce.jobtracker.JobTracker` (the engine).
    ``max_concurrent_jobs`` bounds jobs running at once (``None`` =
    unbounded); further submissions queue and start in submission order.
    There is no dispatcher thread: submissions and job completions pump
    the queue, starting one worker thread per running job.
    """

    def __init__(self, tracker: JobTracker, *, max_concurrent_jobs: int | None = 4) -> None:
        if max_concurrent_jobs is not None and max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be positive when given")
        self.tracker = tracker
        self.fs = tracker.fs
        self.max_concurrent_jobs = max_concurrent_jobs
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._queue: deque[_QueuedJob] = deque()
        self._next_job_id = itertools.count(1)
        self._running = 0

    @classmethod
    def local(
        cls,
        fs: "FileSystem | str",
        *,
        hosts: list[str] | None = None,
        num_trackers: int | None = None,
        slots_per_tracker: int = 2,
        max_concurrent_jobs: int | None = 4,
    ) -> "JobService":
        """Build a service over a fresh in-process cluster.

        ``fs`` may be a file-system instance or a URI string
        (``"hdfs://demo"``) resolved through the scheme registry, making the
        storage backend of a whole MapReduce cluster a one-string choice.
        When ``hosts`` is omitted the tracker hosts are derived from the
        file system's storage nodes (BlobSeer providers for BSFS, datanodes
        for HDFS) so that data-local scheduling is possible, mirroring the
        paper's co-deployment of Hadoop tasktrackers and storage daemons.
        ``num_trackers=None`` builds one tracker per storage node; an
        explicit count builds exactly that many, placed on the storage
        hosts round-robin.  Without storage nodes the trackers are
        ``tracker-0`` … (four by default).
        """
        if isinstance(fs, str):
            fs = get_filesystem(fs)
        if hosts is None:
            hosts = []
            blobseer = getattr(fs, "blobseer", None)
            if blobseer is not None:
                hosts = [p.host for p in blobseer.provider_manager.providers]
            namenode = getattr(fs, "namenode", None)
            if namenode is not None and not hosts:
                hosts = [d.host for d in namenode.datanodes]
            if not hosts:
                count = 4 if num_trackers is None else num_trackers
                hosts = [f"tracker-{i}" for i in range(count)]
            elif num_trackers is not None:
                hosts = [hosts[i % len(hosts)] for i in range(num_trackers)]
        trackers = [TaskTracker(host, slots=slots_per_tracker) for host in hosts]
        return cls(JobTracker(fs, trackers), max_concurrent_jobs=max_concurrent_jobs)

    # -- submission --------------------------------------------------------------------
    def submit(self, job: Job, *, fault_plan: "FaultPlan | None" = None) -> JobHandle:
        """Queue ``job`` and return a :class:`JobHandle` immediately."""
        handle = JobHandle(self, next(self._next_job_id), job.name)
        with self._lock:
            self._queue.append(_QueuedJob(job, fault_plan, handle))
        self._pump()
        return handle

    # -- scheduling --------------------------------------------------------------------
    def _pump(self) -> None:
        """Start queued jobs, oldest first, while capacity remains.

        Called on submit and on every job completion.  A job leaves the
        queue and turns ``RUNNING`` in one critical section, so a
        concurrent :meth:`JobHandle.cancel` either dequeues it (and it
        never runs) or finds it running (and stops it cooperatively).
        """
        while True:
            with self._lock:
                cap = self.max_concurrent_jobs
                if not self._queue or (cap is not None and self._running >= cap):
                    return
                item = self._queue.popleft()
                item.handle._mark_running()
                self._running += 1
            worker = threading.Thread(
                target=self._run_job,
                args=(item,),
                name=f"jobservice-{item.handle.job_id}",
                daemon=True,
            )
            worker.start()

    def _run_job(self, item: _QueuedJob) -> None:
        handle = item.handle
        context = JobContext(
            cancel_event=handle._cancel_event,
            progress=handle._report_progress,
        )
        result: JobResult | None = None
        error: BaseException | None = None
        try:
            result = self.tracker.execute(item.job, context, item.fault_plan)
        except BaseException as exc:  # re-raised from handle.wait()
            error = exc
        finally:
            # Finish the handle before releasing the slot, so join() never
            # sees an idle service while a handle still reads RUNNING.
            handle._finish(result, error)
            with self._lock:
                self._running -= 1
                self._idle.notify_all()
            self._pump()

    def _cancel(self, handle: JobHandle) -> bool:
        with self._lock:
            state = handle.status()
            if state == JOB_QUEUED:
                self._queue = deque(i for i in self._queue if i.handle is not handle)
                handle._cancel_event.set()
                handle._finish(None, None)
                self._idle.notify_all()
                return True
        if state == JOB_RUNNING:
            # Outside the lock: the worker thread finishing concurrently
            # takes handle._lock, and _finish reads the cancel flag.
            handle._cancel_event.set()
            return True
        return False

    def join(self, timeout: float | None = None) -> bool:
        """Block until no job is queued or running; returns success."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._running or self._queue:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
            return True
