"""Multi-tenant job service: concurrent submission over one MapReduce engine.

A shared cluster serves *tenants*: many clients submitting concurrently,
each entitled to a slice of the cluster and bounded in what it may
consume.  :class:`JobService` is that front door, and the only way to run
a job: it drives the :class:`~repro.mapreduce.jobtracker.JobTracker`
engine.

* **submission** — :meth:`JobService.submit` returns a :class:`JobHandle`
  immediately; ``status()``/``wait()``/``cancel()`` and progress callbacks
  replace run-to-completion blocking (``submit(job).wait()`` blocks).
* **fair-share scheduling** — queued jobs are drained per tenant by a
  stride scheduler: the tenant with the smallest ``served / weight`` runs
  next, so a tenant submitting 100 jobs cannot starve one submitting 2,
  and a weight-3 tenant gets three starts for a weight-1 tenant's one.
  Within a tenant, higher :attr:`~repro.mapreduce.job.JobConf.priority`
  runs first, ties FIFO.
* **admission control** — per-tenant caps: ``max_queued_jobs`` rejects at
  submit time (:class:`AdmissionError`), ``max_concurrent_jobs`` queues.
* **resource isolation** — per-tenant namespace quotas (files/bytes,
  enforced in the file system via :class:`~repro.fs.quota.QuotaManager`)
  and a shared :class:`~repro.mapreduce.scheduler.SlotLedger` tracking
  live slot use.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

from ..fs.quota import QuotaManager, attach_quota_manager
from ..fs.registry import get_filesystem
from .job import Job
from .jobtracker import JobContext, JobResult, JobTracker
from .tasktracker import TaskTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fs.interface import FileSystem
    from .faults import FaultPlan

__all__ = [
    "AdmissionError",
    "JobCancelledError",
    "JobHandle",
    "JobService",
    "JobServiceEndpoint",
    "TenantConfig",
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


class AdmissionError(RuntimeError):
    """A submission was rejected by admission control (tenant queue full)."""

    def __init__(self, tenant: str | None, queued: int, limit: int) -> None:
        super().__init__(
            f"tenant {tenant or '<default>'!s} already has {queued} queued "
            f"job(s), at its admission limit of {limit}"
        )
        self.tenant = tenant
        self.queued = queued
        self.limit = limit

    def __reduce__(self):
        # Rejections cross the RPC boundary as pickled exception objects;
        # the default exception reduction would replay only the formatted
        # message against the three-argument constructor.
        return (type(self), (self.tenant, self.queued, self.limit))


class JobCancelledError(RuntimeError):
    """Waiting on a job that was cancelled before producing a result."""


@dataclass(frozen=True)
class TenantConfig:
    """Scheduling entitlements and resource limits of one tenant.

    ``None`` limits mean unlimited.  Namespace limits (``max_files``/
    ``max_bytes``) are enforced inside the file system on every create,
    append and resize.
    """

    name: str
    #: Fair-share weight: relative share of job starts under contention.
    weight: float = 1.0
    #: Jobs of this tenant running at once; further submissions queue.
    max_concurrent_jobs: int | None = None
    #: Jobs waiting in this tenant's queue; further submissions are
    #: rejected with :class:`AdmissionError`.
    max_queued_jobs: int | None = None
    #: Namespace quota: files the tenant may hold.
    max_files: int | None = None
    #: Namespace quota: recorded bytes the tenant may hold.
    max_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")


class JobHandle:
    """Live view of one submitted job.

    Returned by :meth:`JobService.submit`; thread-safe.  ``wait()``
    re-raises whatever the execution raised, so a blocking
    ``submit(...).wait()`` fails exactly as the job did.
    """

    def __init__(
        self,
        service: "JobService",
        job_id: int,
        job_name: str,
        tenant: str | None,
        priority: int,
    ) -> None:
        self._service = service
        self.job_id = job_id
        self.job_name = job_name
        self.tenant = tenant
        self.priority = priority
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
                f"job {self.job_name!r} (id {self.job_id}) still "
                f"{self.status()} after {timeout}s"
            )
        with self._lock:
            if self._error is not None:
                raise self._error
            if self._result is None:
                raise JobCancelledError(
                    f"job {self.job_name!r} (id {self.job_id}) was cancelled "
                    "before it started"
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
        return (
            f"JobHandle(id={self.job_id}, name={self.job_name!r}, "
            f"tenant={self.tenant!r}, state={self.status()})"
        )


@dataclass
class _QueuedJob:
    """One submission waiting for a slot."""

    job: Job
    fault_plan: "FaultPlan | None"
    handle: JobHandle
    priority: int
    seq: int

    @property
    def sort_key(self) -> tuple[int, int]:
        # Higher priority first, then FIFO by submission order.
        return (-self.priority, self.seq)


class JobService:
    """Front door of a shared MapReduce cluster: multi-tenant submission.

    Wraps one :class:`~repro.mapreduce.jobtracker.JobTracker` (the engine)
    with concurrent submission, per-tenant fair-share scheduling, admission
    control and resource limits — see the module docstring for the model.

    ``max_concurrent_jobs`` bounds jobs running at once across all tenants
    (``None`` = unbounded).  There is no dispatcher thread: submissions and
    job completions pump the queue, starting one worker thread per running
    job.
    """

    def __init__(
        self,
        tracker: JobTracker,
        *,
        max_concurrent_jobs: int | None = 4,
        quotas: QuotaManager | None = None,
    ) -> None:
        if max_concurrent_jobs is not None and max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be positive when given")
        self.tracker = tracker
        self.fs = tracker.fs
        self.max_concurrent_jobs = max_concurrent_jobs
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._tenants: dict[str, TenantConfig] = {}
        self._queues: dict[str, list[_QueuedJob]] = {}
        self._running: dict[str, int] = {}
        self._served: dict[str, float] = {}
        self._handles: dict[int, JobHandle] = {}
        self._next_job_id = itertools.count(1)
        self._next_seq = itertools.count()
        self._total_running = 0
        # Live per-tenant slot occupancy, shared by every per-job scheduler.
        self.slot_ledger = tracker.slot_ledger
        self.quotas = quotas
        if quotas is not None:
            attach_quota_manager(self.fs, quotas)

    @classmethod
    def local(
        cls,
        fs: "FileSystem | str",
        *,
        hosts: list[str] | None = None,
        num_trackers: int | None = None,
        slots_per_tracker: int = 2,
        max_concurrent_jobs: int | None = 4,
        quotas: QuotaManager | None = None,
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
        return cls(
            JobTracker(fs, trackers),
            max_concurrent_jobs=max_concurrent_jobs,
            quotas=quotas,
        )

    # -- tenant management -------------------------------------------------------------
    def register_tenant(
        self,
        tenant: str | TenantConfig,
        *,
        weight: float = 1.0,
        max_concurrent_jobs: int | None = None,
        max_queued_jobs: int | None = None,
        max_files: int | None = None,
        max_bytes: int | None = None,
    ) -> TenantConfig:
        """Register (or replace) a tenant's entitlements and limits.

        Accepts a prebuilt :class:`TenantConfig` or a name plus keyword
        limits.  Namespace limits install a quota into the file system's
        :class:`~repro.fs.quota.QuotaManager` (attaching one if the file
        system was built without).  Unregistered tenants may still submit —
        they get weight 1 and no limits.
        """
        if isinstance(tenant, TenantConfig):
            config = tenant
        else:
            config = TenantConfig(
                name=tenant,
                weight=weight,
                max_concurrent_jobs=max_concurrent_jobs,
                max_queued_jobs=max_queued_jobs,
                max_files=max_files,
                max_bytes=max_bytes,
            )
        with self._lock:
            self._tenants[config.name] = config
        if config.max_files is not None or config.max_bytes is not None:
            if self.quotas is None:
                self.quotas = getattr(self.fs, "quotas", None) or QuotaManager()
                attach_quota_manager(self.fs, self.quotas)
            self.quotas.set_quota(
                config.name,
                max_files=config.max_files,
                max_bytes=config.max_bytes,
            )
        return config

    def tenant_config(self, tenant: str | None) -> TenantConfig:
        """The registered configuration of ``tenant`` (defaults when unset)."""
        with self._lock:
            return self._tenants.get(tenant or "", TenantConfig(name=tenant or ""))

    # -- submission --------------------------------------------------------------------
    def submit(
        self,
        job: Job,
        *,
        tenant: str | None = None,
        priority: int | None = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> JobHandle:
        """Submit ``job`` and return a :class:`JobHandle` immediately.

        ``tenant``/``priority`` default from the job's configuration
        (:attr:`~repro.mapreduce.job.JobConf.tenant` /
        :attr:`~repro.mapreduce.job.JobConf.priority`) and override it when
        given.  Raises :class:`AdmissionError` when the tenant's queue is
        at its ``max_queued_jobs`` limit.
        """
        tenant = tenant if tenant is not None else job.conf.tenant
        priority = priority if priority is not None else job.conf.priority
        key = tenant or ""
        with self._lock:
            config = self._tenants.get(key)
            queue = self._queues.setdefault(key, [])
            if config is not None and config.max_queued_jobs is not None:
                queued = sum(
                    1 for item in queue if item.handle.status() == JOB_QUEUED
                )
                if queued >= config.max_queued_jobs:
                    raise AdmissionError(tenant, queued, config.max_queued_jobs)
            handle = JobHandle(
                self, next(self._next_job_id), job.name, tenant, priority
            )
            item = _QueuedJob(
                job=job,
                fault_plan=fault_plan,
                handle=handle,
                priority=priority,
                seq=next(self._next_seq),
            )
            queue.append(item)
            queue.sort(key=lambda entry: entry.sort_key)
            self._handles[handle.job_id] = handle
        self._pump()
        return handle

    def handle(self, job_id: int) -> JobHandle:
        """Look up the handle of a submitted job by id."""
        with self._lock:
            return self._handles[job_id]

    def job_ids(self) -> list[int]:
        """Ids of every job this service has accepted (oldest first)."""
        with self._lock:
            return sorted(self._handles)

    # -- scheduling --------------------------------------------------------------------
    def _pump(self) -> None:
        """Start queued jobs while global and per-tenant capacity remains.

        Called on submit and on every job completion; the fair-share pick
        is a stride scheduler — the eligible tenant with the smallest
        ``served / weight`` starts next.
        """
        while True:
            with self._lock:
                if (
                    self.max_concurrent_jobs is not None
                    and self._total_running >= self.max_concurrent_jobs
                ):
                    return
                item = self._pick_locked()
                if item is None:
                    return
                key = item.handle.tenant or ""
                self._running[key] = self._running.get(key, 0) + 1
                self._total_running += 1
                config = self._tenants.get(key)
                weight = config.weight if config is not None else 1.0
                self._served[key] = self._served.get(key, 0.0) + 1.0 / weight
            item.handle._mark_running()
            worker = threading.Thread(
                target=self._run_job,
                args=(item,),
                name=f"jobservice-{item.handle.job_id}",
                daemon=True,
            )
            worker.start()

    def _pick_locked(self) -> _QueuedJob | None:
        """Dequeue the next job under fair-share (caller holds the lock)."""
        best_key: str | None = None
        best_pass = 0.0
        for key, queue in self._queues.items():
            # Drop cancelled entries eagerly so they neither count against
            # admission nor clog the front of the queue.
            queue[:] = [i for i in queue if i.handle.status() == JOB_QUEUED]
            if not queue:
                continue
            config = self._tenants.get(key)
            if (
                config is not None
                and config.max_concurrent_jobs is not None
                and self._running.get(key, 0) >= config.max_concurrent_jobs
            ):
                continue
            weight = config.weight if config is not None else 1.0
            tenant_pass = self._served.get(key, 0.0) / weight
            if best_key is None or (tenant_pass, key) < (best_pass, best_key):
                best_key = key
                best_pass = tenant_pass
        if best_key is None:
            return None
        return self._queues[best_key].pop(0)

    def _run_job(self, item: _QueuedJob) -> None:
        handle = item.handle
        conf = replace(item.job.conf, tenant=handle.tenant, priority=handle.priority)
        context = JobContext(
            cancel_event=handle._cancel_event,
            progress=handle._report_progress,
        )
        result: JobResult | None = None
        error: BaseException | None = None
        try:
            result = self.tracker.execute(
                replace(item.job, conf=conf), context, item.fault_plan
            )
        except BaseException as exc:  # re-raised from handle.wait()
            error = exc
        finally:
            # Finish the handle before releasing the slot, so join() never
            # sees an idle service while a handle still reads RUNNING.
            handle._finish(result, error)
            key = handle.tenant or ""
            with self._lock:
                self._running[key] = max(self._running.get(key, 0) - 1, 0)
                self._total_running -= 1
                self._idle.notify_all()
            self._pump()

    def _cancel(self, handle: JobHandle) -> bool:
        with self._lock:
            state = handle.status()
            if state == JOB_QUEUED:
                queue = self._queues.get(handle.tenant or "", [])
                queue[:] = [i for i in queue if i.handle is not handle]
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

    # -- monitoring --------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Queue depth, running jobs and fair-share state per tenant."""
        with self._lock:
            tenants = sorted(
                set(self._queues) | set(self._running) | set(self._tenants)
            )
            per_tenant = {}
            for key in tenants:
                queue = self._queues.get(key, [])
                per_tenant[key or "<default>"] = {
                    "queued": sum(
                        1 for i in queue if i.handle.status() == JOB_QUEUED
                    ),
                    "running": self._running.get(key, 0),
                    "served": self._served.get(key, 0.0),
                    "running_tasks": self.slot_ledger.running(key or None),
                }
            return {
                "total_running": self._total_running,
                "tenants": per_tenant,
            }

    def join(self, timeout: float | None = None) -> bool:
        """Block until no job is queued or running; returns success."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while True:
                busy = self._total_running > 0 or any(
                    any(i.handle.status() == JOB_QUEUED for i in q)
                    for q in self._queues.values()
                )
                if not busy:
                    return True
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)


class JobServiceEndpoint:
    """Wire adapter exposing a :class:`JobService` over the RPC layer.

    :class:`~repro.net.cluster.NodeServer` duck-types nodes by attribute —
    ``submit_job`` marks a job service — and every method speaks plain
    ids/strings/dicts so remote stubs need no handle objects.
    """

    def __init__(self, service: JobService) -> None:
        self.service = service

    def submit_job(
        self,
        job: Job,
        tenant: str | None = None,
        priority: int | None = None,
    ) -> int:
        """Submit a job, returning its id (raises :class:`AdmissionError`)."""
        handle = self.service.submit(job, tenant=tenant, priority=priority)
        return handle.job_id

    def job_status(self, job_id: int) -> str:
        """Lifecycle state of one job."""
        return self.service.handle(job_id).status()

    def wait_job(self, job_id: int, timeout: float | None = None) -> dict[str, Any]:
        """Wait for a job and return its result summary."""
        return self.service.handle(job_id).wait(timeout).summary()

    def cancel_job(self, job_id: int) -> bool:
        """Cancel a job by id."""
        return self.service.handle(job_id).cancel()

    def job_ids(self) -> list[int]:
        """Every job id the service has accepted."""
        return self.service.job_ids()

    def service_stats(self) -> dict[str, Any]:
        """Per-tenant queue/running/fair-share statistics."""
        return self.service.stats()
