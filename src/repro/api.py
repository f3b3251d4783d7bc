"""The session facade: one connect call, one object, the whole stack.

Without it an application assembles the pieces by hand — resolve a file
system from the registry, build a
:class:`~repro.mapreduce.service.JobService` over it, manage snapshot
pins — and nothing ties the resulting writes and jobs to a tenant.
:func:`connect` replaces that boilerplate::

    from repro.api import connect

    session = connect("bsfs://demo", tenant="alice")
    with session.create("/data/in.txt") as out:      # owned by alice
        out.write(b"hello world\\n")
    handle = session.submit(job)                      # alice's queue
    result = handle.wait()
    v = session.snapshot("/data/in.txt")              # AS-OF reads
    with session.open(f"/data/in.txt@v{v}") as stream:
        stream.read()

A :class:`Session` bundles the file-system handle, the deployment's
multi-tenant :class:`~repro.mapreduce.service.JobService` (one per file
system, shared by every session connecting to it) and the tenant identity:
writes made through the session are attributed to the tenant (quota
enforcement), and submitted jobs land in the tenant's fair-share queue.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Iterator

from .fs.interface import FileStatus, FileSystem, InputStream, OutputStream
from .fs.quota import tenant_scope
from .fs.registry import get_filesystem
from .mapreduce.service import JobHandle, JobService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .mapreduce.faults import FaultPlan
    from .mapreduce.job import Job
    from .mapreduce.jobtracker import JobResult

__all__ = ["Session", "connect"]

#: One JobService per file-system deployment, shared across sessions.
_services_lock = threading.Lock()


def connect(
    uri: "FileSystem | str",
    *,
    tenant: str | None = None,
    service: JobService | None = None,
    num_trackers: int | None = None,
    slots_per_tracker: int = 2,
    max_concurrent_jobs: int | None = 4,
    **fs_options: Any,
) -> "Session":
    """Open a :class:`Session` against a deployment.

    ``uri`` is a file-system URI (``"bsfs://demo"``, ``"hdfs://prod"``,
    ``"local://scratch"``) resolved through the scheme registry — extra
    keyword options are forwarded to the backend factory on first build —
    or an already-constructed file system.  All sessions connecting to one
    deployment share a single :class:`~repro.mapreduce.service.JobService`
    (pass ``service=`` to supply your own, e.g. one fronting a remote
    cluster); the cluster-shape keywords apply only when this call builds
    the service.
    """
    fs = uri if isinstance(uri, FileSystem) else get_filesystem(uri, **fs_options)
    if service is None:
        with _services_lock:
            service = getattr(fs, "_session_service", None)
            if service is None:
                service = JobService.local(
                    fs,
                    num_trackers=num_trackers,
                    slots_per_tracker=slots_per_tracker,
                    max_concurrent_jobs=max_concurrent_jobs,
                )
                fs._session_service = service  # type: ignore[attr-defined]
    return Session(fs, service, tenant=tenant)


class Session:
    """One tenant's view of a deployment: storage plus job submission.

    Storage helpers delegate to the bundled file system with writes
    attributed to the session's tenant; :meth:`submit` routes jobs into
    the tenant's fair-share queue.  Sessions are lightweight and
    thread-safe — the heavy state (file system, job service) is shared.
    """

    def __init__(
        self,
        fs: FileSystem,
        service: JobService,
        *,
        tenant: str | None = None,
    ) -> None:
        self.fs = fs
        self.service = service
        self.tenant = tenant

    # -- jobs --------------------------------------------------------------------------
    def submit(
        self,
        job: "Job",
        *,
        priority: int | None = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> JobHandle:
        """Submit a job as this session's tenant; returns a
        :class:`~repro.mapreduce.service.JobHandle` immediately."""
        tenant = self.tenant if self.tenant is not None else job.conf.tenant
        return self.service.submit(
            job, tenant=tenant, priority=priority, fault_plan=fault_plan
        )

    def run(
        self, job: "Job", *, fault_plan: "FaultPlan | None" = None
    ) -> "JobResult":
        """Submit and wait — the blocking convenience."""
        return self.submit(job, fault_plan=fault_plan).wait()

    # -- tenant attribution ------------------------------------------------------------
    def scope(self):
        """Context manager attributing arbitrary writes to this tenant.

        For code paths not covered by the helpers below (e.g. handing
        ``session.fs`` to a library that creates files itself)::

            with session.scope():
                third_party_export(session.fs, "/out")
        """
        return tenant_scope(self.tenant)

    # -- storage plane -----------------------------------------------------------------
    def create(self, path: str, **kwargs: Any) -> OutputStream:
        """Create a file owned by this tenant (kwargs as ``fs.create``)."""
        with tenant_scope(self.tenant):
            return self.fs.create(path, **kwargs)

    def append(self, path: str, **kwargs: Any) -> OutputStream:
        """Append to a file (charged to the file's owner)."""
        with tenant_scope(self.tenant):
            return self.fs.append(path, **kwargs)

    def open(
        self, path: str, *, version: int | None = None, **kwargs: Any
    ) -> InputStream:
        """Open for reading; ``version`` (or an ``@vN`` path suffix)
        reads an AS-OF snapshot."""
        return self.fs.open(path, version=version, **kwargs)

    def read(
        self, path: str, *, version: int | None = None, **kwargs: Any
    ) -> bytes:
        """Read a whole file (optionally AS OF a snapshot version)."""
        with self.open(path, version=version, **kwargs) as stream:
            return stream.read()

    def write(self, path: str, data: bytes, **kwargs: Any) -> None:
        """Create ``path`` owned by this tenant and write ``data``."""
        with self.create(path, **kwargs) as stream:
            stream.write(data)

    def snapshot(self, path: str) -> int:
        """Capture a snapshot token for AS-OF reads of ``path``."""
        return self.fs.snapshot(path)

    def pin(self, path: str, version: int | None = None, **kwargs: Any):
        """Pin a snapshot against reclamation; owner defaults to the
        tenant so pin dashboards show who holds what."""
        kwargs.setdefault("owner", self.tenant or "reader")
        return self.fs.pin(path, version, **kwargs)

    def mkdirs(self, path: str) -> None:
        """Create a directory and missing ancestors."""
        self.fs.mkdirs(path)

    def delete(self, path: str, *, recursive: bool = False) -> None:
        """Delete a file or directory (releases the owner's quota)."""
        self.fs.delete(path, recursive=recursive)

    def exists(self, path: str) -> bool:
        """Whether ``path`` exists."""
        return self.fs.exists(path)

    def list_dir(self, path: str) -> list[FileStatus]:
        """List a directory."""
        return self.fs.list_dir(path)

    def open_read(self, path: str, **kwargs: Any) -> Iterator[memoryview]:
        """Stream a byte range (see ``fs.open_read``)."""
        return self.fs.open_read(path, **kwargs)

    # -- introspection -----------------------------------------------------------------
    def usage(self):
        """This tenant's quota usage, when the deployment tracks quotas."""
        quotas = getattr(self.fs, "quotas", None)
        if quotas is None or self.tenant is None:
            return None
        return quotas.usage(self.tenant)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session(fs={self.fs.uri!r}, tenant={self.tenant!r})"
