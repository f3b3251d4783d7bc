"""The session facade: one connect call, one object, the whole stack.

Without it an application assembles the pieces by hand: resolve a file
system from the registry, build a
:class:`~repro.mapreduce.service.JobService` over it, manage snapshot
pins.  :func:`connect` replaces that boilerplate::

    from repro.api import connect

    session = connect("bsfs://demo")
    with session.create("/data/in.txt") as out:
        out.write(b"hello world\\n")
    handle = session.submit(job)                      # FIFO job queue
    result = handle.wait()
    v = session.snapshot("/data/in.txt")              # AS-OF reads
    with session.open(f"/data/in.txt@v{v}") as stream:
        stream.read()

A :class:`Session` bundles the file-system handle and the deployment's
:class:`~repro.mapreduce.service.JobService` (one per file system, shared
by every session connecting to it).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Iterator

from .fs.interface import FileStatus, FileSystem, InputStream, OutputStream
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
    (pass ``service=`` to supply your own); the cluster-shape keywords
    apply only when this call builds the service.
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
    return Session(fs, service)


class Session:
    """A view of a deployment: storage plus job submission.

    Storage helpers delegate to the bundled file system; :meth:`submit`
    queues jobs on the shared job service.  Sessions are lightweight and
    thread-safe: the heavy state (file system, job service) is shared.
    """

    def __init__(self, fs: FileSystem, service: JobService) -> None:
        self.fs = fs
        self.service = service

    # -- jobs --------------------------------------------------------------------------
    def submit(self, job: "Job", *, fault_plan: "FaultPlan | None" = None) -> JobHandle:
        """Submit a job; returns a
        :class:`~repro.mapreduce.service.JobHandle` immediately."""
        return self.service.submit(job, fault_plan=fault_plan)

    def run(self, job: "Job", *, fault_plan: "FaultPlan | None" = None) -> "JobResult":
        """Submit and wait — the blocking convenience."""
        return self.submit(job, fault_plan=fault_plan).wait()

    # -- storage plane -----------------------------------------------------------------
    def create(self, path: str, **kwargs: Any) -> OutputStream:
        """Create a file (kwargs as ``fs.create``)."""
        return self.fs.create(path, **kwargs)

    def append(self, path: str, **kwargs: Any) -> OutputStream:
        """Append to a file (kwargs as ``fs.append``)."""
        return self.fs.append(path, **kwargs)

    def open(self, path: str, *, version: int | None = None, **kwargs: Any) -> InputStream:
        """Open for reading; ``version`` (or an ``@vN`` path suffix)
        reads an AS-OF snapshot."""
        return self.fs.open(path, version=version, **kwargs)

    def read(self, path: str, *, version: int | None = None, **kwargs: Any) -> bytes:
        """Read a whole file (optionally AS OF a snapshot version)."""
        with self.open(path, version=version, **kwargs) as stream:
            return stream.read()

    def write(self, path: str, data: bytes, **kwargs: Any) -> None:
        """Create ``path`` and write ``data``."""
        with self.create(path, **kwargs) as stream:
            stream.write(data)

    def snapshot(self, path: str) -> int:
        """Capture a snapshot token for AS-OF reads of ``path``."""
        return self.fs.snapshot(path)

    def pin(self, path: str, version: int | None = None, **kwargs: Any):
        """Pin a snapshot against reclamation (kwargs as ``fs.pin``)."""
        return self.fs.pin(path, version, **kwargs)

    def mkdirs(self, path: str) -> None:
        """Create a directory and missing ancestors."""
        self.fs.mkdirs(path)

    def delete(self, path: str, *, recursive: bool = False) -> None:
        """Delete a file or directory."""
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
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session(fs={self.fs.uri!r})"
