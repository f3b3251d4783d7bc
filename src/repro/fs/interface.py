"""Abstract file-system interface shared by BSFS, HDFS and MapReduce.

The MapReduce engine (and the examples and benchmarks) only talk to storage
through this interface, exactly as Hadoop talks to any of its pluggable
``FileSystem`` implementations.  Swapping HDFS for BSFS — the paper's whole
point — is therefore a one-line change in application code.

The interface follows Hadoop's semantics rather than POSIX:

* files are written sequentially through an :class:`OutputStream` obtained
  from :meth:`FileSystem.create` (or :meth:`FileSystem.append` where
  supported);
* reads go through an :class:`InputStream` supporting positional reads;
* :meth:`FileSystem.block_locations` exposes the data layout so a scheduler
  can place computation close to the data.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .errors import FileSystemError, StreamClosedError

__all__ = [
    "BlockLocation",
    "FileStatus",
    "OutputStream",
    "InputStream",
    "SnapshotPin",
    "FileSystem",
    "copy_path",
]


@dataclass(frozen=True, slots=True)
class BlockLocation:
    """Location of one block (or block-sized region) of a file."""

    offset: int
    length: int
    hosts: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length < 0:
            raise ValueError("block offset and length must be non-negative")


@dataclass(frozen=True, slots=True)
class FileStatus:
    """Metadata describing one namespace entry."""

    path: str
    is_dir: bool
    size: int
    block_size: int
    replication: int
    modification_time: float = field(default_factory=time.time)

    @property
    def is_file(self) -> bool:
        """Whether the entry is a regular file."""
        return not self.is_dir


class OutputStream(ABC):
    """Sequential writer for one file.

    A write or flush that fails may have lost bytes the stream had already
    taken from its buffer, so the stream remembers its first failure: later
    writes and flushes raise, and :meth:`close` seals the file with only
    the bytes committed before the failure, so the sealed file has no gap
    where the lost bytes were.  The promise covers the seal only: on BSFS
    a failed block keeps the range it reserved in the blob, so a later
    append to the file starts past that range, which reads as zeros.
    """

    def __init__(self) -> None:
        self._closed = False
        self._written = 0
        self._failure: BaseException | None = None

    @property
    def closed(self) -> bool:
        """Whether the stream has been closed."""
        return self._closed

    @property
    def bytes_written(self) -> int:
        """Total number of bytes accepted by :meth:`write` so far."""
        return self._written

    def write(self, data: bytes) -> int:
        """Append ``data`` to the file; returns the number of bytes written."""
        if self._closed:
            raise StreamClosedError("write on a closed output stream")
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("output streams accept bytes-like objects only")
        self._raise_if_failed()
        data = bytes(data)
        if data:
            self._run(self._write, data)
            self._written += len(data)
        return len(data)

    @abstractmethod
    def _write(self, data: bytes) -> None:
        """Implementation hook performing the actual write."""

    def flush(self) -> None:
        """Push buffered data towards storage (best effort; may be a no-op)."""
        if not self._closed:
            self._raise_if_failed()
            self._run(self._flush)

    def _flush(self) -> None:
        """Implementation hook for :meth:`flush`; nothing to push by default."""

    def _raise_if_failed(self) -> None:
        if self._failure is not None:
            raise FileSystemError(
                "an earlier write on this stream failed; close it and write the file again"
            ) from self._failure

    def _run(self, step: Callable[..., None], *args: object) -> None:
        """Run a buffer-draining step, remembering the first failure."""
        try:
            step(*args)
        except BaseException as exc:
            self._failure = exc
            raise

    def close(self) -> None:
        """Flush outstanding data and seal the file.

        After a failed write or flush the buffer is dropped, not flushed.
        The stream counts as closed even when sealing raises.
        """
        if self._closed:
            return
        try:
            self._close()
        finally:
            self._closed = True

    @abstractmethod
    def _close(self) -> None:
        """Implementation hook: flush the buffer unless a write failed, then seal."""

    def __enter__(self) -> "OutputStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class InputStream(ABC):
    """Reader for one file, supporting sequential and positional reads."""

    def __init__(self, size: int) -> None:
        self._size = size
        self._position = 0
        self._closed = False

    @property
    def size(self) -> int:
        """Length of the file when the stream was opened."""
        return self._size

    @property
    def closed(self) -> bool:
        """Whether the stream has been closed."""
        return self._closed

    def tell(self) -> int:
        """Current read position."""
        return self._position

    def seek(self, offset: int) -> int:
        """Move the read position to ``offset`` (clamped to the file size)."""
        if offset < 0:
            raise ValueError("cannot seek to a negative offset")
        self._position = min(offset, self._size)
        return self._position

    def read(self, size: int = -1) -> bytes:
        """Read up to ``size`` bytes from the current position (all when < 0)."""
        if self._closed:
            raise StreamClosedError("read on a closed input stream")
        remaining = self._size - self._position
        if remaining <= 0:
            return b""
        if size < 0 or size > remaining:
            size = remaining
        data = self._pread(self._position, size)
        self._position += len(data)
        return data

    def pread(self, offset: int, size: int) -> bytes:
        """Positional read that does not move the stream position."""
        if self._closed:
            raise StreamClosedError("pread on a closed input stream")
        if offset < 0 or size < 0:
            raise ValueError("offset and size must be non-negative")
        if offset >= self._size:
            return b""
        size = min(size, self._size - offset)
        return self._pread(offset, size)

    @abstractmethod
    def _pread(self, offset: int, size: int) -> bytes:
        """Implementation hook: read exactly ``size`` bytes at ``offset``."""

    def close(self) -> None:
        """Release the stream's resources."""
        self._closed = True

    def __enter__(self) -> "InputStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __iter__(self) -> Iterator[bytes]:
        """Iterate over the remaining content in 1 MiB chunks."""
        while True:
            chunk = self.read(1024 * 1024)
            if not chunk:
                return
            yield chunk


class SnapshotPin:
    """A held snapshot lease returned by :meth:`FileSystem.pin`.

    For backends without a version garbage collector this is a pure token
    (nothing can reclaim the snapshot, so there is nothing to hold); BSFS
    returns a handle backed by the deployment's real pin registry.  Either
    way it is a context manager carrying the pinned ``version``, so callers
    (the MapReduce jobtracker) pin uniformly across backends.
    """

    def __init__(self, path: str, version: int) -> None:
        self.path = path
        self.version = version
        self.released = False

    def release(self) -> None:
        self.released = True

    def renew(self, ttl: float) -> None:
        """Extend the lease (no-op for token pins)."""

    def __enter__(self) -> "SnapshotPin":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class FileSystem(ABC):
    """Hadoop-style file system API implemented by BSFS and the HDFS baseline."""

    #: Human-readable scheme name (``"bsfs"``, ``"hdfs"``, ``"file"``), used
    #: in reports and by the URI registry (:mod:`repro.fs.registry`).
    scheme: str = "fs"

    #: Deployment label from the resolving URI (``"demo"`` in
    #: ``bsfs://demo``); stamped by the registry, empty for instances built
    #: directly from the constructor.
    authority: str = ""

    @property
    def uri(self) -> str:
        """The URI addressing this deployment (``scheme://authority``)."""
        return f"{self.scheme}://{self.authority}"

    # -- file creation / access ----------------------------------------------------
    @abstractmethod
    def create(
        self,
        path: str,
        *,
        overwrite: bool = False,
        block_size: int | None = None,
        replication: int | None = None,
        client_host: str | None = None,
    ) -> OutputStream:
        """Create ``path`` and return a stream for writing its content."""

    @abstractmethod
    def open(
        self,
        path: str,
        *,
        version: int | None = None,
        client_host: str | None = None,
    ) -> InputStream:
        """Open an existing file for reading.

        ``version`` selects an ``AS OF`` snapshot of the file; ``None``
        captures the latest state at open time.  The snapshot can also be
        named inline with an ``@vN`` path suffix (``/logs/events@v12``);
        see :meth:`_resolve_read_target`.  What a version *is* differs by
        backend — BSFS uses real BlobSeer snapshot versions, while backends
        without multi-versioning use the file size as the snapshot token
        (see :meth:`snapshot`) — but in all cases a given version's bytes
        never change once it exists.
        """

    @staticmethod
    def _resolve_read_target(
        path: str, version: int | None
    ) -> tuple[str, int | None]:
        """Apply the ``@vN`` read suffix, reconciling it with ``version``.

        Every backend's read entry points call this first, so the suffix
        behaves identically across BSFS, HDFS and LocalFS.  Naming two
        *different* versions (suffix and keyword) is rejected; naming the
        same one twice is allowed.
        """
        from .errors import InvalidPathError
        from .path import split_as_of

        bare, suffix_version = split_as_of(path)
        if suffix_version is None:
            return path, version
        if version is not None and version != suffix_version:
            raise InvalidPathError(
                path,
                f"@v{suffix_version} suffix conflicts with version={version}",
            )
        return bare, suffix_version

    def append(self, path: str, *, client_host: str | None = None) -> OutputStream:
        """Open an existing file for appending (optional operation)."""
        from .errors import UnsupportedOperationError

        raise UnsupportedOperationError(
            f"{self.scheme} does not support appending to {path!r}"
        )

    # -- streaming -------------------------------------------------------------------
    @staticmethod
    def _validate_stream_range(
        offset: int, length: int | None, chunk_size: int
    ) -> None:
        """Shared argument validation for every backend's ``open_read``,
        so switching backends never changes which inputs are rejected."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        if length is not None and length < 0:
            raise ValueError("length must be non-negative when given")
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")

    def open_read(
        self,
        path: str,
        *,
        offset: int = 0,
        length: int | None = None,
        chunk_size: int = 1024 * 1024,
        version: int | None = None,
        client_host: str | None = None,
    ) -> Iterator[memoryview]:
        """Stream a byte range of ``path`` as an iterator of memoryview chunks.

        The streaming read API of the I/O engine: no caller ever needs to
        materialise a whole file.  The base implementation chunks through
        :meth:`open`; backends override it to pipeline transfers (BSFS
        fetches page-aligned windows with read-ahead, HDFS prefetches
        block chunks, LocalFS streams straight from disk).  ``length=None``
        streams to the end of the file as sized at open time.  ``version``
        (or an ``@vN`` path suffix) streams an ``AS OF`` snapshot, as in
        :meth:`open`.
        """
        self._validate_stream_range(offset, length, chunk_size)

        def generate() -> Iterator[memoryview]:
            with self.open(path, version=version, client_host=client_host) as stream:
                end = stream.size if length is None else min(
                    offset + length, stream.size
                )
                position = offset
                while position < end:
                    chunk = stream.pread(position, min(chunk_size, end - position))
                    if not chunk:
                        break
                    position += len(chunk)
                    yield memoryview(chunk)

        return generate()

    def open_write(
        self,
        path: str,
        *,
        overwrite: bool = False,
        block_size: int | None = None,
        replication: int | None = None,
        client_host: str | None = None,
    ) -> OutputStream:
        """Open a streaming write sink for a new file.

        The streaming counterpart of :meth:`create` — semantically the same
        stream today, named separately so call sites that *only* stream
        (shuffle spills, output formats, copies) are explicit about it and
        backends can route the sink through their transfer engine.
        """
        return self.create(
            path,
            overwrite=overwrite,
            block_size=block_size,
            replication=replication,
            client_host=client_host,
        )

    # -- namespace -------------------------------------------------------------------
    @abstractmethod
    def mkdirs(self, path: str) -> None:
        """Create a directory and any missing ancestors (idempotent)."""

    @abstractmethod
    def delete(self, path: str, *, recursive: bool = False) -> None:
        """Delete a file or directory."""

    @abstractmethod
    def rename(self, src: str, dst: str) -> None:
        """Rename/move ``src`` to ``dst``."""

    @abstractmethod
    def exists(self, path: str) -> bool:
        """Whether ``path`` exists."""

    @abstractmethod
    def status(self, path: str) -> FileStatus:
        """Return the :class:`FileStatus` of ``path``."""

    @abstractmethod
    def list_dir(self, path: str) -> list[FileStatus]:
        """List the entries of a directory (sorted by path)."""

    # -- locality ----------------------------------------------------------------------
    @abstractmethod
    def block_locations(
        self, path: str, offset: int = 0, length: int | None = None
    ) -> list[BlockLocation]:
        """Expose where the blocks of ``path`` live (for locality-aware scheduling)."""

    # -- snapshots ---------------------------------------------------------------------
    def snapshot(self, path: str) -> int:
        """Capture a snapshot token for the current state of ``path``.

        Reading with ``version=snapshot(path)`` later returns exactly the
        bytes the file held now, regardless of concurrent appends.  The
        base implementation — the documented no-op passthrough for
        backends without multi-versioning (HDFS, LocalFS) — uses the
        *file size* as the token: their files only grow (HDFS files are
        immutable once closed, appends on LocalFS only extend), so
        truncating reads at the captured size reproduces the old content.
        BSFS overrides this with real BlobSeer snapshot versions.
        """
        return self.size(path)

    def snapshot_size(self, path: str, version: int | None = None) -> int:
        """Size of ``path`` as of ``version`` (current size when ``None``).

        For size-token backends the version *is* the byte length, clamped
        to the current size for robustness; BSFS overrides this to ask the
        version manager.
        """
        current = self.size(path)
        if version is None:
            return current
        if version < 0:
            raise ValueError("snapshot version must be non-negative")
        return min(current, version)

    def pin(
        self,
        path: str,
        version: int | None = None,
        *,
        owner: str = "reader",
        ttl: float | None = None,
    ) -> SnapshotPin:
        """Pin a snapshot of ``path`` against reclamation; returns the lease.

        ``version=None`` pins the snapshot captured right now (via
        :meth:`snapshot`).  On backends without a garbage collector the
        returned pin is a pure token — old content is implicitly retained
        because files only grow — so this base implementation never
        blocks or expires anything.  BSFS overrides it to take a real
        lease in the deployment's pin registry, which the version GC
        honours.
        """
        if version is None:
            version = self.snapshot(path)
        return SnapshotPin(path, version)

    # -- convenience helpers -------------------------------------------------------
    def is_dir(self, path: str) -> bool:
        """Whether ``path`` exists and is a directory."""
        return self.exists(path) and self.status(path).is_dir

    def is_file(self, path: str) -> bool:
        """Whether ``path`` exists and is a regular file."""
        return self.exists(path) and self.status(path).is_file

    def size(self, path: str) -> int:
        """Size in bytes of the file at ``path``."""
        return self.status(path).size

    def read_file(self, path: str) -> bytes:
        """Read an entire file into memory (convenience for small files)."""
        with self.open(path) as stream:
            return stream.read()

    def write_file(
        self,
        path: str,
        data: bytes,
        *,
        overwrite: bool = False,
        block_size: int | None = None,
        replication: int | None = None,
    ) -> None:
        """Create ``path`` with content ``data`` (convenience for small files)."""
        with self.create(
            path,
            overwrite=overwrite,
            block_size=block_size,
            replication=replication,
        ) as stream:
            stream.write(data)

    def list_files(self, path: str, *, recursive: bool = False) -> list[FileStatus]:
        """List the regular files under ``path`` (optionally recursively).

        When ``path`` itself names a regular file its own status is
        returned, matching Hadoop's ``listStatus`` globbing behaviour.
        """
        status = self.status(path)
        if status.is_file:
            return [status]
        result: list[FileStatus] = []
        for entry in self.list_dir(path):
            if entry.is_dir:
                if recursive:
                    result.extend(self.list_files(entry.path, recursive=True))
            else:
                result.append(entry)
        return sorted(result, key=lambda status: status.path)


def copy_path(
    source_fs: FileSystem,
    source_path: str,
    target_fs: FileSystem,
    target_path: str,
    *,
    chunk_size: int = 4 * 1024 * 1024,
    overwrite: bool = False,
) -> int:
    """Copy one file between (possibly different) file systems.

    Returns the number of bytes copied.  Used by examples and by the
    versioned-workflow extension benchmark to stage data between BSFS and
    HDFS deployments.  Both sides go through the streaming API, so the
    source's read-ahead overlaps with the target's block pushes.
    """
    copied = 0
    with target_fs.open_write(target_path, overwrite=overwrite) as dst:
        for chunk in source_fs.open_read(source_path, chunk_size=chunk_size):
            dst.write(chunk)
            copied += len(chunk)
    return copied
