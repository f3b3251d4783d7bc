"""LocalFS: a ``file://`` backend storing real bytes on the local disk.

A third :class:`~repro.fs.interface.FileSystem` implementation next to BSFS
and the HDFS baseline, registered under the ``file://`` scheme.  It serves
two purposes:

* a **ground-truth oracle** for differential testing — the namespace layer
  is the very same :class:`~repro.fs.namespace.NamespaceTree` used by BSFS
  and HDFS, so leases, rename/delete semantics and error types are
  identical by construction, while the data path is plain ``os`` file I/O
  whose correctness is trivial to trust;
* a **zero-setup backend** for examples and benchmarks that want real disk
  bytes without spinning up an in-process BlobSeer or HDFS deployment.

All paths are *virtual*: ``/a/b`` names an entry of the namespace tree, and
file bytes live in a flat object store under a sandboxed root directory
(one ``obj-N.bin`` per file).  Nothing outside the root is ever touched —
``..`` components are rejected by the shared path normaliser, and renames
are pure metadata operations.  Like BSFS (and unlike HDFS), LocalFS
supports ``append`` and lock-serialised ``concurrent_append``.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
import threading

from . import path as fspath
from .errors import InvalidRangeError, IsADirectoryError
from .interface import BlockLocation, FileStatus, FileSystem, InputStream, OutputStream
from .namespace import DirectoryEntry, FileEntry, NamespaceTree

__all__ = ["LocalFS", "DEFAULT_BLOCK_SIZE", "LocalFSInputStream", "LocalFSOutputStream"]

#: Default block size reported by LocalFS (matches the other backends' 64 MB).
DEFAULT_BLOCK_SIZE = 64 * 1024 * 1024


class LocalFSOutputStream(OutputStream):
    """Sequential writer backed by one real file on disk."""

    def __init__(self, backing_path: str, *, mode: str, on_close) -> None:
        super().__init__()
        self._file = open(backing_path, mode)
        self._on_close = on_close

    def _write(self, data: bytes) -> None:
        self._file.write(data)

    def _flush(self) -> None:
        self._file.flush()

    def _close(self) -> None:
        try:
            if self._failure is None:
                self._file.flush()
        finally:
            # Close the descriptor and release the lease even when the
            # flush fails (a full disk): the file must stay deletable.
            try:
                self._file.close()
            finally:
                self._on_close()


class LocalFSInputStream(InputStream):
    """Reader over one real file; positional reads are lock-serialised."""

    def __init__(self, backing_path: str, size: int) -> None:
        super().__init__(size)
        self._file = open(backing_path, "rb")
        self._io_lock = threading.Lock()

    def _pread(self, offset: int, size: int) -> bytes:
        with self._io_lock:
            self._file.seek(offset)
            return self._file.read(size)

    def close(self) -> None:
        if not self.closed:
            self._file.close()
        super().close()


class LocalFS(FileSystem):
    """Local-disk file system implementing the shared FileSystem API."""

    scheme = "file"

    def __init__(
        self,
        root: str | None = None,
        *,
        default_block_size: int = DEFAULT_BLOCK_SIZE,
        default_replication: int = 1,
    ) -> None:
        """Create a LocalFS over a sandboxed root directory.

        Parameters
        ----------
        root:
            Directory holding the backing object files.  Created when
            missing; a fresh temporary directory (removed by
            :meth:`close`) is used when omitted.
        default_block_size:
            Block size reported for files created without an explicit one.
        default_replication:
            Replication factor reported in statuses (local disk stores one
            copy; the knob only affects reported metadata).
        """
        self._owns_root = root is None
        if root is None:
            root = tempfile.mkdtemp(prefix="repro-localfs-")
            # Owned sandboxes are temporary by contract: reclaim them at
            # interpreter exit even when nobody calls close() explicitly
            # (registry-built instances are typically never closed).
            atexit.register(shutil.rmtree, root, ignore_errors=True)
        else:
            os.makedirs(root, exist_ok=True)
        self._root = os.path.abspath(root)
        self._default_block_size = default_block_size
        self._default_replication = default_replication
        self._tree: NamespaceTree[str] = NamespaceTree()
        self._lock = threading.Lock()
        self._object_ids = iter(range(1, 2**62))
        self._client_ids = iter(range(1, 2**62))

    # -- helpers --------------------------------------------------------------------
    @property
    def root(self) -> str:
        """The sandbox directory holding the backing object files."""
        return self._root

    @property
    def default_block_size(self) -> int:
        """Block size applied to files created without an explicit one."""
        return self._default_block_size

    def _new_object_path(self) -> str:
        with self._lock:
            return os.path.join(self._root, f"obj-{next(self._object_ids)}.bin")

    def _next_client(self, client_host: str | None) -> str:
        with self._lock:
            return f"{client_host or 'client'}-{next(self._client_ids)}"

    def _remove_backing(self, entry: FileEntry[str]) -> None:
        try:
            os.remove(entry.payload)
        except OSError:
            pass

    # -- write path -----------------------------------------------------------------
    def create(
        self,
        path: str,
        *,
        overwrite: bool = False,
        block_size: int | None = None,
        replication: int | None = None,
        client_host: str | None = None,
    ) -> LocalFSOutputStream:
        """Create a file backed by a fresh on-disk object."""
        norm = fspath.normalize(path)
        holder = self._next_client(client_host)
        entry = self._tree.create_file(
            norm,
            payload_factory=self._new_object_path,
            block_size=block_size or self._default_block_size,
            replication=replication or self._default_replication,
            overwrite=overwrite,
            lease_holder=holder,
            on_overwrite=self._remove_backing,
        )
        backing = entry.payload

        def _on_close() -> None:
            try:
                self._tree.update_file(norm, size=os.path.getsize(backing))
            finally:
                self._tree.release_lease(norm, holder)

        return LocalFSOutputStream(backing, mode="wb", on_close=_on_close)

    def append(
        self, path: str, *, client_host: str | None = None
    ) -> LocalFSOutputStream:
        """Re-open an existing file for appending (supported, like BSFS)."""
        norm = fspath.normalize(path)
        entry = self._tree.get_file(norm)
        holder = self._next_client(client_host)
        self._tree.acquire_lease(norm, holder)

        def _on_close() -> None:
            try:
                self._tree.update_file(norm, size=os.path.getsize(entry.payload))
            finally:
                self._tree.release_lease(norm, holder)

        return LocalFSOutputStream(entry.payload, mode="ab", on_close=_on_close)

    def concurrent_append(self, path: str, data: bytes) -> int:
        """Append ``data`` without taking the write lease (lock-serialised).

        Mirrors :meth:`repro.bsfs.filesystem.BSFS.concurrent_append`: safe to
        call from many threads on the same file; returns the offset at which
        ``data`` landed.
        """
        norm = fspath.normalize(path)
        entry = self._tree.get_file(norm)
        with self._lock:
            offset = os.path.getsize(entry.payload)
            with open(entry.payload, "ab") as backing:
                backing.write(data)
            self._tree.update_file(norm, size=offset + len(data))
        return offset

    # -- read path -------------------------------------------------------------------
    def open(
        self,
        path: str,
        *,
        version: int | None = None,
        client_host: str | None = None,
    ) -> LocalFSInputStream:
        """Open a file for reading (size snapshot taken at open time).

        LocalFS is a size-token backend: files only grow (appends extend,
        overwrites replace the backing object), so ``version`` — the byte
        length captured by :meth:`~repro.fs.interface.FileSystem.snapshot`
        — reproduces the old content by truncating the readable range.
        """
        norm, version = self._resolve_read_target(path, version)
        entry = self._tree.get_file(norm)
        return LocalFSInputStream(
            entry.payload, size=self.snapshot_size(norm, version)
        )

    def open_read(
        self,
        path: str,
        *,
        offset: int = 0,
        length: int | None = None,
        chunk_size: int = 1024 * 1024,
        version: int | None = None,
        client_host: str | None = None,
    ):
        """Stream straight from disk: one sequential file handle, no
        per-chunk seek/lock round trip through the InputStream wrapper.
        ``version`` truncates the stream at the snapshot's size token."""
        self._validate_stream_range(offset, length, chunk_size)
        norm, version = self._resolve_read_target(path, version)
        entry = self._tree.get_file(norm)
        size = self.snapshot_size(norm, version)
        end = size if length is None else min(offset + length, size)

        def generate():
            with open(entry.payload, "rb") as backing:
                backing.seek(offset)
                position = offset
                while position < end:
                    chunk = backing.read(min(chunk_size, end - position))
                    if not chunk:
                        break
                    position += len(chunk)
                    yield memoryview(chunk)

        return generate()

    # -- namespace -------------------------------------------------------------------
    def mkdirs(self, path: str) -> None:
        self._tree.mkdirs(path)

    def delete(self, path: str, *, recursive: bool = False) -> None:
        self._tree.delete(
            path,
            recursive=recursive,
            on_delete_file=lambda _path, entry: self._remove_backing(entry),
        )

    def rename(self, src: str, dst: str) -> None:
        self._tree.rename(src, dst)

    def exists(self, path: str) -> bool:
        return self._tree.exists(path)

    def status(self, path: str) -> FileStatus:
        norm = fspath.normalize(path)
        entry = self._tree.get_entry(norm)
        return self._status_from_entry(norm, entry)

    def list_dir(self, path: str) -> list[FileStatus]:
        return [
            self._status_from_entry(child_path, entry)
            for child_path, entry in self._tree.list_dir(path)
        ]

    @staticmethod
    def _status_from_entry(
        path: str, entry: DirectoryEntry | FileEntry[str]
    ) -> FileStatus:
        if isinstance(entry, DirectoryEntry):
            return FileStatus(
                path=path,
                is_dir=True,
                size=0,
                block_size=0,
                replication=0,
                modification_time=entry.modification_time,
            )
        return FileStatus(
            path=path,
            is_dir=False,
            size=entry.size,
            block_size=entry.block_size,
            replication=entry.replication,
            modification_time=entry.modification_time,
        )

    # -- locality ----------------------------------------------------------------------
    def block_locations(
        self, path: str, offset: int = 0, length: int | None = None
    ) -> list[BlockLocation]:
        """Synthesise block-shaped regions, all living on ``localhost``."""
        norm = fspath.normalize(path)
        entry = self._tree.get_entry(norm)
        if isinstance(entry, DirectoryEntry):
            raise IsADirectoryError(norm)
        if offset < 0 or offset > entry.size:
            raise InvalidRangeError(norm, offset, entry.size)
        if length is not None and length < 0:
            raise InvalidRangeError(norm, offset, entry.size, length=length)
        if length is None:
            length = entry.size - offset
        end = min(entry.size, offset + length)
        if offset >= end:
            # Empty range (offset at EOF or zero length): no blocks, the
            # same answer BSFS and HDFS give.
            return []
        block_size = entry.block_size or self._default_block_size
        locations: list[BlockLocation] = []
        start = (offset // block_size) * block_size
        while start < end:
            block_end = min(start + block_size, entry.size)
            locations.append(
                BlockLocation(
                    offset=start, length=block_end - start, hosts=("localhost",)
                )
            )
            start += block_size
        return locations

    # -- monitoring ------------------------------------------------------------------
    def stats(self) -> dict:
        """Aggregate statistics (file count, bytes on disk, sandbox root)."""
        total = 0
        files = 0
        for _path, entry in self._tree.walk_files():
            files += 1
            total += entry.size
        return {
            "scheme": self.scheme,
            "files": files,
            "bytes_stored": total,
            "root": self._root,
        }

    # -- lifecycle ---------------------------------------------------------------------
    def close(self) -> None:
        """Remove the sandbox directory if this instance created it."""
        if self._owns_root:
            shutil.rmtree(self._root, ignore_errors=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalFS(root={self._root!r})"
