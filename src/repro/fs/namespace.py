"""Generic hierarchical namespace shared by the BSFS namespace manager and
the HDFS namenode.

Both systems the paper discusses keep a *centralized* namespace: BSFS has a
"centralized namespace manager ... responsible for maintaining a file system
namespace, and for mapping files to BLOBs", and HDFS's namenode "takes care
of the file system namespace and the data location".  The tree structure,
path resolution, rename/delete semantics and write leases are identical in
both; only the per-file payload differs (a blob id for BSFS, a block list
for HDFS).  :class:`NamespaceTree` captures the shared behaviour and is
parameterised by that payload.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Generic, Iterator, TypeVar

from . import path as fspath
from .errors import (
    DirectoryNotEmptyError,
    IsADirectoryError,
    LeaseConflictError,
    NoSuchPathError,
    NotADirectoryError,
    PathExistsError,
)

__all__ = ["FileEntry", "DirectoryEntry", "NamespaceTree"]

PayloadT = TypeVar("PayloadT")


@dataclass
class FileEntry(Generic[PayloadT]):
    """A regular file in the namespace, carrying a storage-specific payload."""

    name: str
    payload: PayloadT
    size: int = 0
    block_size: int = 0
    replication: int = 1
    modification_time: float = field(default_factory=time.time)
    lease_holder: str | None = None

    @property
    def is_dir(self) -> bool:
        """Always ``False`` for files."""
        return False


@dataclass
class DirectoryEntry:
    """A directory in the namespace."""

    name: str
    children: dict[str, object] = field(default_factory=dict)
    modification_time: float = field(default_factory=time.time)

    @property
    def is_dir(self) -> bool:
        """Always ``True`` for directories."""
        return True


class NamespaceTree(Generic[PayloadT]):
    """Thread-safe hierarchical namespace with single-writer leases.

    All public methods take normalised or raw paths (they normalise
    internally) and raise the shared :mod:`repro.fs.errors` exceptions, so
    BSFS and HDFS expose identical namespace semantics to applications.
    """

    def __init__(self) -> None:
        self._root = DirectoryEntry(name="")
        self._lock = threading.RLock()

    # -- resolution helpers ---------------------------------------------------------
    def _resolve(self, path: str) -> DirectoryEntry | FileEntry[PayloadT]:
        node: DirectoryEntry | FileEntry[PayloadT] = self._root
        for part in fspath.components(path):
            if not isinstance(node, DirectoryEntry):
                raise NotADirectoryError(path)
            if part not in node.children:
                raise NoSuchPathError(path)
            node = node.children[part]  # type: ignore[assignment]
        return node

    def _resolve_dir(self, path: str) -> DirectoryEntry:
        node = self._resolve(path)
        if not isinstance(node, DirectoryEntry):
            raise NotADirectoryError(path)
        return node

    def _resolve_file(self, path: str) -> FileEntry[PayloadT]:
        node = self._resolve(path)
        if isinstance(node, DirectoryEntry):
            raise IsADirectoryError(path)
        return node

    # -- queries ---------------------------------------------------------------------
    def exists(self, path: str) -> bool:
        """Whether ``path`` names an existing entry."""
        with self._lock:
            try:
                self._resolve(path)
                return True
            except (NoSuchPathError, NotADirectoryError):
                return False

    def is_dir(self, path: str) -> bool:
        """Whether ``path`` exists and is a directory."""
        with self._lock:
            try:
                return isinstance(self._resolve(path), DirectoryEntry)
            except (NoSuchPathError, NotADirectoryError):
                return False

    def get_file(self, path: str) -> FileEntry[PayloadT]:
        """Return the file entry at ``path`` (raising if absent or a directory)."""
        with self._lock:
            return self._resolve_file(path)

    def get_entry(self, path: str) -> DirectoryEntry | FileEntry[PayloadT]:
        """Return the entry at ``path`` whatever its kind."""
        with self._lock:
            return self._resolve(path)

    def list_dir(self, path: str) -> list[tuple[str, DirectoryEntry | FileEntry[PayloadT]]]:
        """Return ``(child path, entry)`` pairs of a directory, sorted by name."""
        with self._lock:
            directory = self._resolve_dir(path)
            base = fspath.normalize(path)
            return [
                (fspath.join(base, name), entry)  # type: ignore[arg-type]
                for name, entry in sorted(directory.children.items())
            ]

    def walk_files(self, path: str = fspath.ROOT) -> Iterator[tuple[str, FileEntry[PayloadT]]]:
        """Yield every file under ``path`` (depth-first, sorted).

        The files are collected under one lock hold and yielded afterwards,
        so the walk is a snapshot: a concurrent delete cannot make it fail
        partway through.
        """
        with self._lock:
            files = self._collect_files(fspath.normalize(path), self._resolve_dir(path))
        yield from files

    # -- mutations --------------------------------------------------------------------
    def mkdirs(self, path: str) -> None:
        """Create a directory and any missing ancestors (idempotent)."""
        with self._lock:
            node = self._root
            for part in fspath.components(path):
                child = node.children.get(part)
                if child is None:
                    child = DirectoryEntry(name=part)
                    node.children[part] = child
                    node.modification_time = time.time()
                if not isinstance(child, DirectoryEntry):
                    raise NotADirectoryError(path)
                node = child

    def create_file(
        self,
        path: str,
        payload_factory: Callable[[], PayloadT],
        *,
        block_size: int,
        replication: int,
        overwrite: bool = False,
        lease_holder: str | None = None,
        on_overwrite: Callable[[FileEntry[PayloadT]], None] | None = None,
    ) -> FileEntry[PayloadT]:
        """Create a file entry, implicitly creating parent directories.

        ``payload_factory`` is only invoked once the namespace checks have
        passed, so no storage-side object leaks when creation is rejected.
        ``on_overwrite`` is called with the replaced entry so the caller can
        release its storage (delete the blob / the blocks).
        """
        norm = fspath.normalize(path)
        if norm == fspath.ROOT:
            raise PathExistsError(norm)
        with self._lock:
            parent_path = fspath.parent(norm)
            self.mkdirs(parent_path)
            parent_dir = self._resolve_dir(parent_path)
            name = fspath.basename(norm)
            existing = parent_dir.children.get(name)
            if existing is not None:
                if isinstance(existing, DirectoryEntry):
                    raise IsADirectoryError(norm)
                if not overwrite:
                    raise PathExistsError(norm)
                if existing.lease_holder is not None:
                    raise LeaseConflictError(norm, existing.lease_holder)
            if isinstance(existing, FileEntry) and on_overwrite is not None:
                on_overwrite(existing)
            entry: FileEntry[PayloadT] = FileEntry(
                name=name,
                payload=payload_factory(),
                block_size=block_size,
                replication=replication,
                lease_holder=lease_holder,
            )
            parent_dir.children[name] = entry
            parent_dir.modification_time = time.time()
            return entry

    def delete(
        self,
        path: str,
        *,
        recursive: bool = False,
        on_delete_file: Callable[[str, FileEntry[PayloadT]], None] | None = None,
    ) -> None:
        """Remove a file or directory, invoking ``on_delete_file`` per removed file."""
        norm = fspath.normalize(path)
        if norm == fspath.ROOT:
            raise DirectoryNotEmptyError(norm)
        with self._lock:
            parent_dir = self._resolve_dir(fspath.parent(norm))
            name = fspath.basename(norm)
            entry = parent_dir.children.get(name)
            if entry is None:
                raise NoSuchPathError(norm)
            removed_files: list[tuple[str, FileEntry[PayloadT]]] = []
            if isinstance(entry, DirectoryEntry):
                if entry.children and not recursive:
                    raise DirectoryNotEmptyError(norm)
                removed_files.extend(self._collect_files(norm, entry))
            else:
                removed_files.append((norm, entry))
            for file_path, file_entry in removed_files:
                if file_entry.lease_holder is not None:
                    raise LeaseConflictError(file_path, file_entry.lease_holder)
            del parent_dir.children[name]
            parent_dir.modification_time = time.time()
        if on_delete_file is not None:
            for file_path, file_entry in removed_files:
                on_delete_file(file_path, file_entry)

    def _collect_files(
        self, base: str, directory: DirectoryEntry
    ) -> list[tuple[str, FileEntry[PayloadT]]]:
        """Files under ``directory``, depth-first and sorted; call under the lock."""
        collected: list[tuple[str, FileEntry[PayloadT]]] = []
        for name, child in sorted(directory.children.items()):
            child_path = fspath.join(base, name)
            if isinstance(child, DirectoryEntry):
                collected.extend(self._collect_files(child_path, child))
            else:
                collected.append((child_path, child))
        return collected

    def rename(self, src: str, dst: str) -> None:
        """Move ``src`` (file or directory) to ``dst``.

        ``dst`` must not exist; renaming a path under itself is rejected.
        """
        src_norm = fspath.normalize(src)
        dst_norm = fspath.normalize(dst)
        if src_norm == fspath.ROOT:
            raise NoSuchPathError(src_norm)
        if fspath.is_ancestor(src_norm, dst_norm):
            raise PathExistsError(
                f"cannot rename {src_norm!r} under itself ({dst_norm!r})"
            )
        with self._lock:
            src_parent = self._resolve_dir(fspath.parent(src_norm))
            src_name = fspath.basename(src_norm)
            if src_name not in src_parent.children:
                raise NoSuchPathError(src_norm)
            if self.exists(dst_norm):
                raise PathExistsError(dst_norm)
            self.mkdirs(fspath.parent(dst_norm))
            dst_parent = self._resolve_dir(fspath.parent(dst_norm))
            entry = src_parent.children.pop(src_name)
            new_name = fspath.basename(dst_norm)
            if isinstance(entry, DirectoryEntry):
                entry.name = new_name
            else:
                entry.name = new_name
            dst_parent.children[new_name] = entry
            src_parent.modification_time = time.time()
            dst_parent.modification_time = time.time()

    # -- leases ---------------------------------------------------------------------
    def acquire_lease(self, path: str, holder: str) -> None:
        """Grant the single-writer lease of ``path`` to ``holder``."""
        with self._lock:
            entry = self._resolve_file(path)
            if entry.lease_holder is not None and entry.lease_holder != holder:
                raise LeaseConflictError(path, entry.lease_holder)
            entry.lease_holder = holder

    def release_lease(self, path: str, holder: str) -> None:
        """Release the lease of ``path`` if held by ``holder``."""
        with self._lock:
            entry = self._resolve_file(path)
            if entry.lease_holder == holder:
                entry.lease_holder = None

    def lease_holder(self, path: str) -> str | None:
        """Current lease holder of ``path`` (``None`` when not being written)."""
        with self._lock:
            return self._resolve_file(path).lease_holder

    # -- bookkeeping -------------------------------------------------------------------
    def update_file(
        self,
        path: str,
        *,
        size: int | None = None,
        payload: PayloadT | None = None,
    ) -> None:
        """Update a file entry's size and/or payload after data was written."""
        with self._lock:
            entry = self._resolve_file(path)
            if size is not None:
                entry.size = size
            if payload is not None:
                entry.payload = payload
            entry.modification_time = time.time()

    def update_file_size_monotonic(self, path: str, size: int) -> int:
        """Raise a file's recorded size to ``size``, never lowering it.

        Concurrent appenders learn their post-append file size in an
        arbitrary order; applying each observation with plain
        :meth:`update_file` lets a stale observation move the size
        *backwards*.  This applies ``max(current, size)`` atomically under
        the namespace lock and returns the size actually recorded.
        """
        with self._lock:
            entry = self._resolve_file(path)
            if size > entry.size:
                entry.size = size
            entry.modification_time = time.time()
            return entry.size

    def count_files(self) -> int:
        """Total number of regular files in the namespace."""
        return sum(1 for _ in self.walk_files())
