"""BSFS centralized namespace manager.

The paper introduces BSFS as "a centralized namespace manager, which is
responsible for maintaining a file system namespace, and for mapping files
to BLOBs".  This module is exactly that entity: a thin, thread-safe wrapper
around the shared :class:`repro.fs.namespace.NamespaceTree` whose per-file
payload is the id of the BLOB storing the file's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fs import path as fspath
from ..fs.interface import FileStatus
from ..fs.namespace import DirectoryEntry, FileEntry, NamespaceTree

__all__ = ["BSFSFileRecord", "NamespaceManager"]


@dataclass(frozen=True, slots=True)
class BSFSFileRecord:
    """Mapping of one BSFS file to its backing BLOB."""

    path: str
    blob_id: int
    size: int
    block_size: int
    replication: int


class NamespaceManager:
    """Centralized file-to-BLOB namespace service of BSFS."""

    def __init__(self) -> None:
        self._tree: NamespaceTree[int] = NamespaceTree()

    @property
    def tree(self) -> NamespaceTree[int]:
        """The underlying namespace tree (exposed for the file system layer)."""
        return self._tree

    # -- file <-> blob mapping -------------------------------------------------------
    def register_file(
        self,
        path: str,
        blob_id: int,
        *,
        block_size: int,
        replication: int,
        overwrite: bool = False,
        lease_holder: str | None = None,
        on_overwrite=None,
    ) -> None:
        """Bind ``path`` to ``blob_id`` in the namespace."""
        self._tree.create_file(
            path,
            payload_factory=lambda: blob_id,
            block_size=block_size,
            replication=replication,
            overwrite=overwrite,
            lease_holder=lease_holder,
            on_overwrite=on_overwrite,
        )

    def blob_of(self, path: str) -> int:
        """Return the BLOB id backing the file at ``path``."""
        return self._tree.get_file(path).payload

    def record(self, path: str) -> BSFSFileRecord:
        """Return the full file-to-BLOB record of ``path``."""
        entry = self._tree.get_file(path)
        return BSFSFileRecord(
            path=fspath.normalize(path),
            blob_id=entry.payload,
            size=entry.size,
            block_size=entry.block_size,
            replication=entry.replication,
        )

    def update_size(self, path: str, size: int) -> None:
        """Record the new size of ``path`` after a write completed."""
        self._tree.update_file(path, size=size)

    def update_size_monotonic(self, path: str, size: int) -> int:
        """Raise the recorded size of ``path`` to ``size``, never lowering it.

        Used by concurrent appends, where clients observe their post-append
        blob size in an arbitrary order: a check-then-act sequence on the
        caller's side would let a stale observation shrink the namespace
        size.  Returns the size actually recorded.
        """
        return self._tree.update_file_size_monotonic(path, size)

    # -- status helpers ---------------------------------------------------------------
    def status_of(self, path: str) -> FileStatus:
        """Build a :class:`FileStatus` for ``path``."""
        norm = fspath.normalize(path)
        entry = self._tree.get_entry(norm)
        if isinstance(entry, DirectoryEntry):
            return FileStatus(
                path=norm,
                is_dir=True,
                size=0,
                block_size=0,
                replication=0,
                modification_time=entry.modification_time,
            )
        return FileStatus(
            path=norm,
            is_dir=False,
            size=entry.size,
            block_size=entry.block_size,
            replication=entry.replication,
            modification_time=entry.modification_time,
        )

    def list_status(self, path: str) -> list[FileStatus]:
        """Statuses of the children of directory ``path`` (sorted by path)."""
        statuses = []
        for child_path, entry in self._tree.list_dir(path):
            if isinstance(entry, FileEntry):
                statuses.append(
                    FileStatus(
                        path=child_path,
                        is_dir=False,
                        size=entry.size,
                        block_size=entry.block_size,
                        replication=entry.replication,
                        modification_time=entry.modification_time,
                    )
                )
            else:
                statuses.append(
                    FileStatus(
                        path=child_path,
                        is_dir=True,
                        size=0,
                        block_size=0,
                        replication=0,
                        modification_time=entry.modification_time,
                    )
                )
        return statuses

    def all_records(self) -> list[BSFSFileRecord]:
        """Every file-to-BLOB binding in the namespace (for reports/GC)."""
        return [
            BSFSFileRecord(
                path=file_path,
                blob_id=entry.payload,
                size=entry.size,
                block_size=entry.block_size,
                replication=entry.replication,
            )
            for file_path, entry in self._tree.walk_files()
        ]
