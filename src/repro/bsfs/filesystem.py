"""BSFS: the BlobSeer File System, a Hadoop-compatible storage backend.

This is the paper's primary contribution: a file-system layer on top of the
BlobSeer service so that the Hadoop framework can use it in place of HDFS.
It combines

* the centralized :class:`~repro.bsfs.namespace.NamespaceManager` (file →
  BLOB mapping, directory tree, single-writer leases),
* the client-side cache (whole-block read prefetching and write
  aggregation, see :mod:`repro.bsfs.cache`),
* the data-layout exposure primitive (:mod:`repro.bsfs.locality`), and
* BlobSeer versioning, surfaced through ``open(version=...)`` and
  ``snapshot()`` — the capability §V of the paper identifies as enabling
  concurrent workflows over different snapshots of the same data.

Unlike HDFS, BSFS supports appending to an existing file and — through
:meth:`BSFS.concurrent_append` — concurrent appends by multiple clients to
the *same* file, which the paper lists as future work enabled by BlobSeer.
"""

from __future__ import annotations

import itertools
import threading

from ..core.client import BlobSeer
from ..core.config import MB, BlobSeerConfig
from ..core.errors import BlobPinnedError
from ..fs import path as fspath
from ..fs.errors import InvalidRangeError, NoSuchPathError
from ..fs.interface import BlockLocation, FileStatus, FileSystem
from ..versions.pins import SnapshotHandle
from .cache import VersionedBlockCache
from .file import BSFSInputStream, BSFSOutputStream
from .locality import block_locations_for_blob
from .namespace import NamespaceManager

__all__ = ["BSFS"]

#: Default Hadoop-style block size used by BSFS files (the paper uses 64 MB).
DEFAULT_BLOCK_SIZE = 64 * MB


class BSFS(FileSystem):
    """BlobSeer File System facade implementing the shared FileSystem API."""

    scheme = "bsfs"

    def __init__(
        self,
        blobseer: BlobSeer | None = None,
        *,
        config: BlobSeerConfig | None = None,
        default_block_size: int = DEFAULT_BLOCK_SIZE,
        cache_blocks: int = 4,
        shared_cache_blocks: int | None = None,
    ) -> None:
        """Create a BSFS instance.

        Parameters
        ----------
        blobseer:
            An existing BlobSeer deployment to build on; a fresh in-process
            deployment is created from ``config`` when omitted.
        config:
            Configuration for the implicit deployment (ignored when
            ``blobseer`` is given).
        default_block_size:
            Block size used for files that do not specify one.
        cache_blocks:
            Number of blocks each input stream caches (LRU).
        shared_cache_blocks:
            Capacity of the instance-wide block store all input streams
            share.  Blocks are keyed ``(blob, version, block)``, so streams
            of the same snapshot share fetches while a pinned-snapshot
            reader can never be served a concurrent latest-reader's bytes.
            Defaults to ``8 × cache_blocks`` (at least 32).
        """
        self.blobseer = blobseer if blobseer is not None else BlobSeer(config)
        self.namespace = NamespaceManager()
        self._default_block_size = default_block_size
        self._cache_blocks = cache_blocks
        if shared_cache_blocks is None:
            shared_cache_blocks = max(32, cache_blocks * 8)
        #: Instance-wide version-keyed block store shared by every input
        #: stream (see :class:`~repro.bsfs.cache.VersionedBlockCache`).
        self.block_store = VersionedBlockCache(shared_cache_blocks)
        self._client_ids = itertools.count(1)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ creation
    def _next_client(self, client_host: str | None) -> str:
        with self._lock:
            return f"{client_host or 'client'}-{next(self._client_ids)}"

    @property
    def default_block_size(self) -> int:
        """Block size applied to files created without an explicit one."""
        return self._default_block_size

    def create(
        self,
        path: str,
        *,
        overwrite: bool = False,
        block_size: int | None = None,
        replication: int | None = None,
        client_host: str | None = None,
    ) -> BSFSOutputStream:
        """Create a file backed by a fresh BLOB and return its output stream."""
        norm = fspath.normalize(path)
        block_size = block_size or self._default_block_size
        replication = replication or self.blobseer.config.replication
        holder = self._next_client(client_host)
        blob_id = self.blobseer.create_blob(replication=replication)

        def _release_overwritten(entry) -> None:
            self._release_blob(entry.payload)

        self.namespace.register_file(
            norm,
            blob_id,
            block_size=block_size,
            replication=replication,
            overwrite=overwrite,
            lease_holder=holder,
            on_overwrite=_release_overwritten,
        )

        def _on_close(final_size: int) -> None:
            # Release the lease even when the size commit fails: the failed
            # write must leave the file deletable, not leased forever.
            try:
                self._commit_size(norm, blob_id, final_size)
            finally:
                self.namespace.tree.release_lease(norm, holder)

        return BSFSOutputStream(
            self.blobseer,
            blob_id,
            block_size=block_size,
            initial_size=0,
            on_close=_on_close,
        )

    def _commit_size(self, norm: str, blob_id: int, observed_size: int) -> None:
        """Publish a writer's final size without racing concurrent appends.

        A leased writer computes its final size from what *it* wrote, but
        ``concurrent_append`` bypasses the lease by design, so the blob may
        have grown past that in the meantime.  Re-reading the blob size and
        applying the larger value monotonically keeps the namespace from
        moving backwards (the same check-then-act class of bug fixed in
        :meth:`concurrent_append`)."""
        actual = self.blobseer.get_size(blob_id)
        self.namespace.update_size_monotonic(norm, max(observed_size, actual))

    def append(
        self, path: str, *, client_host: str | None = None
    ) -> BSFSOutputStream:
        """Re-open an existing file for appending (supported, unlike HDFS).

        Appends start at the blob's end, past any range a failed block
        reserved; such a range reads as zeros."""
        norm = fspath.normalize(path)
        record = self.namespace.record(norm)
        holder = self._next_client(client_host)
        self.namespace.tree.acquire_lease(norm, holder)

        def _on_close(final_size: int) -> None:
            try:
                self._commit_size(norm, record.blob_id, final_size)
            finally:
                self.namespace.tree.release_lease(norm, holder)

        return BSFSOutputStream(
            self.blobseer,
            record.blob_id,
            block_size=record.block_size,
            initial_size=record.size,
            on_close=_on_close,
        )

    def concurrent_append(self, path: str, data: bytes) -> int:
        """Append ``data`` to ``path`` without taking the write lease.

        Multiple clients may call this concurrently on the same file: each
        append becomes a new version of the backing blob with a disjoint
        byte range assigned by the version manager, exactly the §V "future
        work" scenario (e.g. all reducers writing to a single output file).
        Returns the byte offset at which ``data`` landed.
        """
        norm = fspath.normalize(path)
        record = self.namespace.record(norm)
        version = self.blobseer.append(record.blob_id, data)
        info = self.blobseer.version_manager.version_info(record.blob_id, version)
        # The append's own version carries its offset and the size it
        # published.  Two appenders may report their sizes in either order;
        # the monotonic update makes the namespace size the max ever
        # reported instead of the last write racing it backwards.
        self.namespace.update_size_monotonic(norm, info.size)
        return info.write_offset

    # ------------------------------------------------------------------- reading
    def open(
        self,
        path: str,
        *,
        client_host: str | None = None,
        version: int | None = None,
        read_ahead: bool = True,
    ) -> BSFSInputStream:
        """Open a file for reading; ``version`` selects an older blob snapshot.

        The snapshot may equivalently be named inline (``/logs/events@v12``).
        With ``version=None`` the stream captures the latest published
        version *at open time* and keeps reading it while writers publish
        newer ones — one stream never mixes bytes of two snapshots.

        ``read_ahead=False`` disables the stream's engine-side next-block
        prefetch — worth it for scattered positional reads, where
        prefetching the following block is pure read amplification.
        """
        bare, version = self._resolve_read_target(path, version)
        record = self.namespace.record(bare)
        if version is None:
            # Capture the snapshot here so size and version agree: the
            # namespace size is maintained monotonically from published
            # versions, so it can never exceed the latest version's extent,
            # but clamping makes the invariant local and obvious.
            version = self.blobseer.latest_version(record.blob_id)
            size = min(record.size, self.blobseer.get_size(record.blob_id, version))
        else:
            size = self.blobseer.get_size(record.blob_id, version)
        return BSFSInputStream(
            self.blobseer,
            record.blob_id,
            size=size,
            block_size=record.block_size,
            version=version,
            cache_blocks=self._cache_blocks,
            read_ahead=read_ahead,
            store=self.block_store,
        )

    def open_read(
        self,
        path: str,
        *,
        offset: int = 0,
        length: int | None = None,
        chunk_size: int = 1024 * 1024,
        client_host: str | None = None,
        version: int | None = None,
    ):
        """Stream a file's bytes in chunks with concurrent read-ahead.

        Bypasses the whole-block read cache (useless for a single forward
        pass) and streams straight from the blob through
        :meth:`BlobSeer.open_read`: each chunk is a page-aligned window of
        ``chunk_size`` bytes (at least one page) whose pages are fetched in
        parallel, and the next window is fetched while the consumer works
        on the current one.

        Like :meth:`open`, the snapshot is resolved *before* streaming
        starts (``version=None`` captures the latest published version), so
        a stream started during concurrent appends is byte-stable.
        """
        self._validate_stream_range(offset, length, chunk_size)
        bare, version = self._resolve_read_target(path, version)
        record = self.namespace.record(bare)
        if version is None:
            version = self.blobseer.latest_version(record.blob_id)
            size = min(record.size, self.blobseer.get_size(record.blob_id, version))
        else:
            size = self.blobseer.get_size(record.blob_id, version)
        end = size if length is None else min(offset + length, size)
        span = max(end - offset, 0)
        if span == 0:
            return iter(())
        return self.blobseer.open_read(
            record.blob_id, offset, span, version=version, chunk_size=chunk_size
        )

    @property
    def transfer(self):
        """The deployment's shared transfer engine (for shuffle/prefetch use)."""
        return self.blobseer.transfer

    # ----------------------------------------------------------------- namespace
    def mkdirs(self, path: str) -> None:
        self.namespace.tree.mkdirs(path)

    def delete(self, path: str, *, recursive: bool = False) -> None:
        def _release(file_path: str, entry) -> None:
            self._release_blob(entry.payload)

        self.namespace.tree.delete(path, recursive=recursive, on_delete_file=_release)

    def _release_blob(self, blob_id: int) -> None:
        """Reclaim a blob whose file was deleted or overwritten.

        A blob with in-flight snapshot pins cannot be deleted (the version
        manager's delete guard raises :class:`BlobPinnedError`); the
        namespace entry is gone either way, so the delete is *deferred*
        until the last pin drains rather than orphaning the blob's pages.
        Cached blocks of the blob are dropped eagerly — the keys can never
        be served again once the file is unlinked.
        """
        self.block_store.invalidate(prefix=(blob_id,))
        try:
            self.blobseer.delete_blob(blob_id)
        except BlobPinnedError:
            self.blobseer.pins.on_drain(
                blob_id, lambda: self._delete_drained(blob_id)
            )
        except Exception:
            pass

    def _delete_drained(self, blob_id: int) -> None:
        """Drain hook: complete a deferred blob delete (never raises)."""
        try:
            self.blobseer.delete_blob(blob_id)
        except Exception:
            pass

    def rename(self, src: str, dst: str) -> None:
        self.namespace.tree.rename(src, dst)

    def exists(self, path: str) -> bool:
        return self.namespace.tree.exists(path)

    def status(self, path: str) -> FileStatus:
        if not self.exists(path):
            raise NoSuchPathError(fspath.normalize(path))
        return self.namespace.status_of(path)

    def list_dir(self, path: str) -> list[FileStatus]:
        return self.namespace.list_status(path)

    # ------------------------------------------------------------------ locality
    def block_locations(
        self, path: str, offset: int = 0, length: int | None = None
    ) -> list[BlockLocation]:
        record = self.namespace.record(path)
        if offset < 0 or offset > record.size:
            raise InvalidRangeError(record.path, offset, record.size)
        if length is not None and length < 0:
            raise InvalidRangeError(record.path, offset, record.size, length=length)
        if length is None or offset + length > record.size:
            length = record.size - offset
        return block_locations_for_blob(
            self.blobseer,
            record.blob_id,
            offset=offset,
            length=length,
            block_size=record.block_size,
            file_size=record.size,
        )

    # ----------------------------------------------------------------- versioning
    def file_versions(self, path: str) -> list[int]:
        """Published versions of the blob backing ``path`` (oldest first)."""
        record = self.namespace.record(path)
        return self.blobseer.versions(record.blob_id)

    def snapshot(self, path: str) -> int:
        """Return a version number capturing the file's current content.

        Because BlobSeer versions are immutable snapshots, "taking" a
        snapshot is free: the latest published version *is* the snapshot.
        The returned number can be passed to ``open(path, version=...)`` at
        any later time, even after further appends.
        """
        record = self.namespace.record(path)
        return self.blobseer.latest_version(record.blob_id)

    def snapshot_size(self, path: str, version: int | None = None) -> int:
        """Size of ``path`` as of blob snapshot ``version`` (current when None)."""
        record = self.namespace.record(path)
        if version is None:
            return record.size
        return self.blobseer.get_size(record.blob_id, version)

    def pin(
        self,
        path: str,
        version: int | None = None,
        *,
        owner: str = "reader",
        ttl: float | None = None,
    ) -> SnapshotHandle:
        """Take a real lease on a snapshot of ``path`` in the pin registry.

        Unlike the base class's token pin, the returned
        :class:`~repro.versions.pins.SnapshotHandle` actually protects the
        snapshot: the version GC will not retire a pinned version and
        :meth:`delete` defers blob reclamation until the pin drains.
        ``version=None`` pins the latest published version.
        """
        record = self.namespace.record(path)
        return self.blobseer.pin_version(
            record.blob_id, version, owner=owner, ttl=ttl
        )

    # ----------------------------------------------------------------- monitoring
    def stats(self) -> dict:
        """Aggregate statistics of the file system and its BlobSeer deployment."""
        stats = self.blobseer.stats()
        stats["files"] = self.namespace.tree.count_files()
        stats["scheme"] = self.scheme
        return stats
