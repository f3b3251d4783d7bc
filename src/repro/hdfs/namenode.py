"""HDFS namenode: namespace, block map and block allocation.

"The namenode takes care of the file system namespace and the data
location."  This module reproduces that role for the baseline: it owns the
directory tree (built on the shared :class:`~repro.fs.namespace.NamespaceTree`),
maps every file to an ordered list of blocks, maps every block to the
datanodes holding its replicas, and enforces HDFS's write-once,
single-writer semantics (no appends, no overwrites of closed files).
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from dataclasses import dataclass, field

from ..core.errors import ProviderUnavailableError
from ..fs import path as fspath
from ..fs.errors import InvalidRangeError, NoSuchPathError, UnsupportedOperationError
from ..fs.interface import BlockLocation, FileStatus
from ..fs.namespace import DirectoryEntry, FileEntry, NamespaceTree
from .block_placement import BlockPlacementPolicy, DefaultPlacementPolicy
from .datanode import DataNode

__all__ = ["BlockMeta", "HDFSFilePayload", "NameNode"]


@dataclass
class BlockMeta:
    """Metadata of one HDFS block: replica locations and length."""

    block_id: int
    length: int = 0
    locations: tuple[int, ...] = ()


@dataclass
class HDFSFilePayload:
    """Per-file payload stored in the namespace: the ordered block list."""

    block_ids: list[int] = field(default_factory=list)
    sealed: bool = False


class NameNode:
    """Centralized metadata server of the HDFS baseline."""

    def __init__(
        self,
        datanodes: list[DataNode],
        *,
        placement_policy: BlockPlacementPolicy | None = None,
        default_block_size: int = 64 * 1024 * 1024,
        default_replication: int = 1,
    ) -> None:
        self._tree: NamespaceTree[HDFSFilePayload] = NamespaceTree()
        self._datanodes: dict[int, DataNode] = {d.node_id: d for d in datanodes}
        self._blocks: dict[int, BlockMeta] = {}
        self._block_ids = itertools.count(1)
        self._policy = placement_policy or DefaultPlacementPolicy()
        self._lock = threading.Lock()
        self.default_block_size = default_block_size
        self.default_replication = default_replication

    # -- cluster membership ----------------------------------------------------------
    @property
    def datanodes(self) -> list[DataNode]:
        """The datanodes registered with this namenode."""
        return list(self._datanodes.values())

    def datanode(self, node_id: int) -> DataNode:
        """Look up a datanode by id."""
        return self._datanodes[node_id]

    def register_datanode(self, datanode: DataNode) -> None:
        """Add a datanode to the cluster (re-registration replaces the
        stale entry, so a restarted node process never double-counts)."""
        with self._lock:
            self._datanodes[datanode.node_id] = datanode

    def deregister_datanode(self, node_id: int) -> DataNode | None:
        """Drop a datanode from the cluster (idempotent).

        Called on clean shutdown and by failure detection; a node that is
        already gone is not an error.  Block metadata keeps the node id in
        ``locations`` until :meth:`handle_dead_datanode` re-replicates —
        readers skip unknown ids (see :meth:`block_locations`).
        """
        with self._lock:
            return self._datanodes.pop(node_id, None)

    def apply_block_report(self, node_id: int, block_ids: list[int]) -> dict:
        """Reconcile the block map with a datanode's full report.

        Mirrors HDFS block reports: the datanode's word is authoritative
        for what *it* stores.  Blocks the namenode thought the node held
        but the report omits are removed from their locations; reported
        blocks the namenode tracks but did not map to the node are added.
        Unknown block ids (e.g. of deleted files) are ignored.  Returns
        ``{"added": n, "removed": m}`` for monitoring.
        """
        reported = set(block_ids)
        added = removed = 0
        with self._lock:
            for block_id, meta in self._blocks.items():
                holds = block_id in reported
                listed = node_id in meta.locations
                if holds and not listed:
                    meta.locations = meta.locations + (node_id,)
                    added += 1
                elif listed and not holds:
                    meta.locations = tuple(
                        n for n in meta.locations if n != node_id
                    )
                    removed += 1
        return {"added": added, "removed": removed}

    def handle_dead_datanode(self, node_id: int) -> int:
        """Re-replicate every block that lost a replica on ``node_id``.

        Called when failure detection declares a datanode dead.  For each
        affected block a surviving replica is copied to a live datanode
        not already holding it, restoring the block's previous replica
        count (a single-replica block whose only copy died stays lost —
        there is nothing to copy from).  Returns the number of new
        replicas created.
        """
        with self._lock:
            self._datanodes.pop(node_id, None)
            work: list[tuple[BlockMeta, int]] = []
            for meta in self._blocks.values():
                if node_id in meta.locations:
                    target = len(meta.locations)
                    meta.locations = tuple(
                        n for n in meta.locations if n != node_id
                    )
                    work.append((meta, target))
            # Each node's load as the block map has it: choosing a
            # destination asks no datanode for its counters.
            load = Counter(n for meta in self._blocks.values() for n in meta.locations)
        copied = 0
        for meta, target in work:
            copied += self._replicate_block(meta, target, load)
        return copied

    def _replicate_block(self, meta: BlockMeta, target: int, load: Counter) -> int:
        """Copy ``meta``'s block to live nodes until ``target`` replicas exist,
        each copy going to the candidate holding the fewest blocks in
        ``load`` (updated as copies land)."""
        created = 0
        while True:
            with self._lock:
                if len(meta.locations) >= target:
                    return created
                sources = [
                    self._datanodes[n]
                    for n in meta.locations
                    if n in self._datanodes and self._datanodes[n].available
                ]
                candidates = [
                    d
                    for d in self._datanodes.values()
                    if d.available and d.node_id not in meta.locations
                ]
            if not sources or not candidates:
                return created
            destination = min(candidates, key=lambda d: load[d.node_id])
            try:
                data = sources[0].read_block(meta.block_id)
                destination.write_block(meta.block_id, data)
            except Exception:
                return created  # source raced a failure; give up on this block
            with self._lock:
                if destination.node_id not in meta.locations:
                    meta.locations = meta.locations + (destination.node_id,)
                    load[destination.node_id] += 1
                    created += 1

    # -- namespace --------------------------------------------------------------------
    @property
    def tree(self) -> NamespaceTree[HDFSFilePayload]:
        """The namespace tree (shared semantics with BSFS)."""
        return self._tree

    def create_file(
        self,
        path: str,
        *,
        block_size: int | None,
        replication: int | None,
        overwrite: bool,
        lease_holder: str,
    ) -> FileEntry[HDFSFilePayload]:
        """Create a file entry under a write lease, releasing the blocks of
        the file it replaces once the namespace lock is dropped."""
        replaced: list[int] = []
        entry = self._tree.create_file(
            path,
            payload_factory=HDFSFilePayload,
            block_size=block_size or self.default_block_size,
            replication=replication or self.default_replication,
            overwrite=overwrite,
            lease_holder=lease_holder,
            on_overwrite=lambda old: replaced.extend(old.payload.block_ids),
        )
        self._release_blocks(replaced)
        return entry

    def status(self, path: str) -> FileStatus:
        """Return the :class:`FileStatus` of ``path``."""
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
        """Statuses of a directory's children."""
        result = []
        for child_path, _entry in self._tree.list_dir(path):
            result.append(self.status(child_path))
        return result

    # -- block allocation ---------------------------------------------------------------
    def add_block(
        self, path: str, *, writer_host: str | None = None
    ) -> tuple[BlockMeta, list[DataNode]]:
        """Allocate the next block of ``path`` and choose its target datanodes.

        Mirrors ``ClientProtocol.addBlock``: called by the output stream each
        time its buffer reaches the block size.
        """
        with self._lock:
            entry = self._tree.get_file(path)
            if entry.payload.sealed:
                raise UnsupportedOperationError(
                    f"file {path!r} is closed; HDFS files cannot be reopened for writing"
                )
            # Choose targets first: a placement failure must not leave an
            # empty block in the file.
            targets = self._policy.choose_targets(
                list(self._datanodes.values()),
                entry.replication,
                writer_host=writer_host,
            )
            block_id = next(self._block_ids)
            meta = BlockMeta(block_id=block_id)
            self._blocks[block_id] = meta
            entry.payload.block_ids.append(block_id)
            return meta, targets

    def commit_block(
        self, path: str, block_id: int, *, length: int, locations: list[int]
    ) -> None:
        """Record a block's final length and replica locations after the pipeline."""
        with self._lock:
            meta = self._blocks[block_id]
            meta.length = length
            meta.locations = tuple(locations)
            entry = self._tree.get_file(path)
            entry.size = sum(self._blocks[b].length for b in entry.payload.block_ids)

    def abandon_block(self, path: str, block_id: int) -> None:
        """Drop a block no datanode stored (``ClientProtocol.abandonBlock``).

        The writer calls this when its pipeline failed on every target, so
        the file does not keep an empty block with no replicas.
        """
        with self._lock:
            self._tree.get_file(path).payload.block_ids.remove(block_id)
            del self._blocks[block_id]

    def complete_file(self, path: str, lease_holder: str) -> None:
        """Seal a file: release the lease; the file becomes immutable."""
        with self._lock:
            entry = self._tree.get_file(path)
            entry.payload.sealed = True
        self._tree.release_lease(path, lease_holder)

    def abandon_file(self, path: str, lease_holder: str) -> None:
        """Drop a half-written file (writer failure)."""
        self._tree.release_lease(path, lease_holder)
        self.delete(path, recursive=False)

    # -- block queries -----------------------------------------------------------------
    def file_blocks(self, path: str) -> list[BlockMeta]:
        """Ordered block list of a file."""
        with self._lock:
            entry = self._tree.get_file(path)
            return [self._blocks[b] for b in entry.payload.block_ids]

    def block_meta(self, block_id: int) -> BlockMeta:
        """Metadata of one block."""
        with self._lock:
            return self._blocks[block_id]

    def block_locations(
        self, path: str, offset: int = 0, length: int | None = None
    ) -> list[BlockLocation]:
        """Block locations of a byte range of ``path`` (hosts holding replicas)."""
        norm = fspath.normalize(path)
        if not self._tree.exists(norm):
            raise NoSuchPathError(norm)
        entry = self._tree.get_file(norm)
        if offset < 0 or offset > entry.size:
            raise InvalidRangeError(norm, offset, entry.size)
        if length is not None and length < 0:
            raise InvalidRangeError(norm, offset, entry.size, length=length)
        if length is None:
            length = entry.size - offset
        end = min(offset + length, entry.size)
        locations: list[BlockLocation] = []
        position = 0
        for meta in self.file_blocks(norm):
            block_start = position
            block_end = position + meta.length
            position = block_end
            if block_end <= offset or block_start >= end:
                continue
            hosts = tuple(
                self._datanodes[node_id].host
                for node_id in meta.locations
                if node_id in self._datanodes
            )
            locations.append(
                BlockLocation(offset=block_start, length=meta.length, hosts=hosts)
            )
        return locations

    # -- deletion ---------------------------------------------------------------------
    def delete(self, path: str, *, recursive: bool = False) -> None:
        """Delete a path, releasing the blocks of every removed file."""

        def _release(file_path: str, entry: FileEntry[HDFSFilePayload]) -> None:
            self._release_blocks(entry.payload.block_ids)

        self._tree.delete(path, recursive=recursive, on_delete_file=_release)

    def _release_blocks(self, block_ids: list[int]) -> None:
        """Forget ``block_ids`` and delete their replicas.  A replica on a
        node that is down, or fails the delete, is left as an orphan."""
        with self._lock:
            metas = [self._blocks.pop(block_id, None) for block_id in block_ids]
        for meta in metas:
            if meta is None:
                continue
            for node_id in meta.locations:
                node = self._datanodes.get(node_id)
                if node is not None and node.available:
                    try:
                        node.delete_block(meta.block_id)
                    except ProviderUnavailableError:
                        continue

    # -- reports ----------------------------------------------------------------------
    def report(self) -> dict:
        """Cluster-wide report (files, blocks, per-datanode usage)."""
        with self._lock:
            blocks = len(self._blocks)
        datanodes = {}
        for d in self.datanodes:
            stats = d.stats()
            datanodes[d.node_id] = {
                "host": d.host,
                "rack": d.rack,
                "blocks": stats.blocks_stored,
                "bytes": stats.bytes_stored,
            }
        return {
            "files": self._tree.count_files(),
            "blocks": blocks,
            "datanodes": datanodes,
        }
