"""HDFS baseline file system: write-once blocks, pipeline replication.

The comparison system of the paper.  Semantics reproduced from the paper's
description of HDFS:

* files are split into large blocks (64 MB by default) stored on datanodes;
* block replicas are placed by the rack-aware policy of
  :mod:`repro.hdfs.block_placement` (first replica written *locally*);
* a file has a single writer and, once written and closed, "the data cannot
  be overwritten or appended to" — :meth:`HDFS.append` therefore raises
  :class:`~repro.fs.errors.UnsupportedOperationError`, which is precisely
  the capability gap BSFS fills;
* readers fetch each block from the closest replica (same host, then same
  rack, then any), mirroring Hadoop's topology-aware replica selection.
"""

from __future__ import annotations

import itertools
import threading
from functools import partial

from ..core.errors import AllocationError, ProviderUnavailableError
from ..core.transfer import ChunkBuffer, TransferEngine, pipelined
from ..fs import path as fspath
from ..fs.errors import NoSuchPathError, UnsupportedOperationError
from ..fs.interface import BlockLocation, FileStatus, FileSystem, InputStream, OutputStream
from .block_placement import BlockPlacementPolicy
from .datanode import DataNode
from .namenode import NameNode

__all__ = ["HDFS", "HDFSOutputStream", "HDFSInputStream"]

#: Default HDFS block size (the paper: "Hadoop often makes use of data in 64 MB chunks").
DEFAULT_BLOCK_SIZE = 64 * 1024 * 1024

#: Block chunks :meth:`HDFS.open_read` fetches ahead of the consumer.
READ_AHEAD_CHUNKS = 4


class HDFSOutputStream(OutputStream):
    """Single-writer output stream writing full blocks through a replication pipeline.

    HDFS only makes data visible per completed block, so :meth:`flush` is
    a no-op.
    """

    def __init__(
        self,
        fs: "HDFS",
        path: str,
        *,
        block_size: int,
        lease_holder: str,
        client_host: str | None,
    ) -> None:
        super().__init__()
        self._fs = fs
        self._path = path
        self._block_size = block_size
        self._lease_holder = lease_holder
        self._client_host = client_host
        # Chunk list + running length: the old ``bytearray += data`` /
        # ``del buffer[:block_size]`` made many small writes into a 64 MB
        # block quadratic in the buffered size.
        self._buffer = ChunkBuffer()

    def _write(self, data: bytes) -> None:
        self._buffer.append(data)
        while len(self._buffer) >= self._block_size:
            block = self._buffer.take(self._block_size)
            self._fs._write_block(self._path, block, self._client_host)

    def _close(self) -> None:
        try:
            if len(self._buffer) and self._failure is None:
                self._fs._write_block(
                    self._path, self._buffer.take_all(), self._client_host
                )
        finally:
            self._fs.namenode.complete_file(self._path, self._lease_holder)


class HDFSInputStream(InputStream):
    """Reader choosing, per block, the closest live replica."""

    def __init__(
        self,
        fs: "HDFS",
        path: str,
        *,
        client_host: str | None,
        size: int | None = None,
    ) -> None:
        status = fs.namenode.status(path)
        super().__init__(status.size if size is None else min(size, status.size))
        self._fs = fs
        self._path = path
        self._client_host = client_host
        # Snapshot the block list at open time (files are immutable once sealed).
        self._blocks = fs.namenode.file_blocks(path)

    def _pread(self, offset: int, size: int) -> bytes:
        # A lone chunk is returned as the datanode sent it; several are joined once.
        chunks: list[bytes] = []
        block_start, end = 0, offset + size
        for meta in self._blocks:
            lo, hi = max(offset, block_start), min(end, block_start + meta.length)
            if lo < hi:
                chunks.append(
                    self._fs._read_block(meta, lo - block_start, hi - lo, self._client_host)
                )
            block_start += meta.length
        return chunks[0] if len(chunks) == 1 else b"".join(chunks)


class HDFS(FileSystem):
    """The HDFS-like baseline implementing the shared FileSystem API."""

    scheme = "hdfs"

    def __init__(
        self,
        *,
        num_datanodes: int = 16,
        datanodes: list[DataNode] | None = None,
        racks: int = 4,
        default_block_size: int = DEFAULT_BLOCK_SIZE,
        default_replication: int = 1,
        placement_policy: BlockPlacementPolicy | None = None,
        transfer_workers: int = 8,
    ) -> None:
        """Create an in-process HDFS deployment.

        ``datanodes`` may be supplied explicitly (e.g. to control hosts and
        racks); otherwise ``num_datanodes`` nodes are created and spread
        round-robin over ``racks`` racks.  ``transfer_workers`` sizes the
        transfer engine that pipelines block replication and read-ahead.
        """
        if datanodes is None:
            datanodes = [
                DataNode(i, host=f"node-{i}", rack=f"rack-{i % max(racks, 1)}")
                for i in range(num_datanodes)
            ]
        self.namenode = NameNode(
            datanodes,
            placement_policy=placement_policy,
            default_block_size=default_block_size,
            default_replication=default_replication,
        )
        #: Shared transfer engine: replica pushes of one block run
        #: concurrently (the write pipeline) and streaming reads prefetch
        #: ahead of the consumer.
        self.transfer = TransferEngine(transfer_workers, name="hdfs-io")
        self._lock = threading.Lock()
        self._client_ids = itertools.count(1)
        #: Blocks this client read from each datanode, by node id: the
        #: load that orders replicas of equal distance.
        self._blocks_read: dict[int, int] = {}

    # -- helpers --------------------------------------------------------------------
    @property
    def datanodes(self) -> list[DataNode]:
        """The deployment's datanodes."""
        return self.namenode.datanodes

    @property
    def default_block_size(self) -> int:
        """Block size applied to files created without an explicit one."""
        return self.namenode.default_block_size

    def _next_client(self, client_host: str | None) -> str:
        with self._lock:
            return f"{client_host or 'client'}-{next(self._client_ids)}"

    # -- write path -----------------------------------------------------------------
    def create(
        self,
        path: str,
        *,
        overwrite: bool = False,
        block_size: int | None = None,
        replication: int | None = None,
        client_host: str | None = None,
    ) -> HDFSOutputStream:
        """Create a file for writing (single writer, sealed at close)."""
        norm = fspath.normalize(path)
        holder = self._next_client(client_host)
        entry = self.namenode.create_file(
            norm,
            block_size=block_size,
            replication=replication,
            overwrite=overwrite,
            lease_holder=holder,
        )
        return HDFSOutputStream(
            self,
            norm,
            block_size=entry.block_size,
            lease_holder=holder,
            client_host=client_host,
        )

    def _write_block(self, path: str, data: bytes, client_host: str | None) -> None:
        """Allocate a block and push it through the replication pipeline.

        The real HDFS pipeline forwards packets from replica to replica so
        all datanodes receive the block at (almost) the same time; the
        functional equivalent here is pushing the block to every chosen
        datanode *concurrently* through the transfer engine, instead of
        one full block transfer after the other.

        Targets are chosen from the liveness the head already holds (a
        datanode stub's ``available`` is its own view, not a probe), so a
        node that died since its last call can still be picked; its failed
        push marks it down.  A block no target accepted is abandoned and
        placed once more if a datanode still looks up — one spare
        placement, never a loop — and otherwise the write raises
        :class:`~repro.core.errors.ProviderUnavailableError`, as it does
        when every registered datanode is known down before placement.
        Either way the file keeps no empty block.
        """
        placed = self._place_block(path, data, client_host)
        if not placed and any(d.available for d in self.datanodes):
            placed = self._place_block(path, data, client_host)
        if not placed:
            raise ProviderUnavailableError(f"no datanode accepted a block of {path!r}")

    def _place_block(self, path: str, data: bytes, client_host: str | None) -> bool:
        """One placement of a block: commit it where its pushes landed, or
        abandon it and return ``False`` when no target accepted it."""
        try:
            meta, targets = self.namenode.add_block(path, writer_host=client_host)
        except AllocationError:
            datanodes = self.datanodes
            if datanodes and not any(d.available for d in datanodes):
                raise ProviderUnavailableError("every datanode") from None
            raise

        def push(datanode: DataNode) -> int | None:
            try:
                datanode.write_block(meta.block_id, data)
            except ProviderUnavailableError:
                return None
            return datanode.node_id

        if len(targets) > 1:
            outcomes = self.transfer.map(push, targets)
        else:
            outcomes = [push(datanode) for datanode in targets]
        written = [node_id for node_id in outcomes if node_id is not None]
        if not written:
            self.namenode.abandon_block(path, meta.block_id)
            return False
        self.namenode.commit_block(
            path, meta.block_id, length=len(data), locations=written
        )
        return True

    # -- read path -------------------------------------------------------------------
    def open(
        self,
        path: str,
        *,
        version: int | None = None,
        client_host: str | None = None,
    ) -> HDFSInputStream:
        """Open a file for reading.

        HDFS files are written once and sealed — there is nothing a later
        writer could change, so snapshot versioning is the documented
        no-op passthrough: ``version`` is the file-size token of the base
        :meth:`~repro.fs.interface.FileSystem.snapshot` and merely bounds
        the readable range (a sealed file's bytes are already immutable).
        """
        bare, version = self._resolve_read_target(path, version)
        norm = fspath.normalize(bare)
        if not self.namenode.tree.exists(norm):
            raise NoSuchPathError(norm)
        size = None if version is None else self.snapshot_size(norm, version)
        return HDFSInputStream(self, norm, client_host=client_host, size=size)

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
        """Stream a byte range as block chunks with concurrent read-ahead.

        Chunks are fetched through the transfer engine up to
        :data:`READ_AHEAD_CHUNKS` ahead of the consumer, so datanode
        latency overlaps with processing; every chunk keeps the per-chunk
        replica failover of :meth:`_read_block`.  ``version`` bounds the stream at the
        snapshot's size token (see :meth:`open`).
        """
        self._validate_stream_range(offset, length, chunk_size)
        bare, version = self._resolve_read_target(path, version)
        norm = fspath.normalize(bare)
        if not self.namenode.tree.exists(norm):
            raise NoSuchPathError(norm)
        status = self.namenode.status(norm)
        blocks = self.namenode.file_blocks(norm)
        size = self.snapshot_size(norm, version)
        end = size if length is None else min(offset + length, size)
        if offset >= end:
            return iter(())

        def fetch_chunk(meta, chunk_offset: int, size: int) -> memoryview:
            return memoryview(
                self._read_block(meta, chunk_offset, size, client_host)
            )

        def thunks():
            position = 0
            for meta in blocks:
                block_start, block_end = position, position + meta.length
                position = block_end
                if block_end <= offset or block_start >= end:
                    continue
                lo = max(offset, block_start) - block_start
                hi = min(end, block_end) - block_start
                chunk_offset = lo
                while chunk_offset < hi:
                    size = min(chunk_size, hi - chunk_offset)
                    yield partial(fetch_chunk, meta, chunk_offset, size)
                    chunk_offset += size

        return pipelined(thunks(), self.transfer, depth=READ_AHEAD_CHUNKS)

    def _read_block(
        self, meta, offset: int, length: int, client_host: str | None
    ) -> bytes:
        """Read part of a block, failing over across replicas.

        Replicas are tried in topology order (same host, same rack, any),
        then by the replicated blocks this client read from each node, with
        the nodes the client sees as down last; no node is asked anything
        first.  A
        replica whose read fails — a datanode that is down, killed mid-job
        by failure injection, or missing the block — does not fail the
        whole read: the next replica is read instead, exactly like the
        Hadoop client's block-read retry.
        """
        replicas = [self.namenode.datanode(node_id) for node_id in meta.locations]
        if len(replicas) > 1:
            client_rack = None
            for node in self.datanodes:
                if client_host is not None and node.host == client_host:
                    client_rack = node.rack
                    break

            def order(node: DataNode) -> tuple[bool, int, int]:
                if client_host is not None and node.host == client_host:
                    distance = 0
                elif client_rack is not None and node.rack == client_rack:
                    distance = 1
                else:
                    distance = 2
                return (not node.available, distance, self._blocks_read.get(node.node_id, 0))

            replicas.sort(key=order)
        for node in replicas:
            try:
                data = node.read_block(meta.block_id, offset, length)
            except (ProviderUnavailableError, KeyError):
                continue
            if len(replicas) > 1:  # only a read with a choice is tallied
                with self._lock:
                    self._blocks_read[node.node_id] = self._blocks_read.get(node.node_id, 0) + 1
            return data
        raise ProviderUnavailableError(
            f"all replicas of block {meta.block_id} are unavailable"
        )

    # -- unsupported operations --------------------------------------------------------
    def append(self, path: str, *, client_host: str | None = None) -> OutputStream:
        """HDFS (as described in the paper) does not support append."""
        raise UnsupportedOperationError(
            "HDFS does not support appending to an existing file"
        )

    # -- namespace ----------------------------------------------------------------------
    def mkdirs(self, path: str) -> None:
        self.namenode.tree.mkdirs(path)

    def delete(self, path: str, *, recursive: bool = False) -> None:
        self.namenode.delete(path, recursive=recursive)

    def rename(self, src: str, dst: str) -> None:
        self.namenode.tree.rename(src, dst)

    def exists(self, path: str) -> bool:
        return self.namenode.tree.exists(path)

    def status(self, path: str) -> FileStatus:
        if not self.exists(path):
            raise NoSuchPathError(fspath.normalize(path))
        return self.namenode.status(path)

    def list_dir(self, path: str) -> list[FileStatus]:
        return self.namenode.list_status(path)

    def block_locations(
        self, path: str, offset: int = 0, length: int | None = None
    ) -> list[BlockLocation]:
        return self.namenode.block_locations(path, offset, length)

    # -- lifecycle ---------------------------------------------------------------------
    def close(self) -> None:
        """Shut the transfer engine's worker pool down (idempotent).

        Long-lived processes that build many deployments (test suites,
        benchmark sweeps) should close retired instances so their pool
        threads are joined instead of lingering until interpreter exit.
        """
        self.transfer.close()

    def __enter__(self) -> "HDFS":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- monitoring ------------------------------------------------------------------------
    def stats(self) -> dict:
        """Aggregate statistics (namenode report plus scheme tag)."""
        report = self.namenode.report()
        report["scheme"] = self.scheme
        return report
