"""BSFS file streams: cached readers and block-aggregating writers."""

from __future__ import annotations

from typing import Callable

from ..core.client import BlobSeer
from ..fs.interface import InputStream, OutputStream
from .cache import BlockReadCache, VersionedBlockCache, WriteAggregator

__all__ = ["BSFSInputStream", "BSFSOutputStream"]


class BSFSInputStream(InputStream):
    """Reader for a BSFS file, prefetching whole blocks through the client cache.

    Each block fetch is itself a parallel page transfer (the client's
    ``read`` stripes pages across providers through the transfer engine),
    and a miss additionally schedules the *next* block's fetch on the
    engine — so a sequential scan finds its next block already cached
    while it is still decoding the current one.

    The snapshot to read is resolved *once, at open time*: a stream opened
    with ``version=None`` captures the latest published version and keeps
    reading it even while writers publish newer ones, so every block of one
    stream comes from the same immutable snapshot (no torn reads).  Cached
    blocks are keyed by ``(blob, version, block)`` in the (optionally
    shared) store, so a snapshot stream can never be served newer bytes
    cached by a concurrent latest-version reader.
    """

    def __init__(
        self,
        blobseer: BlobSeer,
        blob_id: int,
        *,
        size: int,
        block_size: int,
        version: int | None = None,
        cache_blocks: int = 4,
        read_ahead: bool = True,
        store: VersionedBlockCache | None = None,
    ) -> None:
        super().__init__(size)
        self._blobseer = blobseer
        self._blob_id = blob_id
        if version is None:
            version = blobseer.latest_version(blob_id)
        self._version = version
        self._read_ahead = read_ahead
        self._cache = BlockReadCache(
            block_size,
            self._fetch_block,
            capacity_blocks=cache_blocks,
            on_access=self._on_block_access if read_ahead else None,
            store=store,
            key=(blob_id, version),
        )

    @property
    def cache(self) -> BlockReadCache:
        """The stream's block cache (exposed for tests and metrics)."""
        return self._cache

    @property
    def version(self) -> int:
        """The published snapshot this stream reads (fixed at open time)."""
        return self._version

    def _fetch_block(self, block_index: int) -> bytes:
        """Fetch one block's bytes from the blob (no cache interaction)."""
        block_size = self._cache.block_size
        start = block_index * block_size
        if start >= self._size:
            return b""
        length = min(block_size, self._size - start)
        return self._blobseer.read(
            self._blob_id, start, length, version=self._version
        )

    def _prefetch(self, block_index: int) -> None:
        """Engine-side body of the one-block read-ahead (never raises)."""
        try:
            self._cache.prefetch(block_index)
        except Exception:
            # Read-ahead is opportunistic; the foreground read will
            # surface any real storage error itself.
            pass

    def _on_block_access(self, block_index: int) -> None:
        """Keep the next block's fetch in flight on every access, hit or
        miss — firing on hits too is what sustains the pipeline across a
        sequential scan instead of stalling on every other block.

        Fire-and-forget: the prefetch fills the cache without firing this
        hook (so read-ahead cannot cascade), and it is safe on the shared
        engine because the nested page fetches use caller-participating
        map, never a blocking wait on pool capacity.  A fetch counts as in
        flight only once it executes, so a demand read never waits on a
        task that is still queued: whichever of the two starts first
        fetches, the other takes its result.
        """
        nxt = block_index + 1
        if nxt * self._cache.block_size < self._size and not self._cache.contains(nxt):
            self._blobseer.transfer.submit(self._prefetch, nxt)

    def _pread(self, offset: int, size: int) -> bytes:
        return self._cache.read(offset, size)


class BSFSOutputStream(OutputStream):
    """Writer for a BSFS file: aggregates small writes into block-sized appends.

    Every full block (and the final partial one at close time) is committed
    as a BlobSeer *append*, which creates a new published version of the
    backing blob.  ``on_close`` receives the final file size so the
    namespace manager can record it and release the write lease.
    """

    def __init__(
        self,
        blobseer: BlobSeer,
        blob_id: int,
        *,
        block_size: int,
        initial_size: int = 0,
        on_close: Callable[[int], None] | None = None,
    ) -> None:
        super().__init__()
        self._blobseer = blobseer
        self._blob_id = blob_id
        self._initial_size = initial_size
        self._on_close = on_close
        self._aggregator = WriteAggregator(block_size, self._flush_block)
        self._committed = 0

    @property
    def aggregator(self) -> WriteAggregator:
        """The stream's write aggregator (exposed for tests and metrics)."""
        return self._aggregator

    def _flush_block(self, block: bytes) -> None:
        self._blobseer.append(self._blob_id, block)
        self._committed += len(block)

    def _write(self, data: bytes) -> None:
        self._aggregator.write(data)

    def _flush(self) -> None:
        """Force buffered bytes into the blob (ends the current block early)."""
        self._aggregator.flush()

    @property
    def file_size(self) -> int:
        """Size the file will have once the stream is closed."""
        return self._initial_size + self._committed + self._aggregator.pending_bytes

    def _close(self) -> None:
        try:
            if self._failure is None:
                self._aggregator.close()
        finally:
            # Seal what was committed, releasing the lease, even when the
            # last block fails.
            if self._on_close is not None:
                self._on_close(self._initial_size + self._committed)
