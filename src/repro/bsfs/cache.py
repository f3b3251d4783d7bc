"""Client-side caching for BSFS: whole-block prefetching and write aggregation.

MapReduce applications "usually process data in small records (4 KB, whereas
Hadoop is concerned)"; issuing a BlobSeer operation per record would be
prohibitively chatty.  The paper therefore adds a caching layer that

* *prefetches a whole block* when a read misses the cache, so subsequent
  small sequential reads are served locally, and
* *delays committing writes* until a whole block has accumulated, so the
  blob receives large, page-aligned appends.

Both sides are implemented here, independent from the stream classes so
they can be unit- and property-tested in isolation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from ..core.transfer import ChunkBuffer

__all__ = [
    "CacheStats",
    "VersionedBlockCache",
    "BlockReadCache",
    "WriteAggregator",
]


class CacheStats:
    """Mutable counters describing cache effectiveness."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.prefetched_blocks = 0
        #: Blocks deposited by the engine-side next-block read-ahead
        #: (:meth:`BlockReadCache.prefetch`) — kept separate from
        #: ``prefetched_blocks``, which counts ordinary miss fetches.
        self.read_ahead_blocks = 0
        self.flushed_blocks = 0
        self.flushed_bytes = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of block accesses served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float | int]:
        """JSON-friendly snapshot of the counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "prefetched_blocks": self.prefetched_blocks,
            "read_ahead_blocks": self.read_ahead_blocks,
            "flushed_blocks": self.flushed_blocks,
            "flushed_bytes": self.flushed_bytes,
        }


class _Flight:
    """One executing block fetch; waiters take ``data`` once ``done`` is set."""

    __slots__ = ("done", "data")

    def __init__(self) -> None:
        self.done = threading.Event()
        #: The fetched block, or still ``None`` at ``done`` if the fetch raised.
        self.data: bytes | None = None


class VersionedBlockCache:
    """Shared LRU store of whole blocks keyed by ``(blob, version, block)``.

    Snapshots are immutable, so a block cached under its full
    ``(blob, version, block)`` identity can never go stale — and, crucially,
    a pinned-snapshot reader can never be served newer bytes deposited by a
    stream reading the latest version of the same file: the two streams use
    different version components and therefore different keys.  One store is
    shared by every stream of a BSFS instance, so two readers of the *same*
    snapshot share each other's fetches — also the ones still executing:
    :meth:`load` lets one thread fetch a block while the others that want
    it wait for those bytes.
    """

    def __init__(self, capacity_blocks: int = 32) -> None:
        if capacity_blocks < 1:
            raise ValueError("capacity_blocks must be at least 1")
        self._capacity = capacity_blocks
        self._blocks: OrderedDict[tuple, bytes] = OrderedDict()
        self._lock = threading.Lock()
        #: Fetches executing right now, by block key (see :meth:`load`).
        self._inflight: dict[tuple, _Flight] = {}
        self.insertions = 0
        self.evictions = 0

    @property
    def capacity_blocks(self) -> int:
        return self._capacity

    def get(self, key: tuple) -> bytes | None:
        """The block under ``key`` (LRU touch), or ``None`` on miss."""
        with self._lock:
            data = self._blocks.get(key)
            if data is not None:
                self._blocks.move_to_end(key)
            return data

    def put(self, key: tuple, data: bytes) -> bool:
        """Insert-if-absent; returns whether the block was inserted."""
        with self._lock:
            if key in self._blocks:
                return False
            self._blocks[key] = data
            self.insertions += 1
            while len(self._blocks) > self._capacity:
                self._blocks.popitem(last=False)
                self.evictions += 1
        return True

    def load(
        self, key: tuple, fetch: Callable[[], bytes], *, wait: bool = True
    ) -> tuple[bytes | None, bool]:
        """The block under ``key``, fetched by at most one thread at a time.

        Returns ``(data, fetched)``.  If the block is cached it is returned
        as is.  Otherwise the first asker runs ``fetch()`` (outside the
        lock), inserts the block and reports ``fetched=True``; whoever asks
        while that fetch executes waits for it and takes its bytes — or,
        with ``wait=False`` (read-ahead wants the block cached, not its
        bytes), returns ``(None, False)`` at once.  If the fetch raises, the
        error goes to its caller and the waiters try again themselves.
        """
        while True:
            with self._lock:
                data = self._blocks.get(key)
                if data is not None:
                    self._blocks.move_to_end(key)
                    return data, False
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = _Flight()
                    break
            if not wait:
                return None, False
            flight.done.wait()
            if flight.data is not None:
                return flight.data, False
        try:
            flight.data = data = fetch()
            # Cached before the flight ends: an asker finds one or the other.
            self.put(key, data)
            return data, True
        finally:
            with self._lock:
                del self._inflight[key]
            flight.done.set()

    def contains(self, key: tuple) -> bool:
        with self._lock:
            return key in self._blocks

    def invalidate(
        self, key: tuple | None = None, *, prefix: tuple | None = None
    ) -> None:
        """Drop one key, every key under ``prefix``, or everything."""
        with self._lock:
            if key is not None:
                self._blocks.pop(key, None)
            elif prefix is not None:
                for k in [k for k in self._blocks if k[: len(prefix)] == prefix]:
                    del self._blocks[k]
            else:
                self._blocks.clear()

    def keys(self) -> list[tuple]:
        """Every cached key (LRU order, oldest first)."""
        with self._lock:
            return list(self._blocks.keys())

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)


class BlockReadCache:
    """Per-stream view over an LRU block store, with miss-triggered prefetch.

    Parameters
    ----------
    block_size:
        Size of one cached block in bytes.
    fetch_block:
        Callback ``fetch_block(block_index) -> bytes`` returning the block's
        content (possibly shorter than ``block_size`` for the file's last
        block).
    capacity_blocks:
        Maximum number of blocks kept (LRU eviction) when the cache owns a
        private store; ignored when ``store`` is supplied.
    store:
        Optional shared :class:`VersionedBlockCache`.  When given, blocks
        live in the shared store under ``key + (block_index,)`` so streams
        of the same snapshot share fetches while streams of different
        versions can never serve each other's bytes.
    key:
        Namespace prefix of this stream's blocks in the store — for BSFS,
        ``(blob_id, version)``.
    """

    def __init__(
        self,
        block_size: int,
        fetch_block: Callable[[int], bytes],
        *,
        capacity_blocks: int = 4,
        on_access: Callable[[int], None] | None = None,
        store: VersionedBlockCache | None = None,
        key: tuple = (),
    ) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if capacity_blocks < 1:
            raise ValueError("capacity_blocks must be at least 1")
        self._block_size = block_size
        self._fetch_block = fetch_block
        self._store = store if store is not None else VersionedBlockCache(
            capacity_blocks
        )
        self._key = key
        self._lock = threading.Lock()
        #: Called (outside the lock) with every accessed block index, hit
        #: or miss — the read-ahead hook: firing on hits too is what keeps
        #: a sequential scan's prefetch pipeline primed instead of
        #: stalling on every other block.
        self._on_access = on_access
        self.stats = CacheStats()

    @property
    def block_size(self) -> int:
        """Size of one cached block."""
        return self._block_size

    def _full_key(self, block_index: int) -> tuple:
        return self._key + (block_index,)

    def _get_block(self, block_index: int) -> bytes:
        data = self._store.get(self._full_key(block_index))
        with self._lock:
            if data is not None:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        if data is None:
            # The fetch may be slow (a real BlobSeer read): if the
            # read-ahead or another stream is already fetching this block,
            # wait for those bytes instead of asking the providers twice.
            data, fetched = self._store.load(
                self._full_key(block_index), lambda: self._fetch_block(block_index)
            )
            if fetched:
                with self._lock:
                    self.stats.prefetched_blocks += 1
        if self._on_access is not None:
            self._on_access(block_index)
        return data

    def read(self, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset``, prefetching whole blocks on miss.

        Each byte is copied at most once: a whole cached block is returned
        as is, a range inside one block as one slice, any other range as
        one join over views of its blocks."""
        if offset < 0 or size < 0:
            raise ValueError("offset and size must be non-negative")
        parts: list[tuple[bytes, int, int]] = []
        position = offset
        end = offset + size
        while position < end:
            block_index = position // self._block_size
            block_start = block_index * self._block_size
            block = self._get_block(block_index)
            start_in_block = position - block_start
            if start_in_block >= len(block):
                break  # reading past the end of the file
            stop_in_block = min(end - block_start, len(block))
            parts.append((block, start_in_block, stop_in_block))
            position = block_start + stop_in_block
        if len(parts) == 1:
            block, start, stop = parts[0]
            return block if stop - start == len(block) else block[start:stop]
        return b"".join(memoryview(block)[start:stop] for block, start, stop in parts)

    def contains(self, block_index: int) -> bool:
        """Whether a block is currently cached (no LRU touch, no stats)."""
        return self._store.contains(self._full_key(block_index))

    def prefetch(self, block_index: int) -> bool:
        """Fetch a block into the cache unless it is cached or being fetched.

        The read-ahead hook: the BSFS input stream runs this for the *next*
        block on the transfer engine, so a sequential scan finds it already
        local — or, if it arrives early, waits for this very fetch.  The
        access hook does not fire, so read-ahead cannot cascade.  Returns
        whether this call fetched the block.
        """
        _, fetched = self._store.load(
            self._full_key(block_index),
            lambda: self._fetch_block(block_index),
            wait=False,
        )
        if fetched:
            with self._lock:
                self.stats.read_ahead_blocks += 1
        return fetched

    def invalidate(self, block_index: int | None = None) -> None:
        """Drop one block (or this stream's whole namespace on ``None``)."""
        if block_index is None:
            self._store.invalidate(prefix=self._key)
        else:
            self._store.invalidate(self._full_key(block_index))

    def cached_blocks(self) -> list[int]:
        """Indices of this stream's cached blocks (LRU order, oldest first)."""
        prefix_len = len(self._key)
        return [
            k[-1]
            for k in self._store.keys()
            if k[:prefix_len] == self._key and len(k) == prefix_len + 1
        ]


class WriteAggregator:
    """Accumulates sequential writes and flushes them block by block.

    ``flush_block(data)`` is invoked with exactly ``block_size`` bytes for
    every full block, and once more with the remainder when :meth:`close`
    is called.  The aggregator never reorders or drops bytes — a property
    the test suite checks with Hypothesis.

    Buffering uses a chunk list with a running length
    (:class:`~repro.core.transfer.ChunkBuffer`), not a growing byte
    string: the old ``self._buffer += data`` / ``del self._buffer[:n]``
    pattern re-copied the whole pending buffer on every write, turning a
    stream of many small records into O(n²) byte movement.
    """

    def __init__(
        self,
        block_size: int,
        flush_block: Callable[[bytes], None],
    ) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self._block_size = block_size
        self._flush_block = flush_block
        self._buffer = ChunkBuffer()
        self._closed = False
        self.stats = CacheStats()

    @property
    def block_size(self) -> int:
        """Size of one aggregated block."""
        return self._block_size

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered and not yet flushed."""
        return len(self._buffer)

    @property
    def buffer(self) -> ChunkBuffer:
        """The underlying chunk buffer (exposed for the linearity tests)."""
        return self._buffer

    def write(self, data: bytes) -> None:
        """Buffer ``data``, flushing every complete block."""
        if self._closed:
            raise ValueError("write on a closed aggregator")
        self._buffer.append(data)
        while len(self._buffer) >= self._block_size:
            block = self._buffer.take(self._block_size)
            self._flush_block(block)
            self.stats.flushed_blocks += 1
            self.stats.flushed_bytes += len(block)

    def flush(self) -> None:
        """Flush any buffered partial block immediately.

        Used by callers that need durability before the block fills (e.g. a
        file being closed, or an application calling ``flush()``); flushing
        a partial block means the next flush starts a new blob write, so the
        aggregator is normally left to its own pacing.
        """
        if len(self._buffer):
            block = self._buffer.take_all()
            self._flush_block(block)
            self.stats.flushed_blocks += 1
            self.stats.flushed_bytes += len(block)

    def close(self) -> None:
        """Flush the remaining bytes and refuse further writes."""
        if self._closed:
            return
        self.flush()
        self._closed = True
