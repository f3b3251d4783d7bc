"""Shared transfer engine: the concurrent data plane of the reproduction.

The paper's headline numbers are *aggregate throughput under heavy
concurrency*: BlobSeer-backed MapReduce wins because page transfers are
striped across providers in parallel.  Every byte path of this code base —
client page writes and reads, replica fan-out, HDFS block replication —
therefore funnels through one small engine instead of each layer
hand-rolling (or, worse, skipping) its own concurrency:

* :class:`TransferEngine` — a bounded worker pool with *caller
  participation*: :meth:`TransferEngine.map` drains its work queue on the
  calling thread too, so the engine can be used re-entrantly (a page task
  fanning out replica writes, a map task reading its split) without ever
  deadlocking on pool capacity.  Submitted work may itself call
  :meth:`~TransferEngine.map` but never waits on a submitted future, so
  a pool thread only ever waits for items already running.
* :class:`ChunkBuffer` — an amortised O(1) append buffer (chunk list plus
  running length) replacing the quadratic ``buffer += data`` /
  ``del buffer[:n]`` pattern in the block writers.
* :func:`pipelined` — ordered read-ahead over a sequence of fetch
  thunks: up to ``depth`` fetches run ahead of the consumer, which is what
  overlaps storage latency with processing in the streaming read paths.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator, TypeVar

__all__ = [
    "TransferEngine",
    "ChunkBuffer",
    "pipelined",
]

T = TypeVar("T")
R = TypeVar("R")

#: Default worker count for engines built without explicit configuration.
DEFAULT_TRANSFER_WORKERS = 8


class TransferEngine:
    """Bounded worker pool shared by every transfer path of one deployment.

    The pool is created lazily (a deployment that never transfers a byte
    never starts a thread) and sized by ``workers``.
    """

    def __init__(
        self,
        workers: int = DEFAULT_TRANSFER_WORKERS,
        *,
        name: str = "transfer",
    ) -> None:
        if workers < 1:
            raise ValueError("a transfer engine needs at least one worker")
        self.workers = workers
        self._name = name
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self.tasks_executed = 0

    # -- lifecycle ---------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix=self._name
                )
            return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; the engine restarts lazily)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _account(self, count: int) -> None:
        with self._lock:
            self.tasks_executed += count

    # -- execution ---------------------------------------------------------------
    def submit(self, fn: Callable[..., R], *args: Any, **kwargs: Any) -> Future:
        """Submit one leaf transfer to the pool and return its future.

        Callers that submit must only hand the pool *leaf* work — a task
        that never waits on another pool task — which is what keeps the
        bounded pool deadlock-free.
        """
        return self._ensure_pool().submit(fn, *args, **kwargs)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Run ``fn`` over ``items`` concurrently; results in item order.

        The calling thread participates in draining the work queue, so the
        call makes progress even when the pool is saturated (or when it is
        invoked *from* a pool thread) — the property that makes nested use
        safe.  The first exception cancels the not-yet-started items and is
        re-raised once the in-flight ones finish.
        """
        items = list(items)
        total = len(items)
        if total == 0:
            return []
        if total == 1 or self.workers == 1:
            results = [fn(item) for item in items]
            self._account(total)
            return results

        queue: deque[int] = deque(range(total))
        results: list[Any] = [None] * total
        cond = threading.Condition()
        state = {"pending": total, "error": None}

        def drain() -> None:
            while True:
                with cond:
                    if state["error"] is not None or not queue:
                        return
                    index = queue.popleft()
                try:
                    results[index] = fn(items[index])
                except BaseException as exc:  # first error wins, others dropped
                    with cond:
                        if state["error"] is None:
                            state["error"] = exc
                        state["pending"] -= 1 + len(queue)
                        queue.clear()
                        cond.notify_all()
                else:
                    with cond:
                        state["pending"] -= 1
                        cond.notify_all()

        pool = self._ensure_pool()
        for _ in range(min(self.workers, total) - 1):
            try:
                pool.submit(drain)
            except RuntimeError:  # pool shutting down: caller drains alone
                break
        drain()
        with cond:
            while state["pending"] > 0:
                cond.wait()
            error = state["error"]
        if error is not None:
            raise error
        self._account(total)
        return results


def pipelined(
    fetches: Iterable[Callable[[], R]],
    engine: TransferEngine,
    *,
    depth: int = 2,
) -> Iterator[R]:
    """Yield each fetch's result in order with bounded read-ahead.

    Up to ``depth`` fetches run on the engine ahead of the consumer — the
    streaming-read primitive that overlaps storage latency with downstream
    processing.  A fetch thunk runs on a pool thread, so it may call
    ``engine.map`` (the calling thread drains its own items, whatever the
    pool is doing) but must never wait on a future it submitted: with
    every worker blocked that way, nothing would run the submitted work.
    """
    depth = max(depth, 1)
    window: deque[Future] = deque()
    fetches = iter(fetches)
    exhausted = False
    try:
        while True:
            while not exhausted and len(window) < depth:
                try:
                    fetch = next(fetches)
                except StopIteration:
                    exhausted = True
                    break
                window.append(engine.submit(fetch))
            if not window:
                return
            yield window.popleft().result()
    finally:
        for future in window:
            if not future.cancel():
                try:
                    future.result()
                except BaseException:
                    pass


class ChunkBuffer:
    """Byte buffer with amortised O(1) appends: chunk list + running length.

    Replaces the ``self._buffer += data`` / ``del self._buffer[:n]``
    pattern of the block writers, whose repeated prefix deletion makes many
    small writes quadratic in the buffered size.  Appending stores a
    reference; bytes are copied at most twice in total (once when a split
    remainder is kept, once when :meth:`take` joins a block), tracked by
    :attr:`bytes_joined` so tests can assert linearity by op count rather
    than wall clock.
    """

    __slots__ = ("_chunks", "_length", "bytes_joined")

    def __init__(self) -> None:
        self._chunks: deque[bytes | memoryview] = deque()
        self._length = 0
        #: Total bytes materialised by :meth:`take`/:meth:`take_all` joins —
        #: the copy-work metric the linearity regression test asserts on.
        self.bytes_joined = 0

    def __len__(self) -> int:
        return self._length

    def append(self, data) -> None:
        """Add ``data`` (bytes-like) to the end of the buffer, copy-free.

        Readonly buffers — a ``bytes`` chunk, or a readonly
        ``memoryview`` over a received wire segment — are kept by
        reference and only materialised when they leave through
        :meth:`take`, so a sink fed from the zero-copy receive path
        stays zero-copy until block assembly.  Writable buffers are
        snapshotted immediately (their owner may mutate them after the
        call returns).
        """
        if not data:
            return
        if not isinstance(data, bytes):
            view = data if isinstance(data, memoryview) else memoryview(data)
            if view.readonly and view.ndim == 1 and view.contiguous:
                data = view if view.format == "B" else view.cast("B")
            else:
                data = bytes(view)
        self._chunks.append(data)
        self._length += len(data)

    def take(self, size: int) -> bytes:
        """Remove and return exactly ``size`` bytes from the front."""
        if size < 0:
            raise ValueError("cannot take a negative number of bytes")
        if size > self._length:
            raise ValueError(f"take({size}) exceeds buffered length {self._length}")
        if size == 0:
            return b""
        parts: list[bytes] = []
        remaining = size
        while remaining > 0:
            chunk = self._chunks.popleft()
            if len(chunk) <= remaining:
                parts.append(chunk)
                remaining -= len(chunk)
            else:
                parts.append(chunk[:remaining])
                self._chunks.appendleft(chunk[remaining:])
                self.bytes_joined += len(chunk) - remaining
                remaining = 0
        self._length -= size
        self.bytes_joined += size
        if len(parts) == 1 and isinstance(parts[0], bytes):
            return parts[0]
        # join() accepts memoryview parts, so chunks kept as readonly
        # views are materialised exactly once, here.
        return b"".join(parts)

    def take_all(self) -> bytes:
        """Remove and return everything buffered."""
        return self.take(self._length)

    def clear(self) -> None:
        """Drop everything buffered."""
        self._chunks.clear()
        self._length = 0
