"""Snapshot pins: refcounted, optionally expiring leases on published versions.

A *pin* is a promise from the storage layer to a reader: as long as the pin
is held, the pinned snapshot's pages and metadata tree will not be reclaimed
by the version garbage collector and the blob itself cannot be deleted.
Readers (streams, MapReduce jobs) take a :class:`SnapshotHandle` when they
start and release it when they finish; pins on the same ``(blob, version)``
are refcounted so any number of concurrent readers share one snapshot.

Pins may carry a TTL, making them *leases*: a reader that dies without
releasing keeps the snapshot alive only until the lease expires, after which
the GC may reclaim it.  The clock is injectable so tests can expire leases
deterministically.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Iterable

__all__ = ["SnapshotHandle", "PinRegistry"]


class SnapshotHandle:
    """A held pin on one published version; release it (or let it expire).

    Handles are context managers::

        with client.pin_version(blob_id) as pin:
            data = client.read(blob_id, 0, size, version=pin.version)
    """

    __slots__ = ("_registry", "handle_id", "blob_id", "version", "owner", "expires_at")

    def __init__(
        self,
        registry: "PinRegistry",
        handle_id: int,
        blob_id: int,
        version: int,
        owner: str,
        expires_at: float | None,
    ) -> None:
        self._registry = registry
        self.handle_id = handle_id
        self.blob_id = blob_id
        self.version = version
        self.owner = owner
        self.expires_at = expires_at

    @property
    def released(self) -> bool:
        """Whether this handle no longer holds its pin (released or expired)."""
        return not self._registry._holds(self)

    def release(self) -> None:
        """Drop the pin (idempotent)."""
        self._registry.release(self)

    def renew(self, ttl: float) -> None:
        """Extend the lease of a still-held pin by ``ttl`` seconds from now."""
        self._registry.renew(self, ttl)

    def __enter__(self) -> "SnapshotHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SnapshotHandle(blob={self.blob_id}, version={self.version}, "
            f"owner={self.owner!r})"
        )


class PinRegistry:
    """Refcounted snapshot pins with optional lease expiry and drain hooks."""

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Condition()
        self._handle_ids = itertools.count(1)
        # (blob_id, version) -> {handle_id -> SnapshotHandle}
        self._pins: dict[tuple[int, int], dict[int, SnapshotHandle]] = {}
        # blob_id -> callbacks to fire once the blob has no pins left.
        self._drain_hooks: dict[int, list[Callable[[], None]]] = {}
        self._expired_total = 0
        self._released_total = 0
        self._pinned_total = 0

    # ------------------------------------------------------------------ pinning
    def pin(
        self,
        blob_id: int,
        version: int,
        *,
        owner: str = "anonymous",
        ttl: float | None = None,
    ) -> SnapshotHandle:
        """Take a pin on ``(blob_id, version)`` and return its handle.

        A pin with a ``ttl`` is a lease that expires that many seconds from
        now; ``None`` means the pin never expires.
        """
        with self._lock:
            expires_at = self._clock() + ttl if ttl is not None else None
            handle = SnapshotHandle(
                self, next(self._handle_ids), blob_id, version, owner, expires_at
            )
            self._pins.setdefault((blob_id, version), {})[handle.handle_id] = handle
            self._pinned_total += 1
            return handle

    def release(self, handle: SnapshotHandle) -> None:
        """Drop ``handle``'s pin; fires drain hooks when the blob empties."""
        with self._lock:
            key = (handle.blob_id, handle.version)
            holders = self._pins.get(key)
            if holders is None or holders.pop(handle.handle_id, None) is None:
                return
            self._released_total += 1
            if not holders:
                del self._pins[key]
            hooks = self._drained_hooks_locked(handle.blob_id)
            self._lock.notify_all()
        for hook in hooks:
            hook()

    def renew(self, handle: SnapshotHandle, ttl: float) -> None:
        """Extend a held lease; raises ``KeyError`` if the pin is gone."""
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        with self._lock:
            self._expire_locked()
            holders = self._pins.get((handle.blob_id, handle.version), {})
            if handle.handle_id not in holders:
                raise KeyError(
                    f"pin on blob {handle.blob_id} version {handle.version} "
                    "already released or expired"
                )
            handle.expires_at = self._clock() + ttl

    # ------------------------------------------------------------------ queries
    def _holds(self, handle: SnapshotHandle) -> bool:
        with self._lock:
            self._expire_locked()
            holders = self._pins.get((handle.blob_id, handle.version), {})
            return handle.handle_id in holders

    def is_pinned(self, blob_id: int, version: int) -> bool:
        """Whether any live pin holds ``(blob_id, version)``."""
        with self._lock:
            self._expire_locked()
            return bool(self._pins.get((blob_id, version)))

    def pinned_versions(self, blob_id: int) -> set[int]:
        """Versions of ``blob_id`` held by at least one live pin."""
        with self._lock:
            self._expire_locked()
            return {v for (b, v) in self._pins if b == blob_id}

    def pin_count(self, blob_id: int) -> int:
        """Total live pins across all versions of ``blob_id``."""
        with self._lock:
            self._expire_locked()
            return sum(
                len(holders) for (b, _), holders in self._pins.items() if b == blob_id
            )

    def active_pins(self) -> list[SnapshotHandle]:
        """Every live handle (after expiring stale leases)."""
        with self._lock:
            self._expire_locked()
            return [h for holders in self._pins.values() for h in holders.values()]

    # ------------------------------------------------------------------- expiry
    def _expire_locked(self) -> list[Callable[[], None]]:
        now = self._clock()
        hooks: list[Callable[[], None]] = []
        expired_blobs: set[int] = set()
        for key in list(self._pins):
            holders = self._pins[key]
            for handle_id, handle in list(holders.items()):
                if handle.expires_at is not None and handle.expires_at <= now:
                    del holders[handle_id]
                    self._expired_total += 1
                    expired_blobs.add(key[0])
            if not holders:
                del self._pins[key]
        for blob_id in expired_blobs:
            hooks.extend(self._drained_hooks_locked(blob_id))
        if expired_blobs:
            self._lock.notify_all()
        return hooks

    def expire(self) -> None:
        """Sweep expired leases now (also done lazily by every query)."""
        with self._lock:
            hooks = self._expire_locked()
        for hook in hooks:
            hook()

    # -------------------------------------------------------------------- drain
    def _drained_hooks_locked(self, blob_id: int) -> list[Callable[[], None]]:
        if any(b == blob_id and holders for (b, _), holders in self._pins.items()):
            return []
        return self._drain_hooks.pop(blob_id, [])

    def on_drain(self, blob_id: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` once ``blob_id`` has no live pins.

        Fires immediately (outside the registry lock) when the blob is
        already unpinned; otherwise fires when the last pin releases or
        expires.  This is how a delete of a pinned blob defers until its
        readers drain.
        """
        with self._lock:
            self._expire_locked()
            if self.pin_count_locked(blob_id):
                self._drain_hooks.setdefault(blob_id, []).append(callback)
                return
        callback()

    def pin_count_locked(self, blob_id: int) -> int:
        return sum(
            len(holders) for (b, _), holders in self._pins.items() if b == blob_id
        )

    def wait_for_drain(self, blob_id: int, *, timeout: float | None = None) -> bool:
        """Block until ``blob_id`` has no live pins (or the timeout expires).

        Wakes on explicit releases; lease expiry is lazy, so callers relying
        on TTLs alone should call :meth:`expire` from a ticker.
        """
        deferred: list[Callable[[], None]] = []
        with self._lock:
            drained = self._lock.wait_for(
                lambda: (deferred.extend(self._expire_locked()) or True)
                and not self.pin_count_locked(blob_id),
                timeout=timeout,
            )
        for hook in deferred:
            hook()
        return drained

    def guard_sweep(
        self,
        blob_id: int,
        versions: Iterable[int],
        action: Callable[[], None],
    ) -> bool:
        """Run ``action()`` atomically iff none of ``versions`` is pinned.

        This is the GC's retire step: a pin taken concurrently either lands
        before this critical section (the guard refuses and the collector
        re-plans) or after it (the pinner's post-pin validation observes the
        version already retired and fails cleanly).  Returns whether the
        action ran.
        """
        with self._lock:
            hooks = self._expire_locked()
            pinned = {v for (b, v) in self._pins if b == blob_id}
            allowed = not (pinned & set(versions))
            if allowed:
                action()
        for hook in hooks:
            hook()
        return allowed

    # --------------------------------------------------------------- monitoring
    def describe(self) -> dict:
        """JSON-friendly counters for reports and the control plane."""
        with self._lock:
            self._expire_locked()
            return {
                "active_pins": sum(len(h) for h in self._pins.values()),
                "pinned_snapshots": len(self._pins),
                "pins_taken": self._pinned_total,
                "pins_released": self._released_total,
                "pins_expired": self._expired_total,
            }

    def guard_delete(self, blob_id: int) -> None:
        """Delete guard for :meth:`VersionManager.add_delete_guard`."""
        from ..core.errors import BlobPinnedError

        with self._lock:
            self._expire_locked()
            count = self.pin_count_locked(blob_id)
        if count:
            raise BlobPinnedError(blob_id, count)

    def forget_blob(self, blob_id: int) -> None:
        """Drop all bookkeeping for a deleted blob, its drain hooks included."""
        with self._lock:
            for key in [k for k in self._pins if k[0] == blob_id]:
                del self._pins[key]
            self._drain_hooks.pop(blob_id, None)
            self._lock.notify_all()

    def blobs_with_pins(self) -> Iterable[int]:
        with self._lock:
            self._expire_locked()
            return {b for (b, _) in self._pins}
