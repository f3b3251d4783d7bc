"""Data providers: the storage nodes of a BlobSeer deployment.

A :class:`DataProvider` stores pages assigned to it by the provider manager.
In the real system each provider is a daemon on a distinct machine; here it
is an in-process object backed by a :class:`~repro.core.persistence.PageStore`
(volatile by default, log-structured on disk when persistence is requested).

Providers keep the statistics the allocation strategies and the locality
primitive rely on (pages stored, bytes stored, read/write counters), and can
be marked as *failed* to exercise the replication and failover code paths.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

from .dht import MISSING
from .errors import ProviderUnavailableError
from .pages import PageKey
from .persistence import MemoryStore, PageStore
from .records import wire_record

__all__ = ["ProviderStats", "DataProvider"]


@wire_record
@dataclass(frozen=True, slots=True)
class ProviderStats:
    """Immutable snapshot of a provider's load counters."""

    provider_id: int
    pages_stored: int
    bytes_stored: int
    pages_written: int
    pages_read: int
    bytes_written: int
    bytes_read: int
    available: bool

    @property
    def load_score(self) -> tuple[int, int]:
        """Ordering key used by the load-balanced allocation strategy.

        Providers are ranked primarily by the number of pages they store and
        secondarily by the total writes they have served, so that a freshly
        joined provider absorbs new pages first.
        """
        return (self.pages_stored, self.pages_written)


class DataProvider:
    """A single storage node holding pages on behalf of the service."""

    def __init__(
        self,
        provider_id: int,
        *,
        store: PageStore | None = None,
        rack: str | None = None,
        host: str | None = None,
    ) -> None:
        self.provider_id = provider_id
        #: Rack label, used by locality-aware experiments and the simulator.
        self.rack = rack if rack is not None else f"rack-{provider_id % 8}"
        #: Host name exposed through the data-layout primitive.
        self.host = host if host is not None else f"provider-{provider_id}"
        self._store = store if store is not None else MemoryStore()
        self._lock = threading.Lock()
        self._available = True
        self._pages_stored = 0
        self._bytes_stored = 0
        self._pages_written = 0
        self._pages_read = 0
        self._bytes_written = 0
        self._bytes_read = 0

    # -- availability -------------------------------------------------------------
    @property
    def available(self) -> bool:
        """Whether the provider currently accepts requests."""
        return self._available

    def fail(self) -> None:
        """Simulate a crash: the provider stops serving requests."""
        with self._lock:
            self._available = False

    def recover(self) -> None:
        """Bring a failed provider back online (its stored pages survive)."""
        with self._lock:
            self._available = True

    def _check_available(self) -> None:
        if not self._available:
            raise ProviderUnavailableError(self.provider_id)

    # -- page operations ----------------------------------------------------------
    def put_page(self, key: PageKey, data: bytes) -> None:
        """Store one page replica."""
        self.put_pages([(key, data)])

    def put_pages(self, items: Sequence[tuple[PageKey, bytes]]) -> ProviderStats:
        """Store every ``(key, data)`` page replica under one lock hold.

        Page bytes are materialised before the lock is taken, so a caller
        handing in ``memoryview`` slices never makes other callers wait on
        the copy.  Returns the post-write :meth:`stats` snapshot, taken
        under the same lock hold, so every reply refreshes the provider
        manager's load view without a probe.
        """
        items = [(key.to_bytes(), bytes(data)) for key, data in items]
        with self._lock:
            self._check_available()
            for raw, data in items:
                if self._store.contains(raw):
                    self._bytes_stored -= len(self._store.get(raw))
                else:
                    self._pages_stored += 1
                self._store.put(raw, data)
                self._bytes_stored += len(data)
                self._pages_written += 1
                self._bytes_written += len(data)
            return self._snapshot()

    def get_page(self, key: PageKey) -> bytes:
        """Fetch one page replica; raises :class:`KeyError` when absent."""
        data = self.get_pages([key])[0]
        if data is MISSING:
            raise KeyError(key)
        return data

    def get_pages(self, keys: Sequence[PageKey]) -> list[bytes]:
        """Page replicas of ``keys``, in order, under one lock hold.

        An absent key yields :data:`~repro.core.dht.MISSING` in its slot,
        so one bulk read can be partly served by another replica.
        """
        raws = [key.to_bytes() for key in keys]
        pages: list = []
        with self._lock:
            self._check_available()
            for raw in raws:
                try:
                    data = self._store.get(raw)
                except KeyError:
                    pages.append(MISSING)
                    continue
                self._pages_read += 1
                self._bytes_read += len(data)
                pages.append(data)
        return pages

    def has_page(self, key: PageKey) -> bool:
        """Return whether this provider holds a replica of ``key``."""
        with self._lock:
            if not self._available:
                return False
            return self._store.contains(key.to_bytes())

    def remove_pages(self, keys: Sequence[PageKey]) -> list[int]:
        """Drop the replicas of ``keys`` under one lock hold.

        Returns the bytes freed per key, in order: 0 for a key this
        provider does not hold (garbage collection and blob deletion
        sweep every provider without probing first; stored pages are
        never empty).
        """
        raws = [key.to_bytes() for key in keys]
        freed: list[int] = []
        with self._lock:
            self._check_available()
            for raw in raws:
                try:
                    size = len(self._store.get(raw))
                except KeyError:
                    freed.append(0)
                    continue
                self._store.delete(raw)
                self._pages_stored -= 1
                self._bytes_stored -= size
                freed.append(size)
        return freed

    def page_keys(self) -> list[PageKey]:
        """Return the keys of every page currently stored (unordered)."""
        with self._lock:
            return [PageKey.from_bytes(raw) for raw in self._store.keys()]

    def pages_for_blob(self, blob_id: int) -> list[PageKey]:
        """Return the keys of the pages of ``blob_id`` stored here."""
        return [key for key in self.page_keys() if key.blob_id == blob_id]

    # -- statistics ---------------------------------------------------------------
    def stats(self) -> ProviderStats:
        """Return a consistent snapshot of the provider's counters."""
        with self._lock:
            return self._snapshot()

    def _snapshot(self) -> ProviderStats:
        return ProviderStats(
            provider_id=self.provider_id,
            pages_stored=self._pages_stored,
            bytes_stored=self._bytes_stored,
            pages_written=self._pages_written,
            pages_read=self._pages_read,
            bytes_written=self._bytes_written,
            bytes_read=self._bytes_read,
            available=self._available,
        )

    def sync(self) -> None:
        """Flush the backing store to stable storage."""
        self._store.sync()

    def close(self) -> None:
        """Close the backing store."""
        self._store.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataProvider(id={self.provider_id}, host={self.host!r}, "
            f"rack={self.rack!r}, pages={self._pages_stored})"
        )


def total_bytes_stored(providers: Iterable[DataProvider]) -> int:
    """Sum of bytes stored across ``providers`` (helper for tests/benchmarks)."""
    return sum(p.stats().bytes_stored for p in providers)
