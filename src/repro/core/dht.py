"""Metadata DHT: consistent hashing over metadata providers.

BlobSeer stores the versioned metadata tree (the mapping from ``(blob,
version, byte range)`` to page descriptors) in a distributed hash table
managed by several *metadata providers*.  Decentralising metadata is one of
the design points the paper credits for sustained throughput under heavy
concurrency: no single metadata server becomes a bottleneck.

This module provides:

* :class:`MetadataProvider` — one DHT node, a thread-safe key-value map with
  access counters (so experiments can verify that metadata load spreads).
* :class:`ConsistentHashRing` — a classic consistent-hashing ring with
  virtual nodes, used to assign keys to metadata providers with minimal
  reshuffling when providers join or leave.
* :class:`MetadataDHT` — the client-facing facade combining the two.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from typing import Any, Iterable, Iterator, Sequence

from .errors import NoProvidersError, ProviderUnavailableError

__all__ = ["MISSING", "MetadataProvider", "ConsistentHashRing", "MetadataDHT"]


class _Missing:
    """Type of :data:`MISSING`; pickles by name so identity survives the wire."""

    __slots__ = ()

    def __reduce__(self) -> str:
        return "MISSING"

    def __repr__(self) -> str:
        return "MISSING"


#: What :meth:`MetadataProvider.get_many` returns in place of an absent key
#: (any stored value, ``None`` included, is distinguishable from it).
MISSING = _Missing()


def _hash_key(key: str) -> int:
    """Stable 64-bit hash used to position keys and virtual nodes on the ring."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class MetadataProvider:
    """A single metadata node: a small thread-safe key-value store."""

    def __init__(self, provider_id: int) -> None:
        self.provider_id = provider_id
        self._data: dict[str, Any] = {}
        self._lock = threading.Lock()
        self._puts = 0
        self._gets = 0
        self._available = True

    @property
    def available(self) -> bool:
        """Whether this metadata provider currently serves requests."""
        return self._available

    def fail(self) -> None:
        """Simulate a crash of this metadata provider."""
        self._available = False

    def recover(self) -> None:
        """Bring the metadata provider back online."""
        self._available = True

    def _check(self) -> None:
        if not self._available:
            raise ProviderUnavailableError(f"metadata-{self.provider_id}")

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (idempotent overwrite)."""
        with self._lock:
            self._check()
            self._data[key] = value
            self._puts += 1

    def get(self, key: str) -> Any:
        """Return the value stored under ``key``; raises ``KeyError`` if absent."""
        with self._lock:
            self._check()
            self._gets += 1
            return self._data[key]

    def put_many(self, items: Sequence[tuple[str, Any]]) -> None:
        """Store every ``(key, value)`` pair under one lock hold."""
        with self._lock:
            self._check()
            self._data.update(items)
            self._puts += len(items)

    def get_many(self, keys: Sequence[str]) -> list[Any]:
        """Values of ``keys``, in order, under one lock hold.

        An absent key yields :data:`MISSING` in its slot instead of failing
        the whole call, so one bulk read can be partly served by another
        replica.
        """
        with self._lock:
            self._check()
            self._gets += len(keys)
            return [self._data.get(key, MISSING) for key in keys]

    def contains(self, key: str) -> bool:
        """Return whether ``key`` is present."""
        with self._lock:
            self._check()
            return key in self._data

    def delete(self, key: str) -> None:
        """Remove ``key`` (raises ``KeyError`` if absent)."""
        with self._lock:
            self._check()
            del self._data[key]

    def keys(self) -> list[str]:
        """Snapshot of the stored keys."""
        with self._lock:
            return list(self._data.keys())

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @property
    def stats(self) -> dict[str, int]:
        """Access counters: ``{"puts": ..., "gets": ..., "entries": ...}``."""
        with self._lock:
            return {"puts": self._puts, "gets": self._gets, "entries": len(self._data)}


class ConsistentHashRing:
    """Consistent hashing ring with virtual nodes.

    Each member contributes ``virtual_nodes`` points on a 64-bit ring; a key
    is owned by the member whose point follows the key's hash (wrapping
    around).  Adding or removing a member only remaps the keys adjacent to
    its points, which keeps metadata migration minimal.
    """

    def __init__(self, *, virtual_nodes: int = 64) -> None:
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self._virtual_nodes = virtual_nodes
        self._ring: list[tuple[int, int]] = []  # (point, member id), sorted
        self._members: set[int] = set()

    def add_member(self, member_id: int) -> None:
        """Add a member and its virtual nodes to the ring."""
        if member_id in self._members:
            raise ValueError(f"member {member_id} already on the ring")
        self._members.add(member_id)
        for replica in range(self._virtual_nodes):
            point = _hash_key(f"member:{member_id}:vnode:{replica}")
            bisect.insort(self._ring, (point, member_id))

    def remove_member(self, member_id: int) -> None:
        """Remove a member and all of its virtual nodes."""
        if member_id not in self._members:
            raise ValueError(f"member {member_id} is not on the ring")
        self._members.remove(member_id)
        self._ring = [(p, m) for (p, m) in self._ring if m != member_id]

    @property
    def members(self) -> set[int]:
        """Current ring membership."""
        return set(self._members)

    def owner(self, key: str) -> int:
        """Return the member id owning ``key``."""
        if not self._ring:
            raise NoProvidersError("consistent hash ring is empty")
        point = _hash_key(key)
        index = bisect.bisect_right(self._ring, (point, float("inf")))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]

    def owners(self, key: str, count: int) -> list[int]:
        """Return up to ``count`` distinct members for ``key`` (replica set).

        Successive distinct members clockwise from the key's position; used
        for metadata replication.
        """
        if not self._ring:
            raise NoProvidersError("consistent hash ring is empty")
        count = min(count, len(self._members))
        point = _hash_key(key)
        index = bisect.bisect_right(self._ring, (point, float("inf")))
        result: list[int] = []
        seen: set[int] = set()
        for step in range(len(self._ring)):
            member = self._ring[(index + step) % len(self._ring)][1]
            if member not in seen:
                seen.add(member)
                result.append(member)
                if len(result) == count:
                    break
        return result


class MetadataDHT:
    """Client facade over the metadata providers and the hash ring."""

    def __init__(
        self,
        providers: Iterable[MetadataProvider],
        *,
        virtual_nodes: int = 64,
        replication: int = 1,
    ) -> None:
        self._providers: dict[int, MetadataProvider] = {}
        self._ring = ConsistentHashRing(virtual_nodes=virtual_nodes)
        self._replication = max(1, replication)
        for provider in providers:
            self.add_provider(provider)
        if not self._providers:
            raise NoProvidersError("a metadata DHT needs at least one provider")

    # -- membership ---------------------------------------------------------------
    def add_provider(self, provider: MetadataProvider) -> None:
        """Register a metadata provider and place it on the ring."""
        if provider.provider_id in self._providers:
            raise ValueError(f"metadata provider {provider.provider_id} already added")
        self._providers[provider.provider_id] = provider
        self._ring.add_member(provider.provider_id)

    def remove_provider(self, provider_id: int) -> MetadataProvider:
        """Remove a metadata provider from the DHT (its keys become unreachable)."""
        provider = self._providers.pop(provider_id)
        self._ring.remove_member(provider_id)
        return provider

    @property
    def providers(self) -> list[MetadataProvider]:
        """The registered metadata providers."""
        return list(self._providers.values())

    # -- key-value API ------------------------------------------------------------
    def _replicas_for(self, key: str) -> list[MetadataProvider]:
        owner_ids = self._ring.owners(key, self._replication)
        return [self._providers[i] for i in owner_ids]

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` on the key's replica set (all replicas, best effort)."""
        self.put_many([(key, value)])

    def get(self, key: str) -> Any:
        """Fetch ``key`` from the first live replica."""
        return self.get_many([key])[0]

    def put_many(self, items: Iterable[tuple[str, Any]]) -> None:
        """Store every ``(key, value)`` pair with one call per provider.

        Per key this is :meth:`put`: the pair goes to every replica of its
        key, best effort, and the call fails only if some pair was stored
        on no replica at all.
        """
        items = list(items)
        groups: dict[int, list[int]] = {}
        for index, (key, _value) in enumerate(items):
            for provider_id in self._ring.owners(key, self._replication):
                groups.setdefault(provider_id, []).append(index)
        stored = [False] * len(items)
        last_error: Exception | None = None
        for provider_id, indices in groups.items():
            try:
                self._providers[provider_id].put_many([items[i] for i in indices])
            except ProviderUnavailableError as exc:
                last_error = exc
                continue
            for index in indices:
                stored[index] = True
        if not all(stored):
            raise last_error if last_error else NoProvidersError(
                "no metadata provider accepted the put"
            )

    def get_many(self, keys: Iterable[str]) -> list[Any]:
        """Fetch ``keys``, in order, with one call per provider and attempt.

        Per key this is :meth:`get`: keys are grouped by their first
        replica; a key whose replica is unavailable or lacks it moves on to
        its next replica, regrouped with the other stragglers.  Raises the
        last error of the first key no live replica has (``KeyError(key)``
        when a replica answered without it).
        """
        keys = list(keys)
        if not keys:
            return []
        values: list[Any] = [MISSING] * len(keys)
        # Every key has the same number of replicas: min(replication, members).
        owners = [self._ring.owners(key, self._replication) for key in keys]
        errors: dict[int, Exception] = {}
        pending = list(range(len(keys)))
        for attempt in range(len(owners[0])):
            groups: dict[int, list[int]] = {}
            for index in pending:
                groups.setdefault(owners[index][attempt], []).append(index)
            pending = []
            for provider_id, indices in groups.items():
                try:
                    found = self._providers[provider_id].get_many(
                        [keys[i] for i in indices]
                    )
                except ProviderUnavailableError as exc:
                    errors.update(dict.fromkeys(indices, exc))
                    pending.extend(indices)
                    continue
                for index, value in zip(indices, found):
                    if value is MISSING:
                        errors[index] = KeyError(keys[index])
                        pending.append(index)
                    else:
                        values[index] = value
            if not pending:
                return values
        raise errors[min(pending)]

    def contains(self, key: str) -> bool:
        """Whether any live replica stores ``key``."""
        for provider in self._replicas_for(key):
            try:
                if provider.contains(key):
                    return True
            except ProviderUnavailableError:
                continue
        return False

    def delete(self, key: str) -> None:
        """Delete ``key`` from every live replica that stores it."""
        for provider in self._replicas_for(key):
            try:
                if provider.contains(key):
                    provider.delete(key)
            except ProviderUnavailableError:
                continue

    def owner_of(self, key: str) -> int:
        """Return the primary owner id of ``key`` (for distribution analysis)."""
        return self._ring.owner(key)

    def distribution(self) -> dict[int, int]:
        """Map metadata provider id -> number of entries stored."""
        return {p.provider_id: len(p) for p in self.providers}

    def __iter__(self) -> Iterator[MetadataProvider]:
        return iter(self.providers)
