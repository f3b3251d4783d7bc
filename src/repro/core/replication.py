"""Page replication: writing replicas, replica selection, scrubbing and repair.

BlobSeer tolerates data-provider failures through page-level replication.
This module concentrates the replica-handling logic used by the client:

* :func:`write_pages` — push pages to their replica sets with one bulk
  call per provider, as long as every page lands at least once.
* :func:`read_pages` (and its one-page form :func:`read_page`) — fetch
  pages with one bulk call per provider, failing each key a provider
  could not serve over to its next replica in policy order.
* :class:`ReplicationManager` — scrubbing (detecting under-replicated
  pages) and healing (copying surviving replicas onto additional providers)
  so that a blob can be brought back to its target replication level after
  provider crashes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .dht import MISSING
from .errors import NoProvidersError, PageNotFoundError, ProviderUnavailableError
from .pages import PageDescriptor, PageKey
from .provider_manager import ProviderManager
from .transfer import TransferEngine

__all__ = [
    "BULK_CALL_BYTES",
    "write_pages",
    "read_pages",
    "read_page",
    "ScrubReport",
    "ReplicationManager",
]


#: Most page bytes one bulk provider call carries.  A provider's share of
#: a transfer is split into calls of at most this size, so even a 64 MiB
#: block placed on one provider stays far inside a frame's size and
#: segment-count limits.
BULK_CALL_BYTES = 8 * 1024 * 1024


def _call_providers(
    groups: dict[int, list[int]],
    sizes: Sequence[int],
    fn: Callable[[tuple[int, list[int]]], Any],
    engine: TransferEngine | None,
) -> list[tuple[tuple[int, list[int]], Any]]:
    """Run ``fn`` on every ``(provider_id, indices)`` call; returns ``(call, result)``.

    Each provider's group of item indices is cut into calls carrying at
    most :data:`BULK_CALL_BYTES`; the calls run concurrently on ``engine``.
    """
    calls: list[tuple[int, list[int]]] = []
    for provider_id, indices in groups.items():
        batch: list[int] = []
        nbytes = 0
        for index in indices:
            if batch and nbytes + sizes[index] > BULK_CALL_BYTES:
                calls.append((provider_id, batch))
                batch, nbytes = [], 0
            batch.append(index)
            nbytes += sizes[index]
        calls.append((provider_id, batch))
    if engine is not None and len(calls) > 1:
        return list(zip(calls, engine.map(fn, calls)))
    return [(call, fn(call)) for call in calls]


def write_pages(
    provider_manager: ProviderManager,
    items: Sequence[tuple[PageKey, bytes, Sequence[int]]],
    *,
    engine: TransferEngine | None = None,
) -> list[tuple[int, ...]]:
    """Store each ``(key, data, provider_ids)`` page on every listed provider.

    Pages are grouped by provider and pushed with one ``put_pages`` call
    per provider (per :data:`BULK_CALL_BYTES`), the calls running
    concurrently on ``engine``; each reply refreshes the provider
    manager's load view, each failed call drops its provider from it.
    Returns, per item, the ids of the providers that stored a replica, in
    ``provider_ids`` order.  Nobody declares a provider dead when a put
    to it fails, so a page whose every target failed is placed once more
    on a provider the manager still sees, and its ids say where it
    landed.  A page that still has no replica raises
    :class:`~repro.core.errors.ProviderUnavailableError`.
    """
    sizes = [len(data) for _key, data, _ids in items]

    def put(call: tuple[int, list[int]]) -> ProviderUnavailableError | None:
        provider_id, indices = call
        provider = provider_manager.get(provider_id)
        try:
            snapshot = provider.put_pages([items[i][:2] for i in indices])
        except ProviderUnavailableError as exc:
            provider_manager.forget(provider_id)
            return exc
        provider_manager.observe(snapshot)
        return None

    def push(targets: dict[int, Sequence[int]]) -> ProviderUnavailableError | None:
        groups: dict[int, list[int]] = {}
        for index, provider_ids in targets.items():
            for provider_id in provider_ids:
                groups.setdefault(provider_id, []).append(index)
        failed: set[tuple[int, int]] = set()
        error = None
        for (provider_id, indices), outcome in _call_providers(groups, sizes, put, engine):
            if outcome is not None:
                error = outcome
                failed.update((index, provider_id) for index in indices)
        for index, provider_ids in targets.items():
            stored[index] = tuple(pid for pid in provider_ids if (index, pid) not in failed)
        return error

    stored: list[tuple[int, ...]] = [()] * len(items)
    error = push({index: ids for index, (_key, _data, ids) in enumerate(items)})
    lost = [index for index, ids in enumerate(stored) if not ids]
    if lost:
        try:
            spares = provider_manager.allocate(len(lost), 1)
        except NoProvidersError:
            raise error or ProviderUnavailableError("a page has no replica target") from None
        error = push(dict(zip(lost, spares))) or error
        if not all(stored):
            raise error
    return stored


def _order_replicas(
    provider_manager: ProviderManager,
    descriptors: Sequence[PageDescriptor],
    policy: str,
    rng: random.Random | None,
) -> list[Sequence[int]]:
    """Each descriptor's providers in replica-selection policy order.

    ``least_loaded`` probes every provider involved once for the whole
    call (over the wire each ``stats()`` probe is a round trip), then
    charges each page to the provider it picks, so the next page's
    ranking sees that load and one call's pages spread over the replicas.
    """
    orders: list[Sequence[int]] = [d.providers for d in descriptors]
    if policy == "first" or max(map(len, orders)) == 1:
        return orders
    if policy == "random":
        rng = rng or random.Random(descriptors[0].key.index)
        orders = [list(order) for order in orders]
        for order in orders:
            rng.shuffle(order)
        return orders
    if policy == "least_loaded":
        loads: dict[int, tuple[int, int]] = {}
        for provider_id in {pid for order in orders for pid in order}:
            try:
                stats = provider_manager.get(provider_id).stats()
                loads[provider_id] = (stats.pages_read, stats.bytes_read)
            except Exception:  # unregistered provider: try it last
                loads[provider_id] = (1 << 62, 1 << 62)
        ranked: list[Sequence[int]] = []
        for descriptor, order in zip(descriptors, orders):
            order = sorted(order, key=loads.__getitem__)
            pages, nbytes = loads[order[0]]
            loads[order[0]] = (pages + 1, nbytes + descriptor.size)
            ranked.append(order)
        return ranked
    raise ValueError(f"unknown read replica policy {policy!r}")


def read_pages(
    provider_manager: ProviderManager,
    descriptors: Iterable[PageDescriptor],
    *,
    policy: str = "least_loaded",
    rng: random.Random | None = None,
    engine: TransferEngine | None = None,
) -> list[bytes]:
    """Fetch the pages of ``descriptors``, in order, with one call per provider and attempt.

    Keys are grouped by their first replica in policy order and the
    per-provider ``get_pages`` calls run concurrently on ``engine``.  Only
    the keys that failed move on, to their next replica: a provider that
    raises fails over all the keys of its call, a :data:`MISSING` slot
    just that key.  Raises :class:`~repro.core.errors.PageNotFoundError`
    for a key no replica served.
    """
    descriptors = list(descriptors)
    if not descriptors:
        return []
    orders = _order_replicas(provider_manager, descriptors, policy, rng)
    keys = [d.key for d in descriptors]
    sizes = [d.size for d in descriptors]

    def get(call: tuple[int, list[int]]) -> list:
        provider_id, indices = call
        try:
            provider = provider_manager.get(provider_id)
            return provider.get_pages([keys[i] for i in indices])
        except Exception:
            return [MISSING] * len(indices)

    pages: list = [MISSING] * len(descriptors)
    pending = range(len(descriptors))
    attempt = 0
    while pending:
        groups: dict[int, list[int]] = {}
        for index in pending:
            if attempt == len(orders[index]):
                raise PageNotFoundError(keys[index])
            groups.setdefault(orders[index][attempt], []).append(index)
        pending = []
        for (_pid, indices), found in _call_providers(groups, sizes, get, engine):
            for index, data in zip(indices, found):
                if data is MISSING:
                    pending.append(index)
                else:
                    pages[index] = data
        attempt += 1
    return pages


def read_page(
    provider_manager: ProviderManager,
    descriptor: PageDescriptor,
    *,
    policy: str = "least_loaded",
    rng: random.Random | None = None,
) -> bytes:
    """Fetch one page from one of its replicas; see :func:`read_pages`."""
    return read_pages(provider_manager, [descriptor], policy=policy, rng=rng)[0]


@dataclass(frozen=True, slots=True)
class ScrubReport:
    """Result of scrubbing a set of page descriptors."""

    total_pages: int
    healthy_pages: int
    under_replicated: tuple[PageDescriptor, ...]
    lost: tuple[PageDescriptor, ...]

    @property
    def is_healthy(self) -> bool:
        """True when every page has its full replica set available."""
        return not self.under_replicated and not self.lost


class ReplicationManager:
    """Scrub and heal the replicas of a set of pages."""

    def __init__(self, provider_manager: ProviderManager, *, seed: int = 0) -> None:
        self._pm = provider_manager
        self._rng = random.Random(seed)

    def live_replicas(self, descriptor: PageDescriptor) -> list[int]:
        """Provider ids of the descriptor's replicas that are currently readable.

        One ``has_page`` probe per replica: a failed or unreachable
        provider answers ``False``.
        """
        live: list[int] = []
        for provider_id in descriptor.providers:
            try:
                provider = self._pm.get(provider_id)
            except Exception:
                continue
            if provider.has_page(descriptor.key):
                live.append(provider_id)
        return live

    def scrub(
        self, descriptors: Iterable[PageDescriptor], *, target_replication: int
    ) -> ScrubReport:
        """Classify pages as healthy, under-replicated or lost."""
        total = 0
        healthy = 0
        under: list[PageDescriptor] = []
        lost: list[PageDescriptor] = []
        for descriptor in descriptors:
            total += 1
            live = self.live_replicas(descriptor)
            if not live:
                lost.append(descriptor)
            elif len(live) < target_replication:
                under.append(descriptor)
            else:
                healthy += 1
        return ScrubReport(
            total_pages=total,
            healthy_pages=healthy,
            under_replicated=tuple(under),
            lost=tuple(lost),
        )

    def heal(
        self,
        descriptor: PageDescriptor,
        *,
        target_replication: int,
    ) -> PageDescriptor:
        """Copy a surviving replica onto fresh providers until the target is met.

        Returns a new descriptor whose provider list reflects the healed
        placement (the original descriptor is immutable).  Raises
        :class:`~repro.core.errors.PageNotFoundError` when no replica
        survives.
        """
        available = [snapshot.provider_id for snapshot in self._pm.available_stats()]
        return self._heal(descriptor, target_replication, available)

    def _heal(
        self, descriptor: PageDescriptor, target_replication: int, available: list[int]
    ) -> PageDescriptor:
        live = self.live_replicas(descriptor)
        if not live:
            raise PageNotFoundError(descriptor.key)
        if len(live) >= target_replication:
            return PageDescriptor(
                key=descriptor.key, providers=tuple(live), size=descriptor.size
            )
        data = read_page(
            self._pm,
            PageDescriptor(descriptor.key, tuple(live), descriptor.size),
            policy="first",
        )
        candidates = [provider_id for provider_id in available if provider_id not in live]
        self._rng.shuffle(candidates)
        needed = target_replication - len(live)
        new_homes = candidates[:needed]
        stored = list(live)
        for provider_id in new_homes:
            try:
                self._pm.get(provider_id).put_page(descriptor.key, data)
                stored.append(provider_id)
            except ProviderUnavailableError:
                continue
        return PageDescriptor(
            key=descriptor.key, providers=tuple(stored), size=descriptor.size
        )

    def heal_all(
        self,
        descriptors: Iterable[PageDescriptor],
        *,
        target_replication: int,
    ) -> dict[int, PageDescriptor]:
        """Heal every under-replicated page; returns ``{page index: new descriptor}``.

        Pages whose replicas all vanished are skipped (they cannot be
        healed); callers can detect them through :meth:`scrub`.  The
        providers that may take new replicas are probed once per call.
        """
        available = [snapshot.provider_id for snapshot in self._pm.available_stats()]
        healed: dict[int, PageDescriptor] = {}
        for descriptor in descriptors:
            try:
                healed[descriptor.index] = self._heal(
                    descriptor, target_replication, available
                )
            except PageNotFoundError:
                continue
        return healed
