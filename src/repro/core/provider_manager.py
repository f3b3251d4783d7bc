"""Provider manager: allocation of pages to data providers.

The provider manager is the BlobSeer entity that decides, for every page of
an incoming write, which providers will store its replicas.  The paper
attributes BSFS's sustained throughput under concurrency primarily to this
component's *load-balancing* strategy, in contrast to HDFS's local-first
chunk placement — so the strategies here are deliberately pluggable and the
same classes are reused by the cluster simulator.

Three strategies are provided:

* :class:`LoadBalancedStrategy` — the BlobSeer default: each page replica
  goes to the least-loaded available provider (pages stored, then pages
  written, then a round-robin tiebreak), skipping providers already used
  for the same page.
* :class:`RandomStrategy` — uniform random placement (ablation baseline).
* :class:`LocalFirstStrategy` — always places the first replica on the
  writer's "local" provider, mimicking the HDFS policy the paper contrasts
  against (ablation baseline).
"""

from __future__ import annotations

import heapq
import random
import threading
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

from .errors import AllocationError, NoProvidersError, ProviderUnavailableError
from .provider import DataProvider, ProviderStats

__all__ = [
    "AllocationStrategy",
    "LoadBalancedStrategy",
    "RandomStrategy",
    "LocalFirstStrategy",
    "ProviderManager",
]


class AllocationStrategy(ABC):
    """Strategy interface: choose providers for the replicas of one page."""

    @abstractmethod
    def select(
        self,
        stats: Sequence[ProviderStats],
        replication: int,
        *,
        client_hint: int | None = None,
        pending: dict[int, int] | None = None,
    ) -> list[int]:
        """Return ``replication`` distinct provider ids for one page.

        Parameters
        ----------
        stats:
            Current statistics of every *available* provider.
        replication:
            Number of distinct providers to choose.
        client_hint:
            Provider id co-located with the writing client (may be ``None``).
        pending:
            Pages already allocated to each provider within the current
            allocation batch but not yet written; strategies should count
            these as load so a large write spreads evenly.
        """

    def select_range(
        self,
        stats: Sequence[ProviderStats],
        num_pages: int,
        replication: int,
        *,
        client_hint: int | None = None,
        pending: dict[int, int] | None = None,
        max_range: int = 1,
    ) -> list[tuple[int, tuple[int, ...]]]:
        """Allocate ``num_pages`` consecutive pages as ``(run_length, providers)`` runs.

        Each run assigns ``run_length`` consecutive pages to the same
        replica set, so the caller pays one placement decision per run
        instead of one per page; ``max_range`` caps the run length (the
        provider manager's ``range_pages``).  ``pending`` is mutated with the
        load this call assigns.  The default implementation preserves
        per-page behaviour exactly: it calls :meth:`select` once per page
        and coalesces adjacent identical choices.
        """
        pending = pending if pending is not None else {}
        runs: list[tuple[int, tuple[int, ...]]] = []
        for _ in range(num_pages):
            chosen = tuple(
                self.select(
                    stats, replication, client_hint=client_hint, pending=pending
                )
            )
            for provider_id in chosen:
                pending[provider_id] = pending.get(provider_id, 0) + 1
            if runs and runs[-1][1] == chosen and runs[-1][0] < max_range:
                runs[-1] = (runs[-1][0] + 1, chosen)
            else:
                runs.append((1, chosen))
        return runs


class LoadBalancedStrategy(AllocationStrategy):
    """BlobSeer's default: replicas go to the least-loaded providers."""

    def __init__(self, *, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._round_robin = 0

    def select(
        self,
        stats: Sequence[ProviderStats],
        replication: int,
        *,
        client_hint: int | None = None,
        pending: dict[int, int] | None = None,
    ) -> list[int]:
        pending = pending or {}
        self._round_robin += 1

        def load(s: ProviderStats) -> tuple[int, int, int]:
            return (
                s.pages_stored + pending.get(s.provider_id, 0),
                s.pages_written,
                (s.provider_id + self._round_robin) % max(len(stats), 1),
            )

        if replication == 1:
            # The common unreplicated case: O(n) min instead of a full
            # O(n log n) sort.  Allocation runs under the provider-manager
            # lock and is the *serial* section of the now-parallel write
            # path, so per-page cost here bounds aggregate throughput.
            return [min(stats, key=load).provider_id]
        # Replicated case: O(n log r) partial selection instead of sorting
        # the whole pool per page.
        ranked = heapq.nsmallest(replication, stats, key=load)
        return [s.provider_id for s in ranked]

    def select_range(
        self,
        stats: Sequence[ProviderStats],
        num_pages: int,
        replication: int,
        *,
        client_hint: int | None = None,
        pending: dict[int, int] | None = None,
        max_range: int = 1,
    ) -> list[tuple[int, tuple[int, ...]]]:
        """Waterfill: hand each replica set a contiguous run of pages.

        One heap round-trip covers up to ``max_range`` pages, so a large
        write costs ``O(pages / max_range)`` placement decisions instead of
        one per page.  Load balancing granularity coarsens to ``max_range``
        pages — the knob trades allocator lock time against placement
        smoothness (``ProviderManager(range_pages=)``).

        Runs are additionally capped so the write still *stripes* across
        the whole pool: a 4-page write over 4 providers lands one page per
        provider exactly as per-page allocation would (the paper's parallel
        I/O depends on that), and ranges only grow once there are more
        pages than providers to keep busy.
        """
        # Never batch so coarsely that providers sit idle while the write's
        # pages could fan out to them.
        spread_cap = max(
            1, (num_pages * replication + max(len(stats), 1) - 1) // max(len(stats), 1)
        )
        max_range = min(max_range, spread_cap)
        if max_range <= 1 or num_pages <= 1:
            return super().select_range(
                stats,
                num_pages,
                replication,
                client_hint=client_hint,
                pending=pending,
                max_range=max_range,
            )
        pending = pending if pending is not None else {}
        self._round_robin += 1
        modulus = max(len(stats), 1)

        def key(s: ProviderStats) -> tuple[int, int, int, int]:
            return (
                s.pages_stored + pending.get(s.provider_id, 0),
                s.pages_written,
                (s.provider_id + self._round_robin) % modulus,
                s.provider_id,
            )

        heap = [(key(s), s) for s in stats]
        heapq.heapify(heap)
        runs: list[tuple[int, tuple[int, ...]]] = []
        remaining = num_pages
        while remaining > 0:
            run = min(max_range, remaining)
            popped = [heapq.heappop(heap) for _ in range(replication)]
            chosen = tuple(item[1].provider_id for item in popped)
            for _key, s in popped:
                pending[s.provider_id] = pending.get(s.provider_id, 0) + run
                heapq.heappush(heap, (key(s), s))
            runs.append((run, chosen))
            remaining -= run
        return runs


class RandomStrategy(AllocationStrategy):
    """Uniform random placement, used as an ablation baseline."""

    def __init__(self, *, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def select(
        self,
        stats: Sequence[ProviderStats],
        replication: int,
        *,
        client_hint: int | None = None,
        pending: dict[int, int] | None = None,
    ) -> list[int]:
        ids = [s.provider_id for s in stats]
        return self._rng.sample(ids, replication)


class LocalFirstStrategy(AllocationStrategy):
    """HDFS-like placement: first replica on the writer's local provider.

    Remaining replicas are chosen like :class:`RandomStrategy`.  When the
    client has no co-located provider the strategy degrades to random
    placement.  This strategy exists to let the ablation benchmarks isolate
    the effect of placement policy from everything else.
    """

    def __init__(self, *, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def select(
        self,
        stats: Sequence[ProviderStats],
        replication: int,
        *,
        client_hint: int | None = None,
        pending: dict[int, int] | None = None,
    ) -> list[int]:
        ids = [s.provider_id for s in stats]
        chosen: list[int] = []
        if client_hint is not None and client_hint in ids:
            chosen.append(client_hint)
        remaining = [i for i in ids if i not in chosen]
        extra = self._rng.sample(remaining, replication - len(chosen))
        return chosen + extra


class ProviderManager:
    """Registry of data providers plus the page allocation service.

    Placement asks no provider anything.  It places on the providers whose
    ``available`` is true (a remote stub's own down-mark) and reads their
    load from a *view*: the last :class:`ProviderStats` snapshot a
    ``put_pages`` reply carried (:meth:`observe`).  A provider with no
    snapshot yet counts as empty, and its first reply corrects the view.
    Pages freed by garbage collection or blob deletion stay in the view
    until that provider's next ``put_pages`` reply: the view only ever
    holds snapshots a provider sent, and the providers that freed most
    fill first once their replies catch up.  Like any client-side view it
    can lag other clients' writes by one reply.

    The manager also keeps this client's read tally: pages read from
    each provider, which replica ordering reads instead of asking
    providers their load (:meth:`read_loads`).
    """

    def __init__(
        self,
        providers: Sequence[DataProvider] | None = None,
        *,
        strategy: AllocationStrategy | None = None,
        range_pages: int = 1,
    ) -> None:
        self._providers: dict[int, DataProvider] = {}
        self._view: dict[int, ProviderStats] = {}
        self._pages_read: dict[int, int] = {}
        self._lock = threading.Lock()
        self._strategy = strategy if strategy is not None else LoadBalancedStrategy()
        if range_pages < 1:
            raise AllocationError("range_pages must be at least 1")
        #: Default cap on contiguous pages per replica set handed out by one
        #: placement decision.
        self._range_pages = range_pages
        for provider in providers or []:
            self.register(provider)

    # -- registry -----------------------------------------------------------------
    def register(self, provider: DataProvider, *, replace: bool = False) -> None:
        """Add a provider to the pool; its id must be unique.

        ``replace=True`` allows a restarted node process to re-register
        under its old id: the stale entry is swapped out instead of
        double-counting capacity.  Without it a duplicate id is an error,
        preserving the strict semantics the allocator tests rely on.
        """
        with self._lock:
            if provider.provider_id in self._providers and not replace:
                raise AllocationError(
                    f"provider id {provider.provider_id} already registered"
                )
            self._providers[provider.provider_id] = provider
            self._view.pop(provider.provider_id, None)

    def unregister(self, provider_id: int) -> DataProvider:
        """Remove and return a provider from the pool."""
        with self._lock:
            self._view.pop(provider_id, None)
            try:
                return self._providers.pop(provider_id)
            except KeyError:
                raise AllocationError(
                    f"provider id {provider_id} is not registered"
                ) from None

    def deregister(self, provider_id: int) -> DataProvider | None:
        """Remove a provider if present (idempotent :meth:`unregister`).

        Failure-detection paths call this when a node is declared dead;
        the node may already be gone (clean shutdown raced the heartbeat
        timeout), so a missing id is not an error.  Returns the removed
        provider, or ``None`` if the id was not registered.
        """
        with self._lock:
            self._view.pop(provider_id, None)
            return self._providers.pop(provider_id, None)

    def get(self, provider_id: int) -> DataProvider:
        """Return the provider registered under ``provider_id``."""
        with self._lock:
            try:
                return self._providers[provider_id]
            except KeyError:
                raise AllocationError(
                    f"provider id {provider_id} is not registered"
                ) from None

    @property
    def providers(self) -> list[DataProvider]:
        """All registered providers (including failed ones)."""
        with self._lock:
            return list(self._providers.values())

    @property
    def provider_ids(self) -> list[int]:
        """Ids of all registered providers."""
        with self._lock:
            return list(self._providers.keys())

    # -- load view ----------------------------------------------------------------
    def observe(self, snapshot: ProviderStats) -> None:
        """Record a ``put_pages`` reply's snapshot in the load view."""
        with self._lock:
            self._view[snapshot.provider_id] = snapshot

    def note_reads(self, provider_id: int, pages: int) -> None:
        """Add ``pages`` this client read from ``provider_id`` to its tally."""
        with self._lock:
            self._pages_read[provider_id] = self._pages_read.get(provider_id, 0) + pages

    def read_loads(self, provider_ids: Iterable[int]) -> dict[int, tuple[bool, int]]:
        """``(down, pages this client read from it)`` per provider id.

        The replica-ordering key: available providers first, then the
        least read.  An unregistered provider counts as down.
        """
        with self._lock:
            return {
                provider_id: (
                    provider_id not in self._providers
                    or not self._providers[provider_id].available,
                    self._pages_read.get(provider_id, 0),
                )
                for provider_id in provider_ids
            }

    # -- allocation ---------------------------------------------------------------
    def allocate(
        self,
        num_pages: int,
        replication: int,
        *,
        client_hint: int | None = None,
    ) -> list[tuple[int, ...]]:
        """Choose providers for ``num_pages`` pages with ``replication`` replicas each.

        Returns one tuple of distinct provider ids per page.  The allocation
        for the whole batch is computed under a single lock so concurrent
        writers see a consistent view of provider load, and intra-batch
        allocations are themselves counted as load (``pending``) so a single
        large write stripes evenly across the pool.
        """
        if num_pages < 0:
            raise AllocationError("cannot allocate a negative number of pages")
        allocation: list[tuple[int, ...]] = []
        for run, chosen in self.allocate_ranges(
            num_pages, replication, client_hint=client_hint
        ):
            allocation.extend([chosen] * run)
        return allocation

    def allocate_ranges(
        self,
        num_pages: int,
        replication: int,
        *,
        client_hint: int | None = None,
        max_range: int | None = None,
    ) -> list[tuple[int, tuple[int, ...]]]:
        """Choose providers for ``num_pages`` consecutive pages as runs.

        Returns ``(run_length, provider_ids)`` pairs covering the pages in
        order: each run stores its pages' replicas on the same provider
        set, so the strategy makes one placement decision per run instead
        of one per page.  ``max_range`` defaults to the manager's
        ``range_pages``.

        Only available providers are placed on, with their loads from the
        view; no provider is asked anything.
        """
        if num_pages < 0:
            raise AllocationError("cannot allocate a negative number of pages")
        if replication < 1:
            raise AllocationError("replication must be at least 1")
        if max_range is None:
            max_range = self._range_pages
        if max_range < 1:
            raise AllocationError("max_range must be at least 1")
        with self._lock:
            stats = [
                self._view.get(provider_id) or _empty(provider_id)
                for provider_id, provider in self._providers.items()
                if provider.available
            ]
            if not stats:
                raise NoProvidersError("no data providers are available")
            if replication > len(stats):
                raise AllocationError(
                    f"replication {replication} exceeds available providers "
                    f"({len(stats)})"
                )
            runs = self._strategy.select_range(
                stats,
                num_pages,
                replication,
                client_hint=client_hint,
                pending={},
                max_range=max_range,
            )
        covered = 0
        for run, chosen in runs:
            if run < 1 or len(set(chosen)) != replication:
                raise AllocationError(
                    "allocation strategy returned an invalid range"
                )
            covered += run
        if covered != num_pages:
            raise AllocationError(
                f"allocation strategy covered {covered} of {num_pages} pages"
            )
        return runs

    # -- monitoring ---------------------------------------------------------------
    def stats(self) -> dict[int, ProviderStats]:
        """Per-provider statistics snapshot for monitoring.

        One ``stats()`` call per provider (an RPC for a remote one),
        outside the registry lock, so a slow or dead node never stalls
        allocation.  Monitoring only: nothing on a data path calls it.
        """
        return {p.provider_id: p.stats() for p in self.providers}

    def distribution(self) -> dict[int, int]:
        """Map provider id -> number of pages stored (load-balance metric)."""
        return {pid: s.pages_stored for pid, s in self.stats().items()}

    def imbalance(self) -> float:
        """Max/mean ratio of pages stored across available providers.

        A perfectly balanced pool has imbalance 1.0; the metric is used by
        ablation benchmarks to compare allocation strategies.  An
        unreachable provider is left out, like a failed one.
        """
        counts = []
        for provider in self.providers:
            try:
                snapshot = provider.stats()
            except ProviderUnavailableError:
                continue
            if snapshot.available:
                counts.append(snapshot.pages_stored)
        if not counts or sum(counts) == 0:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean


def _empty(provider_id: int) -> ProviderStats:
    """The load of a provider no reply has described yet."""
    return ProviderStats(provider_id, 0, 0, 0, 0, 0, 0, True)
