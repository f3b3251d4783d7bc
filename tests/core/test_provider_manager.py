"""Unit tests for the provider manager and allocation strategies."""

from __future__ import annotations

import pytest

from repro.core.errors import (
    AllocationError,
    NoProvidersError,
    ProviderUnavailableError,
)
from repro.core.pages import PageKey
from repro.core.provider import DataProvider
from repro.core.provider_manager import (
    LoadBalancedStrategy,
    LocalFirstStrategy,
    ProviderManager,
    RandomStrategy,
    make_strategy,
)
from repro.core.replication import write_pages


def make_providers(count: int) -> list[DataProvider]:
    return [DataProvider(i) for i in range(count)]


class TestRegistry:
    def test_register_and_get(self):
        manager = ProviderManager(make_providers(3))
        assert sorted(manager.provider_ids) == [0, 1, 2]
        assert manager.get(1).provider_id == 1

    def test_duplicate_registration_rejected(self):
        manager = ProviderManager(make_providers(2))
        with pytest.raises(AllocationError):
            manager.register(DataProvider(1))

    def test_unregister(self):
        manager = ProviderManager(make_providers(2))
        removed = manager.unregister(0)
        assert removed.provider_id == 0
        with pytest.raises(AllocationError):
            manager.get(0)
        with pytest.raises(AllocationError):
            manager.unregister(0)

    def test_get_unknown_provider(self):
        manager = ProviderManager(make_providers(1))
        with pytest.raises(AllocationError):
            manager.get(99)

    def test_reregistration_replaces_instead_of_double_counting(self):
        # A restarted node process re-registers under its old id: the
        # stale entry is swapped, capacity is not duplicated.
        manager = ProviderManager(make_providers(3))
        restarted = DataProvider(1)
        manager.register(restarted, replace=True)
        assert len(manager.providers) == 3
        assert manager.get(1) is restarted

    def test_deregister_is_idempotent(self):
        manager = ProviderManager(make_providers(2))
        removed = manager.deregister(0)
        assert removed is not None and removed.provider_id == 0
        assert manager.deregister(0) is None  # already gone: no error
        assert manager.deregister(99) is None
        assert sorted(manager.provider_ids) == [1]

    def test_deregister_then_register_cycle(self):
        # Full restart path: deregister on death, register on rejoin.
        manager = ProviderManager(make_providers(2))
        manager.deregister(1)
        manager.register(DataProvider(1))  # no replace needed: id is free
        assert sorted(manager.provider_ids) == [0, 1]


class TestAllocation:
    def test_allocation_size_and_distinct_replicas(self):
        manager = ProviderManager(make_providers(5))
        allocation = manager.allocate(10, replication=3)
        assert len(allocation) == 10
        for replicas in allocation:
            assert len(replicas) == 3
            assert len(set(replicas)) == 3

    def test_load_balanced_allocation_spreads_evenly(self):
        manager = ProviderManager(make_providers(4), strategy="load_balanced")
        allocation = manager.allocate(100, replication=1)
        counts = {}
        for (provider_id,) in allocation:
            counts[provider_id] = counts.get(provider_id, 0) + 1
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_allocation_accounts_for_existing_load(self):
        providers = make_providers(3)
        # Pre-load provider 0 heavily.
        for i in range(50):
            providers[0].put_page(PageKey(1, 1, i), b"x")
        manager = ProviderManager(providers, strategy="load_balanced")
        allocation = manager.allocate(20, replication=1)
        used = {replicas[0] for replicas in allocation}
        assert 0 not in used

    def test_failed_providers_excluded(self):
        providers = make_providers(3)
        providers[1].fail()
        manager = ProviderManager(providers)
        allocation = manager.allocate(10, replication=1)
        assert all(replicas[0] != 1 for replicas in allocation)

    def test_no_available_providers(self):
        providers = make_providers(2)
        for provider in providers:
            provider.fail()
        manager = ProviderManager(providers)
        with pytest.raises(NoProvidersError):
            manager.allocate(1, replication=1)

    def test_replication_exceeding_available_rejected(self):
        manager = ProviderManager(make_providers(2))
        with pytest.raises(AllocationError):
            manager.allocate(1, replication=3)

    def test_invalid_arguments(self):
        manager = ProviderManager(make_providers(2))
        with pytest.raises(AllocationError):
            manager.allocate(-1, replication=1)
        with pytest.raises(AllocationError):
            manager.allocate(1, replication=0)

    def test_zero_pages_allocation(self):
        manager = ProviderManager(make_providers(2))
        assert manager.allocate(0, replication=1) == []


class ProbedProvider(DataProvider):
    """Counts the probes an allocation costs (each is an RPC when remote)."""

    def __init__(self, provider_id: int, *, unreachable: bool = False) -> None:
        super().__init__(provider_id)
        self.probes: list[str] = []
        self.unreachable = unreachable

    @property
    def available(self) -> bool:
        self.probes.append("available")
        return super().available

    def stats(self):
        self.probes.append("stats")
        if self.unreachable:
            raise ProviderUnavailableError(self.provider_id)
        return super().stats()


def push(manager: ProviderManager, allocation, version: int = 1) -> None:
    """Store one page per allocated replica set, as a writing client does."""
    write_pages(
        manager,
        [(PageKey(1, version, i), b"x", ids) for i, ids in enumerate(allocation)],
    )


class TestAllocationProbes:
    def test_allocation_probes_each_provider_once(self):
        providers = [ProbedProvider(i) for i in range(3)]
        manager = ProviderManager(providers)
        manager.allocate(6, 2)
        assert [p.probes for p in providers] == [["stats"]] * 3

    def test_second_allocation_reads_the_view(self):
        providers = [ProbedProvider(i) for i in range(3)]
        manager = ProviderManager(providers)
        push(manager, manager.allocate(6, 1))
        for provider in providers:
            provider.probes.clear()
        second = manager.allocate(3, 1)
        assert [p.probes for p in providers] == [[]] * 3
        # The put replies carried the load, so the next pages still stripe.
        assert sorted(ids for (ids,) in second) == [0, 1, 2]
        assert {s.pages_stored for s in manager.available_stats()} == {2}

    def test_provider_whose_put_raised_is_reprobed_until_it_recovers(self):
        providers = [ProbedProvider(i) for i in range(3)]
        manager = ProviderManager(providers)
        manager.allocate(3, 1)
        providers[1].fail()
        push(manager, [(0,), (1,), (2,)])  # the page on 1 is placed again
        for provider in providers:
            provider.probes.clear()
        assert all(ids != (1,) for ids in manager.allocate(6, 1))
        assert [p.probes for p in providers] == [[], ["stats"], []]
        manager.allocate(1, 1)
        assert providers[1].probes == ["stats"] * 2  # every allocation asks again
        providers[1].recover()
        assert (1,) in manager.allocate(6, 1)
        assert providers[1].probes == ["stats"] * 3

    def test_reregistration_and_monitoring_reset_the_view(self):
        providers = [ProbedProvider(i) for i in range(2)]
        manager = ProviderManager(providers)
        manager.allocate(1, 1)
        restarted = ProbedProvider(1)
        manager.register(restarted, replace=True)
        manager.allocate(1, 1)
        assert restarted.probes == ["stats"] and providers[0].probes == ["stats"]
        providers[0].fail()
        assert [s.provider_id for s in manager.available_stats()] == [1]
        assert {ids for ids in manager.allocate(4, 1)} == {(1,)}

    def test_failed_and_unreachable_providers_are_skipped_by_their_answer(self):
        providers = [
            ProbedProvider(0),
            ProbedProvider(1),
            ProbedProvider(2, unreachable=True),
        ]
        providers[1].fail()
        manager = ProviderManager(providers)
        assert {ids for ids in manager.allocate(4, 1)} == {(0,)}
        assert [s.provider_id for s in manager.available_stats()] == [0]
        assert all("available" not in p.probes for p in providers)
        with pytest.raises(AllocationError):
            manager.allocate(1, 2)


class TestStrategies:
    def test_make_strategy_factory(self):
        assert isinstance(make_strategy("load_balanced"), LoadBalancedStrategy)
        assert isinstance(make_strategy("random"), RandomStrategy)
        assert isinstance(make_strategy("local_first"), LocalFirstStrategy)
        with pytest.raises(AllocationError):
            make_strategy("bogus")

    def test_local_first_prefers_hint(self):
        providers = make_providers(5)
        stats = [p.stats() for p in providers]
        strategy = LocalFirstStrategy(seed=3)
        chosen = strategy.select(stats, 3, client_hint=2)
        assert chosen[0] == 2
        assert len(set(chosen)) == 3

    def test_local_first_without_hint_falls_back_to_random(self):
        providers = make_providers(5)
        stats = [p.stats() for p in providers]
        strategy = LocalFirstStrategy(seed=3)
        chosen = strategy.select(stats, 2, client_hint=None)
        assert len(set(chosen)) == 2

    def test_random_strategy_returns_distinct_ids(self):
        providers = make_providers(6)
        stats = [p.stats() for p in providers]
        strategy = RandomStrategy(seed=11)
        for _ in range(20):
            chosen = strategy.select(stats, 3)
            assert len(set(chosen)) == 3

    def test_load_balanced_respects_pending_batch_load(self):
        providers = make_providers(3)
        stats = [p.stats() for p in providers]
        strategy = LoadBalancedStrategy()
        pending = {0: 100, 1: 100}
        chosen = strategy.select(stats, 1, pending=pending)
        assert chosen == [2]


class TestMonitoring:
    def test_distribution_and_imbalance(self):
        providers = make_providers(3)
        manager = ProviderManager(providers)
        # Perfect balance when nothing is stored.
        assert manager.imbalance() == 1.0
        providers[0].put_page(PageKey(1, 1, 0), b"x")
        providers[0].put_page(PageKey(1, 1, 1), b"x")
        providers[1].put_page(PageKey(1, 1, 2), b"x")
        distribution = manager.distribution()
        assert distribution[0] == 2
        assert distribution[1] == 1
        assert distribution[2] == 0
        assert manager.imbalance() == pytest.approx(2 / 1.0)

    def test_available_stats_excludes_failed(self):
        providers = make_providers(3)
        providers[2].fail()
        manager = ProviderManager(providers)
        stats = manager.available_stats()
        assert {s.provider_id for s in stats} == {0, 1}
