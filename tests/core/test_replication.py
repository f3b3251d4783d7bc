"""Unit tests for the replication helpers (`repro.core.replication`)."""

from __future__ import annotations

import pytest

from repro.core.errors import PageNotFoundError, ProviderUnavailableError
from repro.core.pages import PageDescriptor, PageKey
from repro.core.provider import DataProvider
from repro.core.provider_manager import ProviderManager
from repro.core.replication import ReplicationManager, read_page, write_pages


@pytest.fixture
def manager() -> ProviderManager:
    return ProviderManager([DataProvider(i) for i in range(4)])


KEY = PageKey(1, 1, 0)


class TestWriteReplicas:
    def test_writes_to_all_targets(self, manager):
        stored = write_pages(manager, [(KEY, b"data", (0, 2))])[0]
        assert stored == (0, 2)
        assert manager.get(0).has_page(KEY)
        assert manager.get(2).has_page(KEY)
        assert not manager.get(1).has_page(KEY)

    def test_partial_failure_tolerated(self, manager):
        manager.get(0).fail()
        stored = write_pages(manager, [(KEY, b"data", (0, 1))])[0]
        assert stored == (1,)

    def test_total_failure_raises(self, manager):
        # Every target failed and no spare is left to place the page on
        # (with a spare it lands there: test_bulk_pages.py).
        for provider in manager.providers:
            provider.fail()
        with pytest.raises(ProviderUnavailableError):
            write_pages(manager, [(KEY, b"data", (0, 1))])


class TestReadPage:
    def test_reads_from_replica(self, manager):
        write_pages(manager, [(KEY, b"payload", (1, 3))])
        descriptor = PageDescriptor(KEY, (1, 3), size=7)
        assert read_page(manager, descriptor) == b"payload"

    def test_failover_to_second_replica(self, manager):
        write_pages(manager, [(KEY, b"payload", (1, 3))])
        manager.get(1).fail()
        descriptor = PageDescriptor(KEY, (1, 3), size=7)
        assert read_page(manager, descriptor, policy="first") == b"payload"

    def test_all_replicas_gone_raises(self, manager):
        descriptor = PageDescriptor(KEY, (0, 1), size=4)
        with pytest.raises(PageNotFoundError):
            read_page(manager, descriptor)

    @pytest.mark.parametrize("policy", ["least_loaded", "random", "first"])
    def test_policies_return_correct_data(self, manager, policy):
        write_pages(manager, [(KEY, b"abc", (0, 1, 2))])
        descriptor = PageDescriptor(KEY, (0, 1, 2), size=3)
        assert read_page(manager, descriptor, policy=policy) == b"abc"

    def test_least_loaded_spreads_reads(self, manager):
        write_pages(manager, [(KEY, b"abc", (0, 1))])
        descriptor = PageDescriptor(KEY, (0, 1), size=3)
        for _ in range(10):
            read_page(manager, descriptor, policy="least_loaded")
        reads_0 = manager.get(0).stats().pages_read
        reads_1 = manager.get(1).stats().pages_read
        assert abs(reads_0 - reads_1) <= 1


class TestReplicationManager:
    def test_scrub_healthy(self, manager):
        write_pages(manager, [(KEY, b"x", (0, 1))])
        replication = ReplicationManager(manager)
        report = replication.scrub(
            [PageDescriptor(KEY, (0, 1), size=1)], target_replication=2
        )
        assert report.is_healthy
        assert report.healthy_pages == 1

    def test_scrub_detects_under_replication_and_loss(self, manager):
        key2 = PageKey(1, 1, 1)
        write_pages(manager, [(KEY, b"x", (0, 1))])
        write_pages(manager, [(key2, b"y", (2,))])
        manager.get(1).fail()
        manager.get(2).fail()
        replication = ReplicationManager(manager)
        report = replication.scrub(
            [
                PageDescriptor(KEY, (0, 1), size=1),
                PageDescriptor(key2, (2,), size=1),
            ],
            target_replication=2,
        )
        assert len(report.under_replicated) == 1
        assert len(report.lost) == 1
        assert not report.is_healthy

    def test_heal_restores_target_replication(self, manager):
        write_pages(manager, [(KEY, b"heal-me", (0, 1))])
        manager.get(1).fail()
        replication = ReplicationManager(manager)
        healed = replication.heal(
            PageDescriptor(KEY, (0, 1), size=7), target_replication=2
        )
        assert len(healed.providers) == 2
        live = replication.live_replicas(healed)
        assert len(live) == 2
        for provider_id in live:
            assert manager.get(provider_id).get_page(KEY) == b"heal-me"

    def test_heal_lost_page_raises(self, manager):
        replication = ReplicationManager(manager)
        with pytest.raises(PageNotFoundError):
            replication.heal(PageDescriptor(KEY, (0,), size=1), target_replication=2)

    def test_heal_all_skips_lost_pages(self, manager):
        key2 = PageKey(1, 1, 1)
        write_pages(manager, [(KEY, b"x", (0, 1))])
        manager.get(1).fail()
        replication = ReplicationManager(manager)
        healed = replication.heal_all(
            [
                PageDescriptor(KEY, (0, 1), size=1),
                PageDescriptor(key2, (3,), size=1),  # never written: lost
            ],
            target_replication=2,
        )
        assert list(healed.keys()) == [0]
