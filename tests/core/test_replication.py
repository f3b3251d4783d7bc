"""Unit tests for the replication helpers (`repro.core.replication`)."""

from __future__ import annotations

import pytest

from repro.core.errors import PageNotFoundError, ProviderUnavailableError
from repro.core.pages import PageDescriptor, PageKey
from repro.core.provider import DataProvider
from repro.core.provider_manager import ProviderManager
from repro.core.replication import ReplicationManager, read_pages, write_pages


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
        assert read_pages(manager, [descriptor])[0] == b"payload"

    def test_failover_to_second_replica(self, manager):
        write_pages(manager, [(KEY, b"payload", (1, 3))])
        descriptor = PageDescriptor(KEY, (1, 3), size=7)

        def refuse(_keys):
            raise ProviderUnavailableError(1)

        # Provider 1 still looks up, so it is tried first; its call fails.
        manager.get(1).get_pages = refuse
        assert read_pages(manager, [descriptor])[0] == b"payload"
        assert manager.get(3).stats().pages_read == 1

    def test_a_down_replica_is_tried_last(self, manager):
        write_pages(manager, [(KEY, b"payload", (1, 3))])
        manager.get(1).fail()
        descriptor = PageDescriptor(KEY, (1, 3), size=7)
        get_pages = manager.get(1).get_pages
        asked = []

        def watched(keys):
            asked.append(keys)
            return get_pages(keys)

        manager.get(1).get_pages = watched
        assert read_pages(manager, [descriptor])[0] == b"payload"
        assert asked == []

    def test_all_replicas_gone_raises(self, manager):
        descriptor = PageDescriptor(KEY, (0, 1), size=4)
        with pytest.raises(PageNotFoundError):
            read_pages(manager, [descriptor])

    @pytest.mark.parametrize("serving", [0, 1, 2])
    def test_every_replica_serves_the_page(self, manager, serving):
        write_pages(manager, [(KEY, b"abc", (0, 1, 2))])
        for pid in (0, 1, 2):
            if pid != serving:
                manager.get(pid).fail()
        descriptor = PageDescriptor(KEY, (0, 1, 2), size=3)
        assert read_pages(manager, [descriptor])[0] == b"abc"
        assert manager.get(serving).stats().pages_read == 1

    def test_least_loaded_spreads_reads(self, manager):
        write_pages(manager, [(KEY, b"abc", (0, 1))])
        descriptor = PageDescriptor(KEY, (0, 1), size=3)
        for _ in range(10):
            assert read_pages(manager, [descriptor])[0] == b"abc"
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

    def test_heal_survives_a_replica_failing_its_read(self):
        # Target 3 on a 3-provider pool: the read marks one live replica
        # down, so only the other live replica and provider 2 can be placed on.
        manager = ProviderManager([DataProvider(i) for i in range(3)])
        write_pages(manager, [(KEY, b"heal-me", (0, 1))])
        failed = []
        for provider in (manager.get(0), manager.get(1)):

            def get_pages(keys, provider=provider, inner=provider.get_pages):
                if not failed:
                    failed.append(provider.provider_id)
                    provider.fail()
                return inner(keys)

            provider.get_pages = get_pages
        healed = ReplicationManager(manager).heal_all(
            [PageDescriptor(KEY, (0, 1), size=7)], target_replication=3
        )
        assert failed
        assert 2 in healed[KEY].providers
        assert manager.get(2).get_page(KEY) == b"heal-me"

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
        assert list(healed.keys()) == [KEY]
