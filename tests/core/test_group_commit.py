"""Batched control-plane paths: GC retirement and range allocation.

* ``VersionManager.retire_batch`` — one critical section per blob instead
  of one per retired version;
* ``ProviderManager.allocate_ranges`` and the
  :class:`~repro.core.provider_manager.LoadBalancedStrategy` waterfill —
  contiguous page runs per provider without losing the striping that
  parallel I/O depends on.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import DataProvider
from repro.core.config import BlobSeerConfig as Config
from repro.core.errors import (
    BlobNotFoundError,
    VersionNotPublishedError,
)
from repro.core.metadata import NodeKey
from repro.core.provider_manager import (
    AllocationStrategy,
    LoadBalancedStrategy,
    ProviderManager,
)
from repro.core.replication import write_pages
from repro.core.version_manager import VersionManager


@pytest.fixture
def manager() -> VersionManager:
    return VersionManager(Config(page_size=1024, num_providers=4))


def root_for(blob_id: int, version: int) -> NodeKey:
    return NodeKey(blob_id=blob_id, version=version, lo=0, hi=4)


class TestRetireBatch:
    def publish_versions(self, manager, blob, count):
        for _ in range(count):
            ticket = manager.assign_ticket(blob, offset=None, size=10, append=True)
            manager.publish(ticket, root_for(blob, ticket.version))

    def test_merges_requests_for_one_blob(self, manager):
        blob = manager.create_blob().blob_id
        self.publish_versions(manager, blob, 4)
        retired = manager.retire_batch([(blob, [1, 2]), (blob, [2, 3])])
        assert retired == {blob: [1, 2, 3]}
        # Re-retiring is a silent no-op, matching retire_versions.
        assert manager.retire_batch([(blob, [1])]) == {blob: []}

    def test_unpublished_version_rejected(self, manager):
        blob = manager.create_blob().blob_id
        self.publish_versions(manager, blob, 2)
        with pytest.raises(VersionNotPublishedError):
            manager.retire_batch([(blob, [5])])

    def test_retire_versions_delegates(self, manager):
        blob = manager.create_blob().blob_id
        self.publish_versions(manager, blob, 3)
        assert manager.retire_versions(blob, [1, 2]) == [1, 2]


class TestBlobRegistry:
    def test_concurrent_create_then_delete(self, manager):
        created: list[list[int]] = [[] for _ in range(8)]

        def run(action) -> None:
            threads = [threading.Thread(target=action, args=(w,)) for w in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)

        def create(w: int) -> None:
            created[w] = [manager.create_blob().blob_id for _ in range(25)]

        def delete(w: int) -> None:
            for blob in created[w]:
                manager.delete_blob(blob)

        run(create)
        all_ids = sorted(b for ids in created for b in ids)
        assert len(set(all_ids)) == 8 * 25
        assert manager.blob_ids() == all_ids
        run(delete)
        assert manager.blob_ids() == []

    def test_non_int_id_is_not_found(self, manager):
        with pytest.raises(BlobNotFoundError):
            manager.blob_info("x")
        with pytest.raises(BlobNotFoundError):
            manager.delete_blob("x")


def make_providers(count: int) -> list[DataProvider]:
    return [DataProvider(i, host=f"node-{i}") for i in range(count)]


class TestRangeAllocation:
    def test_small_write_still_stripes_across_the_pool(self):
        # 4 pages on 4 providers with a generous range cap: the spread cap
        # must keep one page per provider (the parallel-I/O invariant).
        pm = ProviderManager(make_providers(4), range_pages=8)
        runs = pm.allocate_ranges(4, 1)
        assert all(run == 1 for run, _ in runs)
        used = {ids[0] for _, ids in runs}
        assert len(used) == 4

    def test_large_write_coalesces_into_runs(self):
        pm = ProviderManager(make_providers(4), range_pages=8)
        runs = pm.allocate_ranges(32, 1)
        assert sum(run for run, _ in runs) == 32
        assert max(run for run, _ in runs) > 1  # ranges actually formed
        assert all(run <= 8 for run, _ in runs)
        # Waterfill keeps the load balanced: every provider gets 8 pages.
        totals: dict[int, int] = {}
        for run, ids in runs:
            for pid in ids:
                totals[pid] = totals.get(pid, 0) + run
        assert sorted(totals.values()) == [8, 8, 8, 8]

    def test_replicated_runs_use_distinct_providers(self):
        pm = ProviderManager(make_providers(4), range_pages=4)
        runs = pm.allocate_ranges(8, 2)
        for run, ids in runs:
            assert len(ids) == len(set(ids)) == 2

    def test_allocate_flattens_ranges(self):
        pm = ProviderManager(make_providers(4), range_pages=4)
        allocation = pm.allocate(8, 1)
        assert len(allocation) == 8
        assert all(len(page_ids) == 1 for page_ids in allocation)

    def test_default_range_is_one_page_per_decision(self):
        runs = ProviderManager(make_providers(4)).allocate_ranges(32, 1)
        assert [run for run, _ in runs] == [1] * 32

    def test_range_pages_validation(self):
        from repro.core.errors import AllocationError

        with pytest.raises(AllocationError):
            ProviderManager(make_providers(2), range_pages=0)

    def test_default_select_range_coalesces_repeat_choices(self):
        class PinnedStrategy(AllocationStrategy):
            def select(self, stats, replication, *, client_hint=None, pending=None):
                return [stats[0].provider_id]

        pm = ProviderManager(
            make_providers(2), strategy=PinnedStrategy(), range_pages=3
        )
        runs = pm.allocate_ranges(7, 1)
        # Same provider every page -> runs capped at max_range.
        assert [run for run, _ in runs] == [3, 3, 1]

    def test_heap_select_picks_least_loaded_replicas(self):
        providers = make_providers(4)
        pm = ProviderManager(providers, strategy=LoadBalancedStrategy())
        # Preload two providers (their put replies feed the view) so the
        # heap must avoid them.
        from repro.core.pages import PageKey

        write_pages(pm, [(PageKey(9, 1, 0), b"x", (0,)), (PageKey(9, 1, 1), b"x", (1,))])
        chosen = pm.allocate(1, 2)[0]
        assert set(chosen) == {2, 3}

    def test_stats_snapshot(self):
        pm = ProviderManager(make_providers(3))
        snapshot = pm.stats()
        assert sorted(snapshot) == [0, 1, 2]
        assert all(s.pages_stored == 0 for s in snapshot.values())

