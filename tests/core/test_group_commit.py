"""Group-commit and range allocation: the batched control-plane paths.

Covers the batched version-manager, allocation and client APIs:

* ``VersionManager.assign_append_tickets`` / ``publish_batch`` /
  ``retire_batch`` — one critical section per blob instead of one per
  operation, with all-or-nothing validation per blob group;
* ``ProviderManager.allocate_ranges`` and the
  :class:`~repro.core.provider_manager.LoadBalancedStrategy` waterfill —
  contiguous page runs per provider without losing the striping that
  parallel I/O depends on;
* ``BlobSeer.append_batch`` — batched appends equal a sequence of plain
  appends, byte for byte, at every intermediate version.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import KB, BlobSeer, BlobSeerConfig, DataProvider
from repro.core.config import BlobSeerConfig as Config
from repro.core.errors import (
    BlobNotFoundError,
    InvalidRangeError,
    TicketError,
    VersionNotPublishedError,
)
from repro.core.metadata import NodeKey
from repro.core.provider_manager import (
    AllocationStrategy,
    LoadBalancedStrategy,
    ProviderManager,
)
from repro.core.version_manager import VersionManager


@pytest.fixture
def manager() -> VersionManager:
    return VersionManager(Config(page_size=1024, num_providers=4))


def root_for(blob_id: int, version: int) -> NodeKey:
    return NodeKey(blob_id=blob_id, version=version, lo=0, hi=4)


class TestAssignAppendTickets:
    def test_tickets_are_contiguous_in_version_and_offset(self, manager):
        blob = manager.create_blob().blob_id
        tickets = manager.assign_append_tickets(blob, [100, 50, 25])
        assert [t.version for t in tickets] == [1, 2, 3]
        assert [t.offset for t in tickets] == [0, 100, 150]
        assert tickets[-1].new_size == 175

    def test_interleaves_with_single_tickets(self, manager):
        blob = manager.create_blob().blob_id
        manager.assign_ticket(blob, offset=None, size=10, append=True)
        tickets = manager.assign_append_tickets(blob, [20])
        assert tickets[0].version == 2
        assert tickets[0].offset == 10

    def test_negative_size_rejected(self, manager):
        blob = manager.create_blob().blob_id
        with pytest.raises(ValueError):
            manager.assign_append_tickets(blob, [10, -1])


class TestPublishBatch:
    def test_batch_publishes_all_versions(self, manager):
        blob = manager.create_blob().blob_id
        tickets = manager.assign_append_tickets(blob, [10, 10, 10])
        heads = manager.publish_batch(
            (t, root_for(blob, t.version)) for t in tickets
        )
        assert heads == {blob: 3}
        assert manager.latest_version(blob) == 3
        assert manager.published_versions(blob) == [0, 1, 2, 3]

    def test_batch_spanning_blobs_returns_per_blob_heads(self, manager):
        a = manager.create_blob().blob_id
        b = manager.create_blob().blob_id
        (ta,) = manager.assign_append_tickets(a, [10])
        (tb,) = manager.assign_append_tickets(b, [10])
        heads = manager.publish_batch(
            [(ta, root_for(a, 1)), (tb, root_for(b, 1))]
        )
        assert heads == {a: 1, b: 1}

    def test_gap_in_batch_holds_the_head_back(self, manager):
        blob = manager.create_blob().blob_id
        t1, t2, t3 = manager.assign_append_tickets(blob, [10, 10, 10])
        heads = manager.publish_batch([(t3, root_for(blob, 3))])
        assert heads == {blob: 0}  # versions 1-2 still in flight
        manager.publish_batch([(t1, root_for(blob, 1)), (t2, root_for(blob, 2))])
        assert manager.latest_version(blob) == 3

    def test_duplicate_ticket_in_batch_rejects_whole_group(self, manager):
        blob = manager.create_blob().blob_id
        (t1,) = manager.assign_append_tickets(blob, [10])
        with pytest.raises(TicketError):
            manager.publish_batch(
                [(t1, root_for(blob, 1)), (t1, root_for(blob, 1))]
            )
        # Nothing was published: the single-publish path still works.
        assert manager.latest_version(blob) == 0
        manager.publish(t1, root_for(blob, 1))
        assert manager.latest_version(blob) == 1

    def test_foreign_ticket_rejects_its_blob_group_only(self, manager):
        a = manager.create_blob().blob_id
        b = manager.create_blob().blob_id
        (ta,) = manager.assign_append_tickets(a, [10])
        (tb,) = manager.assign_append_tickets(b, [10])
        manager.publish(tb, root_for(b, 1))  # make tb already-published
        with pytest.raises(TicketError):
            manager.publish_batch(
                [(ta, root_for(a, 1)), (tb, root_for(b, 1))]
            )
        # Blob b's group failed validation; blob a's outcome depends on
        # iteration order, so only assert b stayed put.
        assert manager.latest_version(b) == 1

    def test_empty_batch_is_a_no_op(self, manager):
        assert manager.publish_batch([]) == {}


class TestRetireBatch:
    def publish_versions(self, manager, blob, count):
        tickets = manager.assign_append_tickets(blob, [10] * count)
        manager.publish_batch((t, root_for(blob, t.version)) for t in tickets)

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
        # Preload two providers so the heap must avoid them.
        from repro.core.pages import PageKey

        providers[0].put_page(PageKey(9, 1, 0), b"x")
        providers[1].put_page(PageKey(9, 1, 1), b"x")
        chosen = pm.allocate(1, 2)[0]
        assert set(chosen) == {2, 3}

    def test_stats_snapshot(self):
        pm = ProviderManager(make_providers(3))
        snapshot = pm.stats()
        assert sorted(snapshot) == [0, 1, 2]
        assert all(s.pages_stored == 0 for s in snapshot.values())


class TestClientAppendBatch:
    def make_service(self, page=1 * KB) -> BlobSeer:
        return BlobSeer(
            BlobSeerConfig(
                page_size=page,
                num_providers=4,
                num_metadata_providers=2,
                replication=1,
                rng_seed=11,
            )
        )

    def test_batch_equals_sequential_appends(self):
        chunks = [
            b"a" * 1000,          # unaligned tail
            b"b" * (3 * KB),      # aligned run
            b"c" * 700,           # fully inside a shared page
            b"d" * (2 * KB + 1),  # crosses pages, unaligned both ends
        ]
        batched = self.make_service()
        blob_b = batched.create_blob()
        versions = batched.append_batch(blob_b, chunks)

        sequential = self.make_service()
        blob_s = sequential.create_blob()
        expected_versions = [sequential.append(blob_s, c) for c in chunks]
        assert versions == expected_versions

        total = 0
        for version, chunk in zip(versions, chunks):
            total += len(chunk)
            assert batched.read(blob_b, 0, total, version=version) == (
                sequential.read(blob_s, 0, total, version=version)
            )

    def test_batch_after_existing_data_merges_base_page(self):
        service = self.make_service()
        blob = service.create_blob()
        service.append(blob, b"x" * 500)  # leaves a partial page behind
        versions = service.append_batch(blob, [b"y" * 300, b"z" * (2 * KB)])
        assert versions == [2, 3]
        data = service.read(blob, 0, 500 + 300 + 2 * KB, version=3)
        assert data == b"x" * 500 + b"y" * 300 + b"z" * (2 * KB)

    def test_empty_batch_returns_no_versions(self):
        service = self.make_service()
        blob = service.create_blob()
        assert service.append_batch(blob, []) == []

    def test_empty_chunk_rejected(self):
        service = self.make_service()
        blob = service.create_blob()
        with pytest.raises(InvalidRangeError):
            service.append_batch(blob, [b"ok", b""])
