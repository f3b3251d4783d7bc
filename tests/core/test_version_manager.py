"""Unit tests for the version manager (ticketing and ordered publication)."""

from __future__ import annotations

import threading

import pytest

from repro.core.config import BlobSeerConfig
from repro.core.errors import (
    BlobNotFoundError,
    TicketError,
    VersionNotFoundError,
    VersionNotPublishedError,
)
from repro.core.metadata import NodeKey
from repro.core.version_manager import VersionManager


@pytest.fixture
def manager() -> VersionManager:
    return VersionManager(BlobSeerConfig(page_size=1024, num_providers=4))


def root_for(blob_id: int, version: int) -> NodeKey:
    return NodeKey(blob_id=blob_id, version=version, lo=0, hi=4)


class TestBlobLifecycle:
    def test_create_blob_uses_config_defaults(self, manager):
        info = manager.create_blob()
        assert info.page_size == 1024
        assert info.replication == 1
        assert manager.latest_version(info.blob_id) == 0
        assert manager.size(info.blob_id) == 0

    def test_create_blob_with_overrides(self, manager):
        info = manager.create_blob(page_size=2048, replication=3)
        assert info.page_size == 2048
        assert info.replication == 3

    def test_invalid_blob_parameters(self, manager):
        with pytest.raises(ValueError):
            manager.create_blob(page_size=0)
        with pytest.raises(ValueError):
            manager.create_blob(replication=0)

    def test_unknown_blob_raises(self, manager):
        with pytest.raises(BlobNotFoundError):
            manager.latest_version(999)
        with pytest.raises(BlobNotFoundError):
            manager.delete_blob(999)

    def test_delete_blob(self, manager):
        blob = manager.create_blob().blob_id
        manager.delete_blob(blob)
        with pytest.raises(BlobNotFoundError):
            manager.blob_info(blob)

    def test_blob_ids_listing(self, manager):
        ids = [manager.create_blob().blob_id for _ in range(3)]
        assert manager.blob_ids() == sorted(ids)


class TestTickets:
    def test_write_ticket_fields(self, manager):
        blob = manager.create_blob().blob_id
        ticket = manager.assign_ticket(blob, offset=0, size=5000, append=False)
        assert ticket.version == 1
        assert ticket.offset == 0
        assert ticket.new_size == 5000
        assert ticket.base_version == 0

    def test_append_tickets_get_disjoint_offsets(self, manager):
        blob = manager.create_blob().blob_id
        t1 = manager.assign_ticket(blob, offset=None, size=100, append=True)
        t2 = manager.assign_ticket(blob, offset=None, size=200, append=True)
        assert t1.offset == 0
        assert t2.offset == 100  # based on the assigned (not published) size
        assert t2.base_version == t1.version

    def test_append_run_is_contiguous_in_version_and_offset(self, manager):
        blob = manager.create_blob().blob_id
        tickets = [
            manager.assign_ticket(blob, offset=None, size=size, append=True)
            for size in (100, 50, 25)
        ]
        assert [t.version for t in tickets] == [1, 2, 3]
        assert [t.offset for t in tickets] == [0, 100, 150]
        assert [t.base_version for t in tickets] == [0, 1, 2]
        assert tickets[-1].new_size == 175

    def test_append_after_write_ticket_starts_at_its_end(self, manager):
        blob = manager.create_blob().blob_id
        manager.assign_ticket(blob, offset=0, size=10, append=False)
        ticket = manager.assign_ticket(blob, offset=None, size=20, append=True)
        assert ticket.version == 2
        assert ticket.offset == 10
        assert ticket.new_size == 30

    def test_append_with_offset_rejected(self, manager):
        blob = manager.create_blob().blob_id
        with pytest.raises(TicketError):
            manager.assign_ticket(blob, offset=5, size=10, append=True)

    def test_write_without_offset_rejected(self, manager):
        blob = manager.create_blob().blob_id
        with pytest.raises(TicketError):
            manager.assign_ticket(blob, offset=None, size=10, append=False)

    def test_negative_arguments_rejected(self, manager):
        blob = manager.create_blob().blob_id
        with pytest.raises(ValueError):
            manager.assign_ticket(blob, offset=0, size=-1)
        with pytest.raises(ValueError):
            manager.assign_ticket(blob, offset=-1, size=1)


class TestPublication:
    def test_publish_advances_latest(self, manager):
        blob = manager.create_blob().blob_id
        ticket = manager.assign_ticket(blob, offset=0, size=100)
        manager.publish(ticket, root_for(blob, 1))
        assert manager.latest_version(blob) == 1
        info = manager.version_info(blob)
        assert info.size == 100
        assert info.root == root_for(blob, 1)

    def test_out_of_order_publication_is_serialized(self, manager):
        blob = manager.create_blob().blob_id
        t1 = manager.assign_ticket(blob, offset=None, size=100, append=True)
        t2 = manager.assign_ticket(blob, offset=None, size=100, append=True)
        # Writer 2 finishes first: its version must not become visible yet.
        manager.publish(t2, root_for(blob, 2))
        assert manager.latest_version(blob) == 0
        assert manager.pending_versions(blob) == [1]
        manager.publish(t1, root_for(blob, 1))
        assert manager.latest_version(blob) == 2
        assert manager.size(blob) == 200

    def test_gap_holds_the_head_back_until_filled(self, manager):
        blob = manager.create_blob().blob_id
        t1, t2, t3 = (
            manager.assign_ticket(blob, offset=None, size=10, append=True)
            for _ in range(3)
        )
        assert manager.publish(t3, root_for(blob, 3)) == 0
        assert manager.publish(t1, root_for(blob, 1)) == 1
        assert manager.pending_versions(blob) == [2]
        assert manager.publish(t2, root_for(blob, 2)) == 3
        assert manager.published_versions(blob) == [0, 1, 2, 3]
        assert manager.size(blob) == 30

    def test_heads_advance_independently_per_blob(self, manager):
        a = manager.create_blob().blob_id
        b = manager.create_blob().blob_id
        ta = manager.assign_ticket(a, offset=None, size=10, append=True)
        tb = manager.assign_ticket(b, offset=None, size=10, append=True)
        # Blob a's unpublished version 1 does not hold blob b back.
        assert manager.publish(tb, root_for(b, 1)) == 1
        assert manager.latest_version(a) == 0
        assert manager.publish(ta, root_for(a, 1)) == 1
        assert manager.latest_version(b) == 1

    def test_duplicate_publish_behind_a_gap_is_rejected(self, manager):
        blob = manager.create_blob().blob_id
        t1 = manager.assign_ticket(blob, offset=None, size=10, append=True)
        t2 = manager.assign_ticket(blob, offset=None, size=10, append=True)
        manager.publish(t2, root_for(blob, 2))
        with pytest.raises(TicketError):
            manager.publish(t2, root_for(blob, 2))
        # The rejected call left version 2 ready: filling the gap publishes it.
        assert manager.publish(t1, root_for(blob, 1)) == 2
        assert manager.version_info(blob, 2).root == root_for(blob, 2)

    def test_double_publish_rejected(self, manager):
        blob = manager.create_blob().blob_id
        ticket = manager.assign_ticket(blob, offset=0, size=10)
        manager.publish(ticket, root_for(blob, 1))
        with pytest.raises(TicketError):
            manager.publish(ticket, root_for(blob, 1))

    def test_publish_unknown_ticket_rejected(self, manager):
        manager.create_blob()
        other = VersionManager()
        other_blob = other.create_blob().blob_id
        foreign = other.assign_ticket(other_blob, offset=0, size=10)
        with pytest.raises((TicketError, BlobNotFoundError)):
            manager.publish(foreign, None)

    def test_abort_unblocks_later_versions(self, manager):
        blob = manager.create_blob().blob_id
        t1 = manager.assign_ticket(blob, offset=None, size=100, append=True)
        t2 = manager.assign_ticket(blob, offset=None, size=50, append=True)
        manager.publish(t2, root_for(blob, 2))
        manager.abort(t1)
        assert manager.latest_version(blob) == 2
        # The aborted range still counts towards the size (it is a hole).
        assert manager.size(blob) == 150
        # Reading the aborted version shows the previous content (same root).
        info = manager.version_info(blob, 1)
        assert info.root is None
        assert info.size == 0

    def test_aborted_version_keeps_its_predecessors_size(self, manager):
        blob = manager.create_blob().blob_id
        t1 = manager.assign_ticket(blob, offset=None, size=100, append=True)
        manager.publish(t1, root_for(blob, 1))
        t2 = manager.assign_ticket(blob, offset=None, size=50, append=True)
        manager.abort(t2)
        assert manager.latest_version(blob) == 2
        info = manager.version_info(blob, 2)
        assert info.size == 100
        assert info.root == root_for(blob, 1)
        # The aborted range is not handed back to later appends.
        t3 = manager.assign_ticket(blob, offset=None, size=10, append=True)
        assert t3.offset == 150

    def test_abort_after_publish_rejected(self, manager):
        blob = manager.create_blob().blob_id
        ticket = manager.assign_ticket(blob, offset=0, size=10)
        manager.publish(ticket, root_for(blob, 1))
        with pytest.raises(TicketError):
            manager.abort(ticket)

    def test_wait_for_publication(self, manager):
        blob = manager.create_blob().blob_id
        ticket = manager.assign_ticket(blob, offset=0, size=10)
        results = []

        def waiter():
            results.append(manager.wait_for_publication(blob, 1, timeout=5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        manager.publish(ticket, root_for(blob, 1))
        thread.join(timeout=5.0)
        assert results == [True]

    def test_wait_for_publication_timeout(self, manager):
        blob = manager.create_blob().blob_id
        manager.assign_ticket(blob, offset=0, size=10)
        assert manager.wait_for_publication(blob, 1, timeout=0.01) is False


class TestQueries:
    def test_version_info_validation(self, manager):
        blob = manager.create_blob().blob_id
        with pytest.raises(VersionNotFoundError):
            manager.version_info(blob, 5)
        ticket = manager.assign_ticket(blob, offset=0, size=10)
        with pytest.raises(VersionNotPublishedError):
            manager.version_info(blob, ticket.version)

    def test_version_zero_is_empty(self, manager):
        blob = manager.create_blob().blob_id
        info = manager.version_info(blob, 0)
        assert info.size == 0
        assert info.root is None

    def test_published_versions_and_sizes(self, manager):
        blob = manager.create_blob().blob_id
        sizes = [100, 250, 400]
        for size in sizes:
            ticket = manager.assign_ticket(blob, offset=None, size=size - manager.size(blob), append=True)
            manager.publish(ticket, root_for(blob, ticket.version))
        assert manager.published_versions(blob) == [0, 1, 2, 3]
        for version, size in zip([1, 2, 3], sizes):
            assert manager.size(blob, version) == size

    def test_capacity_pages(self, manager):
        blob = manager.create_blob().blob_id  # page size 1024
        ticket = manager.assign_ticket(blob, offset=0, size=5 * 1024)
        manager.publish(ticket, root_for(blob, 1))
        assert manager.capacity_pages(blob) == 8

    def test_describe(self, manager):
        blob = manager.create_blob().blob_id
        description = manager.describe()
        assert blob in description
        assert description[blob]["published_version"] == 0

    def test_snapshot_roots(self, manager):
        blob = manager.create_blob().blob_id
        ticket = manager.assign_ticket(blob, offset=0, size=10)
        manager.publish(ticket, root_for(blob, 1))
        roots = manager.snapshot_roots(blob)
        assert roots[0] is None
        assert roots[1] == root_for(blob, 1)


class TestConcurrentTicketing:
    def test_parallel_appenders_get_unique_versions_and_offsets(self, manager):
        blob = manager.create_blob().blob_id
        tickets = []
        lock = threading.Lock()

        def appender():
            for _ in range(20):
                ticket = manager.assign_ticket(blob, offset=None, size=10, append=True)
                with lock:
                    tickets.append(ticket)

        threads = [threading.Thread(target=appender) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        versions = [t.version for t in tickets]
        offsets = [t.offset for t in tickets]
        assert len(set(versions)) == len(versions) == 160
        assert len(set(offsets)) == len(offsets)
        assert sorted(offsets) == [i * 10 for i in range(160)]
