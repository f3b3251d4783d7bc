"""Unit tests for the BlobSeer client facade (`repro.core.client`)."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from repro.core import (
    AlignmentError,
    BlobNotFoundError,
    BlobSeer,
    BlobSeerConfig,
    InvalidRangeError,
    VersionNotPublishedError,
)
from repro.core.client import ALLOCATION_RANGE_PAGES

PAGE = 4 * 1024


class TestBlobLifecycle:
    def test_create_and_describe(self, blobseer: BlobSeer):
        blob = blobseer.create_blob()
        info = blobseer.blob_info(blob)
        assert info.page_size == PAGE
        assert blobseer.latest_version(blob) == 0
        assert blobseer.get_size(blob) == 0
        assert blobseer.versions(blob) == [0]

    def test_unknown_blob_rejected(self, blobseer: BlobSeer):
        with pytest.raises(BlobNotFoundError):
            blobseer.read(12345, 0, 1)

    def test_delete_blob_releases_pages(self, blobseer: BlobSeer):
        blob = blobseer.create_blob()
        blobseer.append(blob, b"x" * (3 * PAGE))
        assert blobseer.stats()["pages_stored"] == 3
        blobseer.delete_blob(blob)
        assert blobseer.stats()["pages_stored"] == 0
        with pytest.raises(BlobNotFoundError):
            blobseer.get_size(blob)

    def test_context_manager_closes(self, config):
        with BlobSeer(config) as service:
            blob = service.create_blob()
            service.append(blob, b"abc")


class TestWriteRead:
    def test_append_and_read_back(self, blobseer: BlobSeer):
        blob = blobseer.create_blob()
        payload = bytes(range(256)) * 64  # 16 KiB = 4 pages
        version = blobseer.append(blob, payload)
        assert version == 1
        assert blobseer.get_size(blob) == len(payload)
        assert blobseer.read_all(blob) == payload

    def test_partial_reads(self, blobseer: BlobSeer):
        blob = blobseer.create_blob()
        payload = b"".join(bytes([i % 256]) * 100 for i in range(300))
        blobseer.append(blob, payload)
        assert blobseer.read(blob, 0, 10) == payload[:10]
        assert blobseer.read(blob, 12345, 678) == payload[12345 : 12345 + 678]
        assert blobseer.read(blob, len(payload) - 5, 5) == payload[-5:]
        assert blobseer.read(blob, 100, 0) == b""

    def test_write_produces_new_version_and_keeps_old(self, blobseer: BlobSeer):
        blob = blobseer.create_blob()
        v1 = blobseer.append(blob, b"a" * (2 * PAGE))
        v2 = blobseer.write(blob, 0, b"b" * PAGE)
        assert blobseer.read(blob, 0, PAGE, version=v2) == b"b" * PAGE
        assert blobseer.read(blob, 0, PAGE, version=v1) == b"a" * PAGE
        assert blobseer.read(blob, PAGE, PAGE) == b"a" * PAGE

    def test_write_beyond_end_grows_blob(self, blobseer: BlobSeer):
        blob = blobseer.create_blob()
        blobseer.append(blob, b"a" * PAGE)
        blobseer.write(blob, 3 * PAGE, b"z" * PAGE)
        assert blobseer.get_size(blob) == 4 * PAGE
        # The gap is a hole and reads back as zero bytes.
        assert blobseer.read(blob, PAGE, PAGE) == b"\x00" * PAGE
        assert blobseer.read(blob, 3 * PAGE, PAGE) == b"z" * PAGE

    def test_unaligned_write_offset_rejected(self, blobseer: BlobSeer):
        blob = blobseer.create_blob()
        blobseer.append(blob, b"a" * PAGE)
        with pytest.raises(AlignmentError):
            blobseer.write(blob, 10, b"x")

    def test_empty_write_rejected(self, blobseer: BlobSeer):
        blob = blobseer.create_blob()
        with pytest.raises(InvalidRangeError):
            blobseer.append(blob, b"")
        with pytest.raises(InvalidRangeError):
            blobseer.write(blob, 0, b"")

    def test_read_out_of_range_rejected(self, blobseer: BlobSeer):
        blob = blobseer.create_blob()
        blobseer.append(blob, b"abc")
        with pytest.raises(InvalidRangeError):
            blobseer.read(blob, 0, 4)
        with pytest.raises(InvalidRangeError):
            blobseer.read(blob, -1, 1)

    def test_unaligned_append_preserves_existing_bytes(self, blobseer: BlobSeer):
        blob = blobseer.create_blob()
        blobseer.append(blob, b"a" * (PAGE + 100))  # last page partially filled
        blobseer.append(blob, b"b" * 50)
        blobseer.append(blob, b"c" * PAGE)
        expected = b"a" * (PAGE + 100) + b"b" * 50 + b"c" * PAGE
        assert blobseer.read_all(blob) == expected

    def test_unaligned_appends_read_back_at_every_version(self, blobseer: BlobSeer):
        chunks = [
            b"a" * 1000,          # unaligned tail
            b"b" * (3 * PAGE),    # page-sized run
            b"c" * 700,           # fully inside a shared page
            b"d" * (2 * PAGE + 1),  # crosses pages, unaligned both ends
        ]
        blob = blobseer.create_blob()
        versions = [blobseer.append(blob, chunk) for chunk in chunks]
        assert versions == [1, 2, 3, 4]
        assert blobseer.versions(blob) == [0, 1, 2, 3, 4]
        expected = b""
        for version, chunk in zip(versions, chunks):
            expected += chunk
            assert blobseer.get_size(blob, version) == len(expected)
            assert blobseer.read_all(blob, version=version) == expected

    def test_partial_overwrite_inside_blob_merges_tail(self, blobseer: BlobSeer):
        blob = blobseer.create_blob()
        blobseer.append(blob, b"x" * (4 * PAGE))
        blobseer.write(blob, PAGE, b"y" * (PAGE + 100))
        data = blobseer.read_all(blob)
        assert data[:PAGE] == b"x" * PAGE
        assert data[PAGE : 2 * PAGE + 100] == b"y" * (PAGE + 100)
        assert data[2 * PAGE + 100 :] == b"x" * (2 * PAGE - 100)

    def test_versioned_reads_of_unpublished_version_rejected(self, blobseer: BlobSeer):
        blob = blobseer.create_blob()
        blobseer.append(blob, b"a")
        # Assign a ticket for the next version but never publish it.
        blobseer.version_manager.assign_ticket(blob, offset=None, size=10, append=True)
        with pytest.raises(VersionNotPublishedError):
            blobseer.version_manager.version_info(blob, 2)


class TestReplicationAndLocality:
    def test_a_long_write_is_placed_in_runs_of_the_allocation_range(self):
        # 64 pages over 4 providers: the waterfill hands each provider two
        # runs of ALLOCATION_RANGE_PAGES contiguous pages, evenly.
        client = BlobSeer(
            BlobSeerConfig(page_size=PAGE, num_providers=4, num_metadata_providers=1)
        )
        blob = client.create_blob()
        client.write(blob, 0, b"w" * (64 * PAGE))
        owners = [
            loc.providers[0] for loc in client.page_locations(blob, 0, 64 * PAGE)
        ]
        runs = [len(list(group)) for _, group in itertools.groupby(owners)]
        assert runs == [ALLOCATION_RANGE_PAGES] * (64 // ALLOCATION_RANGE_PAGES)
        assert sorted(Counter(owners).values()) == [16, 16, 16, 16]
        client.close()

    def test_replicated_pages_land_on_distinct_providers(self, replicated_blobseer):
        service = replicated_blobseer
        blob = service.create_blob()
        service.append(blob, b"r" * (4 * PAGE))
        for location in service.page_locations(blob, 0, 4 * PAGE):
            assert len(set(location.providers)) == 2

    def test_page_locations_cover_requested_range(self, blobseer: BlobSeer):
        blob = blobseer.create_blob()
        blobseer.append(blob, b"d" * (5 * PAGE))
        locations = blobseer.page_locations(blob, PAGE, 2 * PAGE)
        assert [loc.page_index for loc in locations] == [1, 2]
        assert all(loc.hosts for loc in locations)

    def test_read_survives_provider_failure_with_replication(self, replicated_blobseer):
        service = replicated_blobseer
        blob = service.create_blob()
        payload = b"f" * (6 * PAGE)
        service.append(blob, payload)
        service.provider_manager.providers[0].fail()
        assert service.read_all(blob) == payload

    def test_scrub_and_repair(self, replicated_blobseer):
        service = replicated_blobseer
        blob = service.create_blob()
        payload = b"s" * (8 * PAGE)
        service.append(blob, payload)
        assert service.scrub(blob).is_healthy
        service.provider_manager.providers[1].fail()
        report = service.scrub(blob)
        assert not report.is_healthy or report.total_pages == 8
        new_version = service.repair(blob)
        assert new_version >= 1
        # After repair, every page has two live replicas again.
        assert service.scrub(blob).is_healthy
        assert service.read_all(blob) == payload

    def test_stats_structure(self, blobseer: BlobSeer):
        blob = blobseer.create_blob()
        blobseer.append(blob, b"x" * PAGE)
        stats = blobseer.stats()
        assert stats["providers"] == 6
        assert stats["pages_stored"] == 1
        assert stats["imbalance"] >= 1.0
        assert blob in stats["blobs"]


class TestPersistence:
    def test_storage_dir_backed_deployment(self, tmp_path):
        config = BlobSeerConfig(page_size=PAGE, num_providers=2, num_metadata_providers=1)
        service = BlobSeer(config, storage_dir=tmp_path)
        blob = service.create_blob()
        service.append(blob, b"durable" * 1000)
        service.close()
        assert any(tmp_path.iterdir())
