"""The page plane in one round trip per provider: bulk page ops and failover.

Round trips are counted at the providers, as the metadata plane's are in
``test_metadata.py``: a block read or write costs one bulk call per
provider holding part of it, and failover retries only the keys a
provider could not serve.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import KB, BlobSeer, BlobSeerConfig
from repro.core import replication
from repro.core.dht import MISSING
from repro.core.errors import PageNotFoundError, ProviderUnavailableError
from repro.core.metadata import BlobLRU, MetadataManager
from repro.core.pages import PageDescriptor, PageKey
from repro.core.provider import DataProvider
from repro.core.provider_manager import ProviderManager
from repro.core.replication import read_pages, write_pages

from .test_dht import CountingProvider

PAGE = 1 * KB


class CountingDataProvider(DataProvider):
    """A data provider that counts the calls (round trips) it serves."""

    def __init__(self, provider_id: int) -> None:
        super().__init__(provider_id)
        self.calls: Counter[str] = Counter()

    @property
    def available(self) -> bool:
        self.calls["available"] += 1
        return super().available


def _counted(name: str):
    original = getattr(DataProvider, name)

    def method(self, *args):
        self.calls[name] += 1
        return original(self, *args)

    return method


for _name in (
    "get_page",
    "put_page",
    "has_page",
    "get_pages",
    "put_pages",
    "remove_pages",
    "stats",
):
    setattr(CountingDataProvider, _name, _counted(_name))


def make_blobseer(
    *, providers: int = 3, replication: int = 1, page_size: int = PAGE, **options
) -> BlobSeer:
    config = BlobSeerConfig(
        page_size=page_size,
        num_providers=providers,
        num_metadata_providers=1,
        replication=replication,
        rng_seed=3,
        **options,
    )
    return BlobSeer(
        config,
        providers=[CountingDataProvider(i) for i in range(providers)],
        metadata_providers=[CountingProvider(0)],
    )


def payload(size: int) -> bytes:
    return bytes(i * 7 % 251 for i in range(size))


def reset(bs: BlobSeer) -> list[CountingDataProvider]:
    providers = bs.provider_manager.providers
    for provider in providers + bs.dht.providers:
        provider.calls.clear()
    return providers


def total(providers, name: str) -> int:
    return sum(provider.calls[name] for provider in providers)


class TestProviderBulkOps:
    def test_get_pages_keeps_order_and_marks_missing_keys(self):
        provider = DataProvider(0)
        provider.put_pages([(PageKey(1, 1, 0), b"a"), (PageKey(1, 1, 1), b"bb")])
        found = provider.get_pages([PageKey(1, 1, 1), PageKey(9, 9, 9), PageKey(1, 1, 0)])
        assert found == [b"bb", MISSING, b"a"]
        stats = provider.stats()
        assert (stats.pages_read, stats.bytes_read) == (2, 3)  # per key, hits only

    def test_put_pages_counts_per_key_and_snapshots_views(self):
        provider = DataProvider(0)
        buffer = bytearray(b"xyz")
        provider.put_pages([(PageKey(1, 1, 0), memoryview(buffer)), (PageKey(1, 1, 1), b"q")])
        buffer[0:1] = b"!"  # the provider kept its own copy
        assert provider.get_page(PageKey(1, 1, 0)) == b"xyz"
        provider.put_pages([(PageKey(1, 1, 0), b"ab")])  # overwrite
        stats = provider.stats()
        assert (stats.pages_stored, stats.bytes_stored) == (2, 3)
        assert (stats.pages_written, stats.bytes_written) == (3, 6)

    def test_remove_pages_reports_bytes_freed_per_key(self):
        provider = DataProvider(0)
        provider.put_pages([(PageKey(1, 1, 0), b"abc"), (PageKey(1, 1, 1), b"de")])
        assert provider.remove_pages([PageKey(1, 1, 1), PageKey(5, 5, 5), PageKey(1, 1, 0)]) == [
            2,
            0,
            3,
        ]
        stats = provider.stats()
        assert (stats.pages_stored, stats.bytes_stored) == (0, 0)

    def test_failed_provider_refuses_bulk_ops(self):
        provider = DataProvider(0)
        provider.fail()
        for call in (
            lambda: provider.get_pages([PageKey(1, 1, 0)]),
            lambda: provider.put_pages([(PageKey(1, 1, 0), b"x")]),
            lambda: provider.remove_pages([PageKey(1, 1, 0)]),
        ):
            with pytest.raises(ProviderUnavailableError):
                call()


class TestRoundTrips:
    def test_sixteen_page_read_is_one_call_per_provider(self):
        bs = make_blobseer()
        blob = bs.create_blob()
        data = payload(16 * PAGE)
        bs.append(blob, data)
        providers = reset(bs)
        assert bs.read(blob, 0, len(data)) == data
        assert total(providers, "get_pages") <= 3
        assert total(providers, "get_page") == 0

    def test_sixteen_page_append_is_one_call_per_provider(self):
        bs = make_blobseer()
        blob = bs.create_blob()
        providers = reset(bs)
        bs.append(blob, payload(16 * PAGE))
        assert total(providers, "put_pages") <= 3
        assert total(providers, "put_page") == 0

    def test_unaligned_read_is_zero_filled_like_before(self):
        bs = make_blobseer()
        blob = bs.create_blob()
        data = payload(5 * PAGE + 100)
        bs.append(blob, data)
        assert bs.read(blob, 300, 4 * PAGE) == data[300 : 300 + 4 * PAGE]
        assert bs.read(blob, 4 * PAGE + 7, PAGE + 93) == data[4 * PAGE + 7 :]

    def test_least_loaded_ranks_each_provider_once_per_read(self):
        bs = make_blobseer(replication=2)
        blob = bs.create_blob()
        data = payload(16 * PAGE)
        bs.append(blob, data)
        providers = reset(bs)
        assert bs.read(blob, 0, len(data)) == data
        assert all(provider.calls["stats"] <= 1 for provider in providers)

    def test_least_loaded_spreads_one_read_over_the_replicas(self):
        bs = make_blobseer(replication=2)
        blob = bs.create_blob()
        data = payload(16 * PAGE)
        bs.append(blob, data)
        providers = reset(bs)
        assert bs.read(blob, 0, len(data)) == data
        # Every provider holds replicas here; each serves a share of the
        # read, none more than an even share rounded up.
        served = [provider.stats().pages_read for provider in providers]
        assert sum(served) == 16
        assert min(served) > 0
        assert max(served) <= -(-16 // len(providers))


class TestAppendRoundTrips:
    def test_second_append_is_one_page_call_and_one_store(self):
        bs = make_blobseer(page_size=256 * KB)
        blob = bs.create_blob()
        first, second = payload(64 * KB), payload(64 * KB)[::-1]
        bs.append(blob, first)
        providers = reset(bs)
        (metadata,) = bs.dht.providers
        bs.append(blob, second)
        # Placement from the load view, the boundary page from the tail
        # cache, the tree spine from the node cache.
        assert total(providers, "stats") == 0
        assert total(providers, "get_pages") == 0
        assert total(providers, "put_pages") == 1
        assert (metadata.calls["put_many"], metadata.calls["get_many"]) == (1, 0)
        assert bs.read_all(blob) == first + second

    def test_tail_cache_keeps_to_its_byte_bound(self):
        tails = BlobLRU(1000, weight=len)
        keys = [PageKey(1, version, 0) for version in range(4)]
        tails.put_many((key, bytes(400)) for key in keys[:3])
        assert list(tails.get_many(keys)) == keys[1:3]  # 1200 bytes: the oldest went
        tails.get_many([keys[1]])  # keys[1] is now the freshest
        tails.put_many([(keys[3], bytes(400))])
        assert list(tails.get_many(keys)) == [keys[1], keys[3]]

    def test_delete_blob_drops_its_tail_pages(self):
        bs = make_blobseer()
        kept, deleted = bs.create_blob(), bs.create_blob()
        bs.append(kept, b"k" * 10)
        bs.append(deleted, b"d" * 10)
        tails = [PageKey(kept, 1, 0), PageKey(deleted, 1, 0)]
        assert len(bs._tail_pages.get_many(tails)) == 2
        bs.delete_blob(deleted)
        assert bs._tail_pages.get_many(tails) == {tails[0]: b"k" * 10}


class TestScrubAndHealProbes:
    def test_scrub_asks_each_replica_has_page_only(self):
        bs = make_blobseer(replication=2)
        blob = bs.create_blob()
        bs.append(blob, payload(8 * PAGE))
        providers = reset(bs)
        assert bs.scrub(blob).is_healthy
        assert total(providers, "available") == 0
        assert total(providers, "has_page") == 16

    def test_heal_all_probes_each_provider_once_per_call(self):
        bs = make_blobseer(providers=4, replication=2)
        blob = bs.create_blob()
        data = payload(8 * PAGE)
        bs.append(blob, data)
        bs.provider_manager.get(0).fail()
        providers = reset(bs)
        bs.repair(blob)
        assert total(providers, "available") == 0
        assert [provider.calls["stats"] for provider in providers] == [1] * 4
        assert bs.scrub(blob).is_healthy
        assert bs.read_all(blob) == data


class TestFailover:
    def test_replicated_block_survives_a_failed_provider(self):
        bs = make_blobseer(replication=2)
        blob = bs.create_blob()
        data = payload(16 * PAGE)
        bs.append(blob, data)
        bs.provider_manager.get(1).fail()
        assert bs.read(blob, 0, len(data)) == data

    def test_key_missing_on_first_replica_is_served_by_second(self):
        manager = ProviderManager([CountingDataProvider(i) for i in range(3)])
        keys = [PageKey(1, 1, i) for i in range(4)]
        write_pages(manager, [(key, b"page-%d" % key.index, (0, 1)) for key in keys])
        manager.get(0).remove_pages([keys[2]])
        descriptors = [PageDescriptor(key, (0, 1), size=6) for key in keys]
        found = read_pages(manager, descriptors, policy="first")
        assert found == [b"page-0", b"page-1", b"page-2", b"page-3"]
        # Only the missing key went to the second replica.
        assert manager.get(1).stats().pages_read == 1

    def test_every_replica_gone_raises_page_not_found(self):
        manager = ProviderManager([DataProvider(i) for i in range(3)])
        key = PageKey(1, 1, 0)
        write_pages(manager, [(key, b"x", (0, 1))])
        manager.get(0).fail()
        manager.get(1).remove_pages([key])
        with pytest.raises(PageNotFoundError):
            read_pages(manager, [PageDescriptor(key, (0, 1), size=1)])

    def test_write_with_every_target_failed_raises_and_aborts(self):
        bs = make_blobseer()
        blob = bs.create_blob()

        def refuse(_items):
            raise ProviderUnavailableError("connection lost mid-write")

        # Allocation still sees live providers; every push then fails.
        for provider in bs.provider_manager.providers:
            provider.put_pages = refuse
        with pytest.raises(ProviderUnavailableError):
            bs.append(blob, payload(4 * PAGE))
        # The ticket was aborted, not left pending: the version is settled
        # (as a hole) and the next writer is not blocked behind it.
        assert bs.latest_version(blob) == 1
        for provider in bs.provider_manager.providers:
            del provider.put_pages
        assert bs.append(blob, b"after") == 2
        assert bs.read(blob, 4 * PAGE, 5) == b"after"

    def test_page_whose_every_target_failed_lands_on_a_spare(self):
        manager = ProviderManager([DataProvider(i) for i in range(3)])
        manager.get(0).fail()
        key_a, key_b = PageKey(1, 1, 0), PageKey(1, 1, 1)
        stored = write_pages(manager, [(key_a, b"a", (0,)), (key_b, b"b", (2,))])
        assert stored[1] == (2,)
        (spare,) = stored[0]
        assert spare in (1, 2)
        assert manager.get(spare).get_page(key_a) == b"a"

    def test_replica_failing_mid_append_is_left_out_of_the_descriptor(self):
        bs = make_blobseer(providers=2, replication=2)
        blob = bs.create_blob()
        data = payload(PAGE + 500)
        bs.append(blob, data)  # warms the load view with both providers
        bs.provider_manager.get(1).fail()
        # Its boundary page is pushed beside the store of the predicted
        # descriptors, which name both providers: the store is redone.
        bs.append(blob, b"tail")
        info = bs.version_manager.version_info(blob)
        for manager in (bs.metadata_manager, MetadataManager(bs.dht)):
            assert manager.lookup(info.root, 1, 2)[1].providers == (0,)
        assert bs.read_all(blob) == data + b"tail"

    def test_partial_write_keeps_allocation_order_of_survivors(self):
        manager = ProviderManager([DataProvider(i) for i in range(4)])
        manager.get(2).fail()
        key_a, key_b = PageKey(1, 1, 0), PageKey(1, 1, 1)
        stored = write_pages(manager, [(key_a, b"a", (3, 2, 0)), (key_b, b"b", (1, 3))])
        assert stored == [(3, 0), (1, 3)]

    def test_bulk_calls_are_bounded_by_bulk_call_bytes(self, monkeypatch):
        monkeypatch.setattr(replication, "BULK_CALL_BYTES", 4 * PAGE)
        manager = ProviderManager([CountingDataProvider(0)])
        keys = [PageKey(1, 1, i) for i in range(10)]
        write_pages(manager, [(key, bytes(PAGE), (0,)) for key in keys])
        provider = manager.get(0)
        assert provider.calls["put_pages"] == 3  # 4 + 4 + 2 pages
        descriptors = [PageDescriptor(key, (0,), size=PAGE) for key in keys]
        assert read_pages(manager, descriptors) == [bytes(PAGE)] * 10
        assert provider.calls["get_pages"] == 3


class TestBulkDelete:
    def test_gc_sweep_is_one_remove_pages_call_per_provider(self):
        bs = make_blobseer(max_versions_kept=1)
        blob = bs.create_blob()
        bs.write(blob, 0, payload(12 * PAGE))
        bs.write(blob, 0, payload(12 * PAGE)[::-1])
        providers = reset(bs)
        report = bs.gc.collect(blob)
        assert report.pages_reclaimed == 12
        assert report.bytes_reclaimed == 12 * PAGE
        assert [provider.calls["remove_pages"] for provider in providers] == [1, 1, 1]
        for name in ("has_page", "get_page", "get_pages"):
            assert total(providers, name) == 0

    def test_gc_sweep_skips_an_unreachable_provider(self):
        bs = make_blobseer(max_versions_kept=1)
        blob = bs.create_blob()
        bs.write(blob, 0, payload(12 * PAGE))
        bs.write(blob, 0, payload(12 * PAGE)[::-1])
        bs.provider_manager.get(0).fail()
        report = bs.gc.collect(blob)
        assert report.errors == 0
        assert 0 < report.pages_reclaimed < 12

    def test_delete_blob_is_one_remove_pages_call_per_provider(self):
        bs = make_blobseer()
        blob = bs.create_blob()
        bs.append(blob, payload(9 * PAGE))
        bs.append(blob, payload(3 * PAGE))
        providers = reset(bs)
        bs.delete_blob(blob)
        assert [provider.calls["remove_pages"] for provider in providers] == [1, 1, 1]
        assert total(providers, "has_page") == 0
        assert bs.stats()["pages_stored"] == 0

    def test_page_removal_resets_the_load_view(self):
        bs = make_blobseer(max_versions_kept=1)
        blob = bs.create_blob()
        bs.write(blob, 0, payload(12 * PAGE))
        bs.write(blob, 0, payload(12 * PAGE)[::-1])
        for drop in (lambda: bs.gc.collect(blob), lambda: bs.delete_blob(blob)):
            drop()
            blob = bs.create_blob()
            providers = reset(bs)
            bs.append(blob, payload(3 * PAGE))
            # The freed space is probed once, then the view serves again.
            assert [provider.calls["stats"] for provider in providers] == [1, 1, 1]
            bs.append(blob, payload(3 * PAGE))
            assert [provider.calls["stats"] for provider in providers] == [1, 1, 1]
