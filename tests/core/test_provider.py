"""Unit tests for data providers (`repro.core.provider`)."""

from __future__ import annotations

import pytest

from repro.core.errors import ProviderUnavailableError
from repro.core.pages import PageKey
from repro.core.persistence import LogStructuredStore
from repro.core.provider import DataProvider, total_bytes_stored


@pytest.fixture
def provider() -> DataProvider:
    return DataProvider(3)


class TestDataProviderBasics:
    def test_default_host_and_rack(self, provider):
        assert provider.host == "provider-3"
        assert provider.rack.startswith("rack-")

    def test_put_get_round_trip(self, provider):
        key = PageKey(1, 1, 0)
        provider.put_page(key, b"payload")
        assert provider.get_page(key) == b"payload"
        assert provider.has_page(key)

    def test_missing_page_raises(self, provider):
        with pytest.raises(KeyError):
            provider.get_page(PageKey(9, 9, 9))

    def test_remove_page_updates_counters(self, provider):
        key = PageKey(1, 1, 0)
        provider.put_page(key, b"12345")
        assert provider.remove_pages([key]) == [5]
        stats = provider.stats()
        assert stats.pages_stored == 0
        assert stats.bytes_stored == 0
        assert not provider.has_page(key)

    def test_overwrite_does_not_double_count(self, provider):
        key = PageKey(1, 1, 0)
        provider.put_page(key, b"aaaa")
        provider.put_page(key, b"bb")
        stats = provider.stats()
        assert stats.pages_stored == 1
        assert stats.bytes_stored == 2
        assert stats.pages_written == 2

    def test_page_keys_and_blob_filter(self, provider):
        provider.put_page(PageKey(1, 1, 0), b"a")
        provider.put_page(PageKey(1, 1, 1), b"b")
        provider.put_page(PageKey(2, 1, 0), b"c")
        assert len(provider.page_keys()) == 3
        assert sorted(k.index for k in provider.pages_for_blob(1)) == [0, 1]


class TestDataProviderStats:
    def test_read_write_counters(self, provider):
        key = PageKey(1, 1, 0)
        provider.put_page(key, b"x" * 10)
        provider.get_page(key)
        provider.get_page(key)
        stats = provider.stats()
        assert stats.pages_read == 2
        assert stats.bytes_read == 20
        assert stats.bytes_written == 10

    def test_load_score_ordering(self):
        light = DataProvider(1)
        heavy = DataProvider(2)
        for i in range(5):
            heavy.put_page(PageKey(1, 1, i), b"x")
        assert light.stats().load_score < heavy.stats().load_score

    def test_total_bytes_stored_helper(self):
        providers = [DataProvider(i) for i in range(3)]
        providers[0].put_page(PageKey(1, 1, 0), b"12345")
        providers[2].put_page(PageKey(1, 1, 1), b"123")
        assert total_bytes_stored(providers) == 8


class TestDataProviderFailure:
    def test_failed_provider_rejects_requests(self, provider):
        key = PageKey(1, 1, 0)
        provider.put_page(key, b"x")
        provider.fail()
        assert not provider.available
        with pytest.raises(ProviderUnavailableError):
            provider.put_page(PageKey(1, 1, 1), b"y")
        with pytest.raises(ProviderUnavailableError):
            provider.get_page(key)
        assert not provider.has_page(key)

    def test_recover_restores_service_and_data(self, provider):
        key = PageKey(1, 1, 0)
        provider.put_page(key, b"x")
        provider.fail()
        provider.recover()
        assert provider.available
        assert provider.get_page(key) == b"x"

    def test_stats_reflect_availability(self, provider):
        provider.fail()
        assert provider.stats().available is False


class TestDataProviderPersistence:
    def test_provider_with_log_store(self, tmp_path):
        store = LogStructuredStore(tmp_path / "p.log")
        provider = DataProvider(0, store=store)
        key = PageKey(5, 2, 7)
        provider.put_page(key, b"durable")
        provider.sync()
        provider.close()

        reopened = DataProvider(0, store=LogStructuredStore(tmp_path / "p.log"))
        assert reopened.get_page(key) == b"durable"
        reopened.close()
