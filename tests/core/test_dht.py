"""Unit tests for the metadata DHT and consistent-hash ring."""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

from repro.core.dht import MISSING, ConsistentHashRing, MetadataDHT, MetadataProvider
from repro.core.errors import NoProvidersError, ProviderUnavailableError


class TestMetadataProvider:
    def test_put_get_contains_delete(self):
        provider = MetadataProvider(0)
        provider.put("k", {"value": 1})
        assert provider.contains("k")
        assert provider.get("k") == {"value": 1}
        provider.delete("k")
        assert not provider.contains("k")
        with pytest.raises(KeyError):
            provider.get("k")

    def test_stats_counters(self):
        provider = MetadataProvider(0)
        provider.put("a", 1)
        provider.put("b", 2)
        provider.get("a")
        stats = provider.stats
        assert stats["puts"] == 2
        assert stats["gets"] == 1
        assert stats["entries"] == 2
        assert len(provider) == 2

    def test_failure_blocks_access(self):
        provider = MetadataProvider(0)
        provider.put("k", 1)
        provider.fail()
        with pytest.raises(ProviderUnavailableError):
            provider.get("k")
        provider.recover()
        assert provider.get("k") == 1


class TestConsistentHashRing:
    def test_owner_is_stable(self):
        ring = ConsistentHashRing(virtual_nodes=32)
        for member in range(4):
            ring.add_member(member)
        owners = {f"key-{i}": ring.owner(f"key-{i}") for i in range(100)}
        # Asking again gives the same answers.
        for key, owner in owners.items():
            assert ring.owner(key) == owner

    def test_keys_spread_over_members(self):
        ring = ConsistentHashRing(virtual_nodes=64)
        for member in range(4):
            ring.add_member(member)
        counts = {m: 0 for m in range(4)}
        for i in range(1000):
            counts[ring.owner(f"key-{i}")] += 1
        # Every member owns a meaningful share (no starvation).
        assert min(counts.values()) > 100

    def test_member_removal_only_remaps_its_keys(self):
        ring = ConsistentHashRing(virtual_nodes=64)
        for member in range(4):
            ring.add_member(member)
        before = {f"key-{i}": ring.owner(f"key-{i}") for i in range(500)}
        ring.remove_member(3)
        moved = 0
        for key, owner in before.items():
            new_owner = ring.owner(key)
            if owner == 3:
                assert new_owner != 3
            elif new_owner != owner:
                moved += 1
        assert moved == 0  # keys not owned by the removed member stay put

    def test_owners_returns_distinct_members(self):
        ring = ConsistentHashRing(virtual_nodes=16)
        for member in range(5):
            ring.add_member(member)
        owners = ring.owners("some-key", 3)
        assert len(owners) == 3
        assert len(set(owners)) == 3

    def test_owners_clamped_to_membership(self):
        ring = ConsistentHashRing(virtual_nodes=8)
        ring.add_member(1)
        ring.add_member(2)
        assert len(ring.owners("k", 5)) == 2

    def test_empty_ring_raises(self):
        ring = ConsistentHashRing()
        with pytest.raises(NoProvidersError):
            ring.owner("k")

    def test_duplicate_member_rejected(self):
        ring = ConsistentHashRing()
        ring.add_member(1)
        with pytest.raises(ValueError):
            ring.add_member(1)
        with pytest.raises(ValueError):
            ring.remove_member(2)

    def test_invalid_virtual_nodes(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(virtual_nodes=0)


class TestMetadataDHT:
    def make_dht(self, count: int = 4, replication: int = 1) -> MetadataDHT:
        return MetadataDHT(
            [MetadataProvider(i) for i in range(count)],
            virtual_nodes=32,
            replication=replication,
        )

    def test_put_get_round_trip(self):
        dht = self.make_dht()
        dht.put("meta:1:1:0:4", {"node": "data"})
        assert dht.get("meta:1:1:0:4") == {"node": "data"}
        assert dht.contains("meta:1:1:0:4")

    def test_missing_key_raises(self):
        dht = self.make_dht()
        with pytest.raises(KeyError):
            dht.get("missing")
        assert not dht.contains("missing")

    def test_distribution_spreads_keys(self):
        dht = self.make_dht(count=4)
        for i in range(400):
            dht.put(f"key-{i}", i)
        distribution = dht.distribution()
        assert sum(distribution.values()) == 400
        assert all(count > 0 for count in distribution.values())

    def test_delete(self):
        dht = self.make_dht()
        dht.put("k", 1)
        dht.delete("k")
        assert not dht.contains("k")

    def test_replicated_dht_survives_provider_failure(self):
        dht = self.make_dht(count=4, replication=2)
        for i in range(50):
            dht.put(f"key-{i}", i)
        # Fail one provider: every key still readable from its second replica.
        dht.providers[0].fail()
        for i in range(50):
            assert dht.get(f"key-{i}") == i

    def test_needs_at_least_one_provider(self):
        with pytest.raises(NoProvidersError):
            MetadataDHT([])

    def test_owner_of_matches_primary(self):
        dht = self.make_dht()
        owner = dht.owner_of("some-key")
        assert owner in {p.provider_id for p in dht.providers}

    def test_add_remove_provider(self):
        dht = self.make_dht(count=2)
        dht.add_provider(MetadataProvider(10))
        assert len(dht.providers) == 3
        removed = dht.remove_provider(10)
        assert removed.provider_id == 10
        with pytest.raises(ValueError):
            dht.add_provider(MetadataProvider(0))


class CountingProvider(MetadataProvider):
    """A provider that counts the calls (round trips) it serves, by method."""

    def __init__(self, provider_id: int) -> None:
        super().__init__(provider_id)
        self.calls: Counter[str] = Counter()

    def put(self, key, value):
        self.calls["put"] += 1
        return super().put(key, value)

    def get(self, key):
        self.calls["get"] += 1
        return super().get(key)

    def put_many(self, items):
        self.calls["put_many"] += 1
        return super().put_many(items)

    def get_many(self, keys):
        self.calls["get_many"] += 1
        return super().get_many(keys)


class TestProviderBulkOps:
    def test_get_many_keeps_order_and_marks_missing_keys(self):
        provider = MetadataProvider(0)
        provider.put_many([("a", 1), ("b", None), ("c", 3)])
        assert provider.get_many(["c", "absent", "b", "a"]) == [3, MISSING, None, 1]
        assert provider.get_many([]) == []

    def test_missing_survives_pickling_as_the_same_object(self):
        assert pickle.loads(pickle.dumps([MISSING, 1]))[0] is MISSING

    def test_stats_count_bulk_ops_per_key(self):
        provider = MetadataProvider(0)
        provider.put_many([("a", 1), ("b", 2), ("c", 3)])
        provider.get_many(["a", "b", "absent"])
        provider.get("a")
        assert provider.stats == {"puts": 3, "gets": 4, "entries": 3}

    def test_failed_provider_refuses_bulk_ops(self):
        provider = MetadataProvider(0)
        provider.fail()
        with pytest.raises(ProviderUnavailableError):
            provider.put_many([("a", 1)])
        with pytest.raises(ProviderUnavailableError):
            provider.get_many(["a"])


class TestDhtBulkOps:
    def make_dht(self, count: int = 4, replication: int = 1):
        providers = [CountingProvider(i) for i in range(count)]
        return providers, MetadataDHT(providers, virtual_nodes=32, replication=replication)

    def test_round_trip_keeps_order_with_one_call_per_provider(self):
        providers, dht = self.make_dht()
        items = [(f"key-{i}", i) for i in range(100)]
        dht.put_many(items)
        assert all(p.calls["put_many"] == 1 and p.calls["put"] == 0 for p in providers)
        keys = [key for key, _ in reversed(items)]
        assert dht.get_many(keys) == list(reversed(range(100)))
        assert all(p.calls["get_many"] == 1 and p.calls["get"] == 0 for p in providers)
        # Every pair landed where a single-key get looks for it.
        assert all(dht.get(key) == value for key, value in items)

    def test_empty_bulk_ops_call_nobody(self):
        providers, dht = self.make_dht()
        dht.put_many([])
        assert dht.get_many([]) == []
        assert all(not p.calls for p in providers)

    def test_missing_key_raises_keyerror_naming_it(self):
        _, dht = self.make_dht()
        dht.put_many([("a", 1), ("b", 2)])
        with pytest.raises(KeyError) as caught:
            dht.get_many(["a", "absent", "b"])
        assert caught.value.args == ("absent",)

    def test_get_many_fails_over_per_key(self):
        providers, dht = self.make_dht(count=4, replication=2)
        items = [(f"key-{i}", i) for i in range(60)]
        dht.put_many(items)
        # One replica is down, and another lost a key it should hold: both
        # kinds of straggler are served by their second replica.
        lost = next(
            key
            for key, _ in items
            if dht.owner_of(key) == 1 and not providers[0].contains(key)
        )
        providers[1].delete(lost)
        providers[0].fail()
        assert dht.get_many([key for key, _ in items]) == list(range(60))
        # Stragglers are regrouped: at most two calls per live provider.
        assert all(p.calls["get_many"] <= 2 for p in providers[1:])

    def test_get_many_with_all_replicas_down_raises_unavailable(self):
        providers, dht = self.make_dht(count=2, replication=2)
        dht.put_many([("a", 1)])
        for provider in providers:
            provider.fail()
        with pytest.raises(ProviderUnavailableError):
            dht.get_many(["a"])

    def test_put_many_needs_one_live_replica_per_key(self):
        providers, dht = self.make_dht(count=3, replication=2)
        items = [(f"key-{i}", i) for i in range(30)]
        providers[0].fail()
        dht.put_many(items)  # every key still has a live replica
        assert dht.get_many([key for key, _ in items]) == list(range(30))
        providers[1].fail()
        # Keys replicated on {0, 1} now have nowhere to go.
        with pytest.raises(ProviderUnavailableError):
            dht.put_many(items)

    def test_put_fails_over_like_put_many(self):
        providers, dht = self.make_dht(count=2, replication=2)
        providers[0].fail()
        dht.put("k", "v")
        assert dht.get("k") == "v"
        providers[1].fail()
        with pytest.raises(ProviderUnavailableError):
            dht.put("k", "v2")
