"""Unit tests for the versioned segment-tree metadata."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BlobSeer, BlobSeerConfig
from repro.core.dht import MetadataDHT, MetadataProvider
from repro.core.errors import MetadataCorruptionError
from repro.core.metadata import MetadataManager, NodeKey, next_power_of_two
from repro.core.pages import PageDescriptor, PageKey

from .test_dht import CountingProvider


@pytest.fixture
def manager() -> MetadataManager:
    dht = MetadataDHT([MetadataProvider(i) for i in range(3)], virtual_nodes=16)
    return MetadataManager(dht)


def descriptors_for(blob_id: int, version: int, indices, size: int = 100):
    return {
        index: PageDescriptor(
            key=PageKey(blob_id, version, index), providers=(index % 3,), size=size
        )
        for index in indices
    }


class TestNextPowerOfTwo:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [(0, 1), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (1000, 1024), (1024, 1024)],
    )
    def test_values(self, value, expected):
        assert next_power_of_two(value) == expected


class TestNodeKey:
    def test_dht_key_format_and_span(self):
        key = NodeKey(blob_id=2, version=5, lo=4, hi=8)
        assert key.dht_key() == "meta:2:5:4:8"
        assert key.span == 4
        assert not key.is_leaf_key
        assert NodeKey(1, 1, 3, 4).is_leaf_key


class TestBuildAndLookup:
    def test_first_version_lookup_returns_all_pages(self, manager):
        written = descriptors_for(1, 1, range(5))
        root = manager.build_version(1, 1, written, 5, base_root=None, base_capacity=1)
        found = manager.lookup(root, 0, 5)
        assert found == written

    def test_partial_range_lookup(self, manager):
        written = descriptors_for(1, 1, range(10))
        root = manager.build_version(1, 1, written, 10, base_root=None, base_capacity=1)
        found = manager.lookup(root, 3, 7)
        assert sorted(found.keys()) == [3, 4, 5, 6]

    def test_empty_blob_returns_none_root(self, manager):
        assert manager.build_version(1, 1, {}, 0, base_root=None, base_capacity=1) is None
        assert manager.lookup(None, 0, 10) == {}

    def test_overwrite_shares_untouched_pages(self, manager):
        v1 = descriptors_for(1, 1, range(8))
        root1 = manager.build_version(1, 1, v1, 8, base_root=None, base_capacity=1)
        v2 = descriptors_for(1, 2, [2, 3])
        root2 = manager.build_version(1, 2, v2, 8, base_root=root1, base_capacity=8)
        found = manager.lookup(root2, 0, 8)
        # Touched pages come from version 2, untouched ones from version 1.
        assert found[2].key.version == 2
        assert found[3].key.version == 2
        for index in (0, 1, 4, 5, 6, 7):
            assert found[index].key.version == 1
        # The old version is still fully readable.
        old = manager.lookup(root1, 0, 8)
        assert all(d.key.version == 1 for d in old.values())

    def test_append_grows_capacity_and_shares_prefix(self, manager):
        v1 = descriptors_for(1, 1, range(4))
        root1 = manager.build_version(1, 1, v1, 4, base_root=None, base_capacity=1)
        v2 = descriptors_for(1, 2, range(4, 10))
        root2 = manager.build_version(1, 2, v2, 10, base_root=root1, base_capacity=4)
        found = manager.lookup(root2, 0, 10)
        assert sorted(found.keys()) == list(range(10))
        assert all(found[i].key.version == 1 for i in range(4))
        assert all(found[i].key.version == 2 for i in range(4, 10))

    def test_sparse_write_creates_holes(self, manager):
        written = descriptors_for(1, 1, [5, 6])
        root = manager.build_version(1, 1, written, 7, base_root=None, base_capacity=1)
        found = manager.lookup(root, 0, 7)
        assert sorted(found.keys()) == [5, 6]

    def test_structural_sharing_limits_new_nodes(self, manager):
        v1 = descriptors_for(1, 1, range(64))
        root1 = manager.build_version(1, 1, v1, 64, base_root=None, base_capacity=1)
        nodes_v1 = manager.nodes_created_by(1, 1)
        v2 = descriptors_for(1, 2, [10])
        manager.build_version(1, 2, v2, 64, base_root=root1, base_capacity=64)
        nodes_v2 = manager.nodes_created_by(1, 2)
        # A single-page write creates only a root-to-leaf path, not a full tree.
        assert nodes_v2 <= next_power_of_two(64).bit_length() + 1
        assert nodes_v2 < nodes_v1

    def test_count_nodes_counts_shared_once(self, manager):
        v1 = descriptors_for(1, 1, range(16))
        root1 = manager.build_version(1, 1, v1, 16, base_root=None, base_capacity=1)
        count1 = manager.count_nodes(root1)
        v2 = descriptors_for(1, 2, [0])
        root2 = manager.build_version(1, 2, v2, 16, base_root=root1, base_capacity=16)
        count2 = manager.count_nodes(root2)
        assert count2 == count1  # same shape: one leaf replaced, same node count

    def test_lookup_invalid_range_rejected(self, manager):
        with pytest.raises(ValueError):
            manager.lookup(None, -1, 3)
        with pytest.raises(ValueError):
            manager.lookup(None, 5, 3)

    def test_written_indices_outside_capacity_rejected(self, manager):
        written = descriptors_for(1, 1, [100])
        with pytest.raises(ValueError):
            manager.build_version(1, 1, written, 4, base_root=None, base_capacity=1)

    def test_fetch_missing_node_raises_corruption(self, manager):
        missing = NodeKey(9, 9, 0, 4)
        with pytest.raises(MetadataCorruptionError):
            manager.fetch(missing)

    def test_multi_version_chain_remains_consistent(self, manager):
        root = None
        capacity = 1
        pages = 0
        for version in range(1, 9):
            new_index = version - 1
            written = descriptors_for(1, version, [new_index])
            pages = max(pages, new_index + 1)
            new_root = manager.build_version(
                1, version, written, pages, base_root=root, base_capacity=capacity
            )
            root = new_root
            capacity = next_power_of_two(pages)
        found = manager.lookup(root, 0, pages)
        assert sorted(found.keys()) == list(range(8))
        # Page i was written by version i+1 and never rewritten.
        for index, descriptor in found.items():
            assert descriptor.key.version == index + 1


def counted_manager(providers: int = 1):
    """A manager over call-counting providers, plus those providers."""
    nodes = [CountingProvider(i) for i in range(providers)]
    return MetadataManager(MetadataDHT(nodes, virtual_nodes=16)), nodes


def cold(manager: MetadataManager) -> MetadataManager:
    """A second client of the same DHT: same nodes, empty cache."""
    return MetadataManager(manager._dht)


def reference_lookup(manager, key, first, last, out):
    """The recursive one-node-at-a-time walk ``lookup`` replaced."""
    if key is None or key.hi <= first or key.lo >= last:
        return out
    node = manager.fetch(key)
    if node.is_leaf:
        out[key.lo] = node.page
        return out
    reference_lookup(manager, node.left, first, last, out)
    reference_lookup(manager, node.right, first, last, out)
    return out


class TestRoundTrips:
    def test_cold_lookup_costs_a_round_trip_per_level_and_a_rewalk_none(self):
        writer, (provider,) = counted_manager()
        written = descriptors_for(1, 1, range(256))
        root = writer.build_version(1, 1, written, 256, base_root=None, base_capacity=1)
        reader = cold(writer)
        provider.calls.clear()
        found = reader.lookup(root, 32, 48)
        assert found == {index: written[index] for index in range(32, 48)}
        depth = (256).bit_length()  # 9 levels: spans 256, 128, ..., 1
        assert provider.calls == {"get_many": depth}
        assert reader.lookup(root, 32, 48) == found
        assert reader.lookup(root, 40, 44) == {i: written[i] for i in range(40, 44)}
        assert provider.calls == {"get_many": depth}
        # A neighbouring range shares the spine: only its own subtree is new.
        reader.lookup(root, 48, 64)
        assert provider.calls["get_many"] <= depth + 5

    def test_cold_lookup_calls_each_provider_at_most_once_per_level(self):
        writer, providers = counted_manager(3)
        written = descriptors_for(1, 1, range(64))
        root = writer.build_version(1, 1, written, 64, base_root=None, base_capacity=1)
        reader = cold(writer)
        for provider in providers:
            provider.calls.clear()
        assert reader.lookup(root, 0, 64) == written
        assert reader.count_nodes(root) == 127  # cached by now
        for provider in providers:
            assert provider.calls["get"] == 0
            assert provider.calls["get_many"] <= (64).bit_length()

    def test_build_stores_once_per_provider_and_reads_its_own_base_for_free(self):
        manager, providers = counted_manager(3)
        v1 = descriptors_for(1, 1, range(40))
        root1 = manager.build_version(1, 1, v1, 40, base_root=None, base_capacity=1)
        for provider in providers:
            assert provider.calls["put_many"] <= 1 and provider.calls["put"] == 0
            provider.calls.clear()
        # An appender whose predecessor was built by this manager shares the
        # base spine straight from the cache.
        v2 = descriptors_for(1, 2, range(40, 45))
        root2 = manager.build_version(1, 2, v2, 45, base_root=root1, base_capacity=64)
        for provider in providers:
            assert provider.calls["put_many"] <= 1
            assert provider.calls["get_many"] == provider.calls["get"] == 0
        assert manager.lookup(root2, 0, 45) == {**v1, **v2}

    def test_cold_appender_fetches_only_the_base_spine(self):
        writer, (provider,) = counted_manager()
        v1 = descriptors_for(1, 1, range(256))
        root1 = writer.build_version(1, 1, v1, 256, base_root=None, base_capacity=1)
        appender = cold(writer)
        provider.calls.clear()
        v2 = descriptors_for(1, 2, [255])
        root2 = appender.build_version(1, 2, v2, 256, base_root=root1, base_capacity=256)
        assert provider.calls["get_many"] <= (256).bit_length()
        assert provider.calls["put_many"] == 1
        assert cold(writer).lookup(root2, 250, 256) == {
            **{i: v1[i] for i in range(250, 255)}, 255: v2[255]
        }

    def test_empty_build_stores_nothing(self):
        manager, (provider,) = counted_manager()
        assert manager.build_version(1, 1, {}, 0, base_root=None, base_capacity=1) is None
        assert not provider.calls


class TestNodeCache:
    def test_cache_is_bounded_and_lookups_stay_correct_beyond_it(self, monkeypatch):
        import repro.core.metadata as metadata

        monkeypatch.setattr(metadata, "NODE_CACHE_CAPACITY", 8)
        manager, (provider,) = counted_manager()
        written = descriptors_for(1, 1, range(32))
        root = manager.build_version(1, 1, written, 32, base_root=None, base_capacity=1)
        assert len(manager._cache) == 8
        for _ in range(2):
            assert manager.lookup(root, 0, 32) == written
            assert len(manager._cache) == 8
        assert provider.calls["get_many"] > 0  # evicted nodes were fetched again

    def test_the_bound_holds_the_benchmark_file_many_times_over(self):
        from repro.core.metadata import NODE_CACHE_CAPACITY

        assert NODE_CACHE_CAPACITY >= 16 * 511

    def test_forget_blob_drops_only_that_blob(self):
        manager, _ = counted_manager()
        for blob in (1, 2):
            manager.build_version(
                blob, 1, descriptors_for(blob, 1, range(4)), 4, base_root=None, base_capacity=1
            )
        assert len(manager._cache) == 14
        manager.forget_blob(1)
        assert len(manager._cache) == 7

    def test_bulk_walk_reports_dangling_and_foreign_entries(self):
        writer, _ = counted_manager()
        written = descriptors_for(1, 1, range(8))
        root = writer.build_version(1, 1, written, 8, base_root=None, base_capacity=1)
        leaf = NodeKey(1, 1, 5, 6).dht_key()
        writer._dht.put(leaf, "not a node")
        with pytest.raises(MetadataCorruptionError, match="not a TreeNode"):
            cold(writer).lookup(root, 0, 8)
        writer._dht.delete(leaf)
        with pytest.raises(MetadataCorruptionError, match="missing"):
            cold(writer).lookup(root, 0, 8)
        with pytest.raises(MetadataCorruptionError, match="missing"):
            cold(writer).count_nodes(root)
        # Ranges that avoid the broken leaf are unaffected.
        assert cold(writer).lookup(root, 0, 5) == {i: written[i] for i in range(5)}


PAGE = 64

history_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 5 * PAGE)),
        st.tuples(st.just("write"), st.integers(0, 20), st.integers(1, 5 * PAGE)),
        st.tuples(
            st.just("append_batch"),
            st.lists(st.integers(1, 3 * PAGE), min_size=1, max_size=4),
        ),
    ),
    min_size=1,
    max_size=10,
)


class TestLookupMatchesReferenceWalk:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(history=history_strategy, data=st.data())
    def test_level_order_lookup_equals_recursive_walk(self, history, data):
        with BlobSeer(
            BlobSeerConfig(
                page_size=PAGE, num_providers=3, num_metadata_providers=2, rng_seed=5
            )
        ) as service:
            self.check_history(service, history, data)

    @staticmethod
    def check_history(service, history, data):
        blob = service.create_blob()
        published: list[tuple[int, NodeKey | None]] = []
        publish, publish_batch = (
            service.version_manager.publish,
            service.version_manager.publish_batch,
        )

        def visible(ticket, root):
            # Store-before-publish: when a root is about to become visible,
            # a client with an empty cache can already fetch its whole tree.
            cold(service.metadata_manager).count_nodes(root)
            published.append((ticket.version, root))

        def checked_publish(ticket, root):
            visible(ticket, root)
            return publish(ticket, root)

        def checked_publish_batch(publications):
            for ticket, root in publications:
                visible(ticket, root)
            return publish_batch(publications)

        service.version_manager.publish = checked_publish
        service.version_manager.publish_batch = checked_publish_batch

        for op in history:
            if op[0] == "append":
                service.append(blob, b"a" * op[1])
            elif op[0] == "write":
                service.write(blob, op[1] * PAGE, b"w" * op[2])
            else:
                service.append_batch(blob, [b"b" * size for size in op[1]])
        assert [v for v, _ in published] == service.versions(blob)[1:]

        warm, fresh = service.metadata_manager, cold(service.metadata_manager)
        for _ in range(6):
            version, root = data.draw(st.sampled_from(published))
            assert service.version_manager.version_info(blob, version).root == root
            pages = -(-service.get_size(blob, version) // PAGE)
            first = data.draw(st.integers(0, pages))
            last = data.draw(st.integers(first, pages + 2))
            expected = reference_lookup(warm, root, first, last, {})
            assert warm.lookup(root, first, last) == expected
            assert fresh.lookup(root, first, last) == expected
