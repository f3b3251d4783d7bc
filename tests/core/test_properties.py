"""Property-based tests (Hypothesis) for the BlobSeer core invariants.

The central property: a BlobSeer blob, whatever sequence of aligned writes
and appends it receives, must read back exactly like a plain in-memory
bytearray receiving the same operations — for the latest version and for
every intermediate snapshot.  That includes pages made of many extents
(runs of short appends, compacted past ``MAX_PAGE_EXTENTS``) and pages
written concurrently by several appenders.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BlobSeer, BlobSeerConfig
from repro.core.client import MAX_PAGE_EXTENTS
from repro.core.dht import ConsistentHashRing
from repro.core.metadata import next_power_of_two
from repro.core.pages import page_range_for_bytes, split_into_pages

PAGE = 256  # tiny pages so generated blobs span many of them

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def make_service() -> BlobSeer:
    return BlobSeer(
        BlobSeerConfig(
            page_size=PAGE,
            num_providers=4,
            num_metadata_providers=2,
            replication=1,
        )
    )


def apply_write(
    service: BlobSeer, blob: int, model: bytearray, page_index: int, payload: bytes
) -> int:
    """An aligned write, applied to the blob and to its model."""
    offset = page_index * PAGE
    version = service.write(blob, offset, payload)
    if offset + len(payload) > len(model):
        model.extend(b"\x00" * (offset + len(payload) - len(model)))
    model[offset : offset + len(payload)] = payload
    return version


# An operation is either an append of N bytes or an aligned write at page P.
operation_strategy = st.one_of(
    st.tuples(
        st.just("append"),
        st.integers(min_value=1, max_value=3 * PAGE),
        st.binary(min_size=1, max_size=1),
    ),
    st.tuples(
        st.just("write"),
        st.integers(min_value=0, max_value=12),  # page index
        st.integers(min_value=1, max_value=3 * PAGE),
    ),
)


class TestBlobMatchesReferenceModel:
    @SETTINGS
    @given(ops=st.lists(operation_strategy, min_size=1, max_size=12))
    def test_blob_equals_flat_bytearray_model(self, ops):
        service = make_service()
        blob = service.create_blob()
        model = bytearray()
        snapshots: dict[int, bytes] = {}
        fill = 0
        for op in ops:
            fill = (fill + 1) % 251
            if op[0] == "append":
                _, length, seed_byte = op
                payload = bytes([(seed_byte[0] + fill) % 256]) * length
                version = service.append(blob, payload)
                model.extend(payload)
            else:
                _, page_index, length = op
                version = apply_write(service, blob, model, page_index, bytes([fill]) * length)
            snapshots[version] = bytes(model)

        # Latest version equals the model.
        assert service.get_size(blob) == len(model)
        assert service.read_all(blob) == bytes(model)
        # Every intermediate snapshot is still readable and unchanged.
        for version, expected in snapshots.items():
            assert service.get_size(blob, version) == len(expected)
            assert service.read_all(blob, version=version) == expected

    @SETTINGS
    @given(
        ops=st.lists(operation_strategy, min_size=1, max_size=8),
        offset=st.integers(min_value=0, max_value=6 * PAGE),
        size=st.integers(min_value=0, max_value=4 * PAGE),
    )
    def test_arbitrary_range_reads_match_model(self, ops, offset, size):
        service = make_service()
        blob = service.create_blob()
        model = bytearray()
        for op in ops:
            if op[0] == "append":
                _, length, seed_byte = op
                payload = seed_byte * length
                service.append(blob, payload)
                model.extend(payload)
            else:
                _, page_index, length = op
                apply_write(service, blob, model, page_index, b"w" * length)
        clamped_offset = min(offset, len(model))
        clamped_size = min(size, len(model) - clamped_offset)
        expected = bytes(model[clamped_offset : clamped_offset + clamped_size])
        assert service.read(blob, clamped_offset, clamped_size) == expected


# Runs of short appends put many extents into one page (enough to pass
# MAX_PAGE_EXTENTS unless every append fills an aligned eighth of a page);
# aligned writes over them end mid-page, so their tails overlay extents.
fragment_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("appends"),
            st.lists(
                st.integers(min_value=1, max_value=PAGE // 8),
                min_size=2 * MAX_PAGE_EXTENTS + 1,
                max_size=3 * MAX_PAGE_EXTENTS,
            ),
        ),
        st.tuples(
            st.just("write"),
            st.integers(min_value=0, max_value=4),  # page index
            st.integers(min_value=1, max_value=2 * PAGE),
        ),
    ),
    min_size=1,
    max_size=5,
)


class TestFragmentedPagesMatchModel:
    @SETTINGS
    @given(ops=fragment_strategy)
    def test_every_snapshot_equals_the_model(self, ops):
        with make_service() as service:
            blob = service.create_blob()
            model = bytearray()
            snapshots: dict[int, bytes] = {}
            fill = 0
            for op in ops:
                sizes = op[1] if op[0] == "appends" else [op[2]]
                for size in sizes:
                    fill = fill % 255 + 1
                    payload = bytes([fill]) * size
                    if op[0] == "appends":
                        version = service.append(blob, payload)
                        model.extend(payload)
                    else:
                        version = apply_write(service, blob, model, op[1], payload)
                    snapshots[version] = bytes(model)
            for version, expected in snapshots.items():
                assert service.read_all(blob, version=version) == expected
            info = service.version_manager.version_info(blob)
            leaves = service.metadata_manager.lookup(info.root, 0, -(-info.size // PAGE))
            assert max(map(len, leaves.values())) <= MAX_PAGE_EXTENTS

    def test_concurrent_short_appends_read_back_in_version_order(self):
        with make_service() as service:
            blob = service.create_blob()
            records: dict[int, bytes] = {}

            def appender(thread: int) -> None:
                for i in range(50):
                    record = f"<{thread}:{i}>".encode() * (1 + (7 * i + thread) % 5)
                    records[service.append(blob, record)] = record

            # More appenders than cores, switching threads often.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with ThreadPoolExecutor(4) as pool:
                    for future in [pool.submit(appender, thread) for thread in range(4)]:
                        future.result(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert sorted(records) == list(range(1, 201))
            expected = b""
            for version in range(1, 201):
                expected += records[version]
                assert service.read_all(blob, version=version) == expected


class TestPageMathProperties:
    @SETTINGS
    @given(
        data=st.binary(min_size=0, max_size=4096),
        page_size=st.integers(min_value=1, max_value=512),
    )
    def test_split_into_pages_partitions_data(self, data, page_size):
        pages = split_into_pages(data, page_size)
        assert b"".join(pages) == data
        assert all(len(p) <= page_size for p in pages)
        if data:
            assert all(len(p) == page_size for p in pages[:-1])

    @SETTINGS
    @given(
        offset=st.integers(min_value=0, max_value=10**6),
        size=st.integers(min_value=0, max_value=10**6),
        page_size=st.integers(min_value=1, max_value=10**4),
    )
    def test_page_range_covers_byte_range(self, offset, size, page_size):
        rng = page_range_for_bytes(offset, size, page_size)
        if size == 0:
            assert len(rng) == 0
        else:
            assert rng.first * page_size <= offset
            assert rng.last * page_size >= offset + size
            # Minimal cover: shrinking either end would lose bytes.
            assert (rng.first + 1) * page_size > offset
            assert (rng.last - 1) * page_size < offset + size

    @SETTINGS
    @given(value=st.integers(min_value=0, max_value=2**40))
    def test_next_power_of_two_bounds(self, value):
        result = next_power_of_two(value)
        assert result >= max(value, 1)
        assert result & (result - 1) == 0
        if value > 1:
            assert result < 2 * value


class TestConsistentHashingProperties:
    @SETTINGS
    @given(
        members=st.sets(st.integers(min_value=0, max_value=100), min_size=2, max_size=10),
        keys=st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=30),
        removed_index=st.integers(min_value=0, max_value=9),
    )
    def test_removal_only_remaps_removed_members_keys(self, members, keys, removed_index):
        ring = ConsistentHashRing(virtual_nodes=16)
        member_list = sorted(members)
        for member in member_list:
            ring.add_member(member)
        before = {key: ring.owner(key) for key in keys}
        removed = member_list[removed_index % len(member_list)]
        ring.remove_member(removed)
        for key, owner in before.items():
            new_owner = ring.owner(key)
            if owner != removed:
                assert new_owner == owner
            else:
                assert new_owner != removed
