"""Regression tests: the shared block cache is keyed by (blob, version, block).

The original per-stream :class:`BlockReadCache` keyed blocks by index alone,
which was safe only because every stream owned a private cache.  Sharing one
store across streams (so readers of the same snapshot share fetches) makes
the version component load-bearing: without it, a pinned-snapshot reader
could be served newer bytes deposited by a latest-version reader of the same
file.  These tests pin that property down.
"""

from __future__ import annotations

import threading

from repro.bsfs import BSFS
from repro.bsfs.cache import VersionedBlockCache
from repro.core import KB, BlobSeerConfig

from ..conftest import TEST_BLOCK_SIZE as BLOCK
from ..conftest import TEST_PAGE_SIZE as PAGE


class TestVersionKeyedSharing:
    def test_pinned_reader_never_served_latest_readers_bytes(self, bsfs: BSFS):
        bsfs.write_file("/data.bin", b"A" * BLOCK)
        pin = bsfs.pin("/data.bin")

        # A latest-version reader warms the shared store for version 1.
        with bsfs.open("/data.bin") as latest_v1:
            assert latest_v1.read() == b"A" * BLOCK

        # The file moves on: page 0 changes under a newer version.
        blob = bsfs.namespace.record("/data.bin").blob_id
        bsfs.blobseer.write(blob, 0, b"B" * PAGE)

        # A new latest reader caches version-2 blocks in the *same* store...
        with bsfs.open("/data.bin", version=2) as latest_v2:
            assert latest_v2.read() == b"B" * PAGE + b"A" * (BLOCK - PAGE)

        # ...and the pinned reader still gets its exact snapshot bytes.
        with bsfs.open("/data.bin", version=pin.version) as pinned:
            assert pinned.read() == b"A" * BLOCK
        pin.release()

        # Both versions' blocks coexist under distinct keys.
        versions_cached = {key[1] for key in bsfs.block_store.keys()}
        assert {1, 2} <= versions_cached

    def test_streams_of_the_same_snapshot_share_fetches(self, bsfs: BSFS):
        bsfs.write_file("/shared.bin", b"s" * (3 * BLOCK))
        with bsfs.open("/shared.bin") as first:
            first.read()
        # The second stream reads entirely from the first stream's blocks:
        # no miss, no new fetch against the blob.
        with bsfs.open("/shared.bin") as second:
            assert second.read() == b"s" * (3 * BLOCK)
            assert second.cache.stats.misses == 0
            assert second.cache.stats.hits > 0
            assert second.cache.stats.prefetched_blocks == 0

    def test_open_stream_keeps_its_snapshot_while_writers_publish(
        self, bsfs: BSFS
    ):
        bsfs.write_file("/log.bin", b"A" * BLOCK)
        stream = bsfs.open("/log.bin")
        assert stream.pread(0, PAGE) == b"A" * PAGE
        blob = bsfs.namespace.record("/log.bin").blob_id
        bsfs.blobseer.write(blob, 0, b"B" * PAGE)
        # The stream captured version 1 at open time; later reads through
        # the shared store must keep resolving version-1 keys.
        assert stream.pread(0, BLOCK) == b"A" * BLOCK
        stream.close()

    def test_delete_drops_the_blobs_cached_blocks(self, bsfs: BSFS):
        bsfs.write_file("/gone.bin", b"g" * (2 * BLOCK))
        blob = bsfs.namespace.record("/gone.bin").blob_id
        with bsfs.open("/gone.bin") as stream:
            stream.read()
        assert any(key[0] == blob for key in bsfs.block_store.keys())
        bsfs.delete("/gone.bin")
        assert not any(key[0] == blob for key in bsfs.block_store.keys())


class TestStoreConfiguration:
    def test_shared_store_capacity_override(self):
        fs = BSFS(
            config=BlobSeerConfig(
                page_size=4 * KB,
                num_providers=4,
                num_metadata_providers=2,
                replication=1,
            ),
            default_block_size=16 * KB,
            shared_cache_blocks=2,
        )
        assert fs.block_store.capacity_blocks == 2

    def test_default_capacity_scales_with_per_stream_budget(self, bsfs: BSFS):
        assert bsfs.block_store.capacity_blocks >= 32

    def test_lru_eviction_is_bounded(self):
        store = VersionedBlockCache(capacity_blocks=2)
        store.put((1, 1, 0), b"a")
        store.put((1, 1, 1), b"b")
        store.put((1, 2, 0), b"c")
        assert len(store) == 2
        assert store.evictions == 1
        assert store.get((1, 1, 0)) is None  # oldest evicted
        assert store.get((1, 2, 0)) == b"c"


class TestSingleFlightLoad:
    KEY = (1, 1, 0)

    def test_asker_during_a_fetch_takes_its_bytes(self):
        store = VersionedBlockCache()
        started, release = threading.Event(), threading.Event()
        fetches = []

        def slow_fetch() -> bytes:
            fetches.append("leader")
            started.set()
            assert release.wait(5)
            return b"block"

        results = []
        leader = threading.Thread(target=lambda: results.append(store.load(self.KEY, slow_fetch)))
        leader.start()
        assert started.wait(5)
        # Read-ahead does not wait for a fetch that is already executing...
        assert store.load(self.KEY, lambda: fetches.append("prefetch"), wait=False) == (None, False)
        # ...a demand read does, and fetches nothing itself.
        waiter = threading.Thread(
            target=lambda: results.append(store.load(self.KEY, lambda: fetches.append("waiter")))
        )
        waiter.start()
        waiter.join(0.05)
        assert waiter.is_alive()
        release.set()
        leader.join(5)
        waiter.join(5)
        assert not leader.is_alive() and not waiter.is_alive()
        assert sorted(results) == [(b"block", False), (b"block", True)]
        assert fetches == ["leader"]
        # Afterwards the block is simply cached.
        assert store.load(self.KEY, lambda: fetches.append("late")) == (b"block", False)
        assert fetches == ["leader"]

    def test_failed_fetch_wakes_waiters_which_fetch_themselves(self):
        store = VersionedBlockCache()
        started, release = threading.Event(), threading.Event()

        def failing_fetch() -> bytes:
            started.set()
            assert release.wait(5)
            raise OSError("provider gone")

        outcomes = []

        def lead() -> None:
            try:
                store.load(self.KEY, failing_fetch)
            except OSError as exc:
                outcomes.append(str(exc))

        leader = threading.Thread(target=lead)
        leader.start()
        assert started.wait(5)
        waiter = threading.Thread(
            target=lambda: outcomes.append(store.load(self.KEY, lambda: b"retry"))
        )
        waiter.start()
        release.set()
        leader.join(5)
        waiter.join(5)
        assert not leader.is_alive() and not waiter.is_alive()
        assert sorted(outcomes, key=str) == [(b"retry", True), "provider gone"]
        assert store.get(self.KEY) == b"retry"

    def test_empty_block_is_a_block(self):
        store = VersionedBlockCache()
        assert store.load(self.KEY, lambda: b"") == (b"", True)
        assert store.load(self.KEY, lambda: b"again") == (b"", False)
