"""Version GC tests: mark/retire/sweep, pins, in-flight writers, RPC exposure.

The deployments are tiny (4 KB pages) so every scenario materialises real
pages on real providers — reclaimed bytes are measured from provider stats,
not mocked.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BlobNotFoundError,
    BlobPinnedError,
    BlobSeer,
    BlobSeerConfig,
    KB,
    VersionRetiredError,
)
from repro.core.provider import total_bytes_stored
from repro.net.service import ServiceRegistry
from repro.net.transport import LoopbackTransport
from repro.versions import (
    GcDaemon,
    PinRegistry,
    RetentionPolicy,
    VersionGC,
    connect_gc,
    expose_gc,
)

PAGE = 4 * KB


def make_client(**config_kwargs) -> BlobSeer:
    return BlobSeer(
        BlobSeerConfig(
            page_size=PAGE,
            num_providers=4,
            num_metadata_providers=2,
            replication=1,
            rng_seed=11,
            **config_kwargs,
        )
    )


def churn(client: BlobSeer, blob_id: int, versions: int) -> None:
    """Publish ``versions`` one-page overwrites of page 0 (pure churn)."""
    for i in range(versions):
        client.write(blob_id, 0, bytes([i % 251 + 1]) * PAGE)


def stored_bytes(client: BlobSeer) -> int:
    return total_bytes_stored(client.provider_manager.providers)


class TestCollect:
    def test_reclaims_dead_versions_and_their_pages(self):
        client = make_client(max_versions_kept=2)
        blob = client.create_blob()
        churn(client, blob, 6)
        before = stored_bytes(client)
        assert before == 6 * PAGE  # every overwrite kept its own page

        report = client.gc.collect(blob)
        assert report.versions_retired == 4  # versions 1..4 die, 5..6 stay
        assert report.pages_reclaimed == 4
        assert report.bytes_reclaimed == 4 * PAGE
        assert report.errors == 0
        assert stored_bytes(client) == 2 * PAGE
        assert client.versions(blob) == [0, 5, 6]

        # Retained snapshots still read their exact bytes.
        assert client.read_all(blob, version=5) == bytes([5]) * PAGE
        assert client.read_all(blob) == bytes([6]) * PAGE
        # Retired snapshots fail fast with the dedicated error.
        with pytest.raises(VersionRetiredError):
            client.read(blob, 0, PAGE, version=2)

    def test_structural_sharing_spares_shared_pages(self):
        client = make_client(max_versions_kept=1)
        blob = client.create_blob()
        # v1..v3 append distinct pages; v4 overwrites page 0 only.  Pages
        # of v1..v3 are shared into v4's tree by structural sharing.
        for i in range(3):
            client.append(blob, bytes([10 + i]) * PAGE)
        client.write(blob, 0, b"\xff" * PAGE)
        report = client.gc.collect(blob)
        # Only v1's original page-0 content became unreachable.
        assert report.pages_reclaimed == 1
        assert client.read_all(blob) == (
            b"\xff" * PAGE + bytes([11]) * PAGE + bytes([12]) * PAGE
        )

    def test_collect_with_nothing_dead_is_a_no_op(self):
        client = make_client()  # retains everything by default
        blob = client.create_blob()
        churn(client, blob, 3)
        report = client.gc.collect(blob)
        assert report.versions_retired == 0
        assert report.pages_reclaimed == 0
        assert stored_bytes(client) == 3 * PAGE
        for v in (1, 2, 3):
            assert client.read_all(blob, version=v) == bytes([v - 1 + 1]) * PAGE

    def test_pinned_version_survives_collection(self):
        client = make_client(max_versions_kept=1)
        blob = client.create_blob()
        churn(client, blob, 5)
        pin = client.pin_version(blob, 2, owner="reader")
        report = client.gc.collect(blob)
        assert 2 not in set(
            v for v in range(1, 5) if v in client.versions(blob)
        ) or client.read_all(blob, version=2) == bytes([2]) * PAGE
        assert client.versions(blob) == [0, 2, 5]
        assert report.versions_retired == 3  # 1, 3, 4

        # Once released, the next cycle reclaims it.
        pin.release()
        client.gc.collect(blob)
        assert client.versions(blob) == [0, 5]
        assert stored_bytes(client) == PAGE

    def test_expired_lease_no_longer_protects(self):
        clock = FakeClock()
        client = make_client(max_versions_kept=1)
        gc = VersionGC(
            client,
            policy=RetentionPolicy(keep_last=1),
            pins=PinRegistry(clock=clock),
            clock=clock,
        )
        blob = client.create_blob()
        churn(client, blob, 3)
        gc.pins.pin(blob, 1, ttl=10.0)
        report = gc.collect(blob)
        assert report.versions_retired == 1  # only 2; 1 is pinned, 3 latest
        clock.advance(11.0)
        report = gc.collect(blob)
        assert report.versions_retired == 1  # the lease lapsed: 1 dies
        assert client.version_manager.published_versions(blob) == [0, 3]

    def test_metadata_nodes_of_dead_versions_are_deleted(self):
        client = make_client(max_versions_kept=1)
        blob = client.create_blob()
        for i in range(4):
            client.append(blob, bytes([i + 1]) * PAGE)
        nodes_before = sum(client.dht.distribution().values())
        report = client.gc.collect(blob)
        assert report.nodes_reclaimed > 0
        # Each reclaimed key disappears from every metadata replica.
        assert sum(client.dht.distribution().values()) <= (
            nodes_before - report.nodes_reclaimed
        )
        # The surviving snapshot still resolves through the pruned trees.
        assert client.read_all(blob)[:PAGE] == bytes([1]) * PAGE


class TestInflightWriters:
    def test_inflight_floor_protects_base_versions(self):
        client = make_client(max_versions_kept=1)
        blob = client.create_blob()
        churn(client, blob, 4)
        # Open a ticket (an unpublished writer based on version 4) and
        # collect while it is in flight.
        ticket = client.version_manager.assign_ticket(
            blob, offset=None, size=PAGE, append=True
        )
        assert client.version_manager.inflight_floor(blob) == 4
        report = client.gc.collect(blob)
        # Versions >= the in-flight base (4) must survive; 1..3 die.
        assert report.versions_retired == 3
        assert client.version_manager.published_versions(blob) == [0, 4]
        # The writer completes normally against its preserved base.
        written, _boundary, _targets = client._transfer_pages(
            ticket, b"\x99" * PAGE, PAGE, client.blob_info(blob), None
        )
        root = client._build_metadata(ticket, written, PAGE)
        client.version_manager.publish(ticket, root)
        assert client.read_all(blob)[-PAGE:] == b"\x99" * PAGE

    def test_unpublished_pages_are_never_swept_as_orphans(self):
        client = make_client(max_versions_kept=1)
        blob = client.create_blob()
        churn(client, blob, 2)
        ticket = client.version_manager.assign_ticket(
            blob, offset=None, size=PAGE, append=True
        )
        written, _boundary, _targets = client._transfer_pages(
            ticket, b"\x42" * PAGE, PAGE, client.blob_info(blob), None
        )
        # The new page sits on a provider but belongs to an unpublished
        # version (newer than the head): the sweep must leave it alone.
        client.gc.collect(blob)
        root = client._build_metadata(ticket, written, PAGE)
        client.version_manager.publish(ticket, root)
        assert client.read_all(blob)[-PAGE:] == b"\x42" * PAGE

    def test_aborted_writer_pages_are_swept_as_orphans(self):
        client = make_client()
        blob = client.create_blob()
        churn(client, blob, 2)
        ticket = client.version_manager.assign_ticket(
            blob, offset=None, size=PAGE, append=True
        )
        client._transfer_pages(
            ticket, b"\x42" * PAGE, PAGE, client.blob_info(blob), None
        )
        client.version_manager.abort(ticket)
        assert stored_bytes(client) == 3 * PAGE  # the orphan lingers
        report = client.gc.collect(blob)
        # Nothing published died, but the aborted write's page is gone.
        assert report.versions_retired == 0
        assert report.pages_reclaimed == 1
        assert stored_bytes(client) == 2 * PAGE


class TestDeleteGuard:
    def test_delete_blob_fails_while_pinned(self):
        client = make_client()
        blob = client.create_blob()
        client.append(blob, b"x" * PAGE)
        pin = client.pin_version(blob)
        with pytest.raises(BlobPinnedError):
            client.delete_blob(blob)
        # The blob (and its pages) survived the refused delete intact.
        assert client.read_all(blob) == b"x" * PAGE
        pin.release()
        client.delete_blob(blob)
        assert blob not in client.version_manager.blob_ids()
        assert stored_bytes(client) == 0

    def test_deferred_delete_via_drain_hook(self):
        client = make_client()
        blob = client.create_blob()
        client.append(blob, b"y" * PAGE)
        pin = client.pin_version(blob)
        try:
            client.delete_blob(blob)
        except BlobPinnedError:
            client.pins.on_drain(blob, lambda: client.delete_blob(blob))
        assert blob in client.version_manager.blob_ids()
        pin.release()  # the drain hook completes the delete
        assert blob not in client.version_manager.blob_ids()
        assert stored_bytes(client) == 0

    def test_pin_after_retire_fails_cleanly(self):
        client = make_client(max_versions_kept=1)
        blob = client.create_blob()
        churn(client, blob, 3)
        client.gc.collect(blob)
        with pytest.raises(VersionRetiredError):
            client.pin_version(blob, 1)
        # The failed pin left no residue in the registry.
        assert client.pins.pin_count(blob) == 0


class TestNodeCacheSafety:
    """The client caches tree nodes and never invalidates them; a dead
    version must still fail the way it did without the cache."""

    def test_retired_versions_fail_the_same_with_their_nodes_cached(self):
        client = make_client(max_versions_kept=1)
        blob = client.create_blob()
        client.append(blob, b"a" * (4 * PAGE))
        churn(client, blob, 2)  # versions 2 and 3 rewrite page 0
        snapshots = {v: client.read_all(blob, version=v) for v in (1, 2, 3)}
        cached = len(client.metadata_manager._cache)
        assert cached > 0  # every version's tree is in the node cache
        report = client.gc.collect(blob)
        assert report.versions_retired == 2 and report.nodes_reclaimed > 0
        for version in (1, 2):
            with pytest.raises(VersionRetiredError):
                client.read(blob, 0, PAGE, version=version)
            with pytest.raises(VersionRetiredError):
                client.open_read(blob, version=version)
        # The survivor reads through trees that share the swept versions'
        # nodes; a client with an empty cache (the DHT's truth) agrees.
        assert client.read_all(blob) == snapshots[3]
        fresh = type(client.metadata_manager)(client.dht)
        root = client.version_manager.version_info(blob, 3).root
        assert fresh.lookup(root, 0, 4) == client.metadata_manager.lookup(root, 0, 4)
        # Sweeping is not the cache's business: dead nodes just age out.
        assert len(client.metadata_manager._cache) == cached

    def test_deleted_blob_fails_the_same_and_leaves_no_cached_node(self):
        client = make_client()
        gone, kept = client.create_blob(), client.create_blob()
        churn(client, gone, 3)
        client.append(kept, b"k" * PAGE)
        client.read_all(gone)
        client.delete_blob(gone)
        with pytest.raises(BlobNotFoundError):
            client.read(gone, 0, PAGE)
        with pytest.raises(BlobNotFoundError):
            client.open_read(gone)
        cache = client.metadata_manager._cache
        assert len(cache) == 1  # the kept blob's single leaf
        assert client.read_all(kept) == b"k" * PAGE


class TestRetireSemantics:
    def test_retire_rejects_latest_and_version_zero(self):
        client = make_client()
        blob = client.create_blob()
        churn(client, blob, 2)
        vm = client.version_manager
        with pytest.raises(ValueError):
            vm.retire_versions(blob, [0])
        with pytest.raises(ValueError):
            vm.retire_versions(blob, [2])

    def test_retire_is_idempotent(self):
        client = make_client()
        blob = client.create_blob()
        churn(client, blob, 3)
        vm = client.version_manager
        assert vm.retire_versions(blob, [1]) == [1]
        assert vm.retire_versions(blob, [1]) == []
        info = vm.describe([blob])[blob]
        assert info["retired_versions"] == 1
        assert info["live_versions"] == 3  # 0, 2, 3


class TestRunOnceAndDaemon:
    def test_run_once_sweeps_every_blob(self):
        client = make_client(max_versions_kept=1)
        blobs = [client.create_blob() for _ in range(3)]
        for blob in blobs:
            churn(client, blob, 3)
        report = client.gc.run_once()
        assert report.blobs_scanned == 3
        assert report.versions_retired == 6
        assert stored_bytes(client) == 3 * PAGE

    def test_background_daemon_reclaims(self):
        client = make_client(max_versions_kept=1)
        blob = client.create_blob()
        churn(client, blob, 5)
        daemon = client.gc.start(0.01)
        try:
            deadline_cycles = 200
            while stored_bytes(client) > PAGE and deadline_cycles:
                deadline_cycles -= 1
                import time

                time.sleep(0.01)
            assert stored_bytes(client) == PAGE
            assert daemon.cycles >= 1
        finally:
            client.gc.stop()
        assert not client.gc.running

    def test_config_driven_gc_autostarts_and_close_stops_it(self):
        client = make_client(max_versions_kept=2, gc_interval_seconds=0.01)
        assert client.gc.running
        client.close()
        assert not client.gc.running

    def test_daemon_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            GcDaemon(lambda: None, 0.0)


class TestDescribe:
    def test_describe_accounting_matches_provider_usage(self):
        client = make_client(max_versions_kept=2)
        blob = client.create_blob()
        churn(client, blob, 4)
        info = client.gc.describe()
        assert info["blobs"][blob]["dead_versions"] == 2
        client.gc.collect(blob)
        info = client.gc.describe()
        assert info["blobs"][blob]["dead_versions"] == 0
        assert info["live_bytes"] == stored_bytes(client)
        assert info["totals"]["versions_retired"] == 2
        assert info["policy"]["keep_last"] == 2

    def test_client_stats_include_pins(self):
        client = make_client()
        blob = client.create_blob()
        client.append(blob, b"z" * PAGE)
        with client.pin_version(blob):
            assert client.stats()["pins"]["active_pins"] == 1


class TestRemoteService:
    def test_gc_over_loopback_rpc(self):
        client = make_client(max_versions_kept=1)
        blob = client.create_blob()
        churn(client, blob, 4)

        registry = ServiceRegistry()
        expose_gc(registry, client.gc)
        with connect_gc(LoopbackTransport(registry)) as remote:
            plan = remote.plan(blob)
            assert plan["dead_versions"] == [1, 2, 3]
            report = remote.run_once()
            assert report["versions_retired"] == 3
            assert report["bytes_reclaimed"] == 3 * PAGE
            info = remote.describe()
            assert info["totals"]["versions_retired"] == 3
        assert stored_bytes(client) == PAGE

    def test_remote_daemon_drives_cycles(self):
        import time

        client = make_client(max_versions_kept=1)
        blob = client.create_blob()
        churn(client, blob, 3)
        registry = ServiceRegistry()
        expose_gc(registry, client.gc)
        remote = connect_gc(LoopbackTransport(registry))
        from repro.versions import drive_remote_gc

        daemon = drive_remote_gc(remote, 0.01)
        try:
            for _ in range(200):
                if stored_bytes(client) == PAGE:
                    break
                time.sleep(0.01)
            assert stored_bytes(client) == PAGE
        finally:
            daemon.stop()
            remote.close()


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds
