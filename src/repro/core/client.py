"""BlobSeer client facade: the public entry point of the storage core.

:class:`BlobSeer` wires together all the entities of a deployment — data
providers, the provider manager, the metadata DHT, the metadata manager and
the version manager — and exposes the blob access interface the paper
describes:

* ``create_blob`` — register a new blob with a page size and replication
  level;
* ``write(blob, offset, data)`` / ``append(blob, data)`` — publish a new
  version; data is never overwritten in place;
* ``read(blob, offset, size, version=None)`` — read a byte range from any
  published snapshot;
* ``page_locations`` — the data-layout exposure primitive added for the
  Hadoop integration, so the MapReduce scheduler can co-locate computation
  with data.

The facade is thread-safe: any number of threads may read and write
concurrently, which is exactly the scenario the paper's microbenchmarks
exercise.

Write protocol (mirrors the paper's description of BlobSeer):

1. obtain a write ticket (version number + resolved offset) from the
   version manager — the only serialized step;
2. push the interior, page-aligned data to the data providers chosen by the
   provider manager's load-balancing strategy — fully concurrent across
   writers;
3. wait for the base version to be published, merge boundary pages if the
   write was not page-aligned, and build the new metadata tree (sharing
   every untouched subtree with the base version);
4. report the new root to the version manager, which publishes versions in
   ticket order.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

from .config import BlobSeerConfig
from .dht import MetadataDHT, MetadataProvider
from .errors import (
    AlignmentError,
    InvalidRangeError,
    PageNotFoundError,
)
from .metadata import BlobLRU, MetadataManager, NodeKey, next_power_of_two
from .pages import PageDescriptor, PageKey, page_range_for_bytes
from .persistence import LogStructuredStore, MemoryStore
from .provider import DataProvider
from .provider_manager import ProviderManager
from .replication import ReplicationManager, read_pages, write_pages
from .transfer import TransferEngine, pipelined
from .version_manager import BlobInfo, VersionInfo, VersionManager, WriteTicket

# The snapshot lifecycle subsystem only depends back on repro.core through
# TYPE_CHECKING imports, so this import is acyclic.
from ..versions.gc import VersionGC
from ..versions.pins import PinRegistry, SnapshotHandle
from ..versions.retention import RetentionPolicy

__all__ = ["PageLocation", "BlobSeer"]

#: Bytes of partial pages — blob tails — one :class:`BlobSeer` keeps after
#: pushing them, so the next append merges its boundary page without
#: reading it back: 16 tails at the default 256 KiB page.
TAIL_CACHE_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True, slots=True)
class PageLocation:
    """Location record returned by the data-layout exposure primitive."""

    page_index: int
    offset: int
    size: int
    providers: tuple[int, ...]
    hosts: tuple[str, ...]


class BlobSeer:
    """An in-process BlobSeer deployment and its client interface."""

    def __init__(
        self,
        config: BlobSeerConfig | None = None,
        *,
        providers: Sequence[DataProvider] | None = None,
        metadata_providers: Sequence[MetadataProvider] | None = None,
        storage_dir: str | os.PathLike[str] | None = None,
    ) -> None:
        """Create a deployment.

        Parameters
        ----------
        config:
            Deployment configuration; defaults to :class:`BlobSeerConfig()`.
        providers:
            Pre-built data providers.  When omitted, ``config.num_providers``
            providers are created, volatile by default or backed by
            log-structured stores under ``storage_dir`` when given.
        metadata_providers:
            Pre-built metadata providers (defaults to
            ``config.num_metadata_providers`` fresh ones).
        storage_dir:
            Directory for persistent page stores.  Ignored when explicit
            ``providers`` are passed.
        """
        self.config = config or BlobSeerConfig()
        if providers is None:
            providers = []
            for i in range(self.config.num_providers):
                if storage_dir is not None:
                    store = LogStructuredStore(
                        os.path.join(os.fspath(storage_dir), f"provider-{i}.log")
                    )
                else:
                    store = MemoryStore()
                providers.append(DataProvider(i, store=store))
        if metadata_providers is None:
            metadata_providers = [
                MetadataProvider(i)
                for i in range(self.config.num_metadata_providers)
            ]
        self.provider_manager = ProviderManager(
            providers,
            strategy=self.config.allocation_strategy,
            seed=self.config.rng_seed,
            range_pages=self.config.allocation_range_pages,
        )
        self.dht = MetadataDHT(
            metadata_providers,
            virtual_nodes=self.config.virtual_nodes_per_metadata_provider,
        )
        self.metadata_manager = MetadataManager(self.dht)
        self.version_manager = VersionManager(self.config)
        self.replication_manager = ReplicationManager(
            self.provider_manager, seed=self.config.rng_seed
        )
        #: Shared transfer engine: every page/replica transfer of this
        #: deployment (writes, reads, streaming) runs through its bounded
        #: worker pool.
        self.transfer = TransferEngine(self.config.transfer_workers, name="blobseer-io")
        self._rng = random.Random(self.config.rng_seed)
        self._rng_lock = threading.Lock()
        #: Partial pages this client pushed, by key; a key is written once,
        #: so an entry never goes stale.
        self._tail_pages = BlobLRU(TAIL_CACHE_BYTES, weight=len)
        #: Snapshot lifecycle: pins protect published versions from the
        #: collector (and the blob from deletion); the retention policy and
        #: collector turn `max_versions_kept` / `version_ttl_seconds` into
        #: reclaimed space.
        self.pins = PinRegistry(default_ttl=self.config.pin_default_ttl_seconds)
        self.retention = RetentionPolicy(
            keep_last=self.config.max_versions_kept,
            ttl_seconds=self.config.version_ttl_seconds,
        )
        self.gc = VersionGC(self, policy=self.retention, pins=self.pins)
        self.version_manager.add_delete_guard(self.pins.guard_delete)
        if self.config.gc_interval_seconds is not None:
            self.gc.start(self.config.gc_interval_seconds)

    def _op_rng(self) -> random.Random:
        """Derive one deterministic RNG for a whole client operation.

        The shared seed stream is locked exactly once per operation; the
        returned generator is then threaded through every page read of
        the operation instead of re-entering the lock per page.
        """
        with self._rng_lock:
            return random.Random(self._rng.random())

    # ------------------------------------------------------------------ lifecycle
    def create_blob(
        self,
        *,
        page_size: int | None = None,
        replication: int | None = None,
    ) -> int:
        """Create a new empty blob and return its id."""
        info = self.version_manager.create_blob(
            page_size=page_size, replication=replication
        )
        return info.blob_id

    def blob_info(self, blob_id: int) -> BlobInfo:
        """Static properties (page size, replication) of a blob."""
        return self.version_manager.blob_info(blob_id)

    def pin_version(
        self,
        blob_id: int,
        version: int | None = None,
        *,
        owner: str = "reader",
        ttl: float | None = None,
    ) -> SnapshotHandle:
        """Pin a published version against GC and deletion; returns the lease.

        ``version=None`` pins the latest published snapshot.  The handle is
        a context manager; release it (or let its TTL lapse) when done.
        """
        info = self.version_manager.version_info(blob_id, version)
        handle = self.pins.pin(blob_id, info.version, owner=owner, ttl=ttl)
        # A GC cycle may have planned before our pin landed: its atomic
        # retire step either saw the pin (version spared) or retired the
        # version before the pin — re-validate so the caller never holds a
        # pin on a collected snapshot.
        try:
            self.version_manager.version_info(blob_id, info.version)
        except Exception:
            handle.release()
            raise
        return handle

    def delete_blob(self, blob_id: int) -> None:
        """Drop a blob from the version manager and release its pages.

        Raises :class:`~repro.core.errors.BlobPinnedError` while snapshot
        pins are active — callers either wait for
        ``pins.wait_for_drain(blob_id)`` or defer through
        ``pins.on_drain``.
        """
        # Collect pages of every published version before forgetting the blob.
        roots = self.version_manager.snapshot_roots(blob_id)
        page_size = self.blob_info(blob_id).page_size
        keys: set[PageKey] = set()
        for version, root in roots.items():
            size = self.version_manager.size(blob_id, version)
            total_pages = (size + page_size - 1) // page_size
            for descriptor in self.metadata_manager.lookup(
                root, 0, total_pages
            ).values():
                keys.add(descriptor.key)
        self.version_manager.delete_blob(blob_id)
        self.metadata_manager.forget_blob(blob_id)
        self._tail_pages.drop_blob(blob_id)
        for provider in self.provider_manager.providers if keys else ():
            try:
                provider.remove_pages(list(keys))
            except Exception:
                continue
            finally:
                # The freed space shows at the next allocation's probe.
                self.provider_manager.forget(provider.provider_id)

    def close(self) -> None:
        """Stop the GC daemon and transfer engine, close provider stores."""
        self.gc.stop()
        self.transfer.close()
        for provider in self.provider_manager.providers:
            provider.close()

    def __enter__(self) -> "BlobSeer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------- queries
    def latest_version(self, blob_id: int) -> int:
        """Highest published version of ``blob_id`` (0 when empty)."""
        return self.version_manager.latest_version(blob_id)

    def versions(self, blob_id: int) -> list[int]:
        """All published versions of ``blob_id`` (including the empty 0)."""
        return self.version_manager.published_versions(blob_id)

    def get_size(self, blob_id: int, version: int | None = None) -> int:
        """Size in bytes of a published version (default: latest)."""
        return self.version_manager.size(blob_id, version)

    # -------------------------------------------------------------------- writes
    def write(
        self,
        blob_id: int,
        offset: int,
        data: bytes,
        *,
        client_hint: int | None = None,
    ) -> int:
        """Write ``data`` at ``offset``, producing and returning a new version.

        ``offset`` must be aligned to the blob's page size (the BSFS cache
        guarantees this for file workloads); the data length is arbitrary.
        """
        if not data:
            raise InvalidRangeError("writes must carry at least one byte")
        if offset < 0:
            raise InvalidRangeError("offset cannot be negative")
        page_size = self.blob_info(blob_id).page_size
        if offset % page_size != 0:
            raise AlignmentError(
                f"write offset {offset} is not aligned to the page size {page_size}"
            )
        ticket = self.version_manager.assign_ticket(
            blob_id, offset=offset, size=len(data), append=False
        )
        return self._complete_write(ticket, data, client_hint)

    def append(
        self,
        blob_id: int,
        data: bytes,
        *,
        client_hint: int | None = None,
    ) -> int:
        """Append ``data`` to the blob, producing and returning a new version.

        The offset is assigned by the version manager from the blob's
        assigned size, so concurrent appenders obtain disjoint contiguous
        ranges without coordinating with each other.
        """
        if not data:
            raise InvalidRangeError("appends must carry at least one byte")
        ticket = self.version_manager.assign_ticket(
            blob_id, offset=None, size=len(data), append=True
        )
        return self._complete_write(ticket, data, client_hint)

    def _complete_write(
        self,
        ticket: WriteTicket,
        data: bytes,
        client_hint: int | None,
    ) -> int:
        blob_id = ticket.blob_id
        info = self.blob_info(blob_id)
        page_size = info.page_size
        try:
            written, boundary, targets = self._transfer_pages(
                ticket, data, page_size, info, client_hint
            )
            if boundary:
                root = self._store_beside_push(ticket, written, boundary, targets, page_size)
            else:
                root = self._build_metadata(ticket, written, page_size)
        except Exception:
            self.version_manager.abort(ticket)
            raise
        self.version_manager.publish(ticket, root)
        return ticket.version

    def _store_beside_push(
        self,
        ticket: WriteTicket,
        written: dict[int, PageDescriptor],
        boundary: dict[int, bytes],
        targets: dict[int, tuple[int, ...]],
        page_size: int,
    ) -> NodeKey | None:
        """Push the boundary pages while the new version's nodes are stored.

        The store runs on the descriptors the allocation predicts.  If a
        replica failed or a page was re-placed, the nodes are built and
        stored again over the first ones before the caller publishes: the
        version is unpublished, so nobody has read them.  The engine's
        ``map`` returns, or raises, only once neither thunk is running, so
        an aborting caller never races its own push.
        """
        predicted = dict(written)
        for index, page in boundary.items():
            key = PageKey(ticket.blob_id, ticket.version, index)
            predicted[index] = PageDescriptor(key, targets[index], len(page))
        root, pushed = self.transfer.map(
            lambda thunk: thunk(),
            [
                lambda: self._build_metadata(ticket, predicted, page_size),
                lambda: self._push_pages(ticket, boundary, targets, page_size),
            ],
        )
        if any(predicted[index] != descriptor for index, descriptor in pushed.items()):
            root = self._build_metadata(ticket, {**written, **pushed}, page_size)
        return root

    def _transfer_pages(
        self,
        ticket: WriteTicket,
        data: bytes,
        page_size: int,
        info: BlobInfo,
        client_hint: int | None,
    ) -> tuple[dict[int, PageDescriptor], dict[int, bytes], dict[int, tuple[int, ...]]]:
        """Push the write's interior pages and merge its boundary pages.

        Interior pages go out first, as one bulk call per provider running
        concurrently on the deployment's transfer engine, so one large
        write stripes across the provider pool.  Boundary pages are merged
        once the base version is published and returned unpushed.  Returns
        ``(written, boundary, targets)``: the interior descriptors, the
        boundary pages by index, and every page's allocated providers.
        """
        offset = ticket.offset
        end = offset + len(data)
        page_range = page_range_for_bytes(offset, len(data), page_size)
        first_page, last_page = page_range.first, page_range.last
        head_unaligned = offset % page_size != 0
        tail_unaligned = end % page_size != 0 and end < ticket.new_size

        allocation = self.provider_manager.allocate(
            len(page_range), info.replication, client_hint=client_hint
        )
        targets = dict(zip(page_range, allocation))
        boundary_indices: list[int] = []
        if head_unaligned:
            boundary_indices.append(first_page)
        if tail_unaligned and (last_page - 1) not in boundary_indices:
            boundary_indices.append(last_page - 1)

        # Interior (fully covered) pages can be transferred immediately,
        # concurrently with other writers.
        interior = [p for p in page_range if p not in boundary_indices]
        written = self._push_pages(
            ticket, self._page_views(ticket, data, interior, page_size), targets, page_size
        )

        boundary: dict[int, bytes] = {}
        if boundary_indices:
            # Boundary pages need the base version's bytes: wait for it.
            self._wait_for_base(ticket)
            base_info = self.version_manager.version_info(
                ticket.blob_id, ticket.base_version
            )
            rng = self._op_rng()
            boundary = {
                page_index: self._merge_boundary_page(
                    ticket,
                    data,
                    page_index,
                    page_size,
                    base_info.root,
                    base_info.size,
                    rng=rng,
                )
                for page_index in boundary_indices
            }
        return written, boundary, targets

    @staticmethod
    def _page_views(
        ticket: WriteTicket, data: bytes, indices: list[int], page_size: int
    ) -> dict[int, memoryview]:
        """Copy-free views of the fully covered pages ``indices`` of a write."""
        view, start = memoryview(data), ticket.offset
        pages = {}
        for index in indices:
            end = min((index + 1) * page_size, ticket.new_size)
            pages[index] = view[index * page_size - start : end - start]
        return pages

    def _push_pages(
        self,
        ticket: WriteTicket,
        pages: dict[int, bytes | memoryview],
        targets: dict[int, tuple[int, ...]],
        page_size: int,
    ) -> dict[int, PageDescriptor]:
        """Store ``{page index: bytes}`` with one bulk call per provider.

        A stored partial page — the blob's tail — is kept in the tail
        cache, for the next append's boundary merge.
        """
        keys = {index: PageKey(ticket.blob_id, ticket.version, index) for index in pages}
        stored = write_pages(
            self.provider_manager,
            [(keys[index], page, targets[index]) for index, page in pages.items()],
            engine=self.transfer,
        )
        self._tail_pages.put_many(
            (keys[index], bytes(page)) for index, page in pages.items() if len(page) < page_size
        )
        return {
            index: PageDescriptor(key=keys[index], providers=ids, size=len(pages[index]))
            for index, ids in zip(pages, stored)
        }

    def _wait_for_base(self, ticket: WriteTicket) -> None:
        if ticket.base_version > 0:
            self.version_manager.wait_for_publication(
                ticket.blob_id, ticket.base_version
            )

    def _merge_boundary_page(
        self,
        ticket: WriteTicket,
        data: bytes,
        page_index: int,
        page_size: int,
        base_root: NodeKey | None,
        base_size: int,
        *,
        rng: random.Random,
    ) -> bytes:
        """Combine the new bytes of a partially covered page with the base bytes."""
        offset, end = ticket.offset, ticket.offset + len(data)
        page_start = page_index * page_size
        page_end = min(page_start + page_size, max(ticket.new_size, base_size))
        page_len = page_end - page_start
        # Existing content of this page in the base version (zero-filled holes).
        existing = bytearray(page_len)
        if base_root is not None and page_start < base_size:
            base_descriptors = self.metadata_manager.lookup(
                base_root, page_index, page_index + 1
            )
            descriptor = base_descriptors.get(page_index)
            if descriptor is not None:
                # A tail this client pushed needs no read-back.
                old = self._tail_pages.get_many([descriptor.key]).get(descriptor.key)
                if old is None:
                    [old] = read_pages(
                        self.provider_manager,
                        [descriptor],
                        policy=self.config.read_replica_policy,
                        rng=rng,
                    )
                existing[: len(old)] = old
        # Overlay the new bytes.
        new_lo = max(offset, page_start)
        new_hi = min(end, page_end)
        existing[new_lo - page_start : new_hi - page_start] = data[
            new_lo - offset : new_hi - offset
        ]
        # Trim to the page's actual length within the new blob size.
        actual_len = min(page_size, ticket.new_size - page_start)
        return bytes(existing[:actual_len])

    def _build_metadata(
        self,
        ticket: WriteTicket,
        written: dict[int, PageDescriptor],
        page_size: int,
    ) -> NodeKey | None:
        """Wait for the base version and derive the new metadata tree from it."""
        self._wait_for_base(ticket)
        base_info = self.version_manager.version_info(
            ticket.blob_id, ticket.base_version
        )
        base_pages = (base_info.size + page_size - 1) // page_size
        base_capacity = next_power_of_two(base_pages) if base_pages else 1
        total_pages = (ticket.new_size + page_size - 1) // page_size
        return self.metadata_manager.build_version(
            ticket.blob_id,
            ticket.version,
            written,
            total_pages,
            base_root=base_info.root,
            base_capacity=base_capacity,
        )

    # --------------------------------------------------------------------- reads
    def read(
        self,
        blob_id: int,
        offset: int,
        size: int,
        *,
        version: int | None = None,
    ) -> bytes:
        """Read ``size`` bytes at ``offset`` from a published version.

        ``version=None`` reads the latest published snapshot.  Byte ranges
        must lie within the version's size.  Ranges that were reserved by an
        aborted writer (holes) read as zero bytes.
        """
        info = self.version_manager.version_info(blob_id, version)
        self._check_range(info, offset, size)
        if size == 0:
            return b""
        return self._read_range(info, self.blob_info(blob_id).page_size, offset, size)

    @staticmethod
    def _check_range(info: VersionInfo, offset: int, size: int) -> None:
        """Reject a byte range that does not lie within the version ``info``."""
        if offset < 0 or size < 0:
            raise InvalidRangeError("offset and size must be non-negative")
        if offset + size > info.size:
            raise InvalidRangeError(
                f"range [{offset}, {offset + size}) exceeds version "
                f"{info.version} size {info.size}"
            )

    def _read_range(
        self, info: VersionInfo, page_size: int, offset: int, size: int
    ) -> bytes:
        """The bytes of a non-empty, validated range of the version ``info``.

        One metadata lookup for the range's pages, one bulk ``get_pages``
        call per provider, then one join.
        """
        page_range = page_range_for_bytes(offset, size, page_size)
        descriptors = self.metadata_manager.lookup(
            info.root, page_range.first, page_range.last
        )
        found = read_pages(
            self.provider_manager,
            descriptors.values(),
            policy=self.config.read_replica_policy,
            rng=self._op_rng(),
            engine=self.transfer,
        )
        pages = dict(zip(descriptors, found))
        # One copy: every page adds a view of the bytes the range covers
        # (zeros for holes and short pages) to a single join.
        end = offset + size
        parts: list[bytes | memoryview] = []
        for page_index in page_range:
            page_start = page_index * page_size
            lo, hi = max(offset - page_start, 0), min(end - page_start, page_size)
            data = pages.get(page_index, b"")
            parts.append(memoryview(data)[lo:hi])
            if len(data) < hi:
                parts.append(bytes(hi - max(lo, len(data))))
        return b"".join(parts)

    def read_all(self, blob_id: int, *, version: int | None = None) -> bytes:
        """Read the entire content of a published version."""
        size = self.get_size(blob_id, version)
        return self.read(blob_id, 0, size, version=version)

    # ---------------------------------------------------------------- streaming
    def open_read(
        self,
        blob_id: int,
        offset: int = 0,
        size: int | None = None,
        *,
        version: int | None = None,
        chunk_size: int = 1024 * 1024,
    ) -> Iterator[memoryview]:
        """Stream a byte range as an iterator of ``memoryview`` chunks.

        The range is cut into windows of ``max(chunk_size // page_size, 1)``
        pages that end on multiples of the window size, and each window is
        fetched exactly as :meth:`read` fetches a range: one lookup, one
        bulk call per provider, one join.  The next window is fetched
        through the transfer engine while the consumer processes the
        current one, so a consumer that stops early (a record reader
        opened to the end of the file but reading one split) pays for at
        most one window it never reads.  Holes left by aborted writers
        read as zero bytes, exactly like :meth:`read`.
        """
        info = self.version_manager.version_info(blob_id, version)
        if size is None:
            size = max(info.size - offset, 0)
        self._check_range(info, offset, size)
        if size == 0:
            return iter(())
        page_size = self.blob_info(blob_id).page_size
        window = max(chunk_size // page_size, 1) * page_size
        end = offset + size

        def fetch(start: int, stop: int) -> memoryview:
            return memoryview(self._read_range(info, page_size, start, stop - start))

        def windows() -> Iterator[Callable[[], memoryview]]:
            start = offset
            while start < end:
                stop = min((start // window + 1) * window, end)
                yield partial(fetch, start, stop)
                start = stop

        return pipelined(windows(), self.transfer, depth=2)

    # ------------------------------------------------------------------ locality
    def page_locations(
        self,
        blob_id: int,
        offset: int,
        size: int,
        *,
        version: int | None = None,
    ) -> list[PageLocation]:
        """Expose the page-to-provider distribution of a byte range.

        This is the primitive the paper adds to BlobSeer so the Hadoop
        jobtracker can schedule map tasks close to their input data.
        """
        info = self.version_manager.version_info(blob_id, version)
        if offset < 0 or size < 0:
            raise InvalidRangeError("offset and size must be non-negative")
        size = min(size, max(info.size - offset, 0))
        page_size = self.blob_info(blob_id).page_size
        page_range = page_range_for_bytes(offset, size, page_size)
        descriptors = self.metadata_manager.lookup(
            info.root, page_range.first, page_range.last
        )
        locations: list[PageLocation] = []
        for page_index in page_range:
            descriptor = descriptors.get(page_index)
            if descriptor is None:
                continue
            hosts = []
            for provider_id in descriptor.providers:
                try:
                    hosts.append(self.provider_manager.get(provider_id).host)
                except Exception:
                    hosts.append(f"provider-{provider_id}")
            locations.append(
                PageLocation(
                    page_index=page_index,
                    offset=page_index * page_size,
                    size=descriptor.size,
                    providers=descriptor.providers,
                    hosts=tuple(hosts),
                )
            )
        return locations

    # ------------------------------------------------------------ fault tolerance
    def scrub(self, blob_id: int, *, version: int | None = None):
        """Scrub a version's pages; see :class:`ReplicationManager.scrub`."""
        info = self.version_manager.version_info(blob_id, version)
        page_size = self.blob_info(blob_id).page_size
        total_pages = (info.size + page_size - 1) // page_size
        descriptors = self.metadata_manager.lookup(info.root, 0, total_pages)
        return self.replication_manager.scrub(
            descriptors.values(),
            target_replication=self.blob_info(blob_id).replication,
        )

    def repair(self, blob_id: int, *, version: int | None = None) -> int:
        """Re-replicate under-replicated pages and publish a repaired version.

        The repaired version has identical content but updated page
        placement; it becomes the new latest version.  Returns the new
        version number (or the current one when nothing needed healing).
        """
        info = self.version_manager.version_info(blob_id, version)
        blob = self.blob_info(blob_id)
        page_size = blob.page_size
        total_pages = (info.size + page_size - 1) // page_size
        descriptors = self.metadata_manager.lookup(info.root, 0, total_pages)
        report = self.replication_manager.scrub(
            descriptors.values(), target_replication=blob.replication
        )
        if report.is_healthy:
            return info.version
        healed = self.replication_manager.heal_all(
            list(report.under_replicated) + list(report.lost),
            target_replication=blob.replication,
        )
        if not healed:
            raise PageNotFoundError(
                f"blob {blob_id}: some pages lost all replicas and cannot be healed"
            )
        # Publish a metadata-only version carrying the new placement.
        ticket = self.version_manager.assign_ticket(
            blob_id, offset=0, size=0, append=False
        )
        try:
            root = self._build_metadata(ticket, healed, page_size)
        except Exception:
            self.version_manager.abort(ticket)
            raise
        self.version_manager.publish(ticket, root)
        return ticket.version

    # ----------------------------------------------------------------- monitoring
    def stats(self) -> dict:
        """Aggregate statistics of the deployment (for reports and tests)."""
        provider_stats = [p.stats() for p in self.provider_manager.providers]
        return {
            "providers": len(provider_stats),
            "pages_stored": sum(s.pages_stored for s in provider_stats),
            "bytes_stored": sum(s.bytes_stored for s in provider_stats),
            "bytes_read": sum(s.bytes_read for s in provider_stats),
            "bytes_written": sum(s.bytes_written for s in provider_stats),
            "imbalance": self.provider_manager.imbalance(),
            "metadata_distribution": self.dht.distribution(),
            "blobs": self.version_manager.describe(),
            "pins": self.pins.describe(),
        }

