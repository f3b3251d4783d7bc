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
2. push the write's bytes of every page it touches to the data providers
   chosen by the provider manager's load-balancing strategy — fully
   concurrent across writers.  A page the write covers only in part (the
   head or tail of an unaligned write) is stored as an *extent* holding
   just the write's bytes, so nothing is read back;
3. wait for the base version to be published and build the new metadata
   tree in one descent beside the base version's tree, sharing every
   untouched subtree with it; each partial page's extent goes after the
   base leaf's extents of that page, which that descent hands it
   (compacting a leaf that would exceed :data:`MAX_PAGE_EXTENTS`);
4. report the new root to the version manager, which publishes versions in
   ticket order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

from .config import BlobSeerConfig
from .dht import MetadataDHT, MetadataProvider
from .errors import (
    AlignmentError,
    InvalidRangeError,
    NoProvidersError,
    PageNotFoundError,
    ProviderUnavailableError,
)
from .metadata import Leaf, MetadataManager, NodeKey, next_power_of_two
from .pages import PageDescriptor, PageKey, overlay, page_range_for_bytes
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

#: Most extents one leaf lists.  A write that would make a leaf longer
#: stores the whole page again instead; 64 KiB appends fill a 256 KiB
#: page in 4.
MAX_PAGE_EXTENTS = 8
#: Longest run of contiguous pages one placement decision hands a replica
#: set; longer writes split into runs of at most this many pages.
ALLOCATION_RANGE_PAGES = 8


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
            providers, range_pages=ALLOCATION_RANGE_PAGES
        )
        self.dht = MetadataDHT(metadata_providers)
        self.metadata_manager = MetadataManager(self.dht)
        self.version_manager = VersionManager(self.config)
        self.replication_manager = ReplicationManager(self.provider_manager)
        #: Shared transfer engine: every page/replica transfer of this
        #: deployment (writes, reads, streaming) runs through its bounded
        #: worker pool.
        self.transfer = TransferEngine(self.config.transfer_workers, name="blobseer-io")
        #: Snapshot lifecycle: pins protect published versions from the
        #: collector (and the blob from deletion); the retention policy and
        #: collector turn `max_versions_kept` into reclaimed space; call
        #: ``gc.start(interval)`` for a background daemon.
        self.pins = PinRegistry()
        self.retention = RetentionPolicy(keep_last=self.config.max_versions_kept)
        self.gc = VersionGC(self, policy=self.retention, pins=self.pins)
        self.version_manager.add_delete_guard(self.pins.guard_delete)

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
        # Collect the extents of every published version before forgetting
        # the blob.
        roots = self.version_manager.snapshot_roots(blob_id).values()
        keys = list(self.metadata_manager.reachable(roots)[1])
        self.version_manager.delete_blob(blob_id)
        self.metadata_manager.forget_blob(blob_id)
        # The freed space shows in the load view at each provider's next
        # put reply.
        for provider in self.provider_manager.providers if keys else ():
            try:
                provider.remove_pages(keys)
            except Exception:
                continue

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
        info = self.blob_info(ticket.blob_id)
        try:
            extents = self._push_extents(ticket, data, info, client_hint)
            base = self._base_of(ticket)
            leaves = self._leaves(ticket, data, extents, base, info.page_size)
            root = self._build_metadata(ticket, base, leaves, info.page_size)
        except Exception:
            self.version_manager.abort(ticket)
            raise
        self.version_manager.publish(ticket, root)
        return ticket.version

    def _push_extents(
        self,
        ticket: WriteTicket,
        data: bytes,
        info: BlobInfo,
        client_hint: int | None,
    ) -> dict[int, PageDescriptor]:
        """Store the write's bytes of every page it touches; returns the extents.

        Every page goes out at once, as one bulk call per provider running
        concurrently on the deployment's transfer engine, so one large
        write stripes across the provider pool.  Each piece is a copy-free
        view of ``data``, and none needs another writer's bytes: the head
        and tail of an unaligned write are stored as they are and overlaid
        on the base version's pages only in the metadata.  When every
        registered provider is known down the write raises
        :class:`~repro.core.errors.ProviderUnavailableError`, as it would
        had the providers failed its puts.
        """
        page_size = info.page_size
        page_range = page_range_for_bytes(ticket.offset, len(data), page_size)
        try:
            allocation = self.provider_manager.allocate(
                len(page_range), info.replication, client_hint=client_hint
            )
        except NoProvidersError:
            if not self.provider_manager.provider_ids:
                raise
            raise ProviderUnavailableError("every data provider") from None
        view, end = memoryview(data), ticket.offset + len(data)
        pieces = {}
        for index, providers in zip(page_range, allocation):
            page_start = index * page_size
            lo, hi = max(ticket.offset, page_start), min(end, page_start + page_size)
            piece = view[lo - ticket.offset : hi - ticket.offset]
            pieces[index] = (lo - page_start, piece, providers)
        return self._store(ticket, pieces)

    def _store(
        self,
        ticket: WriteTicket,
        pieces: dict[int, tuple[int, bytes | bytearray | memoryview, Sequence[int]]],
    ) -> dict[int, PageDescriptor]:
        """Store ``{page index: (offset in page, bytes, providers)}`` under the
        ticket's keys, with one bulk call per provider."""
        keys = {index: PageKey(ticket.blob_id, ticket.version, index) for index in pieces}
        stored = write_pages(
            self.provider_manager,
            [(keys[index], piece, targets) for index, (_, piece, targets) in pieces.items()],
            engine=self.transfer,
        )
        return {
            index: PageDescriptor(keys[index], ids, len(piece), offset)
            for (index, (offset, piece, _)), ids in zip(pieces.items(), stored)
        }

    def _base_of(self, ticket: WriteTicket) -> VersionInfo:
        """The ticket's base version, once it is published."""
        if ticket.base_version > 0:
            self.version_manager.wait_for_publication(
                ticket.blob_id, ticket.base_version
            )
        return self.version_manager.version_info(ticket.blob_id, ticket.base_version)

    def _leaves(
        self,
        ticket: WriteTicket,
        data: bytes,
        extents: dict[int, PageDescriptor],
        base: VersionInfo,
        page_size: int,
    ) -> dict[int, Leaf]:
        """The new leaf of every page the write touched.

        An extent that fills its page is the whole leaf.  Any other goes
        after the base leaf's extents, less those it hides entirely: its
        leaf is a function of the base leaf, which the metadata build
        calls with the base leaf from its own descent.
        """
        leaves: dict[int, Leaf] = {}
        for index, extent in extents.items():
            page_len = min(page_size, ticket.new_size - index * page_size)
            if extent.offset > 0 or extent.size < page_len:
                leaves[index] = partial(
                    self._over_base_leaf, ticket, data, extent, base, page_size
                )
            else:
                leaves[index] = (extent,)
        return leaves

    def _over_base_leaf(
        self,
        ticket: WriteTicket,
        data: bytes,
        extent: PageDescriptor,
        base: VersionInfo,
        page_size: int,
        below: tuple[PageDescriptor, ...],
    ) -> tuple[PageDescriptor, ...]:
        """``extent`` after the base leaf ``below``, less what it hides; a
        leaf that would list more than :data:`MAX_PAGE_EXTENTS` is
        compacted into one extent."""
        leaf = tuple(e for e in below if not extent.covers(e)) + (extent,)
        if len(leaf) > MAX_PAGE_EXTENTS:
            leaf = (self._compact(ticket, data, extent, base, page_size),)
        return leaf

    def _compact(
        self,
        ticket: WriteTicket,
        data: bytes,
        extent: PageDescriptor,
        base: VersionInfo,
        page_size: int,
    ) -> PageDescriptor:
        """Store ``extent``'s whole page again under the extent's own key.

        The page's bytes at the base version, overlaid with the write's,
        replace the extent on its providers.  The version is unpublished,
        so nobody has read the extent yet.
        """
        page_start = extent.index * page_size
        page = bytearray(min(page_size, ticket.new_size - page_start))
        below = min(page_size, base.size - page_start)
        if below > 0:
            page[:below] = self._read_range(base, page_size, page_start, below)
        lo = page_start + extent.offset - ticket.offset
        page[extent.offset : extent.end] = memoryview(data)[lo : lo + extent.size]
        pieces = {extent.index: (0, page, extent.providers)}
        return self._store(ticket, pieces)[extent.index]

    def _build_metadata(
        self,
        ticket: WriteTicket,
        base: VersionInfo,
        leaves: dict[int, Leaf],
        page_size: int,
    ) -> NodeKey | None:
        """Derive the new metadata tree from the published base version."""
        base_pages = (base.size + page_size - 1) // page_size
        base_capacity = next_power_of_two(base_pages) if base_pages else 1
        total_pages = (ticket.new_size + page_size - 1) // page_size
        return self.metadata_manager.build_version(
            ticket.blob_id,
            ticket.version,
            leaves,
            total_pages,
            base_root=base.root,
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
        call per provider for the extents the range shows, then one join.
        """
        page_range = page_range_for_bytes(offset, size, page_size)
        leaves = self.metadata_manager.lookup(
            info.root, page_range.first, page_range.last
        )
        end = offset + size
        segments = []
        for page_index in page_range:
            page_start = page_index * page_size
            lo, hi = max(offset - page_start, 0), min(end - page_start, page_size)
            segments += overlay(leaves.get(page_index, ()), lo, hi)
        # An extent may show in several segments of its page; fetch it once.
        shown = {id(extent): extent for _, _, extent in segments if extent}
        found = read_pages(self.provider_manager, shown.values(), engine=self.transfer)
        pieces = dict(zip(shown, found))
        # One copy: every segment adds a view of its extent's bytes (zeros
        # where no extent lies) to a single join.
        parts: list[bytes | memoryview] = []
        for start, stop, extent in segments:
            if extent:
                data = memoryview(pieces[id(extent)])
                parts.append(data[start - extent.offset : stop - extent.offset])
            else:
                parts.append(bytes(stop - start))
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
        leaves = self.metadata_manager.lookup(
            info.root, page_range.first, page_range.last
        )
        locations: list[PageLocation] = []
        for page_index, leaf in sorted(leaves.items()):
            # The providers of a page's extents, most bytes held first.
            held: dict[int, int] = {}
            for extent in leaf:
                for provider_id in extent.providers:
                    held[provider_id] = held.get(provider_id, 0) + extent.size
            providers = tuple(sorted(held, key=lambda pid: -held[pid]))
            hosts = []
            for provider_id in providers:
                try:
                    hosts.append(self.provider_manager.get(provider_id).host)
                except Exception:
                    hosts.append(f"provider-{provider_id}")
            locations.append(
                PageLocation(
                    page_index=page_index,
                    offset=page_index * page_size,
                    size=max(extent.end for extent in leaf),
                    providers=providers,
                    hosts=tuple(hosts),
                )
            )
        return locations

    # ------------------------------------------------------------ fault tolerance
    def _leaves_of(
        self, info: VersionInfo, page_size: int
    ) -> dict[int, tuple[PageDescriptor, ...]]:
        """Every leaf of the version ``info``, by page index."""
        return self.metadata_manager.lookup(info.root, 0, -(-info.size // page_size))

    def scrub(self, blob_id: int, *, version: int | None = None):
        """Scrub a version's extents; see :class:`ReplicationManager.scrub`."""
        info = self.version_manager.version_info(blob_id, version)
        blob = self.blob_info(blob_id)
        leaves = self._leaves_of(info, blob.page_size)
        return self.replication_manager.scrub(
            (extent for leaf in leaves.values() for extent in leaf),
            target_replication=blob.replication,
        )

    def repair(self, blob_id: int, *, version: int | None = None) -> int:
        """Re-replicate under-replicated extents and publish a repaired version.

        The repaired version has identical content but updated page
        placement; it becomes the new latest version.  Returns the new
        version number (or the current one when nothing needed healing).
        """
        info = self.version_manager.version_info(blob_id, version)
        report = self.scrub(blob_id, version=info.version)
        if report.is_healthy:
            return info.version
        blob = self.blob_info(blob_id)
        healed = self.replication_manager.heal_all(
            list(report.under_replicated) + list(report.lost),
            target_replication=blob.replication,
        )
        if not healed:
            raise PageNotFoundError(
                f"blob {blob_id}: some pages lost all replicas and cannot be healed"
            )
        # Publish a metadata-only version carrying the new placement.
        leaves = {
            index: tuple(healed.get(extent.key, extent) for extent in leaf)
            for index, leaf in self._leaves_of(info, blob.page_size).items()
            if any(extent.key in healed for extent in leaf)
        }
        ticket = self.version_manager.assign_ticket(
            blob_id, offset=0, size=0, append=False
        )
        try:
            base = self._base_of(ticket)
            root = self._build_metadata(ticket, base, leaves, blob.page_size)
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

