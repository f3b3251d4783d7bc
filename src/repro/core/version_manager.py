"""Version manager: version assignment and serialized publication.

The version manager is the only centralized entity of BlobSeer.  It hands
out *write tickets* — the version number and the byte range a write will
cover — and later *publishes* versions in the exact order the tickets were
assigned, which is how concurrent writers to the same blob are serialized
without ever blocking each other's data transfers:

1. A writer sends its pages to data providers (no coordination needed).
2. It asks the version manager for a ticket; tickets are assigned under a
   lock, so each writer gets a distinct version number, and appends get a
   distinct, contiguous offset computed from the *assigned* (not yet
   published) size of the blob.
3. It builds the metadata tree for its version and reports completion.
4. The version manager publishes versions strictly in ticket order, so a
   reader asking for "the latest version" always observes a prefix of the
   serialized history — never a half-published snapshot.

This module is purely control-plane: it never touches page data.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .config import BlobSeerConfig
from .errors import (
    BlobNotFoundError,
    TicketError,
    VersionNotFoundError,
    VersionNotPublishedError,
    VersionRetiredError,
)
from .metadata import NodeKey, next_power_of_two

__all__ = ["WriteTicket", "VersionInfo", "BlobInfo", "VersionManager"]


@dataclass(frozen=True, slots=True)
class WriteTicket:
    """Permission to publish one write as version ``version`` of ``blob_id``.

    Attributes
    ----------
    blob_id, version:
        Identity of the snapshot that the write will become.
    offset, size:
        Byte range the write covers.  For appends the offset was computed
        by the version manager from the assigned size of the blob.
    base_version:
        Version whose metadata tree the new tree will be derived from (the
        most recently *assigned* version at ticket time).
    base_size:
        Size in bytes of the blob at ``base_version`` (assigned size).
    new_size:
        Size the blob will have once this version is published.
    is_append:
        Whether the ticket was issued for an append.
    """

    blob_id: int
    version: int
    offset: int
    size: int
    base_version: int
    base_size: int
    new_size: int
    is_append: bool


@dataclass(frozen=True, slots=True)
class VersionInfo:
    """Metadata of a published version."""

    blob_id: int
    version: int
    size: int
    root: NodeKey | None
    write_offset: int
    write_size: int
    is_append: bool


@dataclass(frozen=True, slots=True)
class BlobInfo:
    """Static properties of a blob, fixed at creation time."""

    blob_id: int
    page_size: int
    replication: int


@dataclass
class _VersionSlot:
    """Internal mutable record tracking one assigned version."""

    ticket: WriteTicket
    root: NodeKey | None = None
    ready: bool = False
    aborted: bool = False


@dataclass
class _BlobState:
    """Internal per-blob bookkeeping."""

    info: BlobInfo
    lock: threading.Condition = field(default_factory=threading.Condition)
    versions: dict[int, _VersionSlot] = field(default_factory=dict)
    next_version: int = 1
    assigned_size: int = 0
    assigned_version: int = 0
    published_version: int = 0
    published_sizes: dict[int, int] = field(default_factory=dict)
    published_roots: dict[int, NodeKey | None] = field(default_factory=dict)
    retired: set[int] = field(default_factory=set)


class VersionManager:
    """Centralized version assignment and ordered publication service."""

    def __init__(self, config: BlobSeerConfig | None = None) -> None:
        self._config = config or BlobSeerConfig()
        # Blob registry: registration and removal take _blobs_lock, lookups
        # are lock-free (a GIL-atomic dict read).  Per-blob ordering lives
        # in _BlobState.lock, so writers of unrelated blobs never contend
        # beyond the registry's short critical sections.
        self._blobs: dict[int, _BlobState] = {}
        self._blobs_lock = threading.Lock()
        self._blob_ids = itertools.count(1)
        self._delete_guards: list[Callable[[int], None]] = []

    # -- blob lifecycle -----------------------------------------------------------
    def create_blob(
        self,
        *,
        page_size: int | None = None,
        replication: int | None = None,
    ) -> BlobInfo:
        """Register a new empty blob and return its static description."""
        page_size = page_size if page_size is not None else self._config.page_size
        replication = (
            replication if replication is not None else self._config.replication
        )
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        if replication < 1:
            raise ValueError("replication must be at least 1")
        # itertools.count is GIL-atomic: id allocation needs no lock.
        blob_id = next(self._blob_ids)
        info = BlobInfo(blob_id=blob_id, page_size=page_size, replication=replication)
        state = _BlobState(info=info)
        # Version 0 is the implicit empty snapshot.
        state.published_sizes[0] = 0
        state.published_roots[0] = None
        with self._blobs_lock:
            self._blobs[blob_id] = state
        return info

    def _state(self, blob_id: int) -> _BlobState:
        # Lock-free lookup: the registry only ever gains/loses whole entries
        # under _blobs_lock, and a single dict read is atomic.  TypeError
        # covers unhashable ids arriving over the wire.
        try:
            return self._blobs[blob_id]
        except (KeyError, TypeError):
            raise BlobNotFoundError(blob_id) from None

    def blob_info(self, blob_id: int) -> BlobInfo:
        """Return the static description of ``blob_id``."""
        return self._state(blob_id).info

    def blob_ids(self) -> list[int]:
        """Ids of every blob ever created (sorted)."""
        with self._blobs_lock:
            return sorted(self._blobs)

    def add_delete_guard(self, guard: Callable[[int], None]) -> None:
        """Register a veto hook consulted before every :meth:`delete_blob`.

        Guards receive the blob id and raise to block the deletion — the
        pin registry installs one so a blob with active snapshot pins
        cannot be deleted out from under its readers.
        """
        self._delete_guards.append(guard)

    def delete_blob(self, blob_id: int) -> None:
        """Forget a blob entirely (its pages are left to garbage collection).

        Raises whatever a registered delete guard raises (for example
        :class:`~repro.core.errors.BlobPinnedError` when snapshot pins are
        still active) and leaves the blob intact in that case.
        """
        # Guards run outside the registry lock: they may consult other
        # subsystems (the pin registry) that take their own locks.
        self._state(blob_id)  # surface BlobNotFoundError first
        for guard in self._delete_guards:
            guard(blob_id)
        with self._blobs_lock:
            if self._blobs.pop(blob_id, None) is None:
                raise BlobNotFoundError(blob_id)

    # -- ticket assignment --------------------------------------------------------
    def assign_ticket(
        self,
        blob_id: int,
        *,
        offset: int | None,
        size: int,
        append: bool = False,
    ) -> WriteTicket:
        """Assign the next version number for a write or append.

        For appends, ``offset`` must be ``None``; the offset is the assigned
        size of the blob, so concurrent appenders receive disjoint,
        contiguous ranges.  For writes, ``offset`` is the caller-provided
        position (page alignment is enforced by the client, not here).
        """
        if size < 0:
            raise ValueError("write size cannot be negative")
        state = self._state(blob_id)
        with state.lock:
            if append:
                if offset is not None:
                    raise TicketError("append tickets do not accept an offset")
                offset = state.assigned_size
            else:
                if offset is None:
                    raise TicketError("write tickets require an offset")
                if offset < 0:
                    raise ValueError("offset cannot be negative")
            version = state.next_version
            state.next_version += 1
            base_version = state.assigned_version
            base_size = state.assigned_size
            new_size = max(base_size, offset + size)
            ticket = WriteTicket(
                blob_id=blob_id,
                version=version,
                offset=offset,
                size=size,
                base_version=base_version,
                base_size=base_size,
                new_size=new_size,
                is_append=append,
            )
            state.versions[version] = _VersionSlot(ticket=ticket)
            state.assigned_version = version
            state.assigned_size = new_size
            return ticket

    # -- publication --------------------------------------------------------------
    def publish(self, ticket: WriteTicket, root: NodeKey | None) -> int:
        """Mark ``ticket``'s version as complete and publish it when its turn comes.

        Returns the highest published version after this call (which may be
        lower than the ticket's version if earlier writers have not yet
        published).
        """
        state = self._state(ticket.blob_id)
        with state.lock:
            slot = state.versions.get(ticket.version)
            if slot is None or slot.ticket != ticket:
                raise TicketError(
                    f"ticket for version {ticket.version} of blob "
                    f"{ticket.blob_id} was never assigned"
                )
            if slot.ready:
                raise TicketError(
                    f"version {ticket.version} of blob {ticket.blob_id} "
                    "was already published"
                )
            slot.root = root
            slot.ready = True
            self._advance(state)
            state.lock.notify_all()
            return state.published_version

    def abort(self, ticket: WriteTicket) -> None:
        """Abandon a ticket so later versions are not blocked forever.

        The aborted version publishes as a copy of its predecessor: same
        root, same size.  The range the ticket reserved is not handed back,
        so a later append's ticket starts past it, and once such a version
        publishes, the skipped range reads as zeros.
        """
        state = self._state(ticket.blob_id)
        with state.lock:
            slot = state.versions.get(ticket.version)
            if slot is None or slot.ticket != ticket:
                raise TicketError(
                    f"ticket for version {ticket.version} of blob "
                    f"{ticket.blob_id} was never assigned"
                )
            if slot.ready:
                raise TicketError("cannot abort a published version")
            slot.aborted = True
            slot.ready = True
            self._advance(state)
            state.lock.notify_all()

    def _advance(self, state: _BlobState) -> None:
        """Publish every consecutive ready version following the current head."""
        while True:
            nxt = state.published_version + 1
            slot = state.versions.get(nxt)
            if slot is None or not slot.ready:
                break
            if slot.aborted:
                # An aborted version exposes the same content as its
                # predecessor: reuse the previous published root and size.
                prev = state.published_version
                state.published_roots[nxt] = state.published_roots.get(prev)
                state.published_sizes[nxt] = state.published_sizes.get(prev, 0)
            else:
                state.published_roots[nxt] = slot.root
                state.published_sizes[nxt] = slot.ticket.new_size
            state.published_version = nxt

    def wait_for_publication(
        self, blob_id: int, version: int, *, timeout: float | None = None
    ) -> bool:
        """Block until ``version`` is published (or the timeout expires)."""
        state = self._state(blob_id)
        with state.lock:
            return state.lock.wait_for(
                lambda: state.published_version >= version, timeout=timeout
            )

    # -- queries ------------------------------------------------------------------
    def latest_version(self, blob_id: int) -> int:
        """Highest published version number (0 for an empty blob)."""
        state = self._state(blob_id)
        with state.lock:
            return state.published_version

    def latest_assigned_version(self, blob_id: int) -> int:
        """Highest version number ever assigned (published or not)."""
        state = self._state(blob_id)
        with state.lock:
            return state.assigned_version

    def version_info(self, blob_id: int, version: int | None = None) -> VersionInfo:
        """Return the metadata of a published version (default: the latest)."""
        state = self._state(blob_id)
        with state.lock:
            if version is None:
                version = state.published_version
            if version < 0 or version > state.assigned_version:
                raise VersionNotFoundError(blob_id, version)
            if version > state.published_version:
                raise VersionNotPublishedError(blob_id, version)
            if version in state.retired:
                raise VersionRetiredError(blob_id, version)
            if version == 0:
                return VersionInfo(
                    blob_id=blob_id,
                    version=0,
                    size=0,
                    root=None,
                    write_offset=0,
                    write_size=0,
                    is_append=False,
                )
            slot = state.versions[version]
            return VersionInfo(
                blob_id=blob_id,
                version=version,
                size=state.published_sizes[version],
                root=state.published_roots[version],
                write_offset=slot.ticket.offset,
                write_size=slot.ticket.size,
                is_append=slot.ticket.is_append,
            )

    def published_versions(self, blob_id: int) -> list[int]:
        """Live published version numbers (version 0 included, retired excluded)."""
        state = self._state(blob_id)
        with state.lock:
            return [
                v
                for v in range(0, state.published_version + 1)
                if v not in state.retired
            ]

    def inflight_floor(self, blob_id: int) -> int | None:
        """Lowest base version any in-flight (unpublished) writer depends on.

        Writers read their ticket's base version — its leaves, and the
        bytes of a page they compact — so the garbage collector must not
        reclaim any version at or above this floor.  ``None`` means no writer is in flight.
        """
        state = self._state(blob_id)
        with state.lock:
            bases = [
                slot.ticket.base_version
                for slot in state.versions.values()
                if not slot.ready
            ]
            return min(bases) if bases else None

    def retire_versions(self, blob_id: int, versions: Iterable[int]) -> list[int]:
        """Drop published versions from the catalogue (GC's final step).

        Only strictly-old snapshots may retire: never version 0 (the empty
        snapshot every blob shares), never the latest published version, and
        never a version that was not published.  Returns the versions
        actually retired (already-retired ones are skipped silently so GC
        runs are idempotent).
        """
        return self.retire_batch([(blob_id, versions)]).get(blob_id, [])

    def retire_batch(
        self, requests: Iterable[tuple[int, Iterable[int]]]
    ) -> dict[int, list[int]]:
        """Retire versions of many blobs, one critical section per blob.

        The batched counterpart of :meth:`retire_versions` for the GC
        sweep phase: all of a blob's retirements (requests for the same
        blob are merged) apply under a single lock hold.  Returns a map of
        blob id to the versions actually retired there.
        """
        by_blob: dict[int, set[int]] = {}
        for blob_id, versions in requests:
            by_blob.setdefault(blob_id, set()).update(versions)
        result: dict[int, list[int]] = {}
        for blob_id, wanted in by_blob.items():
            state = self._state(blob_id)
            retired: list[int] = []
            with state.lock:
                for version in sorted(wanted):
                    if version in state.retired:
                        continue
                    if version <= 0:
                        raise ValueError(
                            "version 0 (the empty snapshot) cannot retire"
                        )
                    if version > state.published_version:
                        raise VersionNotPublishedError(blob_id, version)
                    if version == state.published_version:
                        raise ValueError(
                            f"cannot retire the latest published version {version} "
                            f"of blob {blob_id}"
                        )
                    state.retired.add(version)
                    state.published_roots.pop(version, None)
                    state.published_sizes.pop(version, None)
                    # The write ticket's slot is no longer needed: the version
                    # published long ago and _advance never revisits it.
                    state.versions.pop(version, None)
                    retired.append(version)
            result[blob_id] = retired
        return result

    def size(self, blob_id: int, version: int | None = None) -> int:
        """Size in bytes of a published version (default: the latest)."""
        return self.version_info(blob_id, version).size

    def capacity_pages(self, blob_id: int, version: int | None = None) -> int:
        """Page capacity (power of two) of a published version's tree."""
        info = self.version_info(blob_id, version)
        page_size = self.blob_info(blob_id).page_size
        total_pages = (info.size + page_size - 1) // page_size
        return next_power_of_two(total_pages) if total_pages else 1

    def pending_versions(self, blob_id: int) -> list[int]:
        """Versions assigned but not yet published (writers in flight)."""
        state = self._state(blob_id)
        with state.lock:
            return [
                v
                for v in range(state.published_version + 1, state.assigned_version + 1)
                if v in state.versions and not state.versions[v].ready
            ]

    # -- bulk helpers -------------------------------------------------------------
    def snapshot_roots(self, blob_id: int) -> dict[int, NodeKey | None]:
        """Map published version -> metadata root (for GC and debugging)."""
        state = self._state(blob_id)
        with state.lock:
            return dict(state.published_roots)

    def describe(self, blob_ids: Iterable[int] | None = None) -> dict[int, dict]:
        """JSON-friendly description of blob states (monitoring helper)."""
        ids = list(blob_ids) if blob_ids is not None else self.blob_ids()
        result: dict[int, dict] = {}
        for blob_id in ids:
            state = self._state(blob_id)
            with state.lock:
                result[blob_id] = {
                    "page_size": state.info.page_size,
                    "replication": state.info.replication,
                    "published_version": state.published_version,
                    "assigned_version": state.assigned_version,
                    "size": state.published_sizes.get(state.published_version, 0),
                    "live_versions": len(state.published_roots),
                    "retired_versions": len(state.retired),
                }
        return result
