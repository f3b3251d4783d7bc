"""Page model: the unit of data management in BlobSeer.

A blob is a sequence of bytes logically split into fixed-size *pages*.  A
write at version ``v`` materialises new pages only for the byte range it
touches; untouched pages are shared with older versions through the
versioned metadata tree (:mod:`repro.core.metadata`).

Stored pieces are addressed by :class:`PageKey` — the triple ``(blob_id,
version, index)`` identifying the write that produced the piece and the
page it belongs to.  A :class:`PageDescriptor` extends the key with the
placement information needed to fetch the bytes: which providers hold a
replica, how many bytes the piece carries and where inside the page they
start.  A write stores only its own bytes, so a page is a list of such
*extents*, applied oldest first (:func:`overlay`): an append that starts
mid-page adds an extent beside its predecessors' instead of rewriting the
page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .records import wire_record

__all__ = [
    "PageKey",
    "PageDescriptor",
    "PageRange",
    "overlay",
    "page_range_for_bytes",
    "split_into_pages",
]


@wire_record
@dataclass(frozen=True, slots=True)
class PageKey:
    """Globally unique identifier of a stored page.

    Attributes
    ----------
    blob_id:
        Blob the page belongs to.
    version:
        Version (snapshot) whose write materialised this page.
    index:
        Zero-based page index within the blob.
    """

    blob_id: int
    version: int
    index: int

    def to_bytes(self) -> bytes:
        """Serialise the key for use by persistent page stores."""
        return f"{self.blob_id}:{self.version}:{self.index}".encode("ascii")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PageKey":
        """Inverse of :meth:`to_bytes`."""
        blob_id, version, index = raw.decode("ascii").split(":")
        return cls(int(blob_id), int(version), int(index))


@wire_record
@dataclass(frozen=True, slots=True)
class PageDescriptor:
    """Placement record for an extent: where its replicas live, its size and
    ``offset``, the position of its bytes inside the page."""

    key: PageKey
    providers: tuple[int, ...]
    size: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.size < 0 or self.offset < 0:
            raise ValueError("page size and offset cannot be negative")
        if not self.providers:
            raise ValueError("a page descriptor needs at least one provider")

    @property
    def index(self) -> int:
        """Page index within the blob (shortcut for ``key.index``)."""
        return self.key.index

    @property
    def replication(self) -> int:
        """Number of replicas recorded for this page."""
        return len(self.providers)

    @property
    def end(self) -> int:
        """Position inside the page just past the extent's bytes."""
        return self.offset + self.size

    def covers(self, other: "PageDescriptor") -> bool:
        """Whether this extent hides every byte of ``other``."""
        return self.offset <= other.offset and other.end <= self.end


@dataclass(frozen=True, slots=True)
class PageRange:
    """Half-open range of page indices ``[first, last)`` touched by an I/O."""

    first: int
    last: int

    def __post_init__(self) -> None:
        if self.first < 0 or self.last < self.first:
            raise ValueError(f"invalid page range [{self.first}, {self.last})")

    def __len__(self) -> int:
        return self.last - self.first

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.first, self.last))

    def __contains__(self, index: object) -> bool:
        return isinstance(index, int) and self.first <= index < self.last


def overlay(
    extents: Sequence[PageDescriptor], lo: int, hi: int
) -> list[tuple[int, int, PageDescriptor | None]]:
    """Which extent supplies each byte of ``[lo, hi)`` inside one page.

    Returns contiguous ``(start, stop, extent)`` segments covering the
    range; later extents win, and ``extent`` is ``None`` where none
    covers the bytes (they read as zeros).
    """
    segments: list[tuple[int, int, PageDescriptor | None]] = [(lo, hi, None)]
    for extent in extents:
        start, stop = max(extent.offset, lo), min(extent.end, hi)
        if start == lo and stop == hi:
            segments = [(lo, hi, extent)]
        elif start < stop:
            segments = (
                [(a, min(b, start), x) for a, b, x in segments if a < start]
                + [(start, stop, extent)]
                + [(max(a, stop), b, x) for a, b, x in segments if b > stop]
            )
    return segments


def page_range_for_bytes(offset: int, size: int, page_size: int) -> PageRange:
    """Return the range of page indices covering byte range ``[offset, offset+size)``.

    A zero-sized range maps to an empty page range starting at the page
    containing ``offset``.
    """
    if offset < 0 or size < 0:
        raise ValueError("offset and size must be non-negative")
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    first = offset // page_size
    if size == 0:
        return PageRange(first, first)
    last = (offset + size - 1) // page_size + 1
    return PageRange(first, last)


def split_into_pages(data: bytes, page_size: int) -> list[bytes]:
    """Split ``data`` into consecutive chunks of at most ``page_size`` bytes.

    The final chunk may be shorter than ``page_size``; an empty input yields
    an empty list.
    """
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    view = memoryview(data)
    return [bytes(view[i : i + page_size]) for i in range(0, len(view), page_size)]
