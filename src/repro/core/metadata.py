"""Versioned, structurally-shared segment-tree metadata.

BlobSeer never overwrites data: every write or append produces a new blob
*version* (snapshot).  The mapping from a version's byte ranges to the pages
holding the bytes is a binary segment tree over page indices.  A new version
builds a fresh path of tree nodes only for the ranges its write touched and
*shares* every untouched subtree with the version it was based on — this is
what makes snapshots cheap and lets an arbitrary number of readers traverse
old versions while writers publish new ones.

Tree nodes are immutable and are stored in the metadata DHT
(:class:`repro.core.dht.MetadataDHT`), keyed by ``(blob, version, lo, hi)``
where ``[lo, hi)`` is the page-index range the node covers and ``version`` is
the version whose write *created* the node (shared nodes keep the key of the
version that created them).

The public entry point is :class:`MetadataManager` with three operations:

* :meth:`MetadataManager.build_version` — given the descriptors of the pages
  a write produced and the root of the version it was based on, create the
  new version's tree and return its root key.
* :meth:`MetadataManager.lookup` — given a version's root key and a page
  range, return the extents of every page in it;
* :meth:`MetadataManager.reachable` — every node and extent reachable from
  a set of roots, each resolved once however many versions share it (the
  garbage collector's mark phase, blob deletion).

A leaf lists the extents of its page in overlay order
(:func:`repro.core.pages.overlay`); a page written whole is a 1-tuple.

They cost round trips per tree *level*, not per node: a walk resolves all
the nodes it needs of one level together — from the manager's node cache,
the rest with one :meth:`MetadataDHT.get_many` — and a build stores its new
nodes with one :meth:`MetadataDHT.put_many`.  Because a node never changes
once stored, the cache needs no invalidation: a re-walk costs no round trip
at all.

A build is one descent from the new root to the written leaves that
carries the base version's node over the same range beside it: each
base node on the way is resolved once, its children are the bases of
the next level, and an untouched child is shared as it is.  A leaf the
write covers only in part is handed the base leaf's extents from the
same descent, so a single-page append to a tree of capacity ``2**k``
resolves at most ``k + 1`` base nodes and stores its ``k + 1`` new nodes
with one ``put_many``.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence, Union

from .dht import MetadataDHT
from .errors import MetadataCorruptionError
from .pages import PageDescriptor, PageKey
from .records import wire_record

__all__ = ["NodeKey", "TreeNode", "MetadataManager", "next_power_of_two"]

#: Tree nodes one :class:`MetadataManager` keeps cached (LRU beyond that).
#: A blob of ``n`` pages has ``2n - 1`` nodes per full tree, so this holds
#: the whole tree of a 16384-page blob (4 GiB at 256 KiB pages); full, it
#: measures about 13 MB.
NODE_CACHE_CAPACITY = 32768


def next_power_of_two(n: int) -> int:
    """Smallest power of two greater than or equal to ``max(n, 1)``."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


@wire_record
@dataclass(frozen=True, slots=True)
class NodeKey:
    """Identity of a tree node in the metadata DHT."""

    blob_id: int
    version: int
    lo: int
    hi: int

    def dht_key(self) -> str:
        """String key under which the node is stored in the DHT."""
        return f"meta:{self.blob_id}:{self.version}:{self.lo}:{self.hi}"

    @property
    def span(self) -> int:
        """Number of page indices covered by the node."""
        return self.hi - self.lo

    @property
    def is_leaf_key(self) -> bool:
        """Whether the key covers a single page (a leaf position)."""
        return self.span == 1


@wire_record
@dataclass(frozen=True, slots=True)
class TreeNode:
    """Immutable segment-tree node.

    Interior nodes carry the keys of their two children (either may be
    ``None`` for a hole, i.e. a range never written).  Leaves carry the
    extents of the page at their single index, oldest first.
    """

    key: NodeKey
    left: NodeKey | None = None
    right: NodeKey | None = None
    extents: tuple[PageDescriptor, ...] = ()

    @property
    def is_leaf(self) -> bool:
        """Whether this node is a leaf (covers exactly one page index)."""
        return self.key.span == 1


class BlobLRU:
    """Bounded, thread-safe LRU of immutable values under keys carrying a
    ``blob_id``; holds at most ``capacity`` entries."""

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get_many(self, keys: Iterable[Any]) -> dict[Any, Any]:
        """The cached values among ``keys`` (LRU touch), under one lock hold."""
        found: dict[Any, Any] = {}
        with self._lock:
            for key in keys:
                value = self._entries.get(key)
                if value is not None:
                    self._entries.move_to_end(key)
                    found[key] = value
        return found

    def put_many(self, items: Iterable[tuple[Any, Any]]) -> None:
        with self._lock:
            for key, value in items:
                self._entries[key] = value
                self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def drop_blob(self, blob_id: int) -> None:
        with self._lock:
            for key in [k for k in self._entries if k.blob_id == blob_id]:
                del self._entries[key]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: A new leaf as :meth:`MetadataManager.build_version` takes it: the
#: extents, or a function of the base leaf's extents returning them.
Leaf = Union[
    tuple[PageDescriptor, ...],
    Callable[[tuple[PageDescriptor, ...]], tuple[PageDescriptor, ...]],
]


class _Build:
    """One :meth:`MetadataManager.build_version`: a single descent of the new
    tree that carries the matching node of the base tree beside it."""

    def __init__(
        self,
        manager: "MetadataManager",
        blob_id: int,
        version: int,
        written: Mapping[int, Leaf],
        indices: list[int],
        base_capacity: int,
    ) -> None:
        self._resolve = manager.resolve
        self._blob_id = blob_id
        self._version = version
        self._written = written
        self._indices = indices
        self._base_capacity = base_capacity
        self.created: list[TreeNode] = []

    def _base(self, key: NodeKey, lo: int, hi: int) -> TreeNode:
        """The base node under ``key``, which must cover ``[lo, hi)`` and,
        as a leaf, list a page: what :meth:`MetadataManager.lookup` checks
        of the nodes it walks."""
        node = self._resolve([key])[0]
        if node.key != key or key.lo != lo or key.hi != hi:
            raise MetadataCorruptionError(
                f"base node {node.key!r} stored under {key!r} does not cover "
                f"[{lo}, {hi})"
            )
        if node.is_leaf and not node.extents:
            raise MetadataCorruptionError(f"leaf {key!r} carries no page")
        return node

    def subtree(self, lo: int, hi: int, base: NodeKey | None) -> NodeKey | None:
        """Build the subtree over ``[lo, hi)``; new nodes go to ``created``.

        ``base`` is the base-version node over ``[lo, min(hi,
        base_capacity))`` — ``None`` for a hole or a range past the base
        capacity.  Only a range growing the tree past the base capacity
        is wider than its base node: a prefix ``[0, hi)`` whose base is
        the base root.  Each base node on the descent is resolved once,
        when its children are needed.
        """
        pos = bisect.bisect_left(self._indices, lo)
        touched = pos < len(self._indices) and self._indices[pos] < hi
        within = hi <= self._base_capacity
        if not touched and (within or base is None):
            return base  # share the untouched subtree (or keep the hole)
        if hi - lo == 1:
            extents = self._written.get(lo, ())
            if callable(extents):
                below = self._base(base, lo, hi).extents if base is not None else ()
                extents = extents(below)
            if not extents:
                return base
            node = TreeNode(NodeKey(self._blob_id, self._version, lo, hi), extents=extents)
        else:
            mid = (lo + hi) // 2
            if base is None:
                left_base = right_base = None
            elif within:
                below = self._base(base, lo, hi)
                left_base, right_base = below.left, below.right
            else:
                # Growing past the base capacity: the base root lies under
                # the left half, and the right half is new.
                left_base, right_base = base, None
            left = self.subtree(lo, mid, left_base)
            right = self.subtree(mid, hi, right_base)
            node = TreeNode(
                NodeKey(self._blob_id, self._version, lo, hi), left=left, right=right
            )
        self.created.append(node)
        return node.key


class MetadataManager:
    """Builds and traverses the versioned metadata trees of one deployment.

    Apart from the DHT handle the manager holds one cache of tree nodes,
    shared by every reader and writer that uses the instance.  A node is
    immutable and keyed by the version that created it, so a cached node is
    correct for as long as it is referenced; nodes of collected versions are
    never asked for again and age out.
    """

    def __init__(self, dht: MetadataDHT) -> None:
        self._dht = dht
        self._cache = BlobLRU(NODE_CACHE_CAPACITY)

    # -- storage helpers ----------------------------------------------------------
    @staticmethod
    def _checked(key: NodeKey, node: object) -> TreeNode:
        if not isinstance(node, TreeNode):
            raise MetadataCorruptionError(
                f"DHT entry for {key!r} is not a TreeNode"
            )
        return node

    def resolve(self, keys: Sequence[NodeKey]) -> list[TreeNode]:
        """The nodes under ``keys``, in order, in at most one round trip.

        Cached nodes cost nothing; the others are fetched together with one
        ``get_many`` (one call per metadata provider) and cached.
        """
        found = self._cache.get_many(keys)
        missing = [key for key in keys if key not in found]
        if missing:
            try:
                fetched = self._dht.get_many([key.dht_key() for key in missing])
            except KeyError as exc:
                raise MetadataCorruptionError(
                    f"metadata node {exc.args[0]} is referenced but missing "
                    "from the DHT"
                ) from None
            nodes = [self._checked(key, node) for key, node in zip(missing, fetched)]
            self._cache.put_many(zip(missing, nodes))
            found.update(zip(missing, nodes))
        return [found[key] for key in keys]

    def forget_blob(self, blob_id: int) -> None:
        """Drop a deleted blob's nodes from the cache."""
        self._cache.drop_blob(blob_id)

    # -- version construction -----------------------------------------------------
    def build_version(
        self,
        blob_id: int,
        version: int,
        written: Mapping[int, Leaf],
        total_pages: int,
        *,
        base_root: NodeKey | None,
        base_capacity: int,
    ) -> NodeKey | None:
        """Create the tree for ``version`` and return its root key.

        Parameters
        ----------
        blob_id, version:
            Identity of the version being published.
        written:
            Page index -> the new leaf's extents, for every page the write
            touched; or a function that takes the base version's extents
            of that page (``()`` for a hole) and returns them, so a write
            that covers a page only in part gets the base leaf from the
            build's own descent.
        total_pages:
            Total number of pages of the blob *after* this write (determines
            the capacity of the new tree).
        base_root:
            Root key of the version this write was based on (``None`` for
            the first write to the blob).
        base_capacity:
            Page capacity (power of two) of the base version's tree.

        Returns
        -------
        The root :class:`NodeKey` of the new version, or ``None`` when the
        blob is still empty (zero pages and nothing written).
        """
        if total_pages < 0:
            raise ValueError("total_pages cannot be negative")
        if total_pages == 0 and not written:
            return None
        capacity = next_power_of_two(total_pages)
        if base_root is not None and base_capacity > capacity:
            # A blob never shrinks; keep the larger capacity to preserve sharing.
            capacity = base_capacity
        indices = sorted(written.keys())
        if indices and (indices[0] < 0 or indices[-1] >= capacity):
            raise ValueError(
                f"written page indices {indices[0]}..{indices[-1]} fall outside "
                f"capacity {capacity}"
            )
        build = _Build(self, blob_id, version, written, indices, base_capacity)
        root = build.subtree(0, capacity, base_root)
        # One store per version, finished before the root is handed back:
        # whoever learns the root (through publication) can fetch every
        # node under it.  The cache is written through only afterwards, so
        # it never holds a node the DHT does not.
        self._dht.put_many([(node.key.dht_key(), node) for node in build.created])
        self._cache.put_many((node.key, node) for node in build.created)
        return root

    # -- lookups ------------------------------------------------------------------
    def lookup(
        self,
        root: NodeKey | None,
        first_page: int,
        last_page: int,
    ) -> dict[int, tuple[PageDescriptor, ...]]:
        """Return the extents of the page indices in ``[first_page, last_page)``.

        Indices that were never written (holes) are absent from the result;
        callers decide whether holes are an error (reads) or expected
        (sparse blobs).
        """
        if first_page < 0 or last_page < first_page:
            raise ValueError(
                f"invalid page lookup range [{first_page}, {last_page})"
            )
        result: dict[int, tuple[PageDescriptor, ...]] = {}
        if root is None or first_page == last_page:
            return result
        # Level order: the nodes of one level that intersect the range are
        # resolved together, then their children form the next frontier.
        frontier = [root] if root.lo < last_page and root.hi > first_page else []
        while frontier:
            children: list[NodeKey] = []
            for node in self.resolve(frontier):
                if node.is_leaf:
                    if not node.extents:
                        raise MetadataCorruptionError(
                            f"leaf {node.key!r} carries no page"
                        )
                    result[node.key.lo] = node.extents
                    continue
                for child in (node.left, node.right):
                    if (
                        child is not None
                        and child.lo < last_page
                        and child.hi > first_page
                    ):
                        children.append(child)
            frontier = children
        return result

    def reachable(
        self, roots: Iterable[NodeKey | None]
    ) -> tuple[set[NodeKey], dict[PageKey, PageDescriptor]]:
        """Every node and extent reachable from ``roots``.

        Level order over all the trees at once: the unvisited nodes of one
        level are resolved together, so a node shared by many versions is
        resolved once.
        """
        seen: set[NodeKey] = set()
        extents: dict[PageKey, PageDescriptor] = {}
        frontier = list({root for root in roots if root is not None})
        while frontier:
            seen.update(frontier)
            children: set[NodeKey] = set()
            for node in self.resolve(frontier):
                extents.update((extent.key, extent) for extent in node.extents)
                children.update(
                    child
                    for child in (node.left, node.right)
                    if child is not None and child not in seen
                )
            frontier = list(children)
        return seen, extents

    # -- introspection ------------------------------------------------------------
    def count_nodes(self, root: NodeKey | None) -> int:
        """Number of reachable nodes from ``root`` (shared nodes counted once)."""
        return len(self.reachable([root])[0])

    def nodes_created_by(self, blob_id: int, version: int) -> int:
        """Number of DHT-stored tree nodes whose key carries ``version``.

        Because shared nodes keep the key of the version that created them,
        this measures the metadata cost of one write — the quantity the
        metadata ablation benchmark (A3 in DESIGN.md) reports.
        """
        prefix = f"meta:{blob_id}:{version}:"
        count = 0
        for provider in self._dht.providers:
            count += sum(1 for k in provider.keys() if k.startswith(prefix))
        return count
