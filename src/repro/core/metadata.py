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

The public entry point is :class:`MetadataManager` with two operations:

* :meth:`MetadataManager.build_version` — given the descriptors of the pages
  a write produced and the root of the version it was based on, create the
  new version's tree and return its root key.
* :meth:`MetadataManager.lookup` — given a version's root key and a page
  range, return the page descriptors covering it.

Both cost round trips per tree *level*, not per node: a walk resolves all
the nodes it needs of one level together — from the manager's node cache,
the rest with one :meth:`MetadataDHT.get_many` — and a build stores its new
nodes with one :meth:`MetadataDHT.put_many`.  Because a node never changes
once stored, the cache needs no invalidation: a re-walk costs no round trip
at all.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from .dht import MetadataDHT
from .errors import MetadataCorruptionError
from .pages import PageDescriptor

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


@dataclass(frozen=True, slots=True)
class TreeNode:
    """Immutable segment-tree node.

    Interior nodes carry the keys of their two children (either may be
    ``None`` for a hole, i.e. a range never written).  Leaves carry the
    descriptor of the page covering their single index.
    """

    key: NodeKey
    left: NodeKey | None = None
    right: NodeKey | None = None
    page: PageDescriptor | None = None

    @property
    def is_leaf(self) -> bool:
        """Whether this node is a leaf (covers exactly one page index)."""
        return self.key.span == 1


class BlobLRU:
    """Bounded, thread-safe LRU of immutable values under per-blob keys.

    Keys carry a ``blob_id`` (:class:`NodeKey`, :class:`PageKey`);
    ``weight`` measures a value against ``capacity`` (default: one per
    entry).
    """

    def __init__(self, capacity: int, weight: Callable[[Any], int] = lambda _value: 1) -> None:
        self._capacity = capacity
        self._weight = weight
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._total = 0
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
                old = self._entries.pop(key, None)
                self._total += self._weight(value) - (0 if old is None else self._weight(old))
                self._entries[key] = value
            while self._total > self._capacity:
                self._total -= self._weight(self._entries.popitem(last=False)[1])

    def drop_blob(self, blob_id: int) -> None:
        with self._lock:
            for key in [k for k in self._entries if k.blob_id == blob_id]:
                self._total -= self._weight(self._entries.pop(key))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


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

    def fetch(self, key: NodeKey) -> TreeNode:
        """Fetch a node from the DHT, raising on dangling references."""
        try:
            node = self._dht.get(key.dht_key())
        except KeyError:
            raise MetadataCorruptionError(
                f"metadata node {key!r} is referenced but missing from the DHT"
            ) from None
        return self._checked(key, node)

    def _resolve(self, keys: Sequence[NodeKey]) -> list[TreeNode]:
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
        written: Mapping[int, PageDescriptor],
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
            Page index -> descriptor for every page the write materialised.
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
        created: list[TreeNode] = []
        root = self._build_range(
            blob_id,
            version,
            0,
            capacity,
            written,
            indices,
            base_root,
            base_capacity,
            created,
        )
        # One store per version, finished before the root is handed back:
        # whoever learns the root (through publication) can fetch every
        # node under it.  The cache is written through only afterwards, so
        # it never holds a node the DHT does not.
        self._dht.put_many([(node.key.dht_key(), node) for node in created])
        self._cache.put_many((node.key, node) for node in created)
        return root

    def _range_touched(self, indices: list[int], lo: int, hi: int) -> bool:
        """Whether any written page index falls inside ``[lo, hi)``."""
        pos = bisect.bisect_left(indices, lo)
        return pos < len(indices) and indices[pos] < hi

    def _find_base_node_key(
        self,
        base_root: NodeKey | None,
        base_capacity: int,
        lo: int,
        hi: int,
    ) -> NodeKey | None:
        """Key of the base-version node covering exactly ``[lo, hi)``, if any.

        Walks down from the base root (through the node cache: the spine is
        shared by every call of one build, and free when the base version
        was built or read by this manager); returns ``None`` when the range
        is a hole in the base version (never written) or lies beyond its
        capacity.
        """
        if base_root is None or lo >= base_capacity:
            return None
        if hi > base_capacity:
            raise MetadataCorruptionError(
                f"range [{lo}, {hi}) straddles the base capacity {base_capacity}"
            )
        current = base_root
        cur_lo, cur_hi = 0, base_capacity
        while (cur_lo, cur_hi) != (lo, hi):
            (node,) = self._resolve([current])
            mid = (cur_lo + cur_hi) // 2
            if hi <= mid:
                child = node.left
                cur_hi = mid
            elif lo >= mid:
                child = node.right
                cur_lo = mid
            else:
                raise MetadataCorruptionError(
                    f"range [{lo}, {hi}) is not aligned with the base tree"
                )
            if child is None:
                return None
            current = child
        return current

    def _build_range(
        self,
        blob_id: int,
        version: int,
        lo: int,
        hi: int,
        written: Mapping[int, PageDescriptor],
        indices: list[int],
        base_root: NodeKey | None,
        base_capacity: int,
        created: list[TreeNode],
    ) -> NodeKey | None:
        """Build the subtree over ``[lo, hi)``; new nodes go to ``created``."""
        touched = self._range_touched(indices, lo, hi)
        if not touched:
            if lo >= base_capacity or base_root is None:
                return None  # hole
            if hi <= base_capacity:
                # Untouched range entirely inside the base tree: share it.
                return self._find_base_node_key(base_root, base_capacity, lo, hi)
            # Untouched range straddling the base capacity (only possible for
            # prefixes of an expanded tree): recurse so the left part can be
            # shared and the right part becomes a hole.
        if hi - lo == 1:
            descriptor = written.get(lo)
            if descriptor is None:
                # Reached only if a touched ancestor narrowed to an untouched
                # leaf inside the base capacity, which the sharing branch
                # should have handled.
                return self._find_base_node_key(base_root, base_capacity, lo, hi)
            node = TreeNode(key=NodeKey(blob_id, version, lo, hi), page=descriptor)
        else:
            mid = (lo + hi) // 2
            left = self._build_range(
                blob_id, version, lo, mid, written, indices, base_root, base_capacity, created
            )
            right = self._build_range(
                blob_id, version, mid, hi, written, indices, base_root, base_capacity, created
            )
            node = TreeNode(key=NodeKey(blob_id, version, lo, hi), left=left, right=right)
        created.append(node)
        return node.key

    # -- lookups ------------------------------------------------------------------
    def lookup(
        self,
        root: NodeKey | None,
        first_page: int,
        last_page: int,
    ) -> dict[int, PageDescriptor]:
        """Return descriptors for the page indices in ``[first_page, last_page)``.

        Indices that were never written (holes) are absent from the result;
        callers decide whether holes are an error (reads) or expected
        (sparse blobs).
        """
        if first_page < 0 or last_page < first_page:
            raise ValueError(
                f"invalid page lookup range [{first_page}, {last_page})"
            )
        result: dict[int, PageDescriptor] = {}
        if root is None or first_page == last_page:
            return result
        # Level order: the nodes of one level that intersect the range are
        # resolved together, then their children form the next frontier.
        frontier = [root] if root.lo < last_page and root.hi > first_page else []
        while frontier:
            children: list[NodeKey] = []
            for node in self._resolve(frontier):
                if node.is_leaf:
                    if node.page is None:
                        raise MetadataCorruptionError(
                            f"leaf {node.key!r} carries no page"
                        )
                    result[node.key.lo] = node.page
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

    # -- introspection ------------------------------------------------------------
    def count_nodes(self, root: NodeKey | None) -> int:
        """Number of reachable nodes from ``root`` (shared nodes counted once)."""
        seen: set[NodeKey] = set()
        frontier = [root] if root is not None else []
        while frontier:
            seen.update(frontier)
            children = {
                child
                for node in self._resolve(frontier)
                for child in (node.left, node.right)
                if child is not None and child not in seen
            }
            frontier = list(children)
        return len(seen)

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
