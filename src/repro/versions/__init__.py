"""repro.versions — the snapshot lifecycle subsystem.

BlobSeer's signature feature is multi-versioned concurrency: every write
publishes an immutable snapshot.  This package turns that mechanism into a
production lifecycle:

* :class:`PinRegistry` / :class:`SnapshotHandle` — refcounted, optionally
  expiring leases readers and MapReduce jobs take on a published version;
* :class:`RetentionPolicy` — keep-last-N plus pinned retention;
* :class:`VersionGC` — mark-and-sweep collector walking the snapshot
  metadata trees to reclaim unreachable pages and tree nodes.  It runs in
  the process that holds the version manager, on demand or as a
  background :class:`GcDaemon`.
"""

from __future__ import annotations

from .gc import GcDaemon, GcPlan, GcReport, VersionGC
from .pins import PinRegistry, SnapshotHandle
from .retention import RetentionPolicy

__all__ = [
    "SnapshotHandle",
    "PinRegistry",
    "RetentionPolicy",
    "VersionGC",
    "GcDaemon",
    "GcPlan",
    "GcReport",
]
