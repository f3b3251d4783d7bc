"""Version garbage collector: mark-and-sweep page reachability over snapshots.

BlobSeer never overwrites data, so under write-heavy churn the provider pool
accumulates pages only old snapshots reference.  :class:`VersionGC` converts
the retention policy and pin registry into reclaimed space:

1. **mark** — for each blob, compute the *live* version set (retention rules
   ∪ pinned versions ∪ the latest published version ∪ any version an
   in-flight writer still reads as its base) and walk their metadata
   trees, collecting every reachable tree node and extent;
2. **retire** — drop the dead versions from the version manager's catalogue
   so new readers fail fast with ``VersionRetiredError``;
3. **sweep** — delete the dead versions' unreachable tree nodes from the
   metadata DHT and remove unreachable pages (including orphans left by
   aborted writers) from every provider.

Structural sharing makes the mark phase precise for free: a page or node
shared by a dead and a live version is reachable from the live root and is
therefore spared — so is an old append's extent that a live leaf still
overlays.  The collector is safe to run concurrently with writers —
pages of unpublished versions are newer than the head snapshot the plan was
computed against and are never touched.

The collector runs in the process that holds the version manager and the
metadata client: on demand (``run_once`` / ``collect``) or as the background
daemon :meth:`VersionGC.start` starts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .pins import PinRegistry
from .retention import RetentionPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.client import BlobSeer
    from ..core.pages import PageKey

__all__ = ["GcPlan", "GcReport", "VersionGC", "GcDaemon"]


@dataclass(frozen=True)
class GcPlan:
    """What one blob's collection cycle intends to do (mark-phase output)."""

    blob_id: int
    live_versions: tuple[int, ...]
    dead_versions: tuple[int, ...]
    dead_pages: tuple["PageKey", ...]
    dead_nodes: tuple[str, ...]
    live_pages: int
    live_bytes: int


@dataclass
class GcReport:
    """Aggregated result of one or more collection cycles."""

    blobs_scanned: int = 0
    versions_retired: int = 0
    pages_reclaimed: int = 0
    bytes_reclaimed: int = 0
    nodes_reclaimed: int = 0
    live_versions: int = 0
    live_pages: int = 0
    live_bytes: int = 0
    errors: int = 0

    def merge(self, other: "GcReport") -> None:
        self.blobs_scanned += other.blobs_scanned
        self.versions_retired += other.versions_retired
        self.pages_reclaimed += other.pages_reclaimed
        self.bytes_reclaimed += other.bytes_reclaimed
        self.nodes_reclaimed += other.nodes_reclaimed
        self.live_versions += other.live_versions
        self.live_pages += other.live_pages
        self.live_bytes += other.live_bytes
        self.errors += other.errors

    def describe(self) -> dict:
        return {
            "blobs_scanned": self.blobs_scanned,
            "versions_retired": self.versions_retired,
            "pages_reclaimed": self.pages_reclaimed,
            "bytes_reclaimed": self.bytes_reclaimed,
            "nodes_reclaimed": self.nodes_reclaimed,
            "live_versions": self.live_versions,
            "live_pages": self.live_pages,
            "live_bytes": self.live_bytes,
            "errors": self.errors,
        }


@dataclass
class _Totals:
    """Lifetime counters of one collector (monotonic, lock-protected)."""

    runs: int = 0
    versions_retired: int = 0
    pages_reclaimed: int = 0
    bytes_reclaimed: int = 0
    nodes_reclaimed: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class VersionGC:
    """Background (or on-demand) collector of dead blob versions."""

    def __init__(
        self,
        client: "BlobSeer",
        *,
        policy: RetentionPolicy | None = None,
        pins: PinRegistry | None = None,
    ) -> None:
        self._client = client
        self.policy = policy if policy is not None else RetentionPolicy()
        self.pins = pins if pins is not None else PinRegistry()
        self._totals = _Totals()
        self._daemon: GcDaemon | None = None
        # One collection at a time: overlapping sweeps of the same blob
        # would double-count reclaimed space.
        self._run_lock = threading.Lock()

    # --------------------------------------------------------------------- mark
    def live_versions(self, blob_id: int) -> set[int]:
        """The versions of ``blob_id`` this collector would retain right now."""
        return set(self._plan_versions(blob_id)[0])

    def _plan_versions(self, blob_id: int) -> tuple[set[int], set[int]]:
        vm = self._client.version_manager
        published = set(vm.published_versions(blob_id))
        pinned = self.pins.pinned_versions(blob_id)
        retained = self.policy.retained(published, pinned=pinned)
        # Writers in flight read their base version's leaves (and, when they
        # compact a page, its bytes): everything at or above the lowest
        # in-flight base must survive.
        floor = vm.inflight_floor(blob_id)
        if floor is not None:
            retained |= {v for v in published if v >= floor}
        return retained, published - retained

    def plan(self, blob_id: int) -> GcPlan:
        """Mark phase for one blob: compute what a collection would reclaim."""
        vm = self._client.version_manager
        # Snapshot the publication head *before* computing the version sets:
        # any page with a newer version belongs to a writer still in flight
        # (or one that published after this point) and must not be swept as
        # an orphan, because its tree may not be walked below.
        head = vm.latest_version(blob_id)
        live, dead = self._plan_versions(blob_id)
        roots = vm.snapshot_roots(blob_id)
        walk = self._client.metadata_manager.reachable
        live_nodes, live_pages = walk(r for v, r in roots.items() if v in live)
        dead_nodes, dead_page_map = walk(r for v, r in roots.items() if v in dead)
        dead_nodes -= live_nodes
        reclaim: dict["PageKey", int] = {
            key: descriptor.size
            for key, descriptor in dead_page_map.items()
            if key not in live_pages
        }
        # Orphan sweep: pages stored on providers that no published tree
        # references (aborted writers, superseded replicas).  Only pages no
        # newer than the head snapshot are candidates.
        for provider in self._client.provider_manager.providers:
            try:
                stored = provider.pages_for_blob(blob_id)
            except Exception:
                continue
            for key in stored:
                if key.version > head or key in live_pages or key in reclaim:
                    continue
                if key in dead_page_map:
                    continue  # already accounted via its descriptor
                reclaim[key] = -1  # size discovered at sweep time
        live_bytes = sum(
            descriptor.size * max(len(descriptor.providers), 1)
            for descriptor in live_pages.values()
        )
        return GcPlan(
            blob_id=blob_id,
            live_versions=tuple(sorted(live)),
            dead_versions=tuple(sorted(dead)),
            dead_pages=tuple(reclaim),
            dead_nodes=tuple(sorted(key.dht_key() for key in dead_nodes)),
            live_pages=len(live_pages),
            live_bytes=live_bytes,
        )

    # -------------------------------------------------------------------- sweep
    def collect(self, blob_id: int) -> GcReport:
        """Run one full mark–retire–sweep cycle for ``blob_id``."""
        with self._run_lock:
            return self._collect_locked(blob_id)

    def _collect_locked(self, blob_id: int) -> GcReport:
        vm = self._client.version_manager
        retired: list[int] = []
        # Retire first — atomically against the pin registry — so a version
        # is either spared (its pin landed before the retire and the plan is
        # recomputed) or new readers of it fail fast with
        # VersionRetiredError instead of racing the sweep below.  Only a
        # plan whose dead versions were actually retired may be swept.
        plan: GcPlan | None = None
        for _ in range(8):
            candidate = self.plan(blob_id)
            if not candidate.dead_versions or self.pins.guard_sweep(
                blob_id,
                candidate.dead_versions,
                # Group-commit retire: the whole dead set drops from the
                # catalogue under one per-blob lock hold.
                lambda: retired.extend(
                    vm.retire_batch(  # noqa: B023
                        [(blob_id, candidate.dead_versions)]  # noqa: B023
                    ).get(blob_id, [])
                ),
            ):
                plan = candidate
                break
            # A pin landed between the mark phase and the retire: re-plan.
        if plan is None:
            # Persistent pin churn: report accounting only, sweep nothing.
            safe = self.plan(blob_id)
            return GcReport(
                blobs_scanned=1,
                live_versions=len(safe.live_versions) + len(safe.dead_versions),
                live_pages=safe.live_pages,
                live_bytes=safe.live_bytes,
            )
        report = GcReport(
            blobs_scanned=1,
            live_versions=len(plan.live_versions),
            live_pages=plan.live_pages,
            live_bytes=plan.live_bytes,
        )
        report.versions_retired = len(retired)
        dht = self._client.dht
        for dht_key in plan.dead_nodes:
            try:
                dht.delete(dht_key)
                report.nodes_reclaimed += 1
            except Exception:
                report.errors += 1
        from ..core.errors import ProviderUnavailableError

        dead_pages = list(plan.dead_pages)
        # The freed space shows in the load view at each provider's next
        # put reply.
        for provider in self._client.provider_manager.providers if dead_pages else ():
            try:
                freed = provider.remove_pages(dead_pages)
            except ProviderUnavailableError:
                continue  # unreachable provider: skipped
            except Exception:
                report.errors += 1
                continue
            report.pages_reclaimed += sum(1 for size in freed if size)
            report.bytes_reclaimed += sum(freed)
        with self._totals.lock:
            self._totals.versions_retired += report.versions_retired
            self._totals.pages_reclaimed += report.pages_reclaimed
            self._totals.bytes_reclaimed += report.bytes_reclaimed
            self._totals.nodes_reclaimed += report.nodes_reclaimed
        return report

    def run_once(self) -> GcReport:
        """Collect every blob of the deployment once; returns the aggregate."""
        report = GcReport()
        with self._run_lock:
            for blob_id in self._client.version_manager.blob_ids():
                try:
                    report.merge(self._collect_locked(blob_id))
                except Exception:
                    report.errors += 1
            with self._totals.lock:
                self._totals.runs += 1
        return report

    # ------------------------------------------------------------------- daemon
    def start(self, interval: float) -> "GcDaemon":
        """Start a background daemon sweeping every ``interval`` seconds."""
        if self._daemon is not None and self._daemon.running:
            raise RuntimeError("the GC daemon is already running")
        self._daemon = GcDaemon(self.run_once, interval, name="version-gc")
        self._daemon.start()
        return self._daemon

    def stop(self) -> None:
        """Stop the background daemon (idempotent)."""
        if self._daemon is not None:
            self._daemon.stop()
            self._daemon = None

    @property
    def running(self) -> bool:
        return self._daemon is not None and self._daemon.running

    # --------------------------------------------------------------- monitoring
    def describe(self) -> dict:
        """Space accounting + lifetime counters (reports, control plane)."""
        per_blob: dict[int, dict] = {}
        total_live_pages = 0
        total_live_bytes = 0
        for blob_id in self._client.version_manager.blob_ids():
            try:
                plan = self.plan(blob_id)
            except Exception:
                continue
            per_blob[blob_id] = {
                "live_versions": len(plan.live_versions),
                "dead_versions": len(plan.dead_versions),
                "live_pages": plan.live_pages,
                "live_bytes": plan.live_bytes,
            }
            total_live_pages += plan.live_pages
            total_live_bytes += plan.live_bytes
        with self._totals.lock:
            totals = {
                "runs": self._totals.runs,
                "versions_retired": self._totals.versions_retired,
                "pages_reclaimed": self._totals.pages_reclaimed,
                "bytes_reclaimed": self._totals.bytes_reclaimed,
                "nodes_reclaimed": self._totals.nodes_reclaimed,
            }
        return {
            "policy": self.policy.describe(),
            "pins": self.pins.describe(),
            "running": self.running,
            "live_pages": total_live_pages,
            "live_bytes": total_live_bytes,
            "totals": totals,
            "blobs": per_blob,
        }


class GcDaemon:
    """Periodic driver for a collection callable such as
    :meth:`VersionGC.run_once`, mirroring how
    :class:`~repro.net.liveness.HeartbeatPump` drives heartbeats.
    """

    def __init__(
        self,
        run: Callable[[], object],
        interval: float,
        *,
        name: str = "gc-daemon",
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._run = run
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name=name, daemon=True)
        #: Completed collection cycles (failures count separately).
        self.cycles = 0
        #: Cycles that raised (the daemon keeps going).
        self.failures = 0

    def start(self) -> "GcDaemon":
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._run()
                self.cycles += 1
            except Exception:
                self.failures += 1

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "GcDaemon":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
