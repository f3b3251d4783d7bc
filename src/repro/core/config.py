"""Configuration objects for a BlobSeer deployment.

The defaults mirror the deployment the paper evaluates on Grid'5000: 64 KiB
pages inside 64 MiB Hadoop-sized blocks, a handful of metadata providers, and
a provider per node.  Everything is overridable; the configuration object is
shared by the functional (in-process) deployment and by the cluster
simulator so that both layers take identical policy decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

__all__ = ["KB", "MB", "GB", "BlobSeerConfig"]

#: Binary kilobyte (kibibyte), used throughout the code base for sizes.
KB = 1024
#: Binary megabyte (mebibyte).
MB = 1024 * KB
#: Binary gigabyte (gibibyte).
GB = 1024 * MB


@dataclass(frozen=True)
class BlobSeerConfig:
    """Static configuration of a BlobSeer service instance.

    Parameters
    ----------
    page_size:
        Default size in bytes of a page (BlobSeer's unit of data
        management).  Individual blobs may override it at creation time.
    replication:
        Default number of replicas kept for every page.
    num_providers:
        Number of data providers started by the in-process deployment
        helper (:class:`repro.core.client.BlobSeer`).
    num_metadata_providers:
        Number of metadata providers forming the DHT.
    allocation_strategy:
        Name of the page-to-provider allocation strategy
        (``"load_balanced"``, ``"random"`` or ``"local_first"``).
    virtual_nodes_per_metadata_provider:
        Number of virtual nodes each metadata provider contributes to the
        consistent-hashing ring; more virtual nodes means a smoother key
        distribution.
    max_versions_kept:
        If not ``None``, only the newest ``max_versions_kept`` published
        versions are retained by the version garbage collector
        (:mod:`repro.versions`); older ones become reclaimable unless
        pinned.  ``None`` retains every version forever (the seed
        behaviour).
    version_ttl_seconds:
        If not ``None``, published versions younger than this many seconds
        are always retained regardless of ``max_versions_kept`` (and older
        unpinned ones become reclaimable when ``max_versions_kept`` is
        also unset).
    gc_interval_seconds:
        If not ``None``, the deployment starts a background
        :class:`~repro.versions.VersionGC` daemon sweeping every blob at
        this period.  ``None`` leaves GC to explicit ``run_once`` calls
        (in-process or via the control plane).
    pin_default_ttl_seconds:
        Default lease duration of snapshot pins taken without an explicit
        ``ttl``; ``None`` means pins never expire and must be released.
    read_replica_policy:
        How a reader chooses among page replicas: ``"least_loaded"``,
        ``"random"`` or ``"first"``.
    transfer_workers:
        Worker threads of the deployment's shared transfer engine
        (:mod:`repro.core.transfer`): the number of page/replica transfers
        the client keeps in flight concurrently.  ``1`` degrades every
        byte path to the old sequential behaviour (useful as an ablation
        baseline).
    rng_seed:
        Seed for the deterministic pseudo-random choices made by the
        service (random allocation strategy, replica selection).  Keeping
        this fixed makes experiments reproducible.
    allocation_range_pages:
        Largest contiguous page range the load-balanced allocation
        strategy hands a single provider per allocation call; longer
        writes split into ranges of at most this many pages.  ``1``
        degrades to page-at-a-time allocation.
    """

    page_size: int = 64 * KB
    replication: int = 1
    num_providers: int = 16
    num_metadata_providers: int = 4
    allocation_strategy: str = "load_balanced"
    virtual_nodes_per_metadata_provider: int = 64
    max_versions_kept: int | None = None
    version_ttl_seconds: float | None = None
    gc_interval_seconds: float | None = None
    pin_default_ttl_seconds: float | None = None
    read_replica_policy: str = "least_loaded"
    transfer_workers: int = 8
    rng_seed: int = 0xB10B5EE
    allocation_range_pages: int = 8

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.replication <= 0:
            raise ValueError("replication must be at least 1")
        if self.num_providers <= 0:
            raise ValueError("num_providers must be at least 1")
        if self.num_metadata_providers <= 0:
            raise ValueError("num_metadata_providers must be at least 1")
        if self.replication > self.num_providers:
            raise ValueError(
                "replication cannot exceed the number of data providers "
                f"({self.replication} > {self.num_providers})"
            )
        if self.allocation_strategy not in (
            "load_balanced",
            "random",
            "local_first",
        ):
            raise ValueError(
                f"unknown allocation strategy {self.allocation_strategy!r}"
            )
        if self.read_replica_policy not in ("least_loaded", "random", "first"):
            raise ValueError(
                f"unknown read replica policy {self.read_replica_policy!r}"
            )
        if self.virtual_nodes_per_metadata_provider <= 0:
            raise ValueError("virtual_nodes_per_metadata_provider must be >= 1")
        if self.transfer_workers < 1:
            raise ValueError("transfer_workers must be at least 1")
        if self.max_versions_kept is not None and self.max_versions_kept < 1:
            raise ValueError("max_versions_kept must be None or >= 1")
        if self.version_ttl_seconds is not None and self.version_ttl_seconds < 0:
            raise ValueError("version_ttl_seconds must be None or >= 0")
        if self.gc_interval_seconds is not None and self.gc_interval_seconds <= 0:
            raise ValueError("gc_interval_seconds must be None or positive")
        if (
            self.pin_default_ttl_seconds is not None
            and self.pin_default_ttl_seconds <= 0
        ):
            raise ValueError("pin_default_ttl_seconds must be None or positive")
        if self.allocation_range_pages < 1:
            raise ValueError("allocation_range_pages must be at least 1")

    def with_overrides(self, **overrides: Any) -> "BlobSeerConfig":
        """Return a copy of the configuration with the given fields replaced."""
        return replace(self, **overrides)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "BlobSeerConfig":
        """Build a configuration from a plain mapping, ignoring unknown keys."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in mapping.items() if k in known})

    def describe(self) -> dict[str, Any]:
        """Return a JSON-friendly description of this configuration."""
        return {
            "page_size": self.page_size,
            "replication": self.replication,
            "num_providers": self.num_providers,
            "num_metadata_providers": self.num_metadata_providers,
            "allocation_strategy": self.allocation_strategy,
            "virtual_nodes_per_metadata_provider": (
                self.virtual_nodes_per_metadata_provider
            ),
            "max_versions_kept": self.max_versions_kept,
            "version_ttl_seconds": self.version_ttl_seconds,
            "gc_interval_seconds": self.gc_interval_seconds,
            "pin_default_ttl_seconds": self.pin_default_ttl_seconds,
            "read_replica_policy": self.read_replica_policy,
            "transfer_workers": self.transfer_workers,
            "rng_seed": self.rng_seed,
            "allocation_range_pages": self.allocation_range_pages,
        }
