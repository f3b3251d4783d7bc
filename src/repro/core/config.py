"""Configuration of a BlobSeer deployment.

The defaults mirror the deployment the paper evaluates on Grid'5000: 64 KiB
pages inside 64 MiB Hadoop-sized blocks, a handful of metadata providers, and
a provider per node.  Every field is overridable, with
:func:`dataclasses.replace` for a modified copy.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    Replica choice has no setting: writers place by the provider manager's
    load view and readers try available replicas first, then the ones the
    client read least (:func:`repro.core.replication.read_pages`).

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
    max_versions_kept:
        If not ``None``, only the newest ``max_versions_kept`` published
        versions are retained by the version garbage collector
        (:mod:`repro.versions`); older ones become reclaimable unless
        pinned.  ``None`` retains every version forever (the seed
        behaviour).
    transfer_workers:
        Worker threads of the deployment's shared transfer engine
        (:mod:`repro.core.transfer`): the number of page/replica transfers
        the client keeps in flight concurrently.  ``1`` degrades every
        byte path to the old sequential behaviour (useful as an ablation
        baseline).
    """

    page_size: int = 64 * KB
    replication: int = 1
    num_providers: int = 16
    num_metadata_providers: int = 4
    max_versions_kept: int | None = None
    transfer_workers: int = 8

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
        if self.transfer_workers < 1:
            raise ValueError("transfer_workers must be at least 1")
        if self.max_versions_kept is not None and self.max_versions_kept < 1:
            raise ValueError("max_versions_kept must be None or >= 1")
