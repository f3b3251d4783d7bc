"""BlobSeer core: versioning-oriented distributed storage for huge blobs.

This package is the reproduction of the BlobSeer service the paper builds
on: data providers, the load-balancing provider manager, the metadata DHT
with versioned segment trees, the centralized version manager, page
replication and the persistence layer.  The main entry point is
:class:`repro.core.BlobSeer`.
"""

from .client import BlobSeer, PageLocation
from .config import GB, KB, MB, BlobSeerConfig
from .dht import ConsistentHashRing, MetadataDHT, MetadataProvider
from .errors import (
    AlignmentError,
    AllocationError,
    BlobNotFoundError,
    BlobPinnedError,
    BlobSeerError,
    InvalidRangeError,
    MetadataCorruptionError,
    NoProvidersError,
    PageNotFoundError,
    PersistenceError,
    ProviderUnavailableError,
    TicketError,
    VersionNotFoundError,
    VersionNotPublishedError,
    VersionRetiredError,
)
from .metadata import MetadataManager, NodeKey, TreeNode, next_power_of_two
from .pages import (
    PageDescriptor,
    PageKey,
    PageRange,
    page_range_for_bytes,
    split_into_pages,
)
from .persistence import LogStructuredStore, MemoryStore, PageStore
from .provider import DataProvider, ProviderStats
from .provider_manager import (
    AllocationStrategy,
    LoadBalancedStrategy,
    LocalFirstStrategy,
    ProviderManager,
    RandomStrategy,
)
from .replication import ReplicationManager, ScrubReport, read_pages, write_pages
from .transfer import ChunkBuffer, TransferEngine, pipelined
from .version_manager import BlobInfo, VersionInfo, VersionManager, WriteTicket

__all__ = [
    "BlobSeer",
    "BlobSeerConfig",
    "PageLocation",
    # transfer engine
    "TransferEngine",
    "ChunkBuffer",
    "pipelined",
    "KB",
    "MB",
    "GB",
    # pages
    "PageKey",
    "PageDescriptor",
    "PageRange",
    "page_range_for_bytes",
    "split_into_pages",
    # providers
    "DataProvider",
    "ProviderStats",
    "ProviderManager",
    "AllocationStrategy",
    "LoadBalancedStrategy",
    "RandomStrategy",
    "LocalFirstStrategy",
    # metadata
    "MetadataDHT",
    "MetadataProvider",
    "ConsistentHashRing",
    "MetadataManager",
    "NodeKey",
    "TreeNode",
    "next_power_of_two",
    # versions
    "VersionManager",
    "VersionInfo",
    "BlobInfo",
    "WriteTicket",
    # replication & persistence
    "ReplicationManager",
    "ScrubReport",
    "read_pages",
    "write_pages",
    "PageStore",
    "MemoryStore",
    "LogStructuredStore",
    # errors
    "BlobSeerError",
    "BlobNotFoundError",
    "VersionNotFoundError",
    "VersionNotPublishedError",
    "VersionRetiredError",
    "BlobPinnedError",
    "PageNotFoundError",
    "ProviderUnavailableError",
    "NoProvidersError",
    "AllocationError",
    "InvalidRangeError",
    "AlignmentError",
    "MetadataCorruptionError",
    "PersistenceError",
    "TicketError",
]
