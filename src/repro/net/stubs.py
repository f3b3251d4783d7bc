"""Client stubs: remote nodes behind local duck types.

A stub mirrors the public surface of a storage node
(:class:`~repro.core.provider.DataProvider` or
:class:`~repro.hdfs.datanode.DataNode`) and forwards every call over a
:class:`~repro.net.transport.Transport`.  The replication layer, the
provider manager and the HDFS filesystem only rely on the duck type, so
they operate on stubs unchanged — a remote cluster looks exactly like
the in-process one.

Error mapping is the interesting part:

* Remote *application* exceptions re-raise as themselves (the transport
  carries the pickled object), so ``ProviderUnavailableError`` and
  ``KeyError`` drive the existing replica-failover paths.
* *Transport* failures (peer gone, timeout after retries) convert to
  :class:`~repro.core.errors.ProviderUnavailableError` — from the data
  path's perspective an unreachable node and a crashed node are the
  same event, and both must trigger failover, not an unhandled
  ``NetError``.
* Predicates degrade gracefully: ``available`` is ``False`` and
  ``has_page`` / ``has_block`` answer ``False`` when the node cannot be
  reached — callers probing for replicas treat silence as absence.

Identity fields (``provider_id``, ``host``, ``rack``) are fetched once
at connect time: they are immutable on the node, and the allocation
strategies read them in tight loops.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.errors import ProviderUnavailableError
from ..core.pages import PageKey
from ..core.provider import ProviderStats
from ..hdfs.datanode import DataNodeStats
from .errors import NetError
from .transport import Transport

__all__ = [
    "RemoteDataProvider",
    "RemoteDataNode",
    "RemoteMetadataProvider",
    "RemoteJobService",
]

#: Service names a node process exposes its storage object under.
PROVIDER_SERVICE = "provider"
DATANODE_SERVICE = "datanode"
METADATA_SERVICE = "metadata"
JOBSERVICE_SERVICE = "jobservice"


class _Stub:
    """Shared forwarding machinery for both stub kinds."""

    def __init__(self, transport: Transport, service: str) -> None:
        self._transport = transport
        self._service = service

    def _call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        try:
            return self._transport.call(self._service, method, *args, **kwargs)
        except NetError as exc:
            raise ProviderUnavailableError(
                f"{self._transport.peer} unreachable: {exc!r}"
            ) from exc

    def _probe(self, method: str, *args: Any) -> Any:
        """A call whose failure means "no" rather than an error."""
        try:
            return self._transport.call(self._service, method, *args)
        except NetError:
            return None

    def close(self) -> None:
        """Close the underlying transport (the remote node keeps running)."""
        self._transport.close()

    @property
    def transport(self) -> Transport:
        """The channel this stub talks through (tests and fault plans)."""
        return self._transport


class RemoteDataProvider(_Stub):
    """A :class:`~repro.core.provider.DataProvider` living in another process."""

    def __init__(
        self,
        transport: Transport,
        *,
        provider_id: int,
        host: str,
        rack: str,
        service: str = PROVIDER_SERVICE,
    ) -> None:
        super().__init__(transport, service)
        self.provider_id = provider_id
        self.host = host
        self.rack = rack

    @classmethod
    def connect(
        cls, transport: Transport, *, service: str = PROVIDER_SERVICE
    ) -> "RemoteDataProvider":
        """Build a stub by fetching the node's identity over the wire."""
        return cls(
            transport,
            provider_id=transport.call(service, "provider_id"),
            host=transport.call(service, "host"),
            rack=transport.call(service, "rack"),
            service=service,
        )

    # -- availability -------------------------------------------------------------
    @property
    def available(self) -> bool:
        value = self._probe("available")
        return bool(value)

    def fail(self) -> None:
        self._call("fail")

    def recover(self) -> None:
        self._call("recover")

    # -- page operations ----------------------------------------------------------
    def put_page(self, key: PageKey, data: bytes) -> None:
        self._call("put_page", key, data)

    def get_page(self, key: PageKey) -> bytes:
        return self._call("get_page", key)

    # One plain RPC per bulk call: the pages travel as out-of-band frame
    # segments in both directions, never through the pickle stream.
    def put_pages(self, items: Sequence[tuple[PageKey, bytes]]) -> ProviderStats:
        return self._call("put_pages", list(items))

    def get_pages(self, keys: Sequence[PageKey]) -> list[bytes]:
        return self._call("get_pages", list(keys))

    def has_page(self, key: PageKey) -> bool:
        return bool(self._probe("has_page", key))

    def remove_pages(self, keys: Sequence[PageKey]) -> list[int]:
        return self._call("remove_pages", list(keys))

    def page_keys(self) -> list[PageKey]:
        return self._call("page_keys")

    def pages_for_blob(self, blob_id: int) -> list[PageKey]:
        return self._call("pages_for_blob", blob_id)

    # -- statistics ---------------------------------------------------------------
    def stats(self) -> ProviderStats:
        return self._call("stats")

    def sync(self) -> None:
        self._call("sync")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteDataProvider(id={self.provider_id}, host={self.host!r}, "
            f"peer={self._transport.peer!r})"
        )


class RemoteMetadataProvider(_Stub):
    """A :class:`~repro.core.dht.MetadataProvider` in another process.

    Mirrors the metadata node's key-value surface closely enough that a
    :class:`~repro.core.dht.MetadataDHT` (and therefore the sharded
    metadata plane built on it) runs over remote nodes unchanged.
    ``stats`` stays a property to match the in-process class, and
    ``len(stub)`` reads the remote entry count through it — the DHT's
    ``distribution()`` relies on ``__len__``, and dunder names are not
    dispatchable over the wire.
    """

    def __init__(
        self,
        transport: Transport,
        *,
        provider_id: int,
        service: str = METADATA_SERVICE,
    ) -> None:
        super().__init__(transport, service)
        self.provider_id = provider_id

    @classmethod
    def connect(
        cls, transport: Transport, *, service: str = METADATA_SERVICE
    ) -> "RemoteMetadataProvider":
        """Build a stub by fetching the node's identity over the wire."""
        return cls(
            transport,
            provider_id=transport.call(service, "provider_id"),
            service=service,
        )

    # -- availability -------------------------------------------------------------
    @property
    def available(self) -> bool:
        return bool(self._probe("available"))

    def fail(self) -> None:
        self._call("fail")

    def recover(self) -> None:
        self._call("recover")

    # -- key-value operations -----------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        self._call("put", key, value)

    def get(self, key: str) -> Any:
        return self._call("get", key)

    def put_many(self, items: Sequence[tuple[str, Any]]) -> None:
        self._call("put_many", list(items))

    def get_many(self, keys: Sequence[str]) -> list[Any]:
        return self._call("get_many", list(keys))

    def contains(self, key: str) -> bool:
        return bool(self._call("contains", key))

    def delete(self, key: str) -> None:
        self._call("delete", key)

    def keys(self) -> list[str]:
        return self._call("keys")

    def __len__(self) -> int:
        return int(self.stats["entries"])

    # -- statistics ---------------------------------------------------------------
    @property
    def stats(self) -> dict[str, int]:
        return self._call("stats")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteMetadataProvider(id={self.provider_id}, "
            f"peer={self._transport.peer!r})"
        )


class RemoteJobService(_Stub):
    """A :class:`~repro.mapreduce.service.JobServiceEndpoint` in another process.

    The submission plane of the multi-tenant job service over the wire:
    ids in, states and result summaries out.  Application exceptions
    (:class:`~repro.mapreduce.service.AdmissionError`, quota errors raised
    at submit time) re-raise as themselves through the transport's pickled
    error path; an unreachable service surfaces as
    :class:`~repro.core.errors.ProviderUnavailableError`, like every other
    dead node.
    """

    def __init__(
        self, transport: Transport, *, service: str = JOBSERVICE_SERVICE
    ) -> None:
        super().__init__(transport, service)

    @classmethod
    def connect(
        cls, transport: Transport, *, service: str = JOBSERVICE_SERVICE
    ) -> "RemoteJobService":
        """Build a stub (the job service carries no per-node identity)."""
        return cls(transport, service=service)

    # -- submission plane ---------------------------------------------------------
    def submit_job(
        self, job: Any, tenant: str | None = None, priority: int | None = None
    ) -> int:
        return self._call("submit_job", job, tenant, priority)

    def job_status(self, job_id: int) -> str:
        return self._call("job_status", job_id)

    def wait_job(self, job_id: int, timeout: float | None = None) -> dict:
        # Long poll: must never wait in (or hold up) a batch flush on a
        # transport that coalesces small ops (no_batch is consumed by
        # Transport.call, never forwarded to the remote method).
        return self._call("wait_job", job_id, timeout, no_batch=True)

    def cancel_job(self, job_id: int) -> bool:
        return bool(self._call("cancel_job", job_id))

    def job_ids(self) -> list[int]:
        return self._call("job_ids")

    def service_stats(self) -> dict:
        return self._call("service_stats")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteJobService(peer={self._transport.peer!r})"


class RemoteDataNode(_Stub):
    """An HDFS :class:`~repro.hdfs.datanode.DataNode` in another process."""

    def __init__(
        self,
        transport: Transport,
        *,
        node_id: int,
        host: str,
        rack: str,
        service: str = DATANODE_SERVICE,
    ) -> None:
        super().__init__(transport, service)
        self.node_id = node_id
        self.host = host
        self.rack = rack

    @classmethod
    def connect(
        cls, transport: Transport, *, service: str = DATANODE_SERVICE
    ) -> "RemoteDataNode":
        """Build a stub by fetching the node's identity over the wire."""
        return cls(
            transport,
            node_id=transport.call(service, "node_id"),
            host=transport.call(service, "host"),
            rack=transport.call(service, "rack"),
            service=service,
        )

    # -- availability -------------------------------------------------------------
    @property
    def available(self) -> bool:
        return bool(self._probe("available"))

    def fail(self) -> None:
        self._call("fail")

    def recover(self) -> None:
        self._call("recover")

    # -- block I/O ----------------------------------------------------------------
    def write_block(self, block_id: int, data: bytes) -> None:
        self._call("write_block", block_id, data)

    def read_block(
        self, block_id: int, offset: int = 0, length: int | None = None
    ) -> bytes:
        return self._call("read_block", block_id, offset, length)

    def has_block(self, block_id: int) -> bool:
        return bool(self._probe("has_block", block_id))

    def delete_block(self, block_id: int) -> None:
        self._call("delete_block", block_id)

    def block_ids(self) -> list[int]:
        return self._call("block_ids")

    # -- statistics ---------------------------------------------------------------
    def stats(self) -> DataNodeStats:
        return self._call("stats")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteDataNode(id={self.node_id}, host={self.host!r}, "
            f"peer={self._transport.peer!r})"
        )
