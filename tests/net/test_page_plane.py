"""Bulk page ops over the wire: one RPC per call, pages out of band.

``get_pages`` / ``put_pages`` / ``remove_pages`` forward as one plain RPC
each; the pages themselves leave the pickle stream as their own frame
segments in both directions.  A provider's share of a transfer is split
into calls of at most ``BULK_CALL_BYTES``, which is what keeps a large
block inside a peer's frame limit.
"""

from __future__ import annotations

import pytest

from repro.core import KB, MB, BlobSeer, BlobSeerConfig, DataProvider
from repro.core import replication
from repro.core.dht import MISSING
from repro.core.errors import ProviderUnavailableError
from repro.core.pages import PageKey
from repro.net import NetworkFaultPlan, RetryPolicy, ServiceRegistry, loopback_provider_stub
from repro.net.messages import Request, Response, encode_message
from repro.net.stubs import PROVIDER_SERVICE, RemoteDataProvider
from repro.net.transport import LoopbackTransport

PAGE = 32 * KB


def frame_limited_stub(provider: DataProvider, max_frame: int) -> RemoteDataProvider:
    registry = ServiceRegistry()
    registry.register(PROVIDER_SERVICE, provider)
    transport = LoopbackTransport(
        registry,
        peer=provider.host,
        max_frame=max_frame,
        retry=RetryPolicy.no_retry(),
    )
    return RemoteDataProvider.connect(transport)


class TestStubBulkOps:
    def test_bulk_round_trip_with_missing_slot(self):
        provider = DataProvider(0)
        stub = loopback_provider_stub(provider, faults=NetworkFaultPlan(sleep=lambda _s: None))
        pages = [bytes([i]) * PAGE for i in range(3)]
        view = memoryview(b"".join(pages))
        before = stub.transport.calls_served
        stub.put_pages([(PageKey(1, 1, i), view[i * PAGE : (i + 1) * PAGE]) for i in range(3)])
        assert stub.transport.calls_served == before + 1
        found = stub.get_pages([PageKey(1, 1, 2), PageKey(7, 7, 7), PageKey(1, 1, 0)])
        assert found[0] == pages[2] and found[2] == pages[0]
        assert found[1] is MISSING  # the sentinel survives the wire by identity
        assert stub.remove_pages([PageKey(1, 1, 1), PageKey(7, 7, 7)]) == [PAGE, 0]
        assert provider.stats().pages_stored == 2

    def test_pages_travel_as_out_of_band_segments(self):
        pages = [bytes([i]) * PAGE for i in range(4)]
        view = memoryview(b"".join(pages))
        request = Request(
            msg_id=1,
            service=PROVIDER_SERVICE,
            method="put_pages",
            args=([(PageKey(1, 1, i), view[i * PAGE : (i + 1) * PAGE]) for i in range(4)],),
        )
        _head, buffers = encode_message(request)
        assert len(buffers) == 4
        _head, buffers = encode_message(Response(msg_id=1, ok=True, value=pages))
        assert len(buffers) == 4

    def test_unsplit_call_over_the_frame_limit_fails(self):
        stub = frame_limited_stub(DataProvider(0), 2 * MB)
        with pytest.raises(ProviderUnavailableError):
            stub.put_pages([(PageKey(1, 1, i), bytes(MB)) for i in range(3)])


class TestBulkCallBytes:
    def test_large_blob_stays_inside_a_small_frame_limit(self, monkeypatch):
        monkeypatch.setattr(replication, "BULK_CALL_BYTES", 1 * MB)
        backends = [DataProvider(i, host=f"node-{i}") for i in range(3)]
        stubs = [frame_limited_stub(p, 2 * MB) for p in backends]
        config = BlobSeerConfig(
            page_size=256 * KB, num_providers=3, num_metadata_providers=1
        )
        bs = BlobSeer(config, providers=stubs)
        # A prime period, so a page served at the wrong offset cannot match.
        payload = (bytes(range(251)) * (12 * MB // 251 + 1))[: 12 * MB]
        blob = bs.create_blob()
        bs.append(blob, payload)  # 4 MiB per provider, in 1 MiB calls
        assert bs.read(blob, 0, len(payload)) == payload
        assert sum(p.stats().bytes_stored for p in backends) == len(payload)
        bs.close()
