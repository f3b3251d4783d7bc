"""Wire records round-trip as ``(cls, fields)`` tuples.

Every record that crosses the wire often is a
:func:`~repro.core.records.wire_record`: it pickles as its class and a
tuple of its fields and is rebuilt through ``__init__``.  These tests pin
that down per record: it comes back equal and hash-equal through the
codec and over the loopback transport, ``MISSING`` keeps its identity in
a metadata reply, an error response re-raises its exception, and a
decoded page descriptor is validated like a constructed one.
"""

from __future__ import annotations

import pytest

from repro.core.dht import MISSING, MetadataProvider
from repro.core.errors import ProviderUnavailableError
from repro.core.metadata import NodeKey, TreeNode
from repro.core.pages import PageDescriptor, PageKey
from repro.core.provider import ProviderStats
from repro.net import MessageDecodeError, ServiceRegistry
from repro.net.messages import Request, Response, decode_message, encode_message
from repro.net.stubs import METADATA_SERVICE, RemoteMetadataProvider
from repro.net.transport import LoopbackTransport

PAGE = 64 * 1024
LEAF_KEY = NodeKey(3, 9, 5, 6)
#: A page four appends filled: four extents, oldest first.
EXTENTS = tuple(
    PageDescriptor(PageKey(3, version, 5), (version % 3,), PAGE // 4, offset)
    for version, offset in zip(range(6, 10), range(0, PAGE, PAGE // 4))
)
LEAF = TreeNode(LEAF_KEY, extents=EXTENTS)
INTERIOR = TreeNode(NodeKey(3, 9, 4, 8), left=NodeKey(3, 2, 4, 6), right=None)

RECORDS = {
    "node-key": LEAF_KEY,
    "interior-node": INTERIOR,
    "four-extent-leaf": LEAF,
    "page-key": PageKey(3, 9, 5),
    "page-descriptor": PageDescriptor(PageKey(3, 9, 5), (0, 2), 4096, 512),
    "provider-stats": ProviderStats(1, 10, 2560, 12, 7, 3072, 1792, True),
}
HASHABLE = pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS.keys())


def round_trip(message):
    head, buffers = encode_message(message)
    return decode_message(head, buffers)


class EchoService:
    def echo(self, value):
        return value


@pytest.fixture
def echo():
    registry = ServiceRegistry()
    registry.register("echo", EchoService())
    transport = LoopbackTransport(registry)
    yield lambda value: transport.call("echo", "echo", value)
    transport.close()


@HASHABLE
def test_record_survives_the_codec_equal_and_hash_equal(record):
    for message in (
        Request(1, "s", "m", (record,), {"again": [record]}),
        Response(1, True, [record, (record,)]),
    ):
        decoded = round_trip(message)
        assert decoded == message
        sent = message.args[0] if isinstance(message, Request) else message.value[0]
        got = decoded.args[0] if isinstance(decoded, Request) else decoded.value[0]
        assert type(got) is type(sent)
        assert hash(got) == hash(sent)


@HASHABLE
def test_record_survives_the_loopback_transport(echo, record):
    got = echo(record)
    assert got == record and hash(got) == hash(record)
    assert got is not record  # it really went through the codec


def test_put_many_shaped_path_round_trips(echo):
    path = [(node.key.dht_key(), node) for node in (INTERIOR, LEAF)]
    assert echo(path) == path


def test_missing_keeps_its_identity_in_a_get_many_reply():
    registry = ServiceRegistry()
    registry.register(METADATA_SERVICE, MetadataProvider(0))
    stub = RemoteMetadataProvider.connect(LoopbackTransport(registry, peer="meta-0"))
    stub.put_many([(LEAF_KEY.dht_key(), LEAF)])
    found = stub.get_many([LEAF_KEY.dht_key(), "meta:absent"])
    assert found[0] == LEAF and found[0].extents == EXTENTS
    assert found[1] is MISSING


class FailingService:
    def fail(self):
        raise ProviderUnavailableError("provider-2")


def test_error_response_round_trips_and_reraises():
    response = Response(8, False, error=ProviderUnavailableError("provider-2"))
    decoded = round_trip(response)
    assert (decoded.msg_id, decoded.ok, decoded.value) == (8, False, None)
    assert type(decoded.error) is ProviderUnavailableError
    assert decoded.error.provider_id == "provider-2"
    registry = ServiceRegistry()
    registry.register("failing", FailingService())
    with pytest.raises(ProviderUnavailableError) as caught:
        LoopbackTransport(registry).call("failing", "fail")
    assert caught.value.provider_id == "provider-2"


def test_decoded_page_descriptor_is_validated():
    class Forged:
        """Pickles as a page descriptor with a negative size."""

        def __reduce__(self):
            return (PageDescriptor, (PageKey(3, 9, 5), (0,), -1, 0))

    head, buffers = encode_message(Response(2, True, [Forged()]))
    with pytest.raises(MessageDecodeError) as caught:
        decode_message(head, buffers)
    assert isinstance(caught.value.__cause__, ValueError)
