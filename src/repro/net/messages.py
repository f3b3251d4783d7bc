"""RPC message types and their serialisation.

Two message kinds flow over the framed stream:

* :class:`Request` — ``(msg_id, service, method, args, kwargs)``.  The
  ``msg_id`` is the *correlation id*: a caller accepts only the reply
  that carries its request's id, so a stream that falls out of step is
  caught instead of handing one caller another's reply.
* :class:`Response` — ``(msg_id, ok, value | error)``.  Application
  errors travel as the pickled exception *object* so the caller re-raises
  the original type (replica failover relies on catching
  ``ProviderUnavailableError`` from a stub exactly like from a local
  provider).  Unpicklable values or exceptions degrade to a
  :class:`~repro.net.errors.RemoteCallError` carrying their repr.

Serialisation is pickle protocol 5 (the spill files of the shuffle
already commit to pickle for on-storage data): a message encodes to a
*head* plus the raw buffers of its bulk payloads, which travel as their
own frame segments.  The framing layer above bounds message size, and
decode failures surface as
:class:`~repro.net.errors.MessageDecodeError` so a garbage frame cannot
crash a server loop.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Sequence

from .errors import MessageDecodeError, RemoteCallError

__all__ = [
    "Request",
    "Response",
    "encode_message",
    "decode_message",
    "DEFAULT_OOB_THRESHOLD",
]

#: Bytes payloads at least this large leave the pickle stream as
#: out-of-band buffers (their own frame segments).
DEFAULT_OOB_THRESHOLD = 16 * 1024


@dataclass(frozen=True, slots=True)
class Request:
    """One method invocation on a named remote service."""

    msg_id: int
    service: str
    method: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class Response:
    """The outcome of one request, correlated by ``msg_id``."""

    msg_id: int
    ok: bool
    value: Any = None
    error: BaseException | None = None


def _exportable(obj: Any, threshold: int, depth: int) -> Any:
    """Wrap bulk bytes-likes in :class:`pickle.PickleBuffer`, recursively.

    Only shallow containers are walked (``depth`` levels of
    tuple/list/dict): the bulk payloads of this codebase — pages,
    blocks, shuffle chunks — all sit in the top couple of levels of a
    message's args/kwargs/value, and an unbounded walk would tax every
    tiny metadata op for the benefit of none.

    memoryviews are *always* wrapped (plain pickle cannot serialise
    them at all); writable ones are snapshotted to bytes first so the
    receiver's reconstruction is immutable and the sender cannot mutate
    a payload mid-send.  Non-contiguous or multi-dimensional views fall
    back to a bytes copy.
    """
    if isinstance(obj, bytes):
        if len(obj) >= threshold:
            return pickle.PickleBuffer(obj)
        return obj
    if isinstance(obj, bytearray):
        if len(obj) >= threshold:
            return pickle.PickleBuffer(bytes(obj))
        return obj
    if isinstance(obj, memoryview):
        if not obj.contiguous or obj.ndim != 1 or obj.readonly is False:
            return (
                pickle.PickleBuffer(obj.tobytes())
                if obj.nbytes >= threshold
                else obj.tobytes()
            )
        view = obj.cast("B") if obj.format != "B" else obj
        return pickle.PickleBuffer(view)
    if depth > 0:
        if type(obj) is tuple:
            return tuple(_exportable(item, threshold, depth - 1) for item in obj)
        if type(obj) is list:
            return [_exportable(item, threshold, depth - 1) for item in obj]
        if type(obj) is dict:
            return {
                key: _exportable(item, threshold, depth - 1)
                for key, item in obj.items()
            }
    return obj


def encode_message(
    message: Request | Response,
    *,
    oob_threshold: int = DEFAULT_OOB_THRESHOLD,
) -> tuple[bytes, list]:
    """Serialise a message: ``(head, bulk_buffers)``.

    ``head`` is a pickle-protocol-5 stream whose bulk payloads (bytes
    of at least ``oob_threshold``, and every memoryview) were lifted
    out-of-band; ``bulk_buffers`` are those payloads' raw buffers, in
    pickling order, ready to travel as their own frame segments.  The
    receiver reassembles with :func:`decode_message` — bulk bytes
    objects are adopted *as-is* (zero-copy) by the unpickler.

    Unpicklable content degrades, never raises: a response whose value
    or error cannot be pickled is replaced by an error response carrying
    the repr — the caller gets a :class:`RemoteCallError` instead of the
    connection dying on a serialisation failure the remote side could
    not anticipate.
    """
    if isinstance(message, Request):
        prepared: Request | Response = Request(
            msg_id=message.msg_id,
            service=message.service,
            method=message.method,
            args=_exportable(message.args, oob_threshold, 3),
            kwargs=_exportable(message.kwargs, oob_threshold, 3),
        )
    else:
        prepared = Response(
            msg_id=message.msg_id,
            ok=message.ok,
            value=_exportable(message.value, oob_threshold, 3),
            error=message.error,
        )
    buffers: list[pickle.PickleBuffer] = []
    try:
        head = pickle.dumps(prepared, protocol=5, buffer_callback=buffers.append)
    except Exception as exc:
        buffers.clear()
        if isinstance(message, Response):
            fallback = Response(
                msg_id=message.msg_id,
                ok=False,
                error=RemoteCallError(
                    f"response not serialisable ({exc!r}); "
                    f"value/error was {message.value!r} / {message.error!r}"
                ),
            )
            return pickle.dumps(fallback, protocol=5), []
        raise MessageDecodeError(f"request not serialisable: {exc!r}") from exc
    return head, [buf.raw() for buf in buffers]


def decode_message(head: bytes, buffers: Sequence = ()) -> Request | Response:
    """Reassemble a message from its head and out-of-band segments.

    ``buffers`` must be the frame's bulk segments in wire order.  When a
    segment is an immutable ``bytes`` object the unpickler adopts it
    directly — the payload the service sees *is* the receive buffer.
    Anything that does not unpickle to a
    :class:`Request` or :class:`Response` raises
    :class:`MessageDecodeError` — garbage frames are a protocol
    violation, handled by dropping the connection.
    """
    try:
        message = pickle.loads(head, buffers=buffers)
    except Exception as exc:
        raise MessageDecodeError(
            f"message head does not unpickle: {exc!r}"
        ) from exc
    if not isinstance(message, (Request, Response)):
        raise MessageDecodeError(
            f"message head decodes to {type(message).__name__}, "
            "not a Request or Response"
        )
    return message
