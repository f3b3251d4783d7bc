"""Client-side transports: how a stub reaches one peer.

A :class:`Transport` is a channel to exactly one peer (one node process,
or one loopback registry).  It owns the retry policy — transient
transport failures (:class:`~repro.net.errors.RpcTimeoutError`,
:class:`~repro.net.errors.PeerUnavailableError`) are retried with
exponential backoff, while *remote application exceptions* are re-raised
immediately and untouched, so a stub behaves like the local object it
mirrors.

Two implementations exist:

* :class:`LoopbackTransport` (here) — in-process: the request still
  round-trips through the full frame codec and message serialisation
  (same bytes as the wire, so loopback tests exercise the real protocol)
  but is dispatched synchronously.  It is the default everywhere because
  it keeps tier-1 fast and deterministic, and it honours a
  :class:`~repro.net.faults.NetworkFaultPlan` so partial-failure
  scenarios run without sockets.
* :class:`~repro.net.tcp.TcpTransport` — real sockets against an
  :class:`~repro.net.tcp.RpcServer`, for multi-process clusters.
"""

from __future__ import annotations

import itertools
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterator

from .errors import TransportError
from .faults import NetworkFaultPlan
from .framing import DEFAULT_MAX_FRAME, ScatterParser, encode_frame
from .messages import (
    DEFAULT_OOB_THRESHOLD,
    Request,
    Response,
    decode_message,
    encode_message,
)
from .service import ServiceRegistry

__all__ = ["RetryPolicy", "WireConfig", "Transport", "LoopbackTransport"]


@dataclass(frozen=True, slots=True)
class WireConfig:
    """Wire-protocol knobs shared by both transports and the server."""

    #: Bytes payloads at least this large travel out-of-band.
    oob_threshold: int = DEFAULT_OOB_THRESHOLD
    #: Extra seconds a lone queued request may wait for company before
    #: its batch frame is flushed (0 = flush immediately; batching still
    #: coalesces naturally while a previous flush is in flight).
    batch_window: float = 0.0
    #: Ceiling on requests coalesced into one batch frame.
    batch_max_ops: int = 64
    #: Ceiling on a batch frame's summed payload bytes.
    batch_max_bytes: int = 128 * 1024
    #: Only messages encoding below this many bytes are batched.
    batch_threshold: int = 2048
    #: Zlib-compress segments of at least this many bytes (None = never).
    compress_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.oob_threshold < 1:
            raise ValueError("oob_threshold must be positive")
        if self.batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        if self.batch_max_ops < 1 or self.batch_max_bytes < 1:
            raise ValueError("batch limits must be positive")
        if self.batch_threshold < 1:
            raise ValueError("batch_threshold must be positive")
        if self.compress_threshold is not None and self.compress_threshold < 1:
            raise ValueError("compress_threshold must be positive")


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded exponential backoff for transient transport failures."""

    #: Additional attempts after the first (0 = never retry).
    retries: int = 2
    #: Sleep before the first retry, in seconds.
    backoff: float = 0.05
    #: Multiplier applied to the sleep between consecutive retries.
    backoff_factor: float = 2.0
    #: Ceiling on any single sleep.
    max_backoff: float = 1.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff values must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")

    def delays(self) -> Iterator[float]:
        """The sleep before each retry, in order."""
        delay = self.backoff
        for _ in range(self.retries):
            yield min(delay, self.max_backoff)
            delay *= self.backoff_factor

    @classmethod
    def no_retry(cls) -> "RetryPolicy":
        """A policy that fails fast (used by heartbeats: the next beat
        *is* the retry)."""
        return cls(retries=0)


class Transport(ABC):
    """A request/response channel to one named peer."""

    def __init__(
        self,
        *,
        peer: str,
        local: str = "client",
        timeout: float = 5.0,
        retry: RetryPolicy | None = None,
        faults: NetworkFaultPlan | None = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        #: Name of the node this transport reaches (fault-plan address).
        self.peer = peer
        #: Name of the calling endpoint (fault-plan address).
        self.local = local
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self._msg_ids = itertools.count(1)
        self._closed = False
        #: Calls that needed at least one retry (monitoring/tests).
        self.calls_retried = 0

    # -- public API -----------------------------------------------------------------
    def call(
        self,
        service: str,
        method: str,
        *args: Any,
        timeout: float | None = None,
        no_batch: bool = False,
        **kwargs: Any,
    ) -> Any:
        """Invoke ``service.method(*args, **kwargs)`` on the peer.

        Transient transport failures are retried per the policy; remote
        application exceptions are re-raised unchanged and never retried.
        ``no_batch`` exempts this call from small-op coalescing on
        transports that batch (long-poll calls must not delay a batch
        flush, nor wait in one) — it is consumed here, never forwarded.
        """
        timeout = timeout if timeout is not None else self.timeout
        last: TransportError | None = None
        for attempt, delay in enumerate(
            itertools.chain([None], self.retry.delays())
        ):
            if delay is not None:
                self.calls_retried += attempt == 1
                time.sleep(delay)
            try:
                return self._call_once(
                    service, method, args, kwargs, timeout, no_batch=no_batch
                )
            except TransportError as exc:
                last = exc
        assert last is not None
        raise last

    def close(self) -> None:
        """Release the channel's resources (idempotent)."""
        self._closed = True

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- per-implementation ----------------------------------------------------------
    @abstractmethod
    def _call_once(
        self,
        service: str,
        method: str,
        args: tuple,
        kwargs: dict,
        timeout: float,
        *,
        no_batch: bool = False,
    ) -> Any:
        """One request/response exchange; raises
        :class:`TransportError` on delivery failure."""

    # -- shared helpers ---------------------------------------------------------------
    def _check_faults(self, src: str, dst: str, method: str | None) -> None:
        if self.faults is not None:
            self.faults.on_message(src, dst, method=method)

    @staticmethod
    def _unwrap(response: Response) -> Any:
        """Return the response value or re-raise the remote exception."""
        if response.ok:
            return response.value
        error = response.error
        if isinstance(error, BaseException):
            raise error
        raise TransportError(f"malformed error response: {error!r}")


class LoopbackTransport(Transport):
    """In-process transport with full codec fidelity.

    Every call is encoded to wire bytes, re-decoded, dispatched against
    the registry, and the response round-trips the same way — so the
    loopback path and the TCP path disagree only in where the bytes
    travel.  Dispatch is synchronous on the caller's thread, keeping
    tier-1 deterministic.
    """

    def __init__(
        self,
        registry: ServiceRegistry,
        *,
        peer: str = "loopback",
        local: str = "client",
        timeout: float = 5.0,
        retry: RetryPolicy | None = None,
        faults: NetworkFaultPlan | None = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        wire: WireConfig | None = None,
    ) -> None:
        super().__init__(
            peer=peer, local=local, timeout=timeout, retry=retry, faults=faults
        )
        self._registry = registry
        self._max_frame = max_frame
        self._wire = wire if wire is not None else WireConfig()
        self._lock = threading.Lock()
        # One parser for the transport's lifetime (its state is always
        # at a frame boundary between calls); serialized by ``_lock``.
        self._parser = ScatterParser(max_frame=max_frame)
        #: Round-trips served (monitoring/tests).
        self.calls_served = 0

    def _codec_round_trip(self, message: Request | Response):
        """Encode ``message`` to wire bytes and decode them back.

        The same codec path as TCP, minus the socket: out-of-band
        extraction, scatter-gather framing (the parts are joined here —
        that join *is* the simulated wire) and segment-table decode on
        the shared parser.
        """
        head, buffers = encode_message(
            message, oob_threshold=self._wire.oob_threshold
        )
        parts = encode_frame(
            [head, *buffers],
            max_frame=self._max_frame,
            compress_threshold=self._wire.compress_threshold,
        )
        with self._lock:
            (frame,) = self._parser.feed(b"".join(parts))
        return decode_message(frame.segments[0], frame.segments[1:])

    def _call_once(
        self,
        service: str,
        method: str,
        args: tuple,
        kwargs: dict,
        timeout: float,
        *,
        no_batch: bool = False,
    ) -> Any:
        with self._lock:
            msg_id = next(self._msg_ids)
        request = Request(
            msg_id=msg_id, service=service, method=method, args=args, kwargs=kwargs
        )
        # Request direction: encode, apply faults, decode, dispatch.
        self._check_faults(self.local, self.peer, method)
        decoded = self._codec_round_trip(request)
        assert isinstance(decoded, Request)
        response = self._registry.dispatch(decoded)
        # Response direction: encode, apply faults, decode, unwrap.
        self._check_faults(self.peer, self.local, method)
        returned = self._codec_round_trip(response)
        assert isinstance(returned, Response) and returned.msg_id == msg_id
        with self._lock:
            self.calls_served += 1
        return self._unwrap(returned)
