"""TCP transport: a thread per server connection, a connection per call.

The server (:class:`RpcServer`) is one accept thread plus one thread per
connection.  A connection's thread loops: read one whole frame
(:func:`~repro.net.framing.recv_frame`), decode the request, dispatch it
on the registry, encode the response and write it with one
scatter-gather ``sendmsg`` — no event loop, no executor, no hand-off
between threads.  Requests of one connection are served in order;
concurrency comes from having several connections.  A malformed frame
(bad magic, another version, a segment table that lies, a frame flag, a
message that is not a request) drops only its own connection, with a
FIN: the thread stops writing, reads what the peer had already sent,
then closes.

The client (:class:`TcpTransport`) gives each call a connection of its
own.  A call takes an idle connection from the pool, or dials one, sends
its request, reads its own reply on the calling thread, checks the
reply's ``msg_id`` and hands the connection back.  No caller ever queues
behind another caller's call, so a long poll blocks nobody.  A call that
times out or meets a broken stream closes its connection, so a late
reply can never reach the next caller; the base class's retry policy
decides what happens next.  The pool keeps at most ``pool_size`` idle
connections and closes the rest as they come back.

Peers need no handshake: the frame layout is fixed, and a stream with
another version byte, or with a frame or segment flag set, is a framing
violation.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Any

from .errors import (
    FrameError,
    FrameTooLargeError,
    MessageDecodeError,
    PeerUnavailableError,
    RemoteCallError,
    RpcTimeoutError,
    TransportError,
    TruncatedFrameError,
)
from .faults import NetworkFaultPlan
from .framing import DEFAULT_MAX_FRAME, encode_frame, recv_frame
from .messages import Request, Response, decode_message, encode_message
from .service import ServiceRegistry
from .transport import RetryPolicy, Transport, WireConfig

__all__ = ["RpcServer", "TcpTransport"]

# benchmarks/e2e/tracing.py still binds these names on this module.
encode_message_v2 = encode_message
encode_frame_v2 = encode_frame
decode_message_v2 = decode_message

#: Socket buffer size: holds a whole bulk payload so one send hands the
#: entire scatter list to the kernel without blocking or staging copies.
_SOCK_BUF = 1024 * 1024
#: Most buffers one ``sendmsg`` takes (the kernel's IOV_MAX).
_IOV_MAX = 1024
#: A dropped connection reads at most this many bytes, for at most
#: ``_DRAIN_S`` seconds, before it closes (see :func:`_close_with_fin`).
_DRAIN_LIMIT = 1024 * 1024
_DRAIN_S = 0.5
#: How long :meth:`RpcServer.stop` waits for its threads.  A connection
#: thread still running a handler is not waited for past this; it exits
#: when its reply meets the closed socket.
_STOP_GRACE_S = 1.0


def _tune_socket(sock: socket.socket) -> None:
    """NODELAY for request/response latency, buffers deep enough that a
    whole bulk payload enters the kernel in one scatter-gather send."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, _SOCK_BUF)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _SOCK_BUF)
    except OSError:
        pass  # tuning is best-effort; the defaults still work


def _send_parts(sock: socket.socket, parts: list) -> None:
    """Scatter-gather send: the bulk buffers go to the kernel as-is."""
    views = [view for view in map(memoryview, parts) if view.nbytes]
    while views:
        sent = sock.sendmsg(views[:_IOV_MAX])
        while sent:
            first = views[0]
            if sent >= first.nbytes:
                sent -= first.nbytes
                views.pop(0)
            else:
                views[0] = first[sent:]
                sent = 0


def _close_with_fin(sock: socket.socket) -> None:
    """Close a connection the peer may still be writing to.

    Closing a socket with unread input makes the kernel answer with a
    reset, which can destroy the FIN before the peer reads it.  So stop
    writing first, read what the peer sends until it closes too (bounded
    in bytes and time), then close.
    """
    try:
        sock.shutdown(socket.SHUT_WR)
        sock.settimeout(_DRAIN_S)
        drained = 0
        while drained < _DRAIN_LIMIT:
            data = sock.recv(64 * 1024)
            if not data:
                break
            drained += len(data)
    except OSError:
        pass
    sock.close()


class RpcServer:
    """Threaded TCP server dispatching framed requests to a registry."""

    def __init__(
        self,
        registry: ServiceRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = DEFAULT_MAX_FRAME,
        wire: WireConfig | None = None,
    ) -> None:
        self._registry = registry
        self._host = host
        self._port = port
        self._max_frame = max_frame
        self._wire = wire if wire is not None else WireConfig()
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._lock = threading.Lock()
        self._running = False
        #: Live connections.
        self._connections: set[socket.socket] = set()
        #: Connection threads not yet seen finished: stop() joins them all,
        #: including one that already left ``_connections`` on its way out.
        self._threads: set[threading.Thread] = set()
        #: Requests answered since start (monitoring/tests).
        self.requests_served = 0
        #: Connections dropped for protocol violations (bad frames).
        self.protocol_errors = 0

    # -- lifecycle ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the server is bound to (after :meth:`start`)."""
        if self._listener is None:
            raise RuntimeError("server is not running")
        return self._host, self._port

    def start(self) -> tuple[str, int]:
        """Bind and serve on a background accept thread."""
        if self._acceptor is not None:
            raise RuntimeError("server already started")
        family = socket.AF_INET6 if ":" in self._host else socket.AF_INET
        self._listener = socket.create_server(
            (self._host, self._port), family=family, backlog=128
        )
        self._host, self._port = self._listener.getsockname()[:2]
        self._running = True
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="rpc-accept", daemon=True
        )
        self._acceptor.start()
        return self.address

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # stop() shut the listener down
            _tune_socket(sock)
            thread = threading.Thread(
                target=self._serve, args=(sock,), name="rpc-conn", daemon=True
            )
            with self._lock:
                if not self._running:
                    sock.close()
                    return
                self._connections.add(sock)
                self._threads = {t for t in self._threads if t.is_alive()}
                self._threads.add(thread)
                thread.start()  # under the lock: stop() joins only started threads

    def stop(self) -> None:
        """Stop serving: close the listener and every connection, join
        the threads (idempotent)."""
        with self._lock:
            if not self._running:
                return
            self._running = False
            connections = list(self._connections)
            threads = set(self._threads)
        assert self._listener is not None and self._acceptor is not None
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        except OSError:
            pass
        self._acceptor.join(_STOP_GRACE_S)
        self._listener.close()
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wakes recv()
            except OSError:
                pass
        deadline = time.monotonic() + _STOP_GRACE_S
        for thread in threads:
            if thread is not threading.current_thread():  # stop() as an RPC
                thread.join(max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "RpcServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- serving -----------------------------------------------------------------------
    def _serve(self, sock: socket.socket) -> None:
        """One connection: read, dispatch, answer, in order, until EOF."""
        try:
            while True:
                frame = recv_frame(sock, max_frame=self._max_frame)
                if frame is None:
                    break  # the client closed the connection
                request = decode_message(frame.segments[0], frame.segments[1:])
                if not isinstance(request, Request):
                    raise MessageDecodeError("client sent a non-request message")
                parts = self._encode_response(self._registry.dispatch(request))
                with self._lock:
                    self.requests_served += 1
                _send_parts(sock, parts)
        except TruncatedFrameError:
            pass  # the client went away mid-request
        except FrameError:
            with self._lock:
                self.protocol_errors += 1
            _close_with_fin(sock)
        except OSError:
            pass  # the client went away, or stop() shut the socket
        finally:
            with self._lock:
                self._connections.discard(sock)
            sock.close()

    def _encode_response(self, response: Response) -> list:
        try:
            head, buffers = encode_message(
                response, oob_threshold=self._wire.oob_threshold
            )
            return encode_frame([head, *buffers], max_frame=self._max_frame)
        except (FrameTooLargeError, ValueError) as exc:
            # A response that cannot be framed must not strand the caller
            # until timeout: degrade to an error response it can raise.
            fallback = Response(
                msg_id=response.msg_id,
                ok=False,
                error=RemoteCallError(f"response cannot be framed: {exc}"),
            )
            return self._encode_response(fallback)


def _timeval(seconds: float) -> bytes:
    whole = int(seconds)
    micros = max(int((seconds - whole) * 1e6), 0 if whole else 1)  # 0 = forever
    return struct.pack("@ll", whole, micros)


class _Connection:
    """One dialled socket; it carries one call at a time."""

    __slots__ = ("sock", "_timeout")

    def __init__(self, host: str, port: int, peer: str) -> None:
        try:
            self.sock = socket.create_connection((host, port), timeout=10.0)
        except OSError as exc:
            raise PeerUnavailableError(peer, repr(exc)) from exc
        self.sock.settimeout(None)
        _tune_socket(self.sock)
        self._timeout: float | None = None

    def bound(self, timeout: float) -> None:
        """Make each send and receive give up after ``timeout`` seconds.

        Kernel timeouts rather than Python's keep the socket blocking,
        so ``MSG_WAITALL`` still assembles a bulk segment in one read.
        """
        if timeout != self._timeout:
            value = _timeval(timeout)
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, value)
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, value)
            self._timeout = timeout

    def in_step(self) -> bool:
        """True if the idle connection has nothing to read.

        The server writes only replies, so a readable idle connection
        was closed by its peer (or carries bytes nobody asked for).
        """
        try:
            self.sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
        except BlockingIOError:
            return True
        except OSError:
            pass
        return False

    def close(self) -> None:
        self.sock.close()


class TcpTransport(Transport):
    """Pooled TCP channel to one :class:`RpcServer`, one call per connection."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        peer: str | None = None,
        local: str = "client",
        timeout: float = 5.0,
        retry: RetryPolicy | None = None,
        faults: NetworkFaultPlan | None = None,
        pool_size: int = 2,
        max_frame: int = DEFAULT_MAX_FRAME,
        wire: WireConfig | None = None,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        super().__init__(
            peer=peer if peer is not None else f"{host}:{port}",
            local=local,
            timeout=timeout,
            retry=retry,
            faults=faults,
        )
        self._host = host
        self._port = port
        self._pool_size = pool_size
        self._max_frame = max_frame
        self._wire = wire if wire is not None else WireConfig()
        self._pool_lock = threading.Lock()
        self._idle: list[_Connection] = []
        #: Connections dialled so far (monitoring/tests).
        self.connections_opened = 0

    def _checkout(self) -> _Connection:
        """An idle connection that is still in step, or a new one."""
        while True:
            with self._pool_lock:
                if self._closed:
                    raise PeerUnavailableError(self.peer, "transport closed")
                if not self._idle:
                    break
                connection = self._idle.pop()
            if connection.in_step():
                return connection
            connection.close()
        connection = _Connection(self._host, self._port, self.peer)
        with self._pool_lock:
            self.connections_opened += 1
        return connection

    def _checkin(self, connection: _Connection) -> None:
        with self._pool_lock:
            if not self._closed and len(self._idle) < self._pool_size:
                self._idle.append(connection)
                return
        connection.close()

    def _call_once(
        self,
        service: str,
        method: str,
        args: tuple,
        kwargs: dict,
        timeout: float,
    ) -> Any:
        self._check_faults(self.local, self.peer, method)
        request = Request(
            msg_id=next(self._msg_ids),
            service=service,
            method=method,
            args=args,
            kwargs=kwargs,
        )
        response = self._exchange(request, timeout)
        self._check_faults(self.peer, self.local, method)
        return self._unwrap(response)

    def _exchange(self, request: Request, timeout: float) -> Response:
        """Send one request and read its reply on this thread.

        The encoded frame holds buffer exports of the caller's
        memoryviews, and CPython can crash collecting a memoryview with
        live exports in a reference cycle, such as a traceback and the
        frames it holds.  So a failure is raised only after ``parts`` is
        gone, and never chained to the socket error whose frames held it.
        """
        head, buffers = encode_message(request, oob_threshold=self._wire.oob_threshold)
        parts = encode_frame([head, *buffers], max_frame=self._max_frame)
        del head, buffers
        connection: _Connection | None = None
        failure: TransportError | None = None
        try:
            connection = self._checkout()
            connection.bound(timeout)
            _send_parts(connection.sock, parts)
            del parts
            frame = recv_frame(connection.sock, max_frame=self._max_frame)
            if frame is None:
                raise PeerUnavailableError(self.peer, "connection closed by peer")
            response = decode_message(frame.segments[0], frame.segments[1:])
            if not isinstance(response, Response) or response.msg_id != request.msg_id:
                raise PeerUnavailableError(
                    self.peer, f"reply out of step with msg_id={request.msg_id}"
                )
        except (BlockingIOError, TimeoutError):
            failure = RpcTimeoutError(
                f"call to {self.peer!r} timed out after {timeout:g}s "
                f"(msg_id={request.msg_id})"
            )
        except (OSError, FrameError) as exc:
            failure = PeerUnavailableError(self.peer, repr(exc))
        except TransportError as exc:
            failure = exc
        if failure is not None:
            parts = None
            if connection is not None:
                connection.close()
            raise failure
        assert connection is not None
        self._checkin(connection)
        return response

    def close(self) -> None:
        with self._pool_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()
