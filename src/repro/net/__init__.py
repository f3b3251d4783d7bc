"""repro.net: the service layer — RPC, heartbeats, failure detection.

The functional layer's nodes (data providers, HDFS datanodes) are plain
objects; this package puts them behind a message protocol so a
deployment can span processes without changing any caller:

* :mod:`~repro.net.framing` / :mod:`~repro.net.messages` — the wire
  format: pickled request/response messages with correlation ids in
  scatter-gather frames whose segment table lets bulk payloads travel
  out-of-band, small ops coalesce into batch frames, and fat segments
  compress above a threshold.
* :mod:`~repro.net.transport` / :mod:`~repro.net.tcp` — client channels:
  an in-process loopback (full codec fidelity, deterministic) and a real
  TCP transport with connection pooling and multiplexing, both with
  retry/backoff for transient failures.
* :mod:`~repro.net.service` — the server side: named services and
  dispatch.
* :mod:`~repro.net.stubs` — duck-typed remote providers/datanodes the
  replication and filesystem layers use unchanged.
* :mod:`~repro.net.liveness` — heartbeats, the liveness registry and the
  missed-heartbeat failure detector.
* :mod:`~repro.net.cluster` — node harness, control service and the
  recovery coordinator that re-replicates a dead node's data.
* :mod:`~repro.net.faults` — wire-level fault injection (kill, drop,
  delay, partition) for chaos tests on the loopback path.
"""

from .cluster import (
    CONTROL_SERVICE,
    ClusterConfig,
    ControlService,
    NodeServer,
    RecoveryCoordinator,
    connect_datanode,
    connect_jobservice,
    connect_metadata,
    connect_provider,
    loopback_datanode_stub,
    loopback_jobservice_stub,
    loopback_metadata_stub,
    loopback_provider_stub,
)
from .errors import (
    FrameError,
    FrameTooLargeError,
    MessageDecodeError,
    NetError,
    PeerUnavailableError,
    RemoteCallError,
    RpcTimeoutError,
    TransportError,
    TruncatedFrameError,
    UnknownServiceError,
)
from .faults import NetworkFaultPlan
from .framing import (
    DEFAULT_MAX_FRAME,
    FLAG_BATCH,
    Frame,
    ScatterParser,
    encode_frame,
)
from .liveness import HeartbeatPump, LivenessMonitor, LivenessRegistry
from .messages import Request, Response, decode_message, encode_message
from .service import ServiceRegistry
from .stubs import (
    RemoteDataNode,
    RemoteDataProvider,
    RemoteJobService,
    RemoteMetadataProvider,
)
from .tcp import RpcServer, TcpTransport
from .transport import LoopbackTransport, RetryPolicy, Transport, WireConfig

__all__ = [
    # errors
    "NetError",
    "FrameError",
    "FrameTooLargeError",
    "TruncatedFrameError",
    "MessageDecodeError",
    "TransportError",
    "RpcTimeoutError",
    "PeerUnavailableError",
    "RemoteCallError",
    "UnknownServiceError",
    # wire format
    "encode_frame",
    "ScatterParser",
    "Frame",
    "FLAG_BATCH",
    "DEFAULT_MAX_FRAME",
    "Request",
    "Response",
    "encode_message",
    "decode_message",
    # transports and services
    "Transport",
    "LoopbackTransport",
    "TcpTransport",
    "WireConfig",
    "RetryPolicy",
    "ServiceRegistry",
    "RpcServer",
    # stubs
    "RemoteDataProvider",
    "RemoteDataNode",
    "RemoteMetadataProvider",
    "RemoteJobService",
    # liveness
    "LivenessRegistry",
    "LivenessMonitor",
    "HeartbeatPump",
    # cluster
    "CONTROL_SERVICE",
    "ClusterConfig",
    "ControlService",
    "NodeServer",
    "RecoveryCoordinator",
    "loopback_provider_stub",
    "loopback_datanode_stub",
    "loopback_metadata_stub",
    "loopback_jobservice_stub",
    "connect_provider",
    "connect_datanode",
    "connect_metadata",
    "connect_jobservice",
    # faults
    "NetworkFaultPlan",
]
