"""Outside-in tracing: span wrappers around the public layer boundaries.

Nothing in ``src/`` knows about this module.  :meth:`Tracer.install`
replaces public callables of each layer (``Transport.call``,
``MetadataManager.lookup``, ``RemoteDataProvider.get_page``, ...) with
wrappers that record a span — name, start, end, the span that caused it
and the client operation it belongs to — and counts at the same
boundaries.  Spans stay in per-thread lists until the run ends.

Self time is a span's duration minus what its child spans on the same
thread cover, so the self times below one root add up to that root's
duration exactly.  Roots decide who pays: the spans under a client
thread's round (or under a map/reduce task, the engine's client threads)
form the *client* breakdown; roots on transfer-pool threads and RPC
reader threads are *background* busy time reported beside it.  A span
started on a pool thread on behalf of ``TransferEngine.map``/``submit``
keeps the id of the span that submitted it as its parent.

Per-record callables (the user's map function, the merge iterator) are
too hot for a span each: :meth:`Tracer.sampled` times every n-th call and
scales that call's *self* time by n; spans nested in a sampled call keep
their true weight.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

_now = time.perf_counter

#: Span-name prefix -> layer (this repo's module names).
LAYERS = {
    "client": "client",
    "op": "client",
    "net": "net",
    "meta": "core.metadata",
    "vm": "core.version_manager",
    "xfer": "core.transfer",
    "core": "core.client",
    "bsfs": "bsfs",
    "ns": "fs.namespace",
    "hdfs": "hdfs",
    "mr": "mapreduce",
    "shuffle": "mapreduce.shuffle_service",
}

#: Roots whose subtree is client-thread time (everything else is background).
CLIENT_ROOTS = frozenset(
    {"client.round", "mr.map_task", "mr.reduce_task", "shuffle.merged_pairs"}
)

#: Every how-many-th call of a per-record callable is timed.
SAMPLE_EVERY = 16


def layer_of(name: str) -> str:
    return LAYERS[name.partition(".")[0]]


class _ThreadState:
    __slots__ = ("base", "next_id", "stack", "records", "counters", "inherit", "ticks")

    def __init__(self, index: int) -> None:
        self.base = index << 32
        self.next_id = 0
        #: Open frames: [span_id, name, parent_id, op_id, start, child_time].
        self.stack: list[list] = []
        #: Finished spans:
        #: (id, parent, op, name, root_name, start, end, total, self).
        self.records: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: (parent span id, op id) handed over by the submitting thread.
        self.inherit = (0, 0)
        self.ticks = 0


class _IterProxy:
    """An iterator whose ``next()`` goes through a traced callable."""

    __slots__ = ("_advance", "_close")

    def __init__(self, advance: Callable, close: Callable | None) -> None:
        self._advance = advance
        self._close = close

    def __iter__(self) -> "_IterProxy":
        return self

    def __next__(self) -> Any:
        return self._advance()

    def close(self) -> None:
        if self._close is not None:
            self._close()


class Tracer:
    """Span recorder plus the monkeypatches that feed it."""

    def __init__(self) -> None:
        #: Wrappers pass straight through while False (warm-up, loading,
        #: verification), so records cover the timed sections only.
        self.enabled = False
        self.installed = False
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any, bool]] = []

    # -- recording --------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._threads) + 1)
                self._threads.append(state)
            self._local.state = state
            return state

    def enter(self, name: str) -> tuple[_ThreadState, list]:
        state = self._state()
        stack = state.stack
        state.next_id += 1
        span_id = state.base + state.next_id
        if stack:
            parent = stack[-1]
            parent_id, op_id = parent[0], parent[3]
        else:
            parent_id, op_id = state.inherit
        if name[:3] == "op.":
            op_id = span_id
        frame = [span_id, name, parent_id, op_id, _now(), 0.0]
        stack.append(frame)
        return state, frame

    def exit(self, state: _ThreadState, frame: list, weight: int = 1) -> None:
        end = _now()
        stack = state.stack
        stack.pop()
        total = end - frame[4]
        self_time = total - frame[5]
        if weight != 1:
            self_time *= weight
            total = frame[5] + self_time
        if stack:
            stack[-1][5] += total
            root = stack[0][1]
        else:
            root = frame[1]
        state.records.append(
            (frame[0], frame[2], frame[3], frame[1], root, frame[4], end, total, self_time)
        )

    class _Span:
        __slots__ = ("tracer", "name", "token")

        def __init__(self, tracer: "Tracer", name: str) -> None:
            self.tracer, self.name, self.token = tracer, name, None

        def __enter__(self) -> None:
            if self.tracer.enabled:
                self.token = self.tracer.enter(self.name)

        def __exit__(self, *exc_info: object) -> None:
            if self.token is not None:
                self.tracer.exit(*self.token)

    def span(self, name: str) -> "Tracer._Span":
        """Context manager recording one span (free while disabled)."""
        return Tracer._Span(self, name)

    # -- wrappers ---------------------------------------------------------------------
    def traced(
        self,
        fn: Callable,
        name: str,
        after: Callable[[_ThreadState, tuple, Any], None] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``after(state, args, result)`` counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            state, frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(state, args, result)
                return result
            finally:
                self.exit(state, frame)

        return wrapper

    def counted(self, fn: Callable, after: Callable[[_ThreadState, tuple, Any], None]) -> Callable:
        """``fn`` with a count hook and no span (for calls too cheap to time)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled:
                after(self._state(), args, result)
            return result

        return wrapper

    def sampled(self, fn: Callable, name: str, every: int = SAMPLE_EVERY) -> Callable:
        """``fn`` timed on every ``every``-th call, self time scaled to match."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            state = self._state()
            state.ticks += 1
            if state.ticks % every:
                return fn(*args, **kwargs)
            _, frame = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(state, frame, every)

        return wrapper

    def sampled_unless(
        self, fn: Callable, name: str, big: Callable[[tuple], bool]
    ) -> Callable:
        """Span per call when ``big(args)``, sampled otherwise.

        Stream writes come as a few 4 MiB calls from the storage workloads
        and as one call per output line from the job output formats.
        """
        always = self.traced(fn, name)
        sometimes = self.sampled(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return (always if big(args) else sometimes)(*args, **kwargs)

        return wrapper

    def traced_iter(self, iterator: Iterator, name: str, every: int = 1) -> Iterator:
        """``iterator`` with each ``next()`` under a (possibly sampled) span."""
        if every == 1:
            advance = self.traced(iterator.__next__, name)
        else:
            advance = self.sampled(iterator.__next__, name, every)
        return _IterProxy(advance, getattr(iterator, "close", None))

    def _carrying(self, fn: Callable, link: tuple[int, int]) -> Callable:
        """``fn`` that, on a pool thread, parents its spans to ``link``."""
        def carried(*args, **kwargs):
            state = self._state()
            if state.stack:  # the submitting thread draining its own queue
                return fn(*args, **kwargs)
            state.inherit = link
            try:
                return fn(*args, **kwargs)
            finally:
                state.inherit = (0, 0)

        return carried

    # -- monkeypatching ---------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        inherited = attr not in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original, inherited))

    def _span(self, owner: Any, attr: str, name: str, after=None) -> None:
        self._patch(owner, attr, lambda fn: self.traced(fn, name, after))

    def install(self) -> None:
        """Wrap the public callables of every layer (idempotent)."""
        if self.installed:
            return
        self.installed = True
        from repro.bsfs import BSFS
        from repro.bsfs.cache import VersionedBlockCache
        from repro.bsfs.file import BSFSInputStream, BSFSOutputStream
        from repro.bsfs.namespace import NamespaceManager
        from repro.core.client import BlobSeer
        from repro.core.dht import MetadataDHT
        from repro.core.metadata import MetadataManager
        from repro.core.transfer import TransferEngine
        from repro.core.version_manager import VersionManager
        from repro.hdfs.filesystem import HDFS, HDFSInputStream, HDFSOutputStream
        from repro.hdfs.namenode import NameNode
        from repro.mapreduce.scheduler import LocalityAwareScheduler
        from repro.mapreduce.service import JobService
        from repro.mapreduce.shuffle_service import ShuffleService
        from repro.mapreduce.tasktracker import TaskTracker
        from repro.net import tcp
        from repro.net.stubs import RemoteDataNode, RemoteDataProvider
        from repro.net.transport import Transport

        span = self._span

        # net: one span per RPC on the calling thread; codec spans nest in
        # it (encode) or are roots on the connection's reader thread (decode).
        span(Transport, "call", "net.call")

        def sent(state, _args, parts) -> None:
            state.counters["net.frames_sent"] += 1
            if isinstance(parts, (bytes, bytearray)):
                state.counters["net.wire_bytes"] += len(parts)
            else:
                state.counters["net.wire_bytes"] += sum(
                    memoryview(part).nbytes for part in parts
                )

        def received(state, _args, frame) -> None:
            if frame is not None:
                state.counters["net.wire_bytes"] += sum(map(len, frame.segments))

        span(tcp, "encode_message", "net.encode")
        span(tcp, "encode_message_v2", "net.encode")
        span(tcp, "encode_frame", "net.encode", sent)
        span(tcp, "encode_frame_v2", "net.encode", sent)
        span(tcp, "decode_message", "net.decode")
        span(tcp, "decode_message_v2", "net.decode")
        # recv_frame blocks on the socket: counted, never timed.
        self._patch(tcp, "recv_frame", lambda fn: self.counted(fn, received))

        # core.metadata
        span(MetadataManager, "lookup", "meta.lookup")
        span(MetadataManager, "build_version", "meta.build")
        span(MetadataDHT, "get", "meta.dht_get")
        span(MetadataDHT, "put", "meta.dht_put")

        # core.version_manager
        span(VersionManager, "assign_ticket", "vm.assign")
        span(VersionManager, "publish", "vm.publish")
        span(VersionManager, "wait_for_publication", "vm.wait")

        # core.transfer + provider stubs
        def put_bytes(state, args, _result) -> None:
            state.counters["xfer.bytes"] += len(args[2])

        def get_bytes(state, _args, data) -> None:
            state.counters["xfer.bytes"] += len(data)

        span(RemoteDataProvider, "put_page", "xfer.put_page", put_bytes)
        span(RemoteDataProvider, "get_page", "xfer.get_page", get_bytes)

        def make_map(original):
            @functools.wraps(original)
            def map_(engine, fn, items, **kwargs):
                if not self.enabled:
                    return original(engine, fn, items, **kwargs)
                state, frame = self.enter("xfer.map")
                try:
                    carried = self._carrying(fn, (frame[0], frame[3]))
                    return original(engine, carried, items, **kwargs)
                finally:
                    self.exit(state, frame)

            return map_

        def make_submit(original):
            @functools.wraps(original)
            def submit(engine, fn, *args, **kwargs):
                if self.enabled:
                    stack = self._state().stack
                    if stack:
                        fn = self._carrying(fn, (stack[-1][0], stack[-1][3]))
                return original(engine, fn, *args, **kwargs)

            return submit

        self._patch(TransferEngine, "map", make_map)
        self._patch(TransferEngine, "submit", make_submit)

        # core.client: the facade the file systems call
        span(BlobSeer, "read", "core.read")
        span(BlobSeer, "append", "core.append")
        span(BlobSeer, "write", "core.write")
        span(BlobSeer, "open_read", "core.open_read")
        span(BlobSeer, "create_blob", "core.create_blob")

        # bsfs: block cache, streams, file-system facade
        def cache_outcome(state, _args, block) -> None:
            state.counters["bsfs.cache_hits" if block is not None else "bsfs.cache_misses"] += 1

        self._patch(
            VersionedBlockCache, "get", lambda fn: self.counted(fn, cache_outcome)
        )
        for stream, prefix in ((BSFSInputStream, "bsfs"), (HDFSInputStream, "hdfs")):
            span(stream, "read", f"{prefix}.stream_read")
            span(stream, "pread", f"{prefix}.stream_read")
        for stream, prefix in ((BSFSOutputStream, "bsfs"), (HDFSOutputStream, "hdfs")):
            self._patch(
                stream,
                "write",
                lambda fn, name=f"{prefix}.stream_write": self.sampled_unless(
                    fn, name, lambda args: len(args[1]) >= 64 * 1024
                ),
            )
            span(stream, "close", f"{prefix}.stream_close")
        for facade, prefix in ((BSFS, "bsfs"), (HDFS, "hdfs")):
            for method in ("create", "open", "status", "exists", "delete", "list_dir"):
                span(facade, method, f"{prefix}.{method}")
        span(BSFS, "concurrent_append", "bsfs.concurrent_append")

        def make_open_read(original, name):
            @functools.wraps(original)
            def open_read(*args, **kwargs):
                if not self.enabled:
                    return original(*args, **kwargs)
                state, frame = self.enter(name)
                try:
                    chunks = original(*args, **kwargs)
                finally:
                    self.exit(state, frame)
                return self.traced_iter(chunks, f"{name}.next")

            return open_read

        self._patch(BSFS, "open_read", lambda fn: make_open_read(fn, "bsfs.open_read"))
        self._patch(HDFS, "open_read", lambda fn: make_open_read(fn, "hdfs.open_read"))

        # fs namespace (BSFS side; the HDFS namespace is the namenode)
        for method in ("register_file", "record", "update_size_monotonic", "status_of"):
            span(NamespaceManager, method, f"ns.{method}")

        # hdfs: namenode and block RPC stubs
        for method in (
            "create_file", "add_block", "commit_block", "complete_file",
            "file_blocks", "status", "delete",
        ):
            span(NameNode, method, f"hdfs.nn_{method}")
        span(RemoteDataNode, "write_block", "hdfs.block_write")
        span(RemoteDataNode, "read_block", "hdfs.block_read")

        # mapreduce scheduling and tasks
        span(JobService, "submit", "mr.submit")
        span(LocalityAwareScheduler, "assign", "mr.assign")
        span(TaskTracker, "run_map_task", "mr.map_task")
        span(TaskTracker, "run_reduce_task", "mr.reduce_task")

        # mapreduce.shuffle_service
        def spilled(state, _args, result) -> None:
            state.counters["shuffle.bytes_spilled"] += result[0]

        span(ShuffleService, "spill_map_output", "shuffle.spill", spilled)

        def make_fetch(original):
            @functools.wraps(original)
            def fetch_segments(*args, **kwargs):
                segments = original(*args, **kwargs)
                if not self.enabled:
                    return segments
                return self.traced_iter(segments, "shuffle.fetch")

            return fetch_segments

        def make_merged(original):
            @functools.wraps(original)
            def merged_pairs(*args, **kwargs):
                if not self.enabled:
                    return original(*args, **kwargs)
                state, frame = self.enter("shuffle.merged_pairs")
                try:
                    pairs = original(*args, **kwargs)
                finally:
                    self.exit(state, frame)
                return self.traced_iter(pairs, "shuffle.merge", SAMPLE_EVERY)

            return merged_pairs

        self._patch(ShuffleService, "fetch_segments", make_fetch)
        self._patch(ShuffleService, "merged_pairs", make_merged)

    def uninstall(self) -> None:
        """Restore every patched callable."""
        for owner, attr, original, inherited in reversed(self._patched):
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()
        self.installed = False

    # -- read-out ---------------------------------------------------------------------
    def drain(self) -> tuple[list[tuple], dict[str, float]]:
        """All finished spans and merged counters so far; resets both."""
        records: list[tuple] = []
        counters: dict[str, float] = defaultdict(float)
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            records.extend(state.records)
            state.records = []
            for key, value in state.counters.items():
                counters[key] += value
            state.counters = defaultdict(float)
        return records, dict(counters)


# -- summary ---------------------------------------------------------------------------


def aggregate(records: list[tuple]) -> dict[str, dict[str, dict[str, float]]]:
    """``{"client"|"background": {span name: {count, total_s, self_s}}}``."""
    out: dict[str, dict[str, dict[str, float]]] = {"client": {}, "background": {}}
    for _id, _parent, _op, name, root, _start, _end, total, self_time in records:
        side = out["client" if root in CLIENT_ROOTS else "background"]
        row = side.get(name)
        if row is None:
            row = side[name] = {"count": 0, "total_s": 0.0, "self_s": 0.0}
        row["count"] += 1
        row["total_s"] += total
        row["self_s"] += self_time
    return out
