"""Unit tests for the shared transfer engine (:mod:`repro.core.transfer`)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.transfer import (
    ChunkBuffer,
    TransferEngine,
    pipelined,
)


class TestTransferEngineMap:
    def test_results_preserve_item_order(self):
        engine = TransferEngine(4)
        try:
            assert engine.map(lambda x: x * 2, range(50)) == [
                x * 2 for x in range(50)
            ]
        finally:
            engine.close()

    def test_empty_and_single_item(self):
        engine = TransferEngine(4)
        try:
            assert engine.map(lambda x: x, []) == []
            assert engine.map(lambda x: x + 1, [41]) == [42]
        finally:
            engine.close()

    def test_single_worker_runs_inline(self):
        engine = TransferEngine(1)
        main = threading.get_ident()
        threads = engine.map(lambda _x: threading.get_ident(), range(5))
        assert set(threads) == {main}

    def test_actually_concurrent(self):
        engine = TransferEngine(8)
        try:
            barrier = threading.Barrier(4, timeout=5)
            # Four tasks can only pass the barrier if they run concurrently.
            engine.map(lambda _x: barrier.wait(), range(4))
        finally:
            engine.close()

    def test_first_exception_propagates_and_cancels_rest(self):
        engine = TransferEngine(2)
        executed = []
        lock = threading.Lock()

        def work(i: int):
            with lock:
                executed.append(i)
            if i == 0:
                raise ValueError("boom")
            return i

        try:
            with pytest.raises(ValueError, match="boom"):
                engine.map(work, range(200))
            # The error cancels the not-yet-started tail of the queue.
            assert len(executed) < 200
        finally:
            engine.close()

    def test_nested_map_does_not_deadlock(self):
        # A page task fanning out replica writes re-enters the engine from
        # a pool thread; caller participation must keep it live even when
        # the nesting exceeds the worker count.
        engine = TransferEngine(2)

        def outer(i: int):
            return sum(engine.map(lambda j: i * 10 + j, range(3)))

        try:
            results = engine.map(outer, range(8))
            assert results == [sum(i * 10 + j for j in range(3)) for i in range(8)]
        finally:
            engine.close()

    def test_map_usable_after_close(self):
        engine = TransferEngine(3)
        assert engine.map(lambda x: x, [1, 2, 3]) == [1, 2, 3]
        engine.close()
        # The pool restarts lazily: close is a quiesce, not a poison pill.
        assert engine.map(lambda x: -x, [1, 2, 3]) == [-1, -2, -3]
        engine.close()

    def test_accounting(self):
        engine = TransferEngine(2)
        try:
            engine.map(lambda x: x, [1, 2, 3])
            assert engine.tasks_executed == 3
        finally:
            engine.close()

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            TransferEngine(0)


class TestPipelined:
    def test_yields_in_order(self):
        engine = TransferEngine(4)
        try:
            thunks = [lambda i=i: i * i for i in range(20)]
            assert list(pipelined(iter(thunks), engine, depth=3)) == [
                i * i for i in range(20)
            ]
        finally:
            engine.close()

    def test_read_ahead_depth_bounds_inflight(self):
        engine = TransferEngine(8)
        started = []
        lock = threading.Lock()

        def make(i):
            def fetch():
                with lock:
                    started.append(i)
                return i

            return fetch

        try:
            stream = pipelined((make(i) for i in range(100)), engine, depth=2)
            next(stream)
            time.sleep(0.05)
            with lock:
                eager = len(started)
            # Only the consumed item plus the read-ahead window may have run.
            assert eager <= 4
            stream.close()
        finally:
            engine.close()

    def test_abandoned_stream_cancels_pending(self):
        engine = TransferEngine(2)
        try:
            stream = pipelined((lambda i=i: i for i in range(50)), engine, depth=2)
            assert next(stream) == 0
            stream.close()  # must not hang or leak
        finally:
            engine.close()

    def test_fetch_error_propagates(self):
        engine = TransferEngine(2)

        def bad():
            raise RuntimeError("fetch failed")

        try:
            stream = pipelined(iter([lambda: 1, bad]), engine, depth=2)
            assert next(stream) == 1
            with pytest.raises(RuntimeError, match="fetch failed"):
                next(stream)
        finally:
            engine.close()


    def test_fetches_may_map_on_a_saturated_pool(self):
        # The rule pipelined documents: a fetch may fan out through
        # engine.map while every worker is itself running a fetch, because
        # the calling thread drains its own items.
        engine = TransferEngine(2)

        def make(i):
            def part(j):
                time.sleep(0.001)
                return i * 10 + j

            return lambda: sum(engine.map(part, range(5)))

        results: list[int] = []

        def consume():
            results.extend(pipelined((make(i) for i in range(12)), engine, depth=4))

        consumer = threading.Thread(target=consume, daemon=True)
        try:
            consumer.start()
            consumer.join(timeout=30)
            assert not consumer.is_alive()
            assert results == [sum(i * 10 + j for j in range(5)) for i in range(12)]
        finally:
            engine.close()

class TestChunkBuffer:
    def test_append_take_roundtrip(self):
        buffer = ChunkBuffer()
        buffer.append(b"hello ")
        buffer.append(b"world")
        assert len(buffer) == 11
        assert buffer.take(4) == b"hell"
        assert buffer.take(4) == b"o wo"
        assert buffer.take_all() == b"rld"
        assert len(buffer) == 0

    def test_take_spanning_many_chunks(self):
        buffer = ChunkBuffer()
        for i in range(100):
            buffer.append(bytes([i]))
        assert buffer.take(100) == bytes(range(100))

    def test_take_more_than_buffered_raises(self):
        buffer = ChunkBuffer()
        buffer.append(b"abc")
        with pytest.raises(ValueError):
            buffer.take(4)

    def test_empty_appends_ignored(self):
        buffer = ChunkBuffer()
        buffer.append(b"")
        assert len(buffer) == 0
        assert buffer.take(0) == b""

    def test_clear(self):
        buffer = ChunkBuffer()
        buffer.append(b"data")
        buffer.clear()
        assert len(buffer) == 0

    def test_many_small_writes_stay_linear_by_op_count(self):
        # Regression for the O(n²) ``buffer += data`` block-writer pattern:
        # buffering n bytes in many small pieces and draining them in large
        # blocks must move each byte a bounded number of times.  The old
        # bytearray implementation re-copied the whole pending buffer per
        # write (~n²/2 bytes for n one-byte writes); the chunk list copies
        # each byte at most twice (one split remainder + one join).
        buffer = ChunkBuffer()
        writes = 20_000
        block = 4096
        for _ in range(writes):
            buffer.append(b"x")
            if len(buffer) >= block:
                buffer.take(block)
        buffer.take_all()
        total_joined = buffer.bytes_joined
        # Linear bound: every byte is joined once, plus at most one
        # remainder copy per block boundary.
        assert total_joined <= 2 * writes
        assert total_joined >= writes  # every byte was drained exactly once
